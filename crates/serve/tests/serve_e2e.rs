//! End-to-end service tests over a real Unix-domain socket: an
//! in-process daemon, real client connections, and the guarantees the
//! crate docs promise — byte-identity with batch sweeps, exactly-once
//! overlap, cancel/resume, and a graceful drain that rejects new jobs.

use matic_harness::{run_sweep_with_cache, SweepCache};
use matic_serve::job::build_plan;
use matic_serve::{
    client, serve, shard_sweep, Endpoint, Event, JobKind, JobSpec, Request, ServeConfig,
    ShardProgress, ShardSweepConfig,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory, unique per test invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "matic-serve-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One in-process daemon on a fresh socket.
struct TestDaemon {
    dir: PathBuf,
    /// Clusters share a scratch dir; only the daemon that made it
    /// removes it.
    owns_dir: bool,
    socket: PathBuf,
    http_addr: Option<String>,
    handle: Option<JoinHandle<Result<(), String>>>,
}

impl TestDaemon {
    fn start(tag: &str, workers: usize) -> TestDaemon {
        let dir = scratch_dir(tag);
        let cache = dir.join("cache");
        let mut daemon = Self::start_in(&dir, "serve", workers, &cache, false);
        daemon.owns_dir = true;
        daemon
    }

    /// A daemon inside a (possibly shared) scratch dir, with an
    /// explicit cache dir and an optional loopback HTTP listener.
    fn start_in(dir: &Path, name: &str, workers: usize, cache: &Path, http: bool) -> TestDaemon {
        let socket = dir.join(format!("{name}.sock"));
        let cfg = ServeConfig {
            socket: socket.clone(),
            workers,
            cache_dir: Some(cache.to_path_buf()),
            quiet: true,
            http: http.then(|| "127.0.0.1:0".to_string()),
        };
        let addr_file = cfg.http_addr_file();
        let handle = std::thread::spawn(move || serve(cfg));
        // The daemon binds before accepting; the socket file appearing
        // means clients can connect.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon never bound its socket");
            std::thread::sleep(Duration::from_millis(10));
        }
        let http_addr = http.then(|| {
            // The bound address is published once the HTTP listener is
            // up; `--http 127.0.0.1:0` means the port is ephemeral.
            loop {
                if let Ok(addr) = fs::read_to_string(&addr_file) {
                    break addr.trim().to_string();
                }
                assert!(Instant::now() < deadline, "daemon never published http");
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        TestDaemon {
            dir: dir.to_path_buf(),
            owns_dir: false,
            socket,
            http_addr,
            handle: Some(handle),
        }
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::unix(&self.socket)
    }

    fn http_endpoint(&self) -> Endpoint {
        Endpoint::Http(self.http_addr.clone().expect("daemon has http enabled"))
    }

    /// Requests shutdown, joins the daemon, and checks the clean exit.
    fn shutdown(mut self) {
        let event =
            client::roundtrip(&self.endpoint(), &Request::Shutdown).expect("shutdown answered");
        assert!(
            matches!(event, Event::ShutdownOk { .. }),
            "shutdown must be acknowledged, got {event:?}"
        );
        let result = self
            .handle
            .take()
            .expect("daemon handle")
            .join()
            .expect("daemon thread");
        assert_eq!(result, Ok(()), "the daemon must exit cleanly");
        assert!(
            !self.socket.exists(),
            "a clean shutdown removes the socket file"
        );
        if self.owns_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

/// The small standard sweep job (12 cells, 2 units) the harness tests
/// also use.
fn spec(seed: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Sweep,
        chips: 2,
        voltages: Some(vec![0.9, 0.52]),
        bers: None,
        clock: None,
        benchmarks: vec!["inversek2j".into()],
        modes: vec!["naive".into(), "mat".into(), "mat-canary".into()],
        data_scale: 0.1,
        epoch_scale: 0.2,
        seed,
        no_reuse: false,
        budget_percent: 2.0,
        budget_mse: 0.02,
        chip_range: None,
        topology: None,
    }
}

/// What `matic sweep` would have written for the same spec.
fn batch_bytes(spec: &JobSpec) -> String {
    let plan = build_plan(spec).expect("spec is valid");
    run_sweep_with_cache(&plan, None).report.to_json_pretty()
}

#[test]
fn submitted_report_is_byte_identical_to_batch_and_resubmit_replays() {
    let daemon = TestDaemon::start("bytes", 2);
    let spec = spec(11);
    let total = build_plan(&spec).expect("valid").cell_count();

    let mut accepted = None;
    let terminal = client::submit(&daemon.endpoint(), &spec, |event| {
        if let Event::Accepted { id, cells_total } = event {
            accepted = Some((*id, *cells_total));
        }
    })
    .expect("submit streams to a terminal event");
    let (id, cells_total) = accepted.expect("Accepted precedes the terminal event");
    assert_eq!(cells_total, total);
    let Event::Done {
        report,
        hits,
        deduped,
        misses,
        ..
    } = terminal
    else {
        panic!("fresh job must finish, got {terminal:?}");
    };
    assert_eq!((hits, deduped, misses), (0, 0, total), "cold cache");
    assert_eq!(
        report,
        batch_bytes(&spec),
        "a served report must be byte-identical to the batch run"
    );

    // Resubmitting the same plan replays everything from the shared cache.
    let rerun = client::submit(&daemon.endpoint(), &spec, |_| {}).expect("resubmit");
    let Event::Done {
        report: rerun_report,
        hits,
        misses,
        ..
    } = rerun
    else {
        panic!("warm job must finish, got {rerun:?}");
    };
    assert_eq!((hits, misses), (total, 0), "warm resubmit does zero work");
    assert_eq!(rerun_report, report);

    // The registry remembers both jobs as done.
    let status = client::roundtrip(&daemon.endpoint(), &Request::Status).expect("status");
    let Event::Status { jobs } = status else {
        panic!("status must answer with the job table, got {status:?}");
    };
    assert_eq!(jobs.len(), 2);
    assert!(jobs.iter().any(|j| j.id == id));
    assert!(jobs.iter().all(|j| j.phase == "done"));

    daemon.shutdown();
}

#[test]
fn terminal_counts_match_the_status_line_and_the_batch_run() {
    let daemon = TestDaemon::start("counts", 2);
    // The batch runs go to a cache of their own, which passes through
    // the same states as the daemon's.
    let batch_cache = SweepCache::open(daemon.dir.join("batch-cache")).expect("batch cache");
    let sweep = spec(19);
    // A third chip on the same seed: its cells are new, the first two
    // chips' replay.
    let shard = JobSpec {
        chips: 3,
        chip_range: Some((0, 3)),
        ..spec(19)
    };
    let total = build_plan(&sweep).expect("valid").cell_count();
    let expected = [(0, 0, total), (total, 0, 0), (total, 0, total / 2)];
    for ((label, spec), want) in [("cold", &sweep), ("warm", &sweep), ("shard", &shard)]
        .into_iter()
        .zip(expected)
    {
        let mut id = None;
        let end = client::submit(&daemon.endpoint(), spec, |event| {
            if let Event::Accepted { id: accepted, .. } = event {
                id = Some(*accepted);
            }
        })
        .expect("submit");
        let served = match end {
            Event::Done {
                hits,
                deduped,
                misses,
                ..
            }
            | Event::ShardDone {
                hits,
                deduped,
                misses,
                ..
            } => (hits, deduped, misses),
            other => panic!("{label}: the job must finish, got {other:?}"),
        };
        assert_eq!(served, want, "{label}: terminal counts");
        let status = client::roundtrip(&daemon.endpoint(), &Request::Status).expect("status");
        let Event::Status { jobs } = status else {
            panic!("status must answer with the job table, got {status:?}");
        };
        let line = jobs
            .iter()
            .find(|j| Some(j.id) == id)
            .expect("the job has a status line");
        assert_eq!(
            (line.phase.as_str(), line.cells_done),
            ("done", served.0 + served.1 + served.2),
            "{label}: status phase"
        );
        assert_eq!(
            (line.hits, line.deduped, line.misses),
            served,
            "{label}: status counts"
        );
        let plan = build_plan(spec).expect("valid");
        let batch = run_sweep_with_cache(&plan, Some(&batch_cache)).cache;
        assert_eq!(
            (batch.hits, batch.deduped, batch.misses),
            served,
            "{label}: batch counts"
        );
    }

    daemon.shutdown();
}

#[test]
fn a_job_streams_progress_from_admission() {
    // One worker and ten units: more than the worker plus an 8-unit
    // queue hold, so a daemon that enqueued units one at a time before
    // streaming would report nothing until a whole unit had finished.
    // FaceDet's dataset and training keep the first unit busy for
    // ~0.1 s, far longer than admission takes to send its first event.
    let daemon = TestDaemon::start("progress", 1);
    let spec = JobSpec {
        chips: 10,
        benchmarks: vec!["facedet".into()],
        modes: vec!["naive".into()],
        data_scale: 0.2,
        epoch_scale: 0.3,
        ..spec(13)
    };
    let plan = build_plan(&spec).expect("valid");
    let units = plan.scenarios.len() * plan.chips;
    assert!(units > 8 + 1, "{units} units");
    let cells_per_unit = plan.cell_count() / units;

    let mut events = Vec::new();
    let terminal = client::submit(&daemon.endpoint(), &spec, |event| {
        if let Event::Accepted { .. } | Event::Progress { .. } = event {
            events.push(event.clone());
        }
    })
    .expect("submit streams to a terminal event");
    assert!(
        matches!(terminal, Event::Done { .. }),
        "the job must finish, got {terminal:?}"
    );
    assert!(
        matches!(events.first(), Some(Event::Accepted { .. })),
        "{events:?}"
    );
    let Some(Event::Progress { done, .. }) = events.get(1) else {
        panic!("progress must follow the acceptance, got {events:?}");
    };
    assert!(
        *done < cells_per_unit,
        "the first progress came after {done} cells, a whole unit's worth"
    );

    daemon.shutdown();
}

#[test]
fn concurrent_identical_jobs_compute_each_cell_once() {
    let daemon = TestDaemon::start("overlap", 3);
    let spec_a = spec(11);
    let total = build_plan(&spec_a).expect("valid").cell_count();
    let expected = batch_bytes(&spec_a);

    let (a, b) = std::thread::scope(|scope| {
        let submit = || {
            let socket = daemon.socket.clone();
            let spec = spec_a.clone();
            scope.spawn(move || {
                client::submit(&Endpoint::unix(&socket), &spec, |_| {}).expect("submit")
            })
        };
        let a = submit();
        let b = submit();
        (a.join().expect("job a"), b.join().expect("job b"))
    });
    let unpack = |event: Event| match event {
        Event::Done {
            report,
            hits,
            deduped,
            misses,
            ..
        } => (report, hits, deduped, misses),
        other => panic!("both jobs must finish, got {other:?}"),
    };
    let (report_a, hits_a, deduped_a, misses_a) = unpack(a);
    let (report_b, hits_b, deduped_b, misses_b) = unpack(b);

    assert_eq!(
        misses_a + misses_b,
        total,
        "overlapping cells must be computed exactly once across both jobs"
    );
    assert_eq!(
        hits_a + deduped_a + hits_b + deduped_b,
        total,
        "the other job's copy of every cell is a replay"
    );
    assert_eq!(report_a, expected, "racing never changes the bytes");
    assert_eq!(report_b, expected);

    daemon.shutdown();
}

#[test]
fn cancelled_job_resumes_from_its_checkpoints_on_resubmit() {
    // One worker serializes the two jobs: job A occupies it while job B
    // (a different seed, disjoint cells) is cancelled behind it.
    let daemon = TestDaemon::start("cancel", 1);
    let spec_a = spec(11);
    let spec_b = spec(12);
    let total = build_plan(&spec_b).expect("valid").cell_count();

    let (id_tx, id_rx) = mpsc::channel::<u64>();
    let (submit_a, submit_b) = std::thread::scope(|scope| {
        let spawn_streaming = |spec: JobSpec| {
            let socket = daemon.socket.clone();
            let id_tx = id_tx.clone();
            scope.spawn(move || {
                client::submit(&Endpoint::unix(&socket), &spec, |event| {
                    if let Event::Accepted { id, .. } = event {
                        id_tx.send(*id).expect("id channel");
                    }
                })
                .expect("submit")
            })
        };
        let a = spawn_streaming(spec_a.clone());
        let id_a = id_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("job a admitted");
        let b = spawn_streaming(spec_b.clone());
        let id_b = id_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("job b admitted");
        assert_ne!(id_a, id_b);

        let answer =
            client::roundtrip(&daemon.endpoint(), &Request::Cancel(id_b)).expect("cancel answered");
        assert!(
            matches!(answer, Event::CancelOk { id, .. } if id == id_b),
            "cancel must be acknowledged, got {answer:?}"
        );
        (
            a.join().expect("job a stream"),
            b.join().expect("job b stream"),
        )
    });

    // Job A is untouched by B's cancellation.
    assert!(
        matches!(submit_a, Event::Done { ref report, .. } if *report == batch_bytes(&spec_a)),
        "job a must finish with the batch bytes, got {submit_a:?}"
    );

    // Job B stopped at a cell boundary (usually before its first cell —
    // the single worker was busy — but any prefix is legal).
    let cells_done = match submit_b {
        Event::Cancelled {
            cells_done,
            cells_total,
            ..
        } => {
            assert_eq!(cells_total, total);
            assert!(cells_done < total, "cancelled before completing");
            cells_done
        }
        // The race where B finished before the cancel landed is legal
        // too; then the resubmit below is simply a full replay.
        Event::Done { .. } => total,
        other => panic!("job b must settle as cancelled or done, got {other:?}"),
    };

    // Resubmission resumes: exactly the checkpointed prefix replays and
    // the report still matches the uninterrupted batch bytes.
    let resumed = client::submit(&daemon.endpoint(), &spec_b, |_| {}).expect("resubmit");
    let Event::Done {
        report,
        hits,
        deduped,
        misses,
        ..
    } = resumed
    else {
        panic!("the resubmitted job must finish, got {resumed:?}");
    };
    assert_eq!(hits + deduped, cells_done, "the cancelled prefix replays");
    assert_eq!(misses, total - cells_done, "only the remainder is computed");
    assert_eq!(report, batch_bytes(&spec_b));

    daemon.shutdown();
}

#[test]
fn draining_daemon_rejects_new_submissions_then_exits_cleanly() {
    let daemon = TestDaemon::start("drain", 1);
    // One slow cell: full-size data and epochs keep the worker busy long
    // enough for the drain window to be observable.
    let slow = JobSpec {
        kind: JobKind::Sweep,
        chips: 1,
        voltages: Some(vec![0.52]),
        bers: None,
        clock: None,
        benchmarks: vec!["inversek2j".into()],
        modes: vec!["mat".into()],
        data_scale: 1.0,
        epoch_scale: 1.0,
        seed: 7,
        no_reuse: false,
        budget_percent: 2.0,
        budget_mse: 0.02,
        chip_range: None,
        topology: None,
    };

    std::thread::scope(|scope| {
        let (id_tx, id_rx) = mpsc::channel::<u64>();
        let slow_job = {
            let socket = daemon.socket.clone();
            let spec = slow.clone();
            scope.spawn(move || {
                client::submit(&Endpoint::unix(&socket), &spec, |event| {
                    if let Event::Accepted { id, .. } = event {
                        id_tx.send(*id).expect("id channel");
                    }
                })
                .expect("slow submit")
            })
        };
        id_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("slow job admitted");

        // Shutdown drains in the background: it cancels the slow job and
        // waits for the worker to finish (and checkpoint) its cell.
        let shutdown = {
            let socket = daemon.socket.clone();
            scope.spawn(move || {
                client::roundtrip(&Endpoint::unix(&socket), &Request::Shutdown).expect("shutdown")
            })
        };
        // Give the drain a moment to take effect, then try to submit.
        std::thread::sleep(Duration::from_millis(50));
        match client::submit(&daemon.endpoint(), &spec(11), |_| {}) {
            Ok(Event::Rejected { reason }) => {
                assert!(
                    reason.contains("draining"),
                    "the rejection must name the drain, got {reason:?}"
                );
            }
            // If the drain already finished, the daemon is gone and the
            // connection itself fails — an equally clean refusal.
            Ok(other) => panic!("a draining daemon must not accept jobs, got {other:?}"),
            Err(_) => {}
        }

        let terminal = slow_job.join().expect("slow job stream");
        assert!(
            matches!(terminal, Event::Cancelled { .. } | Event::Done { .. }),
            "the drained job settles at its next cell boundary, got {terminal:?}"
        );
        let ack = shutdown.join().expect("shutdown round-trip");
        assert!(matches!(ack, Event::ShutdownOk { .. }));
    });

    let result = daemon
        .handle
        .expect("daemon handle")
        .join()
        .expect("daemon thread");
    assert_eq!(result, Ok(()), "the daemon must exit cleanly");
    assert!(!daemon.socket.exists());
    let _ = fs::remove_dir_all(&daemon.dir);
}

#[test]
fn an_idle_daemon_with_both_listeners_shuts_down_promptly() {
    let dir = scratch_dir("idle");
    let mut daemon = TestDaemon::start_in(&dir, "idle", 1, &dir.join("cache"), true);
    let addr_file = dir.join("idle.sock.http");
    // Both listeners serve a request while nothing else runs.
    for endpoint in [daemon.endpoint(), daemon.http_endpoint()] {
        let status = client::roundtrip(&endpoint, &Request::Status).expect("status");
        assert!(matches!(status, Event::Status { ref jobs } if jobs.is_empty()));
    }
    // Both accept loops sit in `accept`; the shutdown must wake them.
    let event = client::roundtrip(&daemon.endpoint(), &Request::Shutdown).expect("shutdown");
    assert!(
        matches!(event, Event::ShutdownOk { jobs_drained: 0 }),
        "{event:?}"
    );
    let handle = daemon.handle.take().expect("daemon handle");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "serve() must return within 5 s of the shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.join().expect("daemon thread"), Ok(()));
    assert!(!daemon.socket.exists(), "the socket file is removed");
    assert!(!addr_file.exists(), "the address file is removed");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_socket_is_unlinked_and_reported_as_a_rejection() {
    let dir = scratch_dir("stale");
    let socket = dir.join("serve.sock");
    // Bind and immediately drop the listener: the socket file persists
    // but nobody answers on it — exactly what a SIGKILLed daemon leaves.
    drop(std::os::unix::net::UnixListener::bind(&socket).expect("bind"));
    assert!(socket.exists(), "the dead daemon's socket file lingers");

    let err = client::submit(&Endpoint::unix(&socket), &spec(11), |_| {})
        .expect_err("a stale socket must not look like a working daemon");
    assert!(
        err.starts_with("rejected: stale socket"),
        "the error must be the structured stale-socket rejection, got {err:?}"
    );
    assert!(
        err.contains("matic serve --listen"),
        "the error must say how to recover, got {err:?}"
    );
    assert!(
        !socket.exists(),
        "the stale socket file must be unlinked so the next daemon binds cleanly"
    );

    // With the leftover gone, a fresh daemon binds the same path and works.
    let daemon = TestDaemon::start_in(&dir, "serve", 1, &dir.join("cache"), false);
    let terminal = client::submit(&daemon.endpoint(), &spec(11), |_| {}).expect("submit");
    assert!(matches!(terminal, Event::Done { .. }));
    daemon.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Writes `bytes` on a fresh connection, half-closes it, and reads the
/// daemon's one answer.
fn raw_exchange(daemon: &TestDaemon, bytes: &[u8]) -> Event {
    use std::io::{BufReader, Write};
    let mut stream = std::os::unix::net::UnixStream::connect(&daemon.socket).expect("connect");
    // The daemon stops reading an over-cap line at the cap and closes,
    // so the tail of a long write may be refused; its answer still comes.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    matic_serve::protocol::read_message(&mut BufReader::new(stream), usize::MAX)
        .expect("the daemon answers with one event line")
        .expect("the daemon answers before closing")
}

#[test]
fn request_lines_are_capped_and_must_be_terminated() {
    let daemon = TestDaemon::start("frame", 1);
    let mut status = Vec::new();
    matic_serve::protocol::write_message(&mut status, &Request::Status).expect("encode");

    let event = raw_exchange(&daemon, &status);
    assert!(matches!(event, Event::Status { .. }), "got {event:?}");

    let unterminated = raw_exchange(&daemon, &status[..status.len() - 1]);
    assert!(
        matches!(&unterminated, Event::Error { reason } if reason.contains("no newline")),
        "got {unterminated:?}"
    );

    // Over the 1 MiB cap with no newline in sight.
    let endless = vec![b' '; (1 << 20) + 4096];
    let oversized = raw_exchange(&daemon, &endless);
    assert!(
        matches!(&oversized, Event::Error { reason } if reason.contains("exceeds 1048576 bytes")),
        "got {oversized:?}"
    );
    daemon.shutdown();
}

#[test]
fn shard_sweep_across_three_daemons_matches_batch_bytes() {
    let dir = scratch_dir("shard");
    let cache = dir.join("cache");
    let daemons: Vec<TestDaemon> = (0..3)
        .map(|i| TestDaemon::start_in(&dir, &format!("d{i}"), 2, &cache, false))
        .collect();
    let spec = JobSpec {
        chips: 5,
        ..spec(17)
    };
    let total = build_plan(&spec).expect("valid").cell_count();

    let cfg = ShardSweepConfig::new(daemons.iter().map(|d| d.endpoint()).collect());
    let outcome = shard_sweep(&spec, &cfg, &|_| {}).expect("sharded sweep");
    assert_eq!(outcome.shards, 3, "one shard per endpoint by default");
    assert_eq!(outcome.failovers, 0, "healthy daemons need no retries");
    assert_eq!(
        (outcome.hits, outcome.deduped, outcome.misses),
        (0, 0, total),
        "disjoint shards on a cold cache compute every cell exactly once"
    );
    assert_eq!(
        outcome.report,
        batch_bytes(&spec),
        "the merged shard report must be byte-identical to the batch run"
    );

    // A rerun replays every cell from the shared cache, still byte-exact.
    let rerun = shard_sweep(&spec, &cfg, &|_| {}).expect("warm sharded sweep");
    assert_eq!((rerun.hits, rerun.misses), (total, 0), "warm shards replay");
    assert_eq!(rerun.report, outcome.report);

    for daemon in daemons {
        daemon.shutdown();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shard_sweep_fails_over_from_a_dead_endpoint() {
    let dir = scratch_dir("failover");
    let cache = dir.join("cache");
    let daemons: Vec<TestDaemon> = (0..2)
        .map(|i| TestDaemon::start_in(&dir, &format!("d{i}"), 2, &cache, false))
        .collect();
    // The first endpoint is a daemon that never existed: every shard
    // that starts there must rotate to a survivor and still finish.
    let mut endpoints = vec![Endpoint::unix(dir.join("dead.sock"))];
    endpoints.extend(daemons.iter().map(|d| d.endpoint()));
    let spec = JobSpec {
        chips: 5,
        ..spec(19)
    };

    let mut cfg = ShardSweepConfig::new(endpoints);
    cfg.backoff = Duration::from_millis(10);
    let failovers = Mutex::new(Vec::new());
    let outcome = shard_sweep(&spec, &cfg, &|progress| {
        if let ShardProgress::Failover {
            shard, from, to, ..
        } = progress
        {
            failovers.lock().unwrap().push((shard, from, to));
        }
    })
    .expect("the sweep must survive a dead endpoint");

    let failovers = failovers.into_inner().unwrap();
    assert!(
        !failovers.is_empty(),
        "the shard homed on the dead endpoint must have failed over"
    );
    assert!(
        failovers
            .iter()
            .all(|(_, from, _)| from.ends_with("dead.sock")),
        "only the dead endpoint fails, got {failovers:?}"
    );
    assert_eq!(outcome.failovers, failovers.len());
    assert_eq!(
        outcome.report,
        batch_bytes(&spec),
        "failover must not change a single byte of the merged report"
    );

    for daemon in daemons {
        daemon.shutdown();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn http_transport_streams_the_same_bytes_as_the_socket() {
    let daemon = TestDaemon::start("http", 2);
    let dir = daemon.dir.clone();
    let http = TestDaemon::start_in(&dir, "http", 2, &dir.join("cache"), true);
    let spec = spec(23);
    let total = build_plan(&spec).expect("valid").cell_count();

    // Submit over HTTP: the chunked response streams the same protocol
    // events, down to the terminal report bytes.
    let mut accepted = false;
    let terminal = client::submit(&http.http_endpoint(), &spec, |event| {
        if matches!(event, Event::Accepted { .. }) {
            accepted = true;
        }
    })
    .expect("http submit");
    assert!(accepted, "the HTTP stream carries the Accepted event");
    let Event::Done {
        report,
        hits,
        misses,
        ..
    } = terminal
    else {
        panic!("the HTTP job must finish, got {terminal:?}");
    };
    assert_eq!((hits, misses), (0, total), "cold cache over HTTP");
    assert_eq!(report, batch_bytes(&spec));

    // Control-plane round-trips work over HTTP too.
    let status = client::roundtrip(&http.http_endpoint(), &Request::Status).expect("status");
    assert!(
        matches!(status, Event::Status { ref jobs } if jobs.len() == 1),
        "HTTP status must list the finished job, got {status:?}"
    );

    // The same daemon serves its Unix socket concurrently with HTTP,
    // replaying from the same cache.
    let rerun = client::submit(&http.endpoint(), &spec, |_| {}).expect("socket resubmit");
    assert!(
        matches!(rerun, Event::Done { report: ref r, hits, .. } if *r == report && hits == total),
        "the socket path replays what HTTP computed, got {rerun:?}"
    );

    // A sharded sweep over HTTP endpoints merges byte-exactly as well.
    let wide = JobSpec {
        chips: 3,
        ..spec.clone()
    };
    let cfg = ShardSweepConfig::new(vec![http.http_endpoint(), http.http_endpoint()]);
    let outcome = shard_sweep(&wide, &cfg, &|_| {}).expect("http sharded sweep");
    assert_eq!(outcome.report, batch_bytes(&wide));

    let addr_file = dir.join("http.sock.http");
    assert!(addr_file.exists(), "the daemon publishes its bound address");
    http.shutdown();
    assert!(!addr_file.exists(), "shutdown removes the address file");
    daemon.shutdown();
}
