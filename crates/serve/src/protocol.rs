//! The wire protocol of the serve subsystem: JSON-lines, carried over a
//! local Unix-domain socket or the chunked-HTTP transport.
//!
//! A connection carries exactly **one** request (the first line the
//! client writes) followed by a stream of [`Event`] lines from the
//! daemon. `Status`, `Cancel` and `Shutdown` answer with a single event;
//! `Submit` streams `Accepted`, coalesced `Progress` ticks, idle
//! `Heartbeat`s, and finally one terminal event (`Done`, `ShardDone`,
//! `Cancelled`, `Rejected` or `Failed`).
//!
//! Every message is one line of compact JSON (the serializer escapes
//! embedded newlines, so line framing is unambiguous). The `Done` event
//! carries the **exact pretty-printed report text** as a JSON string —
//! shipping the bytes rather than a re-serialized value tree is what
//! lets a served report stay byte-identical to `matic sweep` output.
//!
//! **v2** adds chip-range sharding: a submission may carry a
//! `chip_range` descriptor, marking it one shard of a larger sweep. A
//! shard job answers with [`Event::ShardDone`] — the per-unit
//! [`CellRecord`]s instead of an assembled report — and the
//! `shard-sweep` coordinator merges the parts in grid order.
//! `CellRecord`'s JSON round-trip is byte-lossless (the cache-replay
//! suites prove it), so the coordinator's merged report is byte-exact.

use matic_harness::CellRecord;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// Protocol schema tag, bumped on incompatible changes.
pub const SERVE_SCHEMA: &str = "matic.serve/v2";

/// What a submitted job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    /// A chip-population sweep; the result is the sweep report JSON.
    Sweep,
    /// A sweep plus the accuracy–energy analysis; the result is the
    /// energy report JSON.
    Energy,
}

/// A declarative job description: the sweep-shaping knobs of `matic
/// sweep`, minus execution details (threads, cache) — those belong to
/// the daemon. Identical specs address identical cache cells no matter
/// which client submits them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Sweep or energy.
    pub kind: JobKind,
    /// Chip instances to synthesize.
    pub chips: usize,
    /// SRAM voltage points (mutually exclusive with `bers` and `clock`).
    pub voltages: Option<Vec<f64>>,
    /// Synthetic bit-error-rate points (mutually exclusive with the
    /// other axes; rejected for energy jobs — no silicon, no energy).
    pub bers: Option<Vec<f64>>,
    /// Clock-period stress points in `[0, 1]` for the timing-error fault
    /// model (mutually exclusive with the other axes; rejected for
    /// energy jobs).
    pub clock: Option<Vec<f64>>,
    /// Benchmark names (`"all"` expands to the full Table I suite).
    pub benchmarks: Vec<String>,
    /// Training-mode names (`naive`, `mat`, `mat-canary`).
    pub modes: Vec<String>,
    /// Dataset scale factor.
    pub data_scale: f64,
    /// Epoch-budget multiplier.
    pub epoch_scale: f64,
    /// Root seed.
    pub seed: u64,
    /// Disable superset model reuse (strict one-model-per-point).
    pub no_reuse: bool,
    /// Energy only: accuracy-loss budget for classification benchmarks,
    /// percentage points.
    pub budget_percent: f64,
    /// Energy only: accuracy-loss budget for regression benchmarks,
    /// absolute MSE.
    pub budget_mse: f64,
    /// Half-open chip-index range this submission covers — `None` runs
    /// the whole plan; `Some` marks the job one shard of a larger sweep
    /// (same spec, same seeds) and switches the terminal event to
    /// [`Event::ShardDone`]. Grid-position seeding makes the shard's
    /// cells identical to the same cells of an unsharded run.
    pub chip_range: Option<(usize, usize)>,
    /// Topology-override DSL (e.g. `"10x10x1;conv3x4;pool2;dense10"`)
    /// applied to every benchmark of the job, exactly like
    /// `matic sweep --topology`. `None` keeps each benchmark's stock
    /// Table I MLP.
    pub topology: Option<String>,
}

/// One work unit's results inside a [`Event::ShardDone`] payload: the
/// cells of a single `(scenario, chip)` grid position, in the order the
/// unsharded engine emits them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardUnit {
    /// Scenario (benchmark) index in the plan.
    pub scen: usize,
    /// Chip index in the plan.
    pub chip: usize,
    /// The unit's finished cells, point-major then mode-major — the
    /// exact order `assemble_sweep` expects.
    pub cells: Vec<CellRecord>,
}

/// The one request a client opens its connection with.
// One Request exists per connection, so the Submit variant's size is
// irrelevant; boxing it would only complicate every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Run a job; the connection stays open streaming its events.
    Submit(JobSpec),
    /// Snapshot every job the daemon knows about.
    Status,
    /// Cooperatively cancel a job by id (stops at the next cell
    /// boundary; completed cells stay checkpointed).
    Cancel(u64),
    /// Drain in-flight cells and shut the daemon down.
    Shutdown,
}

/// One job's place in the daemon, as reported by `Status`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatusInfo {
    /// Daemon-assigned job id.
    pub id: u64,
    /// `queued`, `running`, `done`, `cancelled` or `failed`.
    pub phase: String,
    /// Sweep or energy.
    pub kind: JobKind,
    /// Cells finished so far (computed or replayed).
    pub cells_done: usize,
    /// Cells the plan produces in total.
    pub cells_total: usize,
    /// Cells replayed from the persistent cache without waiting.
    pub hits: usize,
    /// Cells replayed after waiting out another job's in-flight
    /// computation of the same cell.
    pub deduped: usize,
    /// Cells computed (and checkpointed) by this job.
    pub misses: usize,
}

/// A daemon-to-client message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Event {
    /// The submission was admitted and queued.
    Accepted {
        /// Assigned job id (quote it to `matic status` / `matic cancel`).
        id: u64,
        /// Cells the job's plan produces.
        cells_total: usize,
    },
    /// Coalesced progress tick (counters are cumulative).
    Progress {
        /// The job this tick describes.
        id: u64,
        /// Cells finished so far.
        done: usize,
        /// Cells in total.
        total: usize,
        /// Cache replays so far.
        hits: usize,
        /// In-flight dedup replays so far.
        deduped: usize,
        /// Fresh computations so far.
        misses: usize,
    },
    /// Terminal: the job finished; `report` holds the exact report text.
    Done {
        /// The finished job.
        id: u64,
        /// The pretty-printed report JSON, byte-identical to what the
        /// batch CLI writes for the same plan.
        report: String,
        /// Cache replays.
        hits: usize,
        /// In-flight dedup replays.
        deduped: usize,
        /// Fresh computations.
        misses: usize,
    },
    /// Terminal: a shard job finished. Carries the raw per-unit cells
    /// for the coordinator to merge — grid-order assembly (and the
    /// report serialization) happens coordinator-side.
    ShardDone {
        /// The finished shard job.
        id: u64,
        /// Every unit the shard covered, with its cells.
        units: Vec<ShardUnit>,
        /// Cache replays.
        hits: usize,
        /// In-flight dedup replays.
        deduped: usize,
        /// Fresh computations.
        misses: usize,
    },
    /// Keep-alive on an otherwise idle submit stream, so coordinators
    /// can run read timeouts without mistaking a slow cell for a dead
    /// daemon.
    Heartbeat {
        /// The job whose stream this keeps alive.
        id: u64,
    },
    /// Terminal: the job was cancelled at a cell boundary.
    Cancelled {
        /// The cancelled job.
        id: u64,
        /// Cells finished (and checkpointed) before the stop.
        cells_done: usize,
        /// Cells the plan would have produced.
        cells_total: usize,
    },
    /// Terminal: the submission was refused (bad spec, or the daemon is
    /// draining). Nothing was queued.
    Rejected {
        /// Why the daemon refused.
        reason: String,
    },
    /// Terminal: the job started but could not finish.
    Failed {
        /// The failed job.
        id: u64,
        /// What went wrong.
        reason: String,
    },
    /// Answer to `Status`.
    Status {
        /// Every job, oldest first.
        jobs: Vec<JobStatusInfo>,
    },
    /// Answer to `Cancel`: the request was delivered.
    CancelOk {
        /// The targeted job.
        id: u64,
        /// The job's phase at delivery time.
        phase: String,
    },
    /// Answer to `Shutdown`: every job drained, daemon exiting.
    ShutdownOk {
        /// Jobs that were still live when the drain began.
        jobs_drained: usize,
    },
    /// A request-level error (unknown job id, unreadable request, ...).
    Error {
        /// What went wrong.
        reason: String,
    },
}

impl Event {
    /// Whether this event ends a submit stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Done { .. }
                | Event::ShardDone { .. }
                | Event::Cancelled { .. }
                | Event::Rejected { .. }
                | Event::Failed { .. }
        )
    }
}

/// Writes one message as a JSON line and flushes it.
pub fn write_message<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let line = serde_json::to_string(msg).map_err(io::Error::other)?;
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one JSON-line message of at most `max_bytes` bytes, newline
/// included; `Ok(None)` on a clean EOF or a blank line.
///
/// A longer line is an [`InvalidData`](io::ErrorKind::InvalidData) error
/// after reading at most `max_bytes` of it, so a peer that never sends a
/// newline cannot grow the buffer without bound. A line cut off by EOF
/// before its newline is an [`UnexpectedEof`](io::ErrorKind::UnexpectedEof)
/// error: every writer terminates its messages ([`write_message`]).
pub fn read_message<T: Deserialize>(
    r: &mut impl BufRead,
    max_bytes: usize,
) -> io::Result<Option<T>> {
    let mut line = Vec::new();
    let limit = u64::try_from(max_bytes).unwrap_or(u64::MAX);
    io::Read::take(&mut *r, limit).read_until(b'\n', &mut line)?;
    if line.is_empty() {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        return Err(if line.len() >= max_bytes {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("message line exceeds {max_bytes} bytes"),
            )
        } else {
            io::Error::new(io::ErrorKind::UnexpectedEof, "message line has no newline")
        });
    }
    let text = std::str::from_utf8(&line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        .trim();
    if text.is_empty() {
        return Ok(None);
    }
    serde_json::from_str(text)
        .map(Some)
        .map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            kind: JobKind::Sweep,
            chips: 2,
            voltages: Some(vec![0.9, 0.52]),
            bers: None,
            clock: None,
            benchmarks: vec!["inversek2j".into()],
            modes: vec!["naive".into(), "mat".into()],
            data_scale: 0.1,
            epoch_scale: 0.2,
            seed: 11,
            no_reuse: false,
            budget_percent: 2.0,
            budget_mse: 0.02,
            chip_range: None,
            topology: None,
        }
    }

    #[test]
    fn requests_roundtrip_as_single_lines() {
        for req in [
            Request::Submit(sample_spec()),
            Request::Status,
            Request::Cancel(7),
            Request::Shutdown,
        ] {
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'), "line framing: {line}");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                line,
                "roundtrip is lossless"
            );
        }
    }

    #[test]
    fn done_event_preserves_report_bytes_exactly() {
        // Multi-line pretty JSON (with quotes and floats) must survive
        // the trip as a string payload untouched.
        let report = "{\n  \"schema\": \"matic.sweep-report/v2\",\n  \"x\": 0.46\n}".to_string();
        let ev = Event::Done {
            id: 3,
            report: report.clone(),
            hits: 1,
            deduped: 0,
            misses: 7,
        };
        let line = serde_json::to_string(&ev).unwrap();
        assert!(!line.contains('\n'));
        let back: Event = serde_json::from_str(&line).unwrap();
        match back {
            Event::Done { report: r, .. } => assert_eq!(r, report, "byte-exact payload"),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn shard_submission_and_shard_done_roundtrip() {
        let mut spec = sample_spec();
        spec.chip_range = Some((1, 2));
        let line = serde_json::to_string(&Request::Submit(spec)).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        match back {
            Request::Submit(s) => assert_eq!(s.chip_range, Some((1, 2))),
            other => panic!("wrong variant: {other:?}"),
        }

        // Cells must survive the trip value-exact: the coordinator
        // re-serializes them into the merged report, so any drift here
        // would break byte-identity with the unsharded sweep.
        let cell = CellRecord {
            scenario: "inversek2j".into(),
            chip_index: 1,
            chip_seed: 0xDEAD_BEEF,
            mode: "mat".into(),
            fault_model: "sram-voltage".into(),
            voltage: Some(0.52),
            ber_target: None,
            clock_stress: None,
            error: 0.03062,
            nominal_error: 0.011,
            metric: "mse".into(),
            energy: None,
            measured_ber: 1.25e-4,
            fault_count: 19,
            settled_voltage: None,
            reused_model: false,
            failed: true,
        };
        let ev = Event::ShardDone {
            id: 4,
            units: vec![ShardUnit {
                scen: 0,
                chip: 1,
                cells: vec![cell.clone()],
            }],
            hits: 1,
            deduped: 0,
            misses: 3,
        };
        assert!(ev.is_terminal());
        let line = serde_json::to_string(&ev).unwrap();
        assert!(!line.contains('\n'), "line framing: {line}");
        let back: Event = serde_json::from_str(&line).unwrap();
        match back {
            Event::ShardDone { units, .. } => {
                assert_eq!(units.len(), 1);
                assert_eq!(units[0].cells[0], cell, "value-exact cell roundtrip");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(!Event::Heartbeat { id: 4 }.is_terminal());
    }

    #[test]
    fn messages_travel_over_a_byte_stream() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Cancel(9)).unwrap();
        write_message(&mut buf, &Request::Status).unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        let first: Request = read_message(&mut r, 64).unwrap().expect("first message");
        let second: Request = read_message(&mut r, 64).unwrap().expect("second message");
        assert!(matches!(first, Request::Cancel(9)));
        assert!(matches!(second, Request::Status));
        let eof: Option<Request> = read_message(&mut r, 64).unwrap();
        assert!(eof.is_none(), "clean EOF");
    }

    #[test]
    fn a_message_line_is_bounded_and_must_end_in_a_newline() {
        let mut line = Vec::new();
        write_message(&mut line, &Request::Cancel(9)).unwrap();
        let exact = line.len();
        // A line of exactly the cap, newline included, is read.
        let read = |bytes: &[u8], cap| read_message::<Request>(&mut &bytes[..], cap);
        assert!(matches!(read(&line, exact), Ok(Some(Request::Cancel(9)))));
        // One byte over the cap is refused without reading past the cap.
        let mut r = std::io::BufReader::new(&line[..]);
        let err = read_message::<Request>(&mut r, exact - 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(r.buffer().len(), 1, "only the newline is left unread");
        // An endless line stops at the cap too.
        let mut endless = std::io::Read::take(std::io::repeat(b'x'), 1 << 30);
        let mut endless = std::io::BufReader::new(&mut endless);
        let err = read_message::<Request>(&mut endless, 4096).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // EOF before the newline is an error, not a message.
        let err = read(&line[..exact - 1], exact).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
