//! The `serve-replay` workload: one in-process daemon (two workers, a
//! Unix socket plus HTTP) over a cache that set-up fills, driven by two
//! closed-loop clients with the seeded job mix of
//! [`ServeMix`](crate::workloads::ServeMix).

use crate::batch::{digest, golden_check, mat_error_reduction, SETUPS};
use crate::metrics::{median, peak_rss_mb, quantile, Outcome};
use crate::redrive::{self, Counters, Redrive};
use crate::trace::Recorder;
use crate::workloads::{self, JobClass, Round, ServeMix, Submission, BLOCK, THREADS};
use matic_harness::{
    assemble_sharded, energy_report, run_sweep_with_cache, shard_chip_ranges, AccuracyBudget,
    CellOrigin, SweepCache, SweepPlan, SweepReport, UnitKeyPrefix, UnitOutcome,
};
use matic_serve::{
    client, Endpoint, Event, JobKind, JobSpec, Request, ServeConfig, ShardProgress,
    ShardSweepConfig,
};
use matic_snnac::{Chip, ChipConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon is restarted over the same cache every this many rounds.
/// It keeps every finished job (datasets and report, about 1.6 MB each)
/// in its registry, so one daemon serving a whole run grows past a
/// gigabyte. `peak_rss_mb` is read before the first restart: the peak of
/// a fixed, seeded amount of work, so a faster daemon that serves more
/// jobs in the window does not read as a memory regression.
const RESTART_ROUNDS: usize = 4 * BLOCK;

/// A daemon running on a thread of this process.
struct Daemon {
    unix: Endpoint,
    http: Endpoint,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Daemon {
    fn start(dir: &Path, cache_dir: PathBuf) -> Result<Daemon, String> {
        let cfg = ServeConfig {
            cache_dir: Some(cache_dir),
            quiet: true,
            http: Some("127.0.0.1:0".into()),
            ..ServeConfig::new(dir.join("d.sock"), THREADS)
        };
        let addr_file = cfg.http_addr_file();
        let unix = Endpoint::unix(&cfg.socket);
        let thread = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || matic_serve::serve(cfg))
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = Daemon {
            unix,
            http: Endpoint::Unix(PathBuf::new()),
            thread: Some(thread),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    daemon.http = Endpoint::parse(&format!("http://{}", text.trim()));
                    return Ok(daemon);
                }
            }
            if daemon.thread.as_ref().is_some_and(|t| t.is_finished()) || Instant::now() > deadline
            {
                let _ = daemon.shutdown();
                return Err("the daemon did not come up".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Drains the daemon and joins its thread.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let answer = client::roundtrip(&self.unix, &Request::Shutdown);
        let joined = thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        joined?;
        match answer {
            Ok(Event::ShutdownOk { .. }) => Ok(()),
            Ok(other) => Err(format!("unexpected shutdown answer {other:?}")),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One served job as its client saw it. Times are seconds since submit.
struct JobRecord {
    round: usize,
    sub: Submission,
    latency: f64,
    accepted: Option<f64>,
    first_progress: Option<f64>,
    events: usize,
    cells: usize,
    /// `[hits, deduped, misses]` from the terminal event.
    counters: [usize; 3],
    failovers: usize,
    rejected: bool,
    result: Result<String, String>,
}

fn submit(round: usize, sub: &Submission, daemon: &Daemon) -> JobRecord {
    let endpoint = if sub.http { &daemon.http } else { &daemon.unix };
    let t0 = Instant::now();
    let (mut accepted, mut first_progress, mut events, mut cells) = (None, None, 0usize, 0usize);
    let terminal = client::submit(endpoint, &sub.spec, |event| {
        events += 1;
        match event {
            Event::Accepted { cells_total, .. } => {
                accepted = Some(t0.elapsed().as_secs_f64());
                cells = *cells_total;
            }
            Event::Progress { .. } if first_progress.is_none() => {
                first_progress = Some(t0.elapsed().as_secs_f64());
            }
            _ => {}
        }
    });
    let latency = t0.elapsed().as_secs_f64();
    let mut record = JobRecord {
        round,
        sub: sub.clone(),
        latency,
        accepted,
        first_progress,
        events: events + 1,
        cells,
        counters: [0; 3],
        failovers: 0,
        rejected: false,
        result: Err(String::new()),
    };
    record.result = match terminal {
        Ok(Event::Done {
            report,
            hits,
            deduped,
            misses,
            ..
        }) => {
            record.counters = [hits, deduped, misses];
            Ok(report)
        }
        Ok(Event::Rejected { reason }) => {
            record.rejected = true;
            Err(format!("rejected: {reason}"))
        }
        Ok(other) => Err(format!("terminal event {other:?}")),
        Err(e) => Err(e),
    };
    record
}

fn shard(round: usize, sub: &Submission, daemon: &Daemon) -> JobRecord {
    let cfg = ShardSweepConfig::new(vec![daemon.unix.clone(), daemon.http.clone()]);
    let events = AtomicUsize::new(0);
    let t0 = Instant::now();
    let outcome = matic_serve::shard_sweep(&sub.spec, &cfg, &|p| {
        if let ShardProgress::Event { .. } = p {
            events.fetch_add(1, Ordering::Relaxed);
        }
    });
    let latency = t0.elapsed().as_secs_f64();
    let mut record = JobRecord {
        round,
        sub: sub.clone(),
        latency,
        accepted: None,
        first_progress: None,
        events: events.load(Ordering::Relaxed),
        cells: 0,
        counters: [0; 3],
        failovers: 0,
        rejected: false,
        result: Err(String::new()),
    };
    record.result = match outcome {
        Ok(o) => {
            record.cells = o.run.report.cells.len();
            record.counters = [o.hits, o.deduped, o.misses];
            record.failovers = o.failovers;
            Ok(o.report)
        }
        Err(e) => Err(e),
    };
    record
}

fn plan_of(spec: &JobSpec) -> SweepPlan {
    let sweep = JobSpec {
        kind: JobKind::Sweep,
        ..spec.clone()
    };
    let mut plan = matic_serve::job::build_plan(&sweep).expect("generated specs are valid");
    plan.threads = Some(THREADS);
    plan
}

fn spec_key(spec: &JobSpec) -> String {
    let sweep = JobSpec {
        kind: JobKind::Sweep,
        ..spec.clone()
    };
    format!("{sweep:?}")
}

/// Expected bytes of a job: a batch `run_sweep_with_cache` of the same
/// spec (cold for grids the fill never covered, over the filled cache
/// otherwise), and for energy jobs the energy report derived from it.
struct References<'a> {
    cache: &'a SweepCache,
    sweeps: HashMap<String, SweepReport>,
}

impl References<'_> {
    fn sweep(&mut self, sub: &Submission) -> &SweepReport {
        let cache = self.cache;
        self.sweeps.entry(spec_key(&sub.spec)).or_insert_with(|| {
            let plan = plan_of(&sub.spec);
            let warm = (!sub.class.computes()).then_some(cache);
            run_sweep_with_cache(&plan, warm).report
        })
    }

    fn expected(&mut self, sub: &Submission) -> Result<String, String> {
        let report = self.sweep(sub);
        match sub.spec.kind {
            JobKind::Sweep => Ok(report.to_json_pretty()),
            JobKind::Energy => energy_report(report, budget(&sub.spec))
                .map(|e| e.to_json_pretty())
                .map_err(|e| e.to_string()),
        }
    }
}

fn budget(spec: &JobSpec) -> AccuracyBudget {
    AccuracyBudget {
        percent: spec.budget_percent,
        mse: spec.budget_mse,
    }
}

/// Runs the workload; `trace` adds the per-layer re-drive of the first
/// block of rounds.
pub fn run(seed: u64, seconds: f64, trace: Option<&Path>, run_dir: &Path, out: &mut Outcome) {
    let fill = workloads::serve_fill();
    let mut times = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let mut fill_digest: Option<u128> = None;
    let mut daemon_dir = PathBuf::new();
    let mut cache_dir = PathBuf::new();
    for k in 0..SETUPS {
        if let Some(mut d) = daemon.take() {
            if let Err(e) = d.shutdown() {
                out.problem(format!("set-up {} daemon shutdown: {e}", k - 1));
            }
        }
        let t = Instant::now();
        if let Err(e) = golden_check() {
            out.problem(e);
        }
        daemon_dir = run_dir.join(format!("setup{k}"));
        cache_dir = daemon_dir.join("cache");
        let cache = match SweepCache::open(&cache_dir) {
            Ok(c) => c,
            Err(e) => return out.problem(format!("opening {}: {e}", cache_dir.display())),
        };
        let filled = run_sweep_with_cache(&plan_of(&fill), Some(&cache));
        match Daemon::start(&daemon_dir, cache_dir.clone()) {
            Ok(d) => daemon = Some(d),
            Err(e) => return out.problem(e),
        }
        times.push(t.elapsed().as_secs_f64());
        let d = digest(&filled.report.to_json_pretty());
        if *fill_digest.get_or_insert(d) != d {
            out.problem(format!("set-up {k} filled different report bytes"));
        }
        if k == 0 {
            match mat_error_reduction(&filled.report) {
                Some(r) => out.set("mat_error_reduction_x", r),
                None => out.problem("no benchmark has a finite MAT error reduction".into()),
            }
        }
    }
    out.set("setup_s", median(&times));
    let mut daemon = daemon.expect("set-up started a daemon");
    let cache = SweepCache::open(&cache_dir).expect("opened during set-up");

    let mut mix = ServeMix::new(seed);
    let mut jobs: Vec<JobRecord> = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    let mut rss = None;
    // Trace runs always complete the first block, which they re-drive.
    while start.elapsed() < Duration::from_secs_f64(seconds) || (trace.is_some() && round < BLOCK) {
        if round > 0 && round.is_multiple_of(RESTART_ROUNDS) {
            rss.get_or_insert_with(peak_rss_mb);
            let restarted = daemon
                .shutdown()
                .and_then(|()| Daemon::start(&daemon_dir, cache_dir.clone()));
            match restarted {
                Ok(d) => daemon = d,
                Err(e) => {
                    out.problem(format!("daemon restart: {e}"));
                    break;
                }
            }
        }
        match mix.next_round() {
            Round::Pair(a, b) => std::thread::scope(|s| {
                let ha = s.spawn(|| submit(round, &a, &daemon));
                let hb = s.spawn(|| submit(round, &b, &daemon));
                jobs.push(ha.join().expect("client thread"));
                jobs.push(hb.join().expect("client thread"));
            }),
            Round::Shard(s) => jobs.push(shard(round, &s, &daemon)),
        }
        round += 1;
    }
    let window = start.elapsed().as_secs_f64();
    out.set("peak_rss_mb", rss.unwrap_or_else(peak_rss_mb));
    if let Err(e) = daemon.shutdown() {
        out.problem(format!("daemon shutdown: {e}"));
    }

    // Served bytes must equal the batch run of the same spec.
    let mut refs = References {
        cache: &cache,
        sweeps: HashMap::new(),
    };
    let mut cells = 0usize;
    for job in &jobs {
        out.attempted += 1;
        let verdict = match &job.result {
            Ok(bytes) => refs.expected(&job.sub).and_then(|want| {
                if *bytes == want {
                    Ok(())
                } else {
                    Err(format!(
                        "served bytes differ from the batch run ({} vs {} bytes)",
                        bytes.len(),
                        want.len()
                    ))
                }
            }),
            Err(e) => Err(e.clone()),
        };
        match verdict {
            Ok(()) => cells += job.cells,
            Err(e) => {
                out.failed += 1;
                out.problem(format!(
                    "round {} {} job: {e}",
                    job.round,
                    job.sub.class.name()
                ));
            }
        }
    }
    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency).collect();
    let served: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.accepted.map(|a| j.latency - a))
        .collect();
    if latencies.len() < 100 {
        eprintln!(
            "perfbench: only {} jobs; p90 has fewer than 10 samples beyond it",
            latencies.len()
        );
    }
    out.set("sweep_s", median(&served));
    out.set("job_p50_s", median(&latencies));
    out.set("job_p90_s", quantile(&latencies, 0.9));
    out.set("jobs_per_s", jobs.len() as f64 / window);
    out.set("cells_per_s", cells as f64 / window);
    eprintln!(
        "perfbench: {} jobs in {round} rounds, {window:.2} s",
        jobs.len()
    );

    if let Some(trace_path) = trace {
        layer_metrics(&jobs, out);
        let first: Vec<&JobRecord> = jobs.iter().filter(|j| j.round < BLOCK).collect();
        if let Err(e) = redrive_block(&first, &mut refs, run_dir, trace_path, out) {
            out.failed += 1;
            out.problem(e);
        }
    }
}

/// The per-layer numbers the clients stamped, over every job.
fn layer_metrics(jobs: &[JobRecord], out: &mut Outcome) {
    let submits: Vec<&JobRecord> = jobs
        .iter()
        .filter(|j| j.sub.class != JobClass::Shard)
        .collect();
    let shards: Vec<&JobRecord> = jobs
        .iter()
        .filter(|j| j.sub.class == JobClass::Shard)
        .collect();
    let of = |f: &dyn Fn(&JobRecord) -> Option<f64>| -> Vec<f64> {
        submits.iter().filter_map(|j| f(j)).collect()
    };
    out.set("serve.accept_s", median(&of(&|j| j.accepted)));
    out.set(
        "serve.queue_wait_s",
        median(&of(&|j| Some(j.first_progress? - j.accepted?))),
    );
    out.set(
        "serve.stream_s",
        median(&of(&|j| Some(j.latency - j.first_progress.or(j.accepted)?))),
    );
    out.set(
        "serve.unix_job_s",
        median(&of(&|j| (!j.sub.http).then_some(j.latency))),
    );
    out.set(
        "serve.http_job_s",
        median(&of(&|j| j.sub.http.then_some(j.latency))),
    );
    out.set(
        "serve.events_per_job",
        jobs.iter().map(|j| j.events as f64).sum::<f64>() / jobs.len().max(1) as f64,
    );
    let reports: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.result.as_ref().ok().map(|r| r.len() as f64))
        .collect();
    out.set(
        "serve.report_bytes",
        reports.iter().sum::<f64>() / reports.len().max(1) as f64,
    );
    out.set(
        "serve.rejected",
        jobs.iter().filter(|j| j.rejected).count() as f64,
    );
    out.set(
        "serve.coordinator.dispatch_s",
        median(&shards.iter().map(|j| j.latency).collect::<Vec<_>>()),
    );
    out.set(
        "serve.coordinator.retries",
        shards.iter().map(|j| j.failovers as f64).sum(),
    );
    let [hits, deduped, misses] = jobs.iter().fold([0usize; 3], |acc, j| {
        [
            acc[0] + j.counters[0],
            acc[1] + j.counters[1],
            acc[2] + j.counters[2],
        ]
    });
    let total = (hits + deduped + misses).max(1) as f64;
    out.set("harness.sched.cells_hit", hits as f64);
    out.set("harness.sched.cells_deduped", deduped as f64);
    out.set(
        "harness.sched.dedup_ratio",
        deduped as f64 / (deduped + misses).max(1) as f64,
    );
    out.set("harness.cache.hit_ratio", hits as f64 / total);
}

/// Re-drives the first block's jobs through the layer entry points: per
/// job, the daemon's dataset generation and cache walk (chip synthesis,
/// profiling every point, fault maps, cell keys, lookups), cache stores
/// of every cell a computing job produced, and — for computing jobs — a
/// traced re-drive of training and evaluation, checked cell by cell.
fn redrive_block(
    jobs: &[&JobRecord],
    refs: &mut References<'_>,
    run_dir: &Path,
    trace_path: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = Recorder::new();
    let counters = Counters::default();
    let store = SweepCache::open(run_dir.join("store-redrive"))
        .map_err(|e| format!("opening the store re-drive cache: {e}"))?;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut lookups, mut stores) = (0usize, 0usize);
    let mut engines: Vec<redrive::EnginePass> = Vec::new();
    let mut step_rec = None;
    let (mut redrive_wall, mut served_wall) = (0.0f64, 0.0f64);
    let mut energy_s = Vec::new();
    let mut merge_s = Vec::new();
    for job in jobs {
        let plan = plan_of(&job.sub.spec);
        let report = refs.sweep(&job.sub).clone();
        served_wall += job.accepted.map_or(job.latency, |a| job.latency - a);
        let t = Instant::now();
        let (l, s) = cache_walk(
            &plan,
            &report,
            job.sub.class.computes(),
            refs.cache,
            &store,
            &rec,
            &counters,
        )?;
        lookups += l;
        stores += s;
        if job.sub.class.computes() {
            let rd = Redrive::new(&plan, &rec, &counters);
            let cells = rd.run(1);
            redrive::check_reproduction(&report, &cells)
                .map_err(|e| format!("re-drive of a {} job: {e}", job.sub.class.name()))?;
            if step_rec.is_none() {
                let splits = matic_harness::sweep_splits(&plan);
                let stash = rd.stash.lock().expect("stash poisoned");
                step_rec = Some(redrive::step_split_all(&stash, &splits, &mut m)?);
            }
        }
        redrive_wall += t.elapsed().as_secs_f64();
        if job.sub.class.computes() {
            let engine = redrive::engine_pass(&plan, THREADS);
            if engine.run.report != report {
                return Err("engine pass of a computing job differs from its batch run".into());
            }
            engines.push(engine);
        }
        match job.sub.class {
            JobClass::Energy => {
                let t = Instant::now();
                energy_report(&report, budget(&job.sub.spec)).map_err(|e| e.to_string())?;
                energy_s.push(t.elapsed().as_secs_f64());
            }
            JobClass::Shard => {
                let parts = shard_parts(&plan, &report);
                let t = Instant::now();
                let merged = assemble_sharded(&plan, parts, false).map_err(|e| e.to_string())?;
                merge_s.push(t.elapsed().as_secs_f64());
                match merged {
                    matic_harness::SweepOutcome::Complete(run) if run.report == report => {}
                    _ => return Err("re-merged shard parts differ from the batch report".into()),
                }
            }
            _ => {}
        }
    }
    counters.record(&mut m);
    redrive::record_spans(&rec, &mut m);
    redrive::record_step_time(&mut m);
    let store_bytes = store.stats().map(|s| s.bytes).unwrap_or(0);
    m.insert("harness.cache.lookups", lookups as f64);
    m.insert("harness.cache.stores", stores as f64);
    m.insert("harness.cache.bytes_written", store_bytes as f64);
    m.insert("harness.pareto.energy_report_s", median(&energy_s));
    m.insert("harness.shard.merge_s", median(&merge_s));
    redrive::record_engine(&engines, &mut m);
    m.insert("trace.overhead_x", redrive_wall / served_wall.max(1e-9));
    m.insert(
        "trace.coverage",
        redrive::layer_self_time(&rec) / redrive_wall.max(1e-9),
    );
    for (name, value) in m {
        out.set(name, value);
    }
    let steps = step_rec.unwrap_or_else(Recorder::new);
    for (suffix, r) in [("redrive", &rec), ("steps", &steps)] {
        let path = trace_path.with_extension(format!("{suffix}.jsonl"));
        if let Err(e) = r.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    Ok(())
}

/// The report's cells as the two shards of a `shard_sweep` return them.
fn shard_parts(plan: &SweepPlan, report: &SweepReport) -> Vec<((usize, usize), UnitOutcome)> {
    let per_unit = report.cells.len() / matic_harness::sweep_units(plan).len();
    let units = matic_harness::sweep_units(plan);
    let mut parts = Vec::new();
    for (lo, hi) in shard_chip_ranges(plan.chips, 2) {
        for (i, &(s, c)) in units.iter().enumerate() {
            if (lo..hi).contains(&c) {
                let cells = report.cells[i * per_unit..(i + 1) * per_unit]
                    .iter()
                    .map(|cell| (cell.clone(), CellOrigin::Computed))
                    .collect();
                parts.push((
                    (s, c),
                    UnitOutcome {
                        cells,
                        cancelled: false,
                    },
                ));
            }
        }
    }
    parts
}

/// The daemon's per-job walk up to the cache: datasets, chip synthesis,
/// profiling and fault maps at every point, then per cell the key and
/// the lookup; a computing job's cells are also stored. Returns
/// `(lookups, stores)`.
fn cache_walk(
    plan: &SweepPlan,
    report: &SweepReport,
    computes: bool,
    cache: &SweepCache,
    store: &SweepCache,
    rec: &Recorder,
    counters: &Counters,
) -> Result<(usize, usize), String> {
    for (i, s) in plan.scenarios.iter().enumerate() {
        counters.dataset_calls.fetch_add(1, Ordering::Relaxed);
        rec.span("datasets.generate", || {
            s.generate(plan.data_seed(i), plan.data_scale)
        });
    }
    let (mut lookups, mut stores) = (0usize, 0usize);
    let mut cell_idx = 0usize;
    for (s, c) in matic_harness::sweep_units(plan) {
        let chip_cfg = ChipConfig::with_geometry(
            plan.model.geometry(),
            plan.model.weight_format().unwrap_or_default(),
        );
        let mut chip = rec.span("sram.synthesize", || {
            Chip::synthesize(chip_cfg, plan.chip_seed(c))
        });
        let prefix = rec.span("harness.cache.key", || UnitKeyPrefix::new(plan, s, c));
        for (point_idx, &voltage) in plan.axis.points().iter().enumerate() {
            counters.profile_calls.fetch_add(1, Ordering::Relaxed);
            let profiled = rec.span("sram.profile", || chip.profile(voltage));
            counters
                .faulty_bits
                .fetch_add(profiled.fault_count() as u64, Ordering::Relaxed);
            counters.faults_calls.fetch_add(1, Ordering::Relaxed);
            let map = rec.span("core.models.faults", || {
                plan.model
                    .faults_at(&matic_core::FaultContext {
                        stress: voltage,
                        cell_seed: plan.cell_map_seed(c, s, point_idx),
                        unit_seed: plan.unit_fault_seed(c, s),
                        profiled: Some(&profiled),
                    })
                    .map
            });
            let fp = rec.span("harness.cache.key", || map.fingerprint());
            for &mode in &plan.modes {
                let key = rec.span("harness.cache.key", || {
                    let key = prefix.cell(plan, point_idx, mode, fp);
                    let _ = key.digest();
                    key
                });
                lookups += 1;
                let hit = rec.span("harness.cache.lookup", || cache.lookup(&key));
                let want = &report.cells[cell_idx];
                if hit.as_ref() != Some(want) {
                    return Err(format!(
                        "cache walk: cell {cell_idx} ({} chip {c} {}) is not the cached cell",
                        want.scenario,
                        mode.name()
                    ));
                }
                if computes {
                    stores += 1;
                    rec.span("harness.cache.store", || store.store(&key, want))
                        .map_err(|e| format!("store re-drive: {e}"))?;
                }
                cell_idx += 1;
            }
        }
    }
    Ok((lookups, stores))
}
