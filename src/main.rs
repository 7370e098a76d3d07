//! `matic` — the reproduction's command-line interface.
//!
//! `matic sweep` runs a parallel chip-population sweep through
//! [`matic_harness`] and writes a deterministic JSON report (plus an
//! optional per-cell CSV). `matic energy` runs the same sweep (or reads
//! a previously written sweep report) and derives the accuracy–energy
//! analysis: Pareto frontiers per benchmark/mode and the Table II
//! minimum-energy operating-point selections under an accuracy budget.
//! `matic cache` inspects or clears the persistent sweep cache that
//! makes interrupted sweeps resumable. `matic list` shows the available
//! benchmarks and training modes.

#![forbid(unsafe_code)]

use matic_harness::{
    AccuracyBudget, EnergyReport, SweepCache, SweepPlan, SweepReport, SweepRun, TrainingMode,
};
use matic_serve::job::build_plan;
use matic_serve::{JobKind, JobSpec};
use std::path::Path;
use std::process::ExitCode;

/// Cache directory used when `--resume` is given without `--cache-dir`.
const DEFAULT_CACHE_DIR: &str = ".matic-cache";

/// Socket the serve-family commands use when `--socket`/`--listen` is
/// not given.
const DEFAULT_SOCKET: &str = ".matic-serve.sock";

const USAGE: &str = "\
matic — MATIC (DATE 2018) reproduction toolkit

USAGE:
    matic sweep [OPTIONS]    run a chip-population sweep
    matic energy [OPTIONS]   sweep (or load a sweep report) and derive the
                             accuracy–energy analysis (Table II / Fig. 10–11)
    matic serve [OPTIONS]    run the long-lived sweep service on a local socket
    matic submit [OPTIONS]   send a sweep (or --energy) job to the service,
                             stream its progress, and write the report
    matic status [OPTIONS]   list the service's jobs and their progress
    matic cancel ID [OPTS]   cancel a running job at the next cell boundary
    matic shutdown [OPTS]    drain the service and stop the daemon
    matic shard-sweep [OPTS] split a sweep into chip-range shards across
                             several daemons and merge the byte-identical report
    matic compare-models [OPTS]  sweep all three fault models at matched
                             stress and print the naive/MAT/MAT+canary table
    matic cache stats        show persistent sweep-cache contents (cells and
                             profiled fault maps, counted apart)
    matic cache clear        delete every cached cell and profiled fault map
    matic list               list built-in benchmarks and training modes
    matic help               show this message

SWEEP OPTIONS (matic sweep; also accepted by matic energy):
    --chips N           chip instances to synthesize        [default: 4]
    --voltages SPEC     SRAM voltages: lo:hi:steps grid or comma list
                        (e.g. 0.46:0.90:5 or 0.53,0.50,0.46) [default: 0.46:0.90:5]
    --bers SPEC         sweep the random-ber fault model instead of voltages:
                        Stutz-style i.i.d. bit flips over robust Q1.14 weight
                        words (not accepted by matic energy — no silicon)
    --clock-stress SPEC sweep the timing-error fault model instead: normalized
                        clock-period stress in [0,1]; overscaled MACs drop
                        their partial products (ThUnderVolt-style; not
                        accepted by matic energy)
    --benchmarks LIST   all | comma list of mnist,facedet,inversek2j,bscholes
                                                            [default: all]
    --topology DSL      override every benchmark's network with a layer chain:
                        `;`-separated stages — input (N or HxWxC), convKxF
                        (KxK kernel, F filters), poolW (WxW max-pool), denseN
                        (e.g. 10x10x1;conv3x4;pool2;dense10); input/output
                        widths must match the dataset [default: Table I MLPs]
    --modes LIST        comma list of naive,mat,mat-canary  [default: naive,mat]
    --scale X           dataset scale factor                [default: 0.5]
    --epochs X          epoch-budget multiplier             [default: 0.5]
    --seed N            root seed                           [default: 42]
    --threads N         worker threads                      [default: all cores]
    --no-reuse          strict one-model-per-point (disable superset reuse)
    --cache-dir PATH    persist per-cell results and profiled fault maps
                        under PATH and replay any whose content key already
                        matches (resume)
    --resume            shorthand for --cache-dir .matic-cache
    --no-cache          disable the cache even if --cache-dir/--resume given
    --out PATH          JSON report path     [default: matic-sweep.json, or
                                              matic-energy.json for energy]
    --csv PATH          also write the per-cell (sweep) or per-scenario
                        (energy) table as CSV
    --quiet             suppress the summary table and all stderr progress
                        narration (errors still print)

SERVE OPTIONS (matic serve):
    --listen PATH       Unix socket to serve on      [default: .matic-serve.sock]
    --http ADDR         additionally serve the same protocol over HTTP/1.1 on
                        ADDR (host:port; port 0 picks one); the bound address
                        is published to <socket>.http
    --workers N         shared worker-pool threads   [default: all cores]
    --cache-dir PATH / --resume / --no-cache
                        persistent cell cache shared by every job
    --quiet             suppress daemon narration

CLIENT OPTIONS (matic submit/status/cancel/shutdown):
    --socket ADDR       daemon address: a socket path or http://host:port
                        (also --listen)           [default: .matic-serve.sock]
    matic submit additionally takes the sweep grid options above
    (--chips/--voltages/--bers/--benchmarks/--topology/--modes/--scale/
    --epochs/--seed/--no-reuse/--out/--quiet) plus:
    --energy            submit an energy job (voltage axis only)
    --budget-percent X / --budget-mse X   energy accuracy budgets
    Execution knobs (--threads, --cache-dir, --resume, --no-cache, --csv)
    are daemon-side and rejected by submit.

SHARD-SWEEP OPTIONS (matic shard-sweep; plus the sweep grid options above):
    --daemons LIST      comma list of daemon addresses: socket paths and/or
                        http://host:port URLs
    --spawn N           spawn N local daemons (sharing one scratch cache) for
                        this run instead, and shut them down afterwards
    --workers N         worker threads per spawned daemon [default: cores/N]
    --shards N          shard count               [default: one per daemon]
    --retries N         re-attempts per shard after a failure   [default: 2]
    --backoff-ms MS     base retry backoff, doubling per retry  [default: 250]
    --timeout-secs S    per-event read timeout, 0 waits forever [default: 60]
    --energy            derive the energy analysis from the merged sweep
    --budget-percent X / --budget-mse X   energy accuracy budgets
    --out/--csv/--quiet as for matic sweep; the merged report (and CSV) is
    byte-identical to the single-process `matic sweep` of the same grid.

COMPARE OPTIONS (matic compare-models):
    --voltage V         sram-voltage model stress point     [default: 0.50]
    --ber X             random-ber model stress point       [default: 0.002]
    --clock X           timing-error model stress point     [default: 0.60]
    plus the sweep options above except the axis flags
    (--voltages/--bers/--clock-stress/--modes are fixed by the comparison);
    writes matic-compare-models.json unless --out overrides it

ENERGY OPTIONS (matic energy only):
    --report PATH       analyze an existing sweep report instead of
                        sweeping (mutually exclusive with sweep options)
    --budget-percent X  accuracy-loss budget for classification
                        benchmarks, percentage points       [default: 2]
    --budget-mse X      accuracy-loss budget for regression
                        benchmarks, absolute MSE            [default: 0.02]

CACHE OPTIONS (matic cache stats|clear):
    --cache-dir PATH    cache location                      [default: .matic-cache]

Reports are byte-identical for every --threads value and for every cache
hit/miss mix, and contain no timestamps or host details: identical plans
give identical bytes — `matic energy` inherits the same guarantee because
its analysis is a pure function of the sweep report. Cells are
checkpointed atomically as they complete, so a killed sweep re-run with
--resume picks up where it died.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |result: Result<(), String>| match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    };
    match args.first().map(String::as_str) {
        Some("sweep") => run(run_sweep_command(&args[1..])),
        Some("energy") => run(run_energy_command(&args[1..])),
        Some("serve") => run(run_serve_command(&args[1..])),
        Some("submit") => run(run_submit_command(&args[1..])),
        Some("status") => run(run_status_command(&args[1..])),
        Some("cancel") => run(run_cancel_command(&args[1..])),
        Some("shutdown") => run(run_shutdown_command(&args[1..])),
        Some("shard-sweep") => run(run_shard_sweep_command(&args[1..])),
        Some("compare-models") => run(run_compare_command(&args[1..])),
        Some("cache") => run(run_cache_command(&args[1..])),
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn list() {
    println!("benchmarks (Table I):");
    for s in matic_harness::builtin_scenarios() {
        let layers: Vec<String> = s.topology().layers.iter().map(|n| n.to_string()).collect();
        let metric = if s.is_classification() {
            "classification error %"
        } else {
            "mean squared error"
        };
        println!("  {:<12} {:<12} {metric}", s.name(), layers.join("-"));
    }
    println!("\ntraining modes:");
    println!("  naive        fault-oblivious baseline (quantization-aware)");
    println!("  mat          memory-adaptive training (paper §III-B)");
    println!("  mat-canary   MAT + in-situ canaries and runtime controller (§III-C)");
}

/// The options every sweep-running command shares: the sweep itself, as
/// the wire [`JobSpec`] a daemon would receive, plus the knobs that never
/// leave this process (threads, cache, output).
struct SweepArgs {
    /// What to sweep; [`build_plan`] turns it into the plan.
    spec: JobSpec,
    threads: Option<usize>,
    cache_dir: Option<String>,
    resume: bool,
    no_cache: bool,
    out: Option<String>,
    csv: Option<String>,
    quiet: bool,
    /// Whether any sweep-shaping option was explicitly given (used by
    /// `matic energy` to reject a conflicting `--report`).
    sweep_shaped: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        let budget = AccuracyBudget::default();
        SweepArgs {
            spec: JobSpec {
                kind: JobKind::Sweep,
                chips: 4,
                voltages: None,
                bers: None,
                clock: None,
                benchmarks: vec!["all".to_string()],
                modes: mode_names(&[TrainingMode::Naive, TrainingMode::Mat]),
                data_scale: 0.5,
                epoch_scale: 0.5,
                seed: 42,
                no_reuse: false,
                budget_percent: budget.percent,
                budget_mse: budget.mse,
                chip_range: None,
                topology: None,
            },
            threads: None,
            cache_dir: None,
            resume: false,
            no_cache: false,
            out: None,
            csv: None,
            quiet: false,
            sweep_shaped: false,
        }
    }
}

impl SweepArgs {
    /// Tries to consume `arg` (pulling values from `it`); returns
    /// `Ok(false)` when the flag is not a sweep option.
    fn try_parse(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        // Everything that only matters when a sweep actually runs —
        // grid shape *and* execution knobs (threads, cache). `matic
        // energy --report` rejects all of these rather than silently
        // ignoring them; only the output knobs (--out/--csv/--quiet)
        // compose with --report.
        let shaped = matches!(
            arg,
            "--chips"
                | "--voltages"
                | "--bers"
                | "--clock-stress"
                | "--benchmarks"
                | "--topology"
                | "--modes"
                | "--scale"
                | "--epochs"
                | "--seed"
                | "--no-reuse"
                | "--threads"
                | "--cache-dir"
                | "--resume"
                | "--no-cache"
        );
        let spec = &mut self.spec;
        match arg {
            "--chips" => spec.chips = parse(&value(it, arg)?, arg)?,
            "--voltages" => spec.voltages = Some(parse_grid(&value(it, arg)?)?),
            "--bers" => spec.bers = Some(parse_grid(&value(it, arg)?)?),
            "--clock-stress" => spec.clock = Some(parse_grid(&value(it, arg)?)?),
            "--benchmarks" => {
                spec.benchmarks = value(it, arg)?
                    .split(',')
                    .map(|b| b.trim().to_string())
                    .collect();
            }
            "--topology" => {
                let dsl = value(it, arg)?;
                // Parse eagerly so a malformed chain fails at the flag,
                // with the flag's name, not deep inside plan building.
                matic_nn::NetSpec::parse_topology(&dsl)
                    .map_err(|e| format!("--topology `{dsl}`: {e}"))?;
                spec.topology = Some(dsl);
            }
            "--modes" => {
                let modes = value(it, arg)?
                    .split(',')
                    .map(|m| {
                        TrainingMode::from_name(m.trim())
                            .ok_or_else(|| format!("unknown mode `{m}`"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                spec.modes = mode_names(&modes);
            }
            "--scale" => spec.data_scale = parse(&value(it, arg)?, arg)?,
            "--epochs" => spec.epoch_scale = parse(&value(it, arg)?, arg)?,
            "--seed" => spec.seed = parse(&value(it, arg)?, arg)?,
            "--no-reuse" => spec.no_reuse = true,
            "--threads" => self.threads = Some(parse_nonzero(&value(it, arg)?, arg)?),
            "--cache-dir" => self.cache_dir = Some(value(it, arg)?),
            "--resume" => self.resume = true,
            "--no-cache" => self.no_cache = true,
            "--out" => self.out = Some(value(it, arg)?),
            "--csv" => self.csv = Some(value(it, arg)?),
            "--quiet" => self.quiet = true,
            _ => return Ok(false),
        }
        self.sweep_shaped |= shaped;
        Ok(true)
    }

    /// Tries to consume one of the energy-job flags (`matic energy`,
    /// `matic submit`, `matic shard-sweep`); returns `Ok(false)` when
    /// `arg` is not one. The budgets compose with `matic energy
    /// --report`, so they do not count as sweep shaping.
    fn try_parse_energy(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match arg {
            "--energy" => self.spec.kind = JobKind::Energy,
            "--budget-percent" => self.spec.budget_percent = parse(&value(it, arg)?, arg)?,
            "--budget-mse" => self.spec.budget_mse = parse(&value(it, arg)?, arg)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The cache directory the flags select, if any. The cache is
    /// enabled by --cache-dir or --resume (which defaults the location);
    /// --no-cache wins over both so scripts can force a cold recompute
    /// without unwinding their flags.
    fn cache_path(&self) -> Option<String> {
        resolve_cache(self.cache_dir.clone(), self.resume, self.no_cache)
    }

    /// Opens the cache the flags select, returning it with its path.
    fn open_cache(&self) -> Result<Option<(String, SweepCache)>, String> {
        self.cache_path()
            .map(|dir| match SweepCache::open(&dir) {
                Ok(cache) => Ok((dir, cache)),
                Err(e) => Err(format!("opening sweep cache {dir}: {e}")),
            })
            .transpose()
    }

    /// The report path: `--out`, or the default for the spec's kind.
    fn out_path(&self) -> String {
        self.out.clone().unwrap_or_else(|| {
            match self.spec.kind {
                JobKind::Sweep => "matic-sweep.json",
                JobKind::Energy => "matic-energy.json",
            }
            .to_string()
        })
    }

    /// Builds the plan, runs the sweep (with the selected cache), and
    /// narrates progress on stderr. Returns the run and its wall time.
    fn run(&self) -> Result<(SweepRun, std::time::Duration), String> {
        let mut plan = build_plan(&self.spec)?;
        plan.threads = self.threads;
        let cache = self.open_cache()?;
        let workers = plan.threads.unwrap_or_else(rayon::current_num_threads);
        narrate(
            self.quiet,
            format_args!(
                "sweep: {} cells ({} chips x {} {} points x {} benchmarks x {} modes) on {} threads, plan {}",
                plan.cell_count(),
                plan.chips,
                plan.axis.points().len(),
                plan.axis.kind(),
                plan.scenarios.len(),
                plan.modes.len(),
                workers,
                plan.fingerprint(),
            ),
        );
        let start = std::time::Instant::now();
        let run = matic_harness::run_sweep_with_cache(&plan, cache.as_ref().map(|(_, c)| c));
        let elapsed = start.elapsed();
        if let Some((dir, _)) = &cache {
            narrate(
                self.quiet,
                format_args!(
                    "cache: {} hits, {} misses -> {dir}",
                    run.cache.hits, run.cache.misses
                ),
            );
            let silicon = run.cache.silicon;
            narrate(
                self.quiet,
                format_args!(
                    "silicon: {} chips synthesized, {} profiles computed, {} profiles replayed",
                    silicon.chips_synthesized, silicon.profiles_computed, silicon.profiles_replayed
                ),
            );
            narrate(
                self.quiet,
                format_args!("datasets: {} generated", run.cache.datasets_generated),
            );
        }
        Ok((run, elapsed))
    }
}

/// Wire names of `modes`, in order.
fn mode_names(modes: &[TrainingMode]) -> Vec<String> {
    modes.iter().map(|m| m.name().to_string()).collect()
}

fn run_sweep_command(args: &[String]) -> Result<(), String> {
    let mut sweep = SweepArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !sweep.try_parse(arg, &mut it)? {
            return Err(unknown_option(arg));
        }
    }
    let (run, elapsed) = sweep.run()?;
    let report = run.report;
    let out = sweep.out_path();

    matic_harness::write_atomic(Path::new(&out), report.to_json_pretty())
        .map_err(|e| format!("writing {out}: {e}"))?;
    if let Some(path) = &sweep.csv {
        matic_harness::write_atomic(Path::new(path), report.to_csv())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if !sweep.quiet {
        print_summary(&report);
    }
    narrate(
        sweep.quiet,
        format_args!(
            "sweep: {} cells in {:.1}s -> {out}{}",
            report.cells.len(),
            elapsed.as_secs_f64(),
            sweep.csv.map(|p| format!(" + {p}")).unwrap_or_default(),
        ),
    );
    Ok(())
}

/// `matic energy`: sweep (or load a report) and derive the
/// accuracy–energy analysis.
fn run_energy_command(args: &[String]) -> Result<(), String> {
    let mut sweep = SweepArgs::default();
    sweep.spec.kind = JobKind::Energy;
    let mut source: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => source = Some(value(&mut it, arg)?),
            // Implied by the command itself.
            "--energy" => return Err(unknown_option(arg)),
            other => {
                if !(sweep.try_parse_energy(other, &mut it)? || sweep.try_parse(other, &mut it)?) {
                    return Err(unknown_option(other));
                }
            }
        }
    }

    let report: SweepReport = match &source {
        Some(path) => {
            if sweep.sweep_shaped {
                return Err(
                    "--report analyzes an existing sweep, so sweep options have no effect; \
                     drop them (--chips/--voltages/--benchmarks/--threads/--cache-dir/...) \
                     or drop --report to sweep here"
                        .into(),
                );
            }
            // No sweep runs here, but the budgets still go through the
            // one validation surface.
            build_plan(&sweep.spec)?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let report: SweepReport = serde_json::from_str(&text)
                .map_err(|e| format!("parsing sweep report {path}: {e}"))?;
            if report.schema != matic_harness::REPORT_SCHEMA {
                return Err(format!(
                    "sweep report {path} has schema `{}`, this binary expects `{}` \
                     (re-run the sweep with this version)",
                    report.schema,
                    matic_harness::REPORT_SCHEMA
                ));
            }
            report
        }
        None => sweep.run()?.0.report,
    };

    let energy = matic_serve::job::energy_analysis(&sweep.spec, &report)?;
    let out = sweep.out_path();
    matic_harness::write_atomic(Path::new(&out), energy.to_json_pretty())
        .map_err(|e| format!("writing {out}: {e}"))?;
    if let Some(path) = &sweep.csv {
        matic_harness::write_atomic(Path::new(path), energy.to_csv())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if !sweep.quiet {
        print_energy_summary(&energy);
    }
    narrate(
        sweep.quiet,
        format_args!(
            "energy: {} benchmark/mode analyses -> {out}{}",
            energy.benchmarks.len(),
            sweep.csv.map(|p| format!(" + {p}")).unwrap_or_default(),
        ),
    );
    Ok(())
}

/// Parses `matic compare-models` arguments into the sweep options and
/// the three plans the comparison runs: the SRAM-voltage, random-BER
/// and timing-error models, each at its one stress point, every other
/// option shared.
fn compare_plans(args: &[String]) -> Result<(SweepArgs, Vec<SweepPlan>), String> {
    let mut sweep = SweepArgs::default();
    let (mut voltage, mut ber, mut clock) = (0.50f64, 0.002f64, 0.60f64);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--voltage" => voltage = parse(&value(&mut it, arg)?, arg)?,
            "--ber" => ber = parse(&value(&mut it, arg)?, arg)?,
            "--clock" => clock = parse(&value(&mut it, arg)?, arg)?,
            "--voltages" | "--bers" | "--clock-stress" | "--modes" => {
                return Err(format!(
                    "compare-models fixes its own axes and modes; use \
                     --voltage/--ber/--clock for the per-model stress points \
                     (not {arg})"
                ));
            }
            other => {
                if !sweep.try_parse(other, &mut it)? {
                    return Err(unknown_option(other));
                }
            }
        }
    }
    // Canaries only apply to the voltage-scaled storage model.
    let naive_mat = mode_names(&[TrainingMode::Naive, TrainingMode::Mat]);
    let specs = [
        JobSpec {
            voltages: Some(vec![voltage]),
            modes: mode_names(&TrainingMode::ALL),
            ..sweep.spec.clone()
        },
        JobSpec {
            bers: Some(vec![ber]),
            modes: naive_mat.clone(),
            ..sweep.spec.clone()
        },
        JobSpec {
            clock: Some(vec![clock]),
            modes: naive_mat,
            ..sweep.spec.clone()
        },
    ];
    let plans = specs
        .iter()
        .map(|spec| {
            let mut plan = build_plan(spec)?;
            plan.threads = sweep.threads;
            Ok(plan)
        })
        .collect::<Result<_, String>>()?;
    Ok((sweep, plans))
}

/// `matic compare-models`: run all three fault models at a matched
/// stress point each and print naive/MAT/MAT+canary side by side —
/// canaries only apply to the voltage-scaled storage model, so the
/// synthetic models show an em dash there.
fn run_compare_command(args: &[String]) -> Result<(), String> {
    let (sweep, plans) = compare_plans(args)?;
    let cache = sweep.open_cache()?;

    let mut runs: Vec<(f64, SweepReport)> = Vec::new();
    for plan in &plans {
        narrate(
            sweep.quiet,
            format_args!(
                "compare: {} at {} {} ({} cells), plan {}",
                plan.model.name(),
                plan.axis.points()[0],
                plan.axis.kind(),
                plan.cell_count(),
                plan.fingerprint(),
            ),
        );
        let stress = plan.axis.points()[0];
        let run = matic_harness::run_sweep_with_cache(plan, cache.as_ref().map(|(_, c)| c));
        runs.push((stress, run.report));
    }

    if !sweep.quiet {
        print_compare_table(&runs);
    }
    let out = sweep
        .out
        .unwrap_or_else(|| "matic-compare-models.json".to_string());
    let doc = compare_models_json(&runs);
    matic_harness::write_atomic(
        Path::new(&out),
        &serde_json::to_string_pretty(&doc).map_err(|e| format!("serializing report: {e}"))?,
    )
    .map_err(|e| format!("writing {out}: {e}"))?;
    narrate(
        sweep.quiet,
        format_args!("compare: 3 fault models -> {out}"),
    );
    Ok(())
}

/// One comparison row per (model, benchmark): the three training modes'
/// mean errors at the model's stress point.
fn print_compare_table(runs: &[(f64, SweepReport)]) {
    println!(
        "{:>12} | {:>11} | {:>8} | {:>11} | {:>11} | {:>11}",
        "fault model", "benchmark", "stress", "naive err", "mat err", "mat-canary"
    );
    println!("{:-<78}", "");
    for (stress, report) in runs {
        for scenario in &report.plan.scenarios {
            let err = |mode: &str| {
                report
                    .points
                    .iter()
                    .find(|p| p.mode == mode && &p.scenario == scenario)
                    .map(|p| format!("{:.4}", p.error.mean))
                    .unwrap_or_else(|| "—".into())
            };
            println!(
                "{:>12} | {:>11} | {:>8.3} | {:>11} | {:>11} | {:>11}",
                report.plan.fault_model,
                scenario,
                stress,
                err("naive"),
                err("mat"),
                err("mat-canary"),
            );
        }
    }
}

/// The machine-readable comparison: per model, the stress point and the
/// per-benchmark/mode point summaries.
fn compare_models_json(runs: &[(f64, SweepReport)]) -> serde_json::Value {
    use serde_json::Value;
    let models: Vec<Value> = runs
        .iter()
        .map(|(stress, report)| {
            let points: Vec<Value> = report
                .points
                .iter()
                .map(|p| {
                    Value::Map(vec![
                        ("scenario".into(), Value::Str(p.scenario.clone())),
                        ("mode".into(), Value::Str(p.mode.clone())),
                        ("error_mean".into(), Value::F64(p.error.mean)),
                        ("error_std".into(), Value::F64(p.error.std_dev)),
                        ("fail_rate".into(), Value::F64(p.fail_rate)),
                    ])
                })
                .collect();
            Value::Map(vec![
                ("model".into(), Value::Str(report.plan.fault_model.clone())),
                (
                    "stress_kind".into(),
                    Value::Str(report.plan.stress_kind.clone()),
                ),
                ("stress".into(), Value::F64(*stress)),
                ("points".into(), Value::Seq(points)),
            ])
        })
        .collect();
    serde_json::Value::Map(vec![
        (
            "schema".into(),
            serde_json::Value::Str("matic.compare-models/v1".into()),
        ),
        ("models".into(), serde_json::Value::Seq(models)),
    ])
}

/// Cache-path resolution shared by `serve` (same precedence as the
/// sweep flags: --no-cache > --cache-dir > --resume default).
fn resolve_cache(cache_dir: Option<String>, resume: bool, no_cache: bool) -> Option<String> {
    match (cache_dir, resume) {
        _ if no_cache => None,
        (Some(dir), _) => Some(dir),
        (None, true) => Some(DEFAULT_CACHE_DIR.to_string()),
        (None, false) => None,
    }
}

/// `matic serve`: run the long-lived sweep service until a shutdown
/// request drains it.
fn run_serve_command(args: &[String]) -> Result<(), String> {
    let mut socket = DEFAULT_SOCKET.to_string();
    let mut http: Option<String> = None;
    let mut workers = rayon::current_num_threads();
    let mut cache_dir: Option<String> = None;
    let (mut resume, mut no_cache, mut quiet) = (false, false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" | "--socket" => socket = value(&mut it, arg)?,
            "--http" => http = Some(value(&mut it, arg)?),
            "--workers" => workers = parse_nonzero(&value(&mut it, arg)?, arg)?,
            "--cache-dir" => cache_dir = Some(value(&mut it, arg)?),
            "--resume" => resume = true,
            "--no-cache" => no_cache = true,
            "--quiet" => quiet = true,
            other => return Err(unknown_option(other)),
        }
    }
    let cfg = matic_serve::ServeConfig {
        socket: socket.into(),
        workers,
        cache_dir: resolve_cache(cache_dir, resume, no_cache).map(Into::into),
        quiet,
        http,
    };
    matic_serve::serve(cfg)
}

/// `matic submit`: send one job to the service, stream its progress,
/// and write the report the daemon streams back.
fn run_submit_command(args: &[String]) -> Result<(), String> {
    let mut sweep = SweepArgs::default();
    let mut socket = DEFAULT_SOCKET.to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" | "--listen" => socket = value(&mut it, arg)?,
            other => {
                if !(sweep.try_parse_energy(other, &mut it)? || sweep.try_parse(other, &mut it)?) {
                    return Err(unknown_option(other));
                }
            }
        }
    }
    if sweep.threads.is_some() || sweep.cache_dir.is_some() || sweep.resume || sweep.no_cache {
        return Err(
            "--threads/--cache-dir/--resume/--no-cache are daemon-side execution knobs; \
             start `matic serve` with --workers (its thread count), --cache-dir, \
             --resume or --no-cache instead"
                .into(),
        );
    }
    if sweep.csv.is_some() {
        return Err("submit streams the JSON report only; use `matic sweep --csv` locally".into());
    }
    let quiet = sweep.quiet;
    let endpoint = matic_serve::Endpoint::parse(&socket);
    let outcome = matic_serve::client::submit(&endpoint, &sweep.spec, |event| match event {
        matic_serve::Event::Accepted { id, cells_total } => {
            narrate(
                quiet,
                format_args!("submit: job {id} accepted ({cells_total} cells)"),
            );
        }
        matic_serve::Event::Progress {
            id,
            done,
            total,
            hits,
            deduped,
            misses,
        } => {
            narrate(
                quiet,
                format_args!(
                    "submit: job {id} {done}/{total} cells \
                     ({hits} hits, {deduped} deduped, {misses} misses)"
                ),
            );
        }
        _ => {}
    })?;
    match outcome {
        matic_serve::Event::Done {
            id,
            report,
            hits,
            deduped,
            misses,
        } => {
            let out = sweep.out_path();
            matic_harness::write_atomic(Path::new(&out), &report)
                .map_err(|e| format!("writing {out}: {e}"))?;
            narrate(
                quiet,
                format_args!(
                    "submit: job {id} done -> {out} ({hits} hits, {deduped} deduped, {misses} misses)"
                ),
            );
            Ok(())
        }
        matic_serve::Event::Cancelled {
            id,
            cells_done,
            cells_total,
        } => Err(format!(
            "job {id} was cancelled after {cells_done}/{cells_total} cells \
             (finished cells are checkpointed; resubmit to resume)"
        )),
        matic_serve::Event::Rejected { reason } => Err(format!("submission rejected: {reason}")),
        matic_serve::Event::Failed { id, reason } => Err(format!("job {id} failed: {reason}")),
        other => Err(format!("unexpected terminal event: {other:?}")),
    }
}

/// Parses the one option every client command shares: the daemon
/// address (a Unix socket path or an `http://host:port` URL).
fn parse_socket_only(args: &[String], command: &str) -> Result<matic_serve::Endpoint, String> {
    let mut socket = DEFAULT_SOCKET.to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" | "--listen" => socket = value(&mut it, arg)?,
            other => return Err(format!("unknown option `{other}` for matic {command}")),
        }
    }
    Ok(matic_serve::Endpoint::parse(&socket))
}

/// `matic status`: one line per job the daemon knows about.
fn run_status_command(args: &[String]) -> Result<(), String> {
    let endpoint = parse_socket_only(args, "status")?;
    match matic_serve::client::roundtrip(&endpoint, &matic_serve::Request::Status)? {
        matic_serve::Event::Status { jobs } => {
            if jobs.is_empty() {
                println!("no jobs");
                return Ok(());
            }
            println!(
                "{:>4} | {:>9} | {:>6} | {:>11} | {:>6} | {:>7} | {:>6}",
                "id", "phase", "kind", "cells", "hits", "deduped", "misses"
            );
            for j in jobs {
                println!(
                    "{:>4} | {:>9} | {:>6} | {:>5}/{:<5} | {:>6} | {:>7} | {:>6}",
                    j.id,
                    j.phase,
                    match j.kind {
                        JobKind::Sweep => "sweep",
                        JobKind::Energy => "energy",
                    },
                    j.cells_done,
                    j.cells_total,
                    j.hits,
                    j.deduped,
                    j.misses,
                );
            }
            Ok(())
        }
        matic_serve::Event::Error { reason } => Err(reason),
        other => Err(format!("unexpected status answer: {other:?}")),
    }
}

/// `matic cancel ID`: request a cooperative stop at the next cell
/// boundary.
fn run_cancel_command(args: &[String]) -> Result<(), String> {
    let id: u64 = match args.first() {
        Some(first) if !first.starts_with("--") => parse(first, "job id")?,
        _ => return Err("cancel needs a job id: matic cancel ID [--socket PATH]".into()),
    };
    let endpoint = parse_socket_only(&args[1..], "cancel")?;
    match matic_serve::client::roundtrip(&endpoint, &matic_serve::Request::Cancel(id))? {
        matic_serve::Event::CancelOk { id, phase } => {
            println!("job {id}: cancel requested (was {phase})");
            Ok(())
        }
        matic_serve::Event::Error { reason } => Err(reason),
        other => Err(format!("unexpected cancel answer: {other:?}")),
    }
}

/// `matic shutdown`: drain in-flight cells and stop the daemon.
fn run_shutdown_command(args: &[String]) -> Result<(), String> {
    let endpoint = parse_socket_only(args, "shutdown")?;
    match matic_serve::client::roundtrip(&endpoint, &matic_serve::Request::Shutdown)? {
        matic_serve::Event::ShutdownOk { jobs_drained } => {
            println!("daemon drained ({jobs_drained} live jobs stopped) and exiting");
            Ok(())
        }
        matic_serve::Event::Error { reason } => Err(reason),
        other => Err(format!("unexpected shutdown answer: {other:?}")),
    }
}

/// A scratch cluster of `matic serve` children backing one
/// `shard-sweep --spawn` run: unique sockets in a temp dir, one shared
/// content-addressed cache, drained and removed when the merge lands.
struct SpawnedCluster {
    dir: std::path::PathBuf,
    sockets: Vec<std::path::PathBuf>,
    children: Vec<std::process::Child>,
}

impl SpawnedCluster {
    fn launch(
        n: usize,
        workers: Option<usize>,
        cache_dir: Option<String>,
        no_cache: bool,
        quiet: bool,
    ) -> Result<SpawnedCluster, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the matic binary: {e}"))?;
        let dir = std::env::temp_dir().join(format!("matic-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("creating scratch dir {}: {e}", dir.display()))?;
        // The shared cache is what makes failover cheap: cells a dying
        // daemon checkpointed replay on the survivor instead of
        // recomputing. --no-cache turns that off for cold-timing runs.
        let cache = (!no_cache)
            .then(|| cache_dir.unwrap_or_else(|| dir.join("cache").display().to_string()));
        let workers = workers.unwrap_or_else(|| (rayon::current_num_threads() / n).max(1));
        let mut cluster = SpawnedCluster {
            dir: dir.clone(),
            sockets: Vec::new(),
            children: Vec::new(),
        };
        for i in 0..n {
            let socket = dir.join(format!("d{i}.sock"));
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("serve")
                .arg("--listen")
                .arg(&socket)
                .arg("--workers")
                .arg(workers.to_string())
                .arg("--quiet");
            if let Some(cache) = &cache {
                cmd.arg("--cache-dir").arg(cache);
            }
            match cmd.spawn() {
                Ok(child) => {
                    cluster.children.push(child);
                    cluster.sockets.push(socket);
                }
                Err(e) => {
                    cluster.teardown(quiet);
                    return Err(format!("spawning daemon {i}: {e}"));
                }
            }
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        for socket in &cluster.sockets {
            while !socket.exists() {
                if std::time::Instant::now() >= deadline {
                    let socket = socket.display().to_string();
                    cluster.teardown(quiet);
                    return Err(format!("spawned daemon never bound {socket}"));
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
        narrate(
            quiet,
            format_args!(
                "shard-sweep: spawned {n} daemons x {workers} workers under {}",
                dir.display()
            ),
        );
        Ok(cluster)
    }

    fn endpoints(&self) -> Vec<matic_serve::Endpoint> {
        self.sockets
            .iter()
            .map(matic_serve::Endpoint::unix)
            .collect()
    }

    /// Drains every daemon, reaps the children (killing any that
    /// ignores the drain), and removes the scratch dir. A user-supplied
    /// --cache-dir lives outside the scratch dir and survives.
    fn teardown(mut self, quiet: bool) {
        for socket in &self.sockets {
            let _ = matic_serve::client::roundtrip(
                &matic_serve::Endpoint::unix(socket),
                &matic_serve::Request::Shutdown,
            );
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) if std::time::Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(std::time::Duration::from_millis(25)),
                }
            }
        }
        narrate(quiet, format_args!("shard-sweep: cluster drained"));
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `matic shard-sweep`: split one sweep into chip-range shards, farm
/// them out to several daemons, and merge the byte-identical report.
fn run_shard_sweep_command(args: &[String]) -> Result<(), String> {
    let mut sweep = SweepArgs::default();
    let mut daemons: Vec<String> = Vec::new();
    let mut spawn: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut retries: Option<usize> = None;
    let mut backoff_ms: Option<u64> = None;
    let mut timeout_secs: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--daemons" => {
                daemons = value(&mut it, arg)?
                    .split(',')
                    .map(|d| d.trim().to_string())
                    .filter(|d| !d.is_empty())
                    .collect();
            }
            "--spawn" => spawn = Some(parse_nonzero(&value(&mut it, arg)?, arg)?),
            "--workers" => workers = Some(parse_nonzero(&value(&mut it, arg)?, arg)?),
            "--shards" => shards = Some(parse_nonzero(&value(&mut it, arg)?, arg)?),
            "--retries" => retries = Some(parse(&value(&mut it, arg)?, arg)?),
            "--backoff-ms" => backoff_ms = Some(parse(&value(&mut it, arg)?, arg)?),
            "--timeout-secs" => timeout_secs = Some(parse(&value(&mut it, arg)?, arg)?),
            other => {
                if !(sweep.try_parse_energy(other, &mut it)? || sweep.try_parse(other, &mut it)?) {
                    return Err(unknown_option(other));
                }
            }
        }
    }
    if sweep.threads.is_some() {
        return Err(
            "--threads is a daemon-side knob; use --workers for spawned daemons \
             or set it on each `matic serve`"
                .into(),
        );
    }
    match (daemons.is_empty(), spawn) {
        (false, Some(_)) => return Err("--daemons and --spawn are mutually exclusive".into()),
        (true, None) => return Err("shard-sweep needs daemons: --daemons LIST or --spawn N".into()),
        _ => {}
    }
    if spawn.is_none() {
        if sweep.cache_dir.is_some() || sweep.resume || sweep.no_cache {
            return Err(
                "--cache-dir/--resume/--no-cache configure spawned daemons; with \
                 --daemons the cache belongs to each `matic serve`"
                    .into(),
            );
        }
        if workers.is_some() {
            return Err(
                "--workers sizes spawned daemons; with --daemons set it on each \
                 `matic serve`"
                    .into(),
            );
        }
    }

    let quiet = sweep.quiet;
    let mut cluster: Option<SpawnedCluster> = None;
    let endpoints: Vec<matic_serve::Endpoint> = match spawn {
        Some(n) => {
            let c = SpawnedCluster::launch(n, workers, sweep.cache_path(), sweep.no_cache, quiet)?;
            let eps = c.endpoints();
            cluster = Some(c);
            eps
        }
        None => daemons
            .iter()
            .map(|d| matic_serve::Endpoint::parse(d))
            .collect(),
    };

    let mut cfg = matic_serve::ShardSweepConfig::new(endpoints);
    cfg.shards = shards;
    if let Some(n) = retries {
        cfg.retries = n;
    }
    if let Some(ms) = backoff_ms {
        cfg.backoff = std::time::Duration::from_millis(ms);
    }
    if let Some(secs) = timeout_secs {
        cfg.timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
    }

    let start = std::time::Instant::now();
    let result = matic_serve::shard_sweep(&sweep.spec, &cfg, &|progress| match progress {
        matic_serve::ShardProgress::Event {
            shard,
            endpoint,
            event,
        } => match event {
            matic_serve::Event::Accepted { id, cells_total } => narrate(
                quiet,
                format_args!(
                    "shard {shard}: job {id} accepted on {endpoint} ({cells_total} cells)"
                ),
            ),
            matic_serve::Event::Progress {
                id, done, total, ..
            } => narrate(
                quiet,
                format_args!("shard {shard}: job {id} {done}/{total} cells on {endpoint}"),
            ),
            _ => {}
        },
        matic_serve::ShardProgress::Failover {
            shard,
            from,
            to,
            reason,
            delay,
        } => narrate(
            quiet,
            format_args!("shard {shard}: {from} failed ({reason}); retrying on {to} in {delay:?}"),
        ),
    });
    if let Some(cluster) = cluster {
        cluster.teardown(quiet);
    }
    let outcome = result?;
    let elapsed = start.elapsed();

    let out = sweep.out_path();
    matic_harness::write_atomic(Path::new(&out), &outcome.report)
        .map_err(|e| format!("writing {out}: {e}"))?;
    if let Some(path) = &sweep.csv {
        // The merged run is local, so (unlike submit) the CSV views are
        // available — and byte-identical to the single-process ones.
        let csv = match sweep.spec.kind {
            JobKind::Sweep => outcome.run.report.to_csv(),
            JobKind::Energy => {
                matic_serve::job::energy_analysis(&sweep.spec, &outcome.run.report)?.to_csv()
            }
        };
        matic_harness::write_atomic(Path::new(path), &csv)
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    narrate(
        quiet,
        format_args!(
            "shard-sweep: {} shards, {} failovers, {} hits, {} deduped, {} misses \
             in {:.1}s -> {out}{}",
            outcome.shards,
            outcome.failovers,
            outcome.hits,
            outcome.deduped,
            outcome.misses,
            elapsed.as_secs_f64(),
            sweep
                .csv
                .as_ref()
                .map(|p| format!(" + {p}"))
                .unwrap_or_default(),
        ),
    );
    Ok(())
}

/// `matic cache stats|clear [--cache-dir PATH]`.
fn run_cache_command(args: &[String]) -> Result<(), String> {
    let action = args
        .first()
        .map(String::as_str)
        .ok_or("cache needs an action: stats or clear")?;
    let mut dir = DEFAULT_CACHE_DIR.to_string();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => dir = value(&mut it, arg)?,
            other => return Err(unknown_option(other)),
        }
    }
    // Inspection/maintenance must not conjure a cache out of a typo'd
    // path (or mutate anything on a typo'd action): validate everything
    // before SweepCache::open, which mkdir-s. Only `sweep` creates.
    if !matches!(action, "stats" | "clear") {
        return Err(format!("unknown cache action `{action}` (stats or clear)"));
    }
    if !Path::new(&dir).join("cells").is_dir() {
        return Err(format!(
            "no sweep cache at {dir} (a sweep with --cache-dir/--resume creates one)"
        ));
    }
    let cache = SweepCache::open(&dir).map_err(|e| format!("opening sweep cache {dir}: {e}"))?;
    match action {
        "stats" => {
            let stats = cache
                .stats()
                .map_err(|e| format!("reading cache {dir}: {e}"))?;
            println!("cache {dir}: {} cells, {} bytes", stats.cells, stats.bytes);
            println!(
                "cache {dir}: {} profiles, {} bytes",
                stats.profiles, stats.profile_bytes
            );
            Ok(())
        }
        "clear" => {
            let removed = cache
                .clear()
                .map_err(|e| format!("clearing cache {dir}: {e}"))?;
            println!(
                "cache {dir}: removed {} cells, {} profiles",
                removed.cells, removed.profiles
            );
            Ok(())
        }
        _ => unreachable!("action validated above"),
    }
}

fn print_summary(report: &SweepReport) {
    println!(
        "{:>11} | {:>10} | {:>8} | {:>11} | {:>9} | {:>9} | {:>9}",
        "benchmark",
        "mode",
        report.plan.stress_kind.as_str(),
        "mean err",
        "std",
        "fail rate",
        "mean pJ"
    );
    println!("{:-<84}", "");
    for p in &report.points {
        println!(
            "{:>11} | {:>10} | {:>8.3} | {:>11.4} | {:>9.4} | {:>8.1}% | {:>9}",
            p.scenario,
            p.mode,
            p.stress,
            p.error.mean,
            p.error.std_dev,
            p.fail_rate * 100.0,
            p.mean_energy_pj
                .map(|e| format!("{e:.1}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
}

fn print_energy_summary(energy: &EnergyReport) {
    println!(
        "{:>11} | {:>10} | {:>11} | {:>6} | {:>9} | {:>11} | {:>9} | {:>11}",
        "benchmark", "mode", "scenario", "Vsram", "pJ/cycle", "base pJ/cy", "reduction", "mean err"
    );
    println!("{:-<98}", "");
    for b in &energy.benchmarks {
        for outcome in &b.scenarios {
            match &outcome.selection {
                Some(s) => println!(
                    "{:>11} | {:>10} | {:>11} | {:>6.2} | {:>9.2} | {:>11.2} | {:>8.2}x | {:>11.4}",
                    b.benchmark,
                    b.mode,
                    outcome.scenario,
                    s.v_sram,
                    s.logic_pj_per_cycle + s.sram_pj_per_cycle,
                    s.baseline_pj_per_cycle,
                    s.reduction,
                    s.mean_error,
                ),
                None => println!(
                    "{:>11} | {:>10} | {:>11} | {:>6} | {:>9} | {:>11} | {:>9} | {:>11}",
                    b.benchmark,
                    b.mode,
                    outcome.scenario,
                    "-",
                    "-",
                    "-",
                    "-",
                    no_selection_reason(&outcome.scenario, &b.tradeoff),
                ),
            }
        }
    }
}

/// Why a Table II scenario selected nothing: every swept point below its
/// SRAM floor, points above the floor all over the accuracy budget, or —
/// the EnOpt_joint corner — feasible points whose shared rail sits below
/// the delay model's threshold and cannot clock. The JSON report carries
/// the per-point flags; this is just the summary-table hint.
fn no_selection_reason(scenario: &str, tradeoff: &[matic_harness::TradeoffPoint]) -> &'static str {
    let floor = matic_energy::Scenario::ALL
        .iter()
        .find(|s| s.name() == scenario)
        .map(|s| s.sram_floor())
        .unwrap_or(0.0);
    if tradeoff.iter().all(|p| p.v_sram < floor) {
        "below floor"
    } else if tradeoff.iter().any(|p| p.feasible && p.v_sram >= floor) {
        // A feasible, above-floor point existed yet nothing was selected:
        // the only remaining filter is the scenario's clock.
        "unclockable"
    } else {
        "over budget"
    }
}

/// The value following flag `name`.
fn value(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{name} needs a value"))
}

fn unknown_option(arg: &str) -> String {
    format!("unknown option `{arg}` (see `matic help`)")
}

fn parse<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("invalid value `{s}` for {name}"))
}

/// Parses a worker/thread count, rejecting `0` up front: the rayon shim
/// reads `num_threads(0)` as "automatic", so a literal `--threads 0`
/// would silently mean "all cores" instead of erroring.
fn parse_nonzero(s: &str, name: &str) -> Result<usize, String> {
    let n: usize = parse(s, name)?;
    if n == 0 {
        return Err(format!(
            "{name} must be at least 1 (omit {name} to use all cores)"
        ));
    }
    Ok(n)
}

/// The one choke point for stderr progress narration: `--quiet`
/// silences every line that goes through here, while errors (which
/// never do) keep printing.
fn narrate(quiet: bool, msg: std::fmt::Arguments<'_>) {
    if !quiet {
        eprintln!("{msg}");
    }
}

/// Parses `lo:hi:steps` (inclusive linear grid) or a comma-separated
/// list. Every value must be finite (`f64::from_str` happily accepts
/// `nan`/`inf`, which would otherwise reach the plan builder), a grid
/// must have `lo <= hi`, and a single-step grid can only cover a
/// degenerate `lo == hi` range.
fn parse_grid(spec: &str) -> Result<Vec<f64>, String> {
    let finite = |v: f64, what: &str| {
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("{what} in `{spec}` must be a finite number"))
        }
    };
    if spec.contains(':') {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("grid `{spec}` must be lo:hi:steps"));
        }
        let lo = finite(parse(parts[0], "grid lo")?, "grid lo")?;
        let hi = finite(parse(parts[1], "grid hi")?, "grid hi")?;
        let steps: usize = parse(parts[2], "grid steps")?;
        if steps == 0 {
            return Err("grid needs at least one step".into());
        }
        if lo > hi {
            return Err(format!(
                "grid `{spec}` is reversed (lo > hi); write lo:hi:steps with lo <= hi"
            ));
        }
        if steps == 1 && lo != hi {
            return Err(format!(
                "grid `{spec}` has one step but lo != hi, which would silently drop hi; \
                 use steps >= 2 (or lo == hi for a single point)"
            ));
        }
        Ok(matic_harness::linspace(lo, hi, steps))
    } else {
        spec.split(',')
            .map(|v| finite(parse(v.trim(), "grid value")?, "grid value"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grid_accepts_lists_and_grids() {
        assert_eq!(parse_grid("0.5,0.9").unwrap(), vec![0.5, 0.9]);
        assert_eq!(parse_grid(" 0.5 , 0.9 ").unwrap(), vec![0.5, 0.9]);
        let grid = parse_grid("0.5:0.9:3").unwrap();
        assert_eq!(grid, vec![0.5, 0.7, 0.9]);
        // A degenerate single-point grid is fine when lo == hi.
        assert_eq!(parse_grid("0.5:0.5:1").unwrap(), vec![0.5]);
    }

    #[test]
    fn parse_grid_rejects_non_finite_values() {
        // `f64::from_str` accepts all of these spellings.
        for spec in ["nan,0.5", "0.5,NaN", "inf,0.5", "0.5,-inf", "infinity"] {
            let err = parse_grid(spec).unwrap_err();
            assert!(err.contains("finite"), "`{spec}`: {err}");
        }
        for spec in ["nan:0.9:5", "0.5:inf:5"] {
            let err = parse_grid(spec).unwrap_err();
            assert!(err.contains("finite"), "`{spec}`: {err}");
        }
    }

    #[test]
    fn parse_grid_rejects_degenerate_grids() {
        // Regression: `0.5:0.9:1` used to silently return [0.5].
        let err = parse_grid("0.5:0.9:1").unwrap_err();
        assert!(err.contains("one step"), "{err}");
        // Regression: reversed bounds were accepted without complaint.
        let err = parse_grid("0.9:0.5:3").unwrap_err();
        assert!(err.contains("reversed"), "{err}");
        assert!(parse_grid("0.5:0.9:0").is_err(), "zero steps");
        assert!(parse_grid("0.5:0.9").is_err(), "two fields");
        assert!(parse_grid("0.5:0.9:3:4").is_err(), "four fields");
        assert!(parse_grid("0.5:x:3").is_err(), "non-numeric bound");
    }

    #[test]
    fn threads_zero_is_a_cli_error_not_a_rayon_default() {
        // Regression: `--threads 0` used to reach the rayon shim, whose
        // `num_threads(0)` silently means "all cores".
        let mut sweep = SweepArgs::default();
        let args: Vec<String> = ["--threads", "0"].iter().map(|s| s.to_string()).collect();
        let mut it = args.iter();
        let err = sweep.try_parse(&args[0], {
            it.next();
            &mut it
        });
        let err = err.unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        // Positive counts still parse.
        let args: Vec<String> = ["--threads", "3"].iter().map(|s| s.to_string()).collect();
        let mut it = args.iter();
        it.next();
        assert!(sweep.try_parse(&args[0], &mut it).unwrap());
        assert_eq!(sweep.threads, Some(3));
    }

    #[test]
    fn serve_worker_counts_reject_zero() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = run_serve_command(&args(&["--workers", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "--workers: {err}");
        let err = run_serve_command(&args(&["--queue-depth", "4"])).unwrap_err();
        assert_eq!(err, unknown_option("--queue-depth"));
    }

    #[test]
    fn submit_rejects_daemon_side_execution_flags() {
        for extra in [
            vec!["--threads", "2"],
            vec!["--cache-dir", "c"],
            vec!["--resume"],
            vec!["--no-cache"],
        ] {
            let args: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
            let err = run_submit_command(&args).unwrap_err();
            assert!(err.contains("daemon-side"), "{extra:?}: {err}");
        }
        let args: Vec<String> = ["--csv", "x.csv"].iter().map(|s| s.to_string()).collect();
        let err = run_submit_command(&args).unwrap_err();
        assert!(err.contains("JSON report only"), "{err}");
    }

    #[test]
    fn submit_threads_error_names_the_serve_option() {
        let args: Vec<String> = ["--threads", "2"].iter().map(|s| s.to_string()).collect();
        let err = run_submit_command(&args).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn energy_rejects_report_plus_sweep_shaping() {
        let args: Vec<String> = ["--report", "r.json", "--chips", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run_energy_command(&args).unwrap_err();
        assert!(err.contains("--report"), "{err}");
    }

    #[test]
    fn energy_rejects_the_ber_axis() {
        let args: Vec<String> = ["--bers", "0.01,0.05"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run_energy_command(&args).unwrap_err();
        assert!(err.contains("voltage-axis"), "{err}");
    }

    #[test]
    fn energy_rejects_the_clock_axis() {
        let args: Vec<String> = ["--clock-stress", "0.4,0.8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run_energy_command(&args).unwrap_err();
        assert!(err.contains("voltage-axis"), "{err}");
    }

    #[test]
    fn stress_axes_are_mutually_exclusive() {
        for pair in [
            ["--voltages", "0.9", "--bers", "0.01"],
            ["--voltages", "0.9", "--clock-stress", "0.5"],
            ["--bers", "0.01", "--clock-stress", "0.5"],
        ] {
            let args: Vec<String> = pair.iter().map(|s| s.to_string()).collect();
            let mut sweep = SweepArgs::default();
            let mut it = args.iter();
            while let Some(arg) = it.next() {
                assert!(sweep.try_parse(arg, &mut it).unwrap());
            }
            let err = build_plan(&sweep.spec).unwrap_err();
            assert!(err.contains("mutually exclusive"), "{pair:?}: {err}");
        }
    }

    #[test]
    fn compare_models_owns_its_axes_and_modes() {
        for flag in [
            ["--voltages", "0.9"],
            ["--bers", "0.01"],
            ["--clock-stress", "0.5"],
            ["--modes", "naive"],
        ] {
            let args: Vec<String> = flag.iter().map(|s| s.to_string()).collect();
            let err = run_compare_command(&args).unwrap_err();
            assert!(
                err.contains("compare-models fixes its own axes"),
                "{flag:?}: {err}"
            );
        }
    }

    #[test]
    fn output_knobs_do_not_count_as_sweep_shaping() {
        let mut sweep = SweepArgs::default();
        let args: Vec<String> = ["--out", "x.json", "--csv", "x.csv", "--quiet"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            assert!(sweep.try_parse(arg, &mut it).unwrap());
        }
        assert!(!sweep.sweep_shaped);
    }

    #[test]
    fn no_selection_reason_names_the_real_constraint() {
        let point = |v_sram: f64| matic_harness::TradeoffPoint {
            v_sram,
            mean_error: 1.0,
            mean_energy_pj: 1.0,
            mean_power_watts: 1.0,
            feasible: false,
            on_frontier: false,
        };
        // Every swept point below HighPerf's 0.65 V periphery floor: the
        // budget is irrelevant, and saying "over budget" would send the
        // user to the wrong knob.
        let low = [point(0.55), point(0.50)];
        assert_eq!(no_selection_reason("HighPerf", &low), "below floor");
        assert_eq!(no_selection_reason("EnOpt_split", &low), "over budget");
        let mixed = [point(0.65), point(0.50)];
        assert_eq!(no_selection_reason("HighPerf", &mixed), "over budget");
        // A feasible above-floor point that still produced no selection
        // can only have been dropped by the clock filter (EnOpt_joint
        // with the shared rail below the delay threshold).
        let feasible_low = [matic_harness::TradeoffPoint {
            feasible: true,
            ..point(0.40)
        }];
        assert_eq!(
            no_selection_reason("EnOpt_joint", &feasible_low),
            "unclockable"
        );
    }

    #[test]
    fn shard_sweep_requires_a_daemon_mode() {
        let err = run_shard_sweep_command(&[]).unwrap_err();
        assert!(err.contains("--daemons LIST or --spawn N"), "{err}");
        let args: Vec<String> = ["--daemons", "a.sock", "--spawn", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run_shard_sweep_command(&args).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn shard_sweep_rejects_misplaced_execution_knobs() {
        // --threads belongs to the daemons in either mode.
        let args: Vec<String> = ["--spawn", "2", "--threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run_shard_sweep_command(&args).unwrap_err();
        assert!(err.contains("daemon-side"), "{err}");
        // Cache and worker knobs only make sense for daemons this
        // command spawns itself.
        for extra in [
            vec!["--cache-dir", "c"],
            vec!["--resume"],
            vec!["--no-cache"],
            vec!["--workers", "2"],
        ] {
            let mut args = vec!["--daemons".to_string(), "a.sock,b.sock".to_string()];
            args.extend(extra.iter().map(|s| s.to_string()));
            let err = run_shard_sweep_command(&args).unwrap_err();
            assert!(err.contains("spawned daemons"), "{extra:?}: {err}");
        }
    }

    #[test]
    fn shard_sweep_counts_reject_zero() {
        for (args, what) in [
            (vec!["--spawn", "0"], "--spawn"),
            (vec!["--daemons", "a.sock", "--shards", "0"], "--shards"),
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run_shard_sweep_command(&args).unwrap_err();
            assert!(err.contains("at least 1"), "{what}: {err}");
        }
    }

    #[test]
    fn client_addresses_parse_to_endpoints() {
        let args: Vec<String> = ["--socket", "http://10.0.0.7:4500"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let endpoint = parse_socket_only(&args, "status").unwrap();
        assert_eq!(
            endpoint,
            matic_serve::Endpoint::Http("10.0.0.7:4500".to_string())
        );
        let endpoint = parse_socket_only(&[], "status").unwrap();
        assert_eq!(endpoint, matic_serve::Endpoint::unix(DEFAULT_SOCKET));
    }

    #[test]
    fn energy_rejects_report_plus_execution_flags() {
        // --threads/--cache-dir/--resume/--no-cache do nothing under
        // --report; silently ignoring them would let a user believe the
        // cache was consulted.
        for extra in [
            vec!["--threads", "2"],
            vec!["--cache-dir", "c"],
            vec!["--resume"],
            vec!["--no-cache"],
        ] {
            let mut args = vec!["--report".to_string(), "r.json".to_string()];
            args.extend(extra.iter().map(|s| s.to_string()));
            let err = run_energy_command(&args).unwrap_err();
            assert!(err.contains("--report"), "{extra:?}: {err}");
        }
    }

    #[test]
    fn unknown_benchmark_error_lists_valid_names() {
        let mut sweep = SweepArgs::default();
        sweep.spec.benchmarks = vec!["mnits".to_string()]; // typo'd mnist
        let err = build_plan(&sweep.spec).unwrap_err();
        assert!(err.contains("unknown benchmark `mnits`"), "{err}");
        // The error must name every valid choice, so a typo is
        // self-correcting from the message alone.
        for name in ["mnist", "facedet", "inversek2j", "bscholes", "all"] {
            assert!(err.contains(name), "missing `{name}` in: {err}");
        }
    }

    #[test]
    fn topology_flag_parses_and_shapes_the_plan() {
        let mut sweep = SweepArgs::default();
        let args: Vec<String> = ["--topology", "10x10x1;conv3x4;pool2;dense10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut it = args.iter();
        it.next();
        assert!(sweep.try_parse(&args[0], &mut it).unwrap());
        assert!(sweep.sweep_shaped, "--topology shapes the sweep");
        // The override only validates against benchmarks with matching
        // I/O widths — mnist is the 100-in/10-out one.
        sweep.spec.benchmarks = vec!["mnist".to_string()];
        let plan = build_plan(&sweep.spec).unwrap();
        assert_eq!(plan.scenarios.len(), 1);
        assert_eq!(plan.scenarios[0].name(), "mnist@conv3x4-pool2-dense10");

        // A malformed chain fails at the flag, mentioning the flag.
        let mut bad = SweepArgs::default();
        let args: Vec<String> = ["--topology", "10x10x1;convXx4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut it = args.iter();
        it.next();
        let err = bad.try_parse(&args[0], &mut it).unwrap_err();
        assert!(err.contains("--topology"), "{err}");

        // A well-formed chain whose I/O widths don't match the dataset
        // fails at plan build with the scenario named.
        let mut mismatched = SweepArgs::default();
        mismatched.spec.benchmarks = vec!["bscholes".to_string()]; // 6-in/1-out
        mismatched.spec.topology = Some("10x10x1;conv3x4;pool2;dense10".to_string());
        let err = build_plan(&mismatched.spec).unwrap_err();
        assert!(err.contains("bscholes"), "{err}");
    }

    #[test]
    fn compare_models_honours_the_topology_override() {
        // Regression: the comparison used to build its three plans from
        // the stock Table I networks, silently dropping --topology.
        let args: Vec<String> = [
            "--benchmarks",
            "mnist",
            "--topology",
            "10x10x1;conv3x4;pool2;dense10",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (_, plans) = compare_plans(&args).unwrap();
        let axes: Vec<&str> = plans.iter().map(|p| p.axis.kind()).collect();
        assert_eq!(axes, ["voltage", "ber", "clock"]);
        for plan in &plans {
            let names: Vec<&str> = plan.scenarios.iter().map(|s| s.name()).collect();
            assert_eq!(
                names,
                ["mnist@conv3x4-pool2-dense10"],
                "{}",
                plan.axis.kind()
            );
        }
    }
}
