//! End-to-end benchmark of the MATIC reproduction.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload voltage-mlp --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is a separate run that re-drives the workload
//! through the layer crates and reports the per-layer metrics. Either
//! way the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Scratch files
//! (the daemon's socket and caches) live under `.bench_run/<pid>/` and
//! are removed on exit; span traces are kept in `.bench_run/traces/`.

mod batch;
mod metrics;
mod redrive;
mod serve;
mod trace;
mod workloads;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["voltage-mlp", "ber-conv", "serve-replay"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = PathBuf::from(".bench_run").join(std::process::id().to_string());
    let traces = PathBuf::from(".bench_run").join("traces");
    if let Err(e) = std::fs::create_dir_all(&run_dir).and(std::fs::create_dir_all(&traces)) {
        eprintln!("perfbench: creating {}: {e}", run_dir.display());
        std::process::exit(1);
    }
    let trace_path = traces.join(format!("{}-seed{}", args.workload, args.seed));
    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("voltage-mlp", false) => batch::untraced(&workloads::VOLTAGE_MLP, args.seconds, &mut out),
        ("voltage-mlp", true) => {
            batch::traced(&workloads::VOLTAGE_MLP, args.seconds, &trace_path, &mut out)
        }
        ("ber-conv", false) => batch::untraced(&workloads::BER_CONV, args.seconds, &mut out),
        ("ber-conv", true) => {
            batch::traced(&workloads::BER_CONV, args.seconds, &trace_path, &mut out)
        }
        (_, trace) => serve::run(
            args.seed,
            args.seconds,
            trace.then_some(trace_path.as_path()),
            &run_dir,
            &mut out,
        ),
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    out.print(if args.trace { PER_LAYER } else { END_TO_END });
}
