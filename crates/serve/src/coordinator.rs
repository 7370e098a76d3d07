//! The `matic shard-sweep` coordinator: split a sweep into chip-range
//! shards, dispatch them to N daemons, survive daemon deaths, merge
//! byte-exactly.
//!
//! # Data flow
//!
//! ```text
//!                 ┌─ shard 0..2 ──▶ daemon A ─┐  ShardDone(cells)
//! SweepPlan ──────┼─ shard 2..4 ──▶ daemon B ─┼──▶ merge in grid order
//! (full, shared)  └─ shard 4..5 ──▶ daemon C ─┘    └▶ assemble_sweep
//! ```
//!
//! Every shard submission carries the **full** spec plus a `chip_range`
//! descriptor, so each daemon builds the identical plan and computes
//! its chips with the exact seeds the single-process run would use —
//! that (and the byte-lossless cell round-trip) is why the merged
//! report is `cmp`-identical to `matic sweep`.
//!
//! # Robustness
//!
//! Shards retry with exponential backoff, rotating to the next
//! endpoint on every attempt: a dead daemon's whole shard fails over to
//! a survivor. When the daemons share a content-addressed cache the
//! retry replays every cell the dead daemon had checkpointed, so no
//! completed work is ever recomputed. A configurable read timeout
//! (armed against the daemon's idle heartbeats) catches hung daemons,
//! not just dead ones.

use crate::job::{build_plan, report_text};
use crate::protocol::{Event, JobKind, JobSpec, Request, ShardUnit};
use crate::transport::Endpoint;
use matic_harness::{
    assemble_sharded, shard_chip_ranges, CellOrigin, SweepOutcome, SweepRun, UnitOutcome,
};
use std::time::Duration;

/// How a `shard_sweep` run is distributed.
pub struct ShardSweepConfig {
    /// The daemons to dispatch to (shard `i` starts on endpoint
    /// `i % len`, rotating on every retry).
    pub endpoints: Vec<Endpoint>,
    /// Shard count; `None` cuts one shard per endpoint.
    pub shards: Option<usize>,
    /// Re-attempts allowed per shard after its first failure.
    pub retries: usize,
    /// Backoff before the first re-attempt; doubles per retry.
    pub backoff: Duration,
    /// Read timeout per event; the daemon heartbeats every ~2 s, so
    /// anything comfortably above that only trips on a hung daemon.
    pub timeout: Option<Duration>,
}

impl ShardSweepConfig {
    /// Defaults: one shard per endpoint, 2 retries, 250 ms base
    /// backoff, a 60 s read timeout.
    pub fn new(endpoints: Vec<Endpoint>) -> Self {
        ShardSweepConfig {
            endpoints,
            shards: None,
            retries: 2,
            backoff: Duration::from_millis(250),
            timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// What the coordinator tells its caller as shards move.
pub enum ShardProgress<'a> {
    /// An event arrived on a shard's stream.
    Event {
        /// Shard index.
        shard: usize,
        /// The daemon it is running on.
        endpoint: String,
        /// The event (never terminal — terminals settle the shard).
        event: &'a Event,
    },
    /// A shard attempt failed; it will retry on `to` after `delay`.
    Failover {
        /// Shard index.
        shard: usize,
        /// The endpoint that failed.
        from: String,
        /// The endpoint the retry will use.
        to: String,
        /// Why the attempt died.
        reason: String,
        /// Backoff before the retry.
        delay: Duration,
    },
}

/// A merged shard-sweep: the reassembled run plus the distribution
/// accounting.
pub struct ShardOutcome {
    /// The merged sweep run; its report is byte-identical to the
    /// single-process run of the same spec.
    pub run: SweepRun,
    /// The final report text: the sweep report, or the energy report
    /// for [`JobKind::Energy`] specs (derived locally from the merge).
    pub report: String,
    /// Cache replays summed over the daemons' terminal counters.
    pub hits: usize,
    /// In-flight dedup replays, summed.
    pub deduped: usize,
    /// Fresh computations, summed.
    pub misses: usize,
    /// Shards dispatched.
    pub shards: usize,
    /// Attempts beyond each shard's first (retries + failovers).
    pub failovers: usize,
}

enum AttemptError {
    /// Worth another attempt (daemon dead, hung, draining, job failed).
    Retry(String),
    /// No daemon will ever accept this (bad spec); stop immediately.
    Fatal(String),
}

/// One settled shard: its units, its `[hits, deduped, misses]`, and how
/// many re-attempts it took.
type ShardResult = Result<(Vec<ShardUnit>, [usize; 3], usize), String>;

/// Runs `spec` as a sharded sweep across `cfg.endpoints` and merges the
/// result. `on_progress` observes every shard's stream and failovers;
/// it is called from shard worker threads.
pub fn shard_sweep(
    spec: &JobSpec,
    cfg: &ShardSweepConfig,
    on_progress: &(dyn Fn(ShardProgress<'_>) + Sync),
) -> Result<ShardOutcome, String> {
    if spec.chip_range.is_some() {
        return Err(
            "the spec already carries a chip_range; shard-sweep shards whole sweeps".into(),
        );
    }
    if cfg.endpoints.is_empty() {
        return Err("shard-sweep needs at least one daemon endpoint".into());
    }
    // Validate once, coordinator-side (energy checks included, so they
    // fail now, not post-merge), and learn the chip count to cut ranges
    // from. Shards go out as Sweep
    // jobs even for Energy specs: the energy analysis is a pure function
    // of the merged sweep report, derived locally below.
    let plan = build_plan(spec)?;
    let sweep_spec = JobSpec {
        kind: JobKind::Sweep,
        ..spec.clone()
    };
    let shards = cfg.shards.unwrap_or(cfg.endpoints.len()).max(1);
    let ranges = shard_chip_ranges(plan.chips, shards);

    let results: Vec<ShardResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(shard_idx, &range)| {
                let sweep_spec = &sweep_spec;
                scope.spawn(move || run_shard(shard_idx, range, sweep_spec, cfg, on_progress))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("shard worker thread panicked".into()))
            })
            .collect()
    });

    let mut parts = Vec::new();
    let (mut hits, mut deduped, mut misses, mut failovers) = (0usize, 0usize, 0usize, 0usize);
    let mut errors = Vec::new();
    for (shard_idx, result) in results.into_iter().enumerate() {
        match result {
            Ok((units, [h, d, m], attempts)) => {
                hits += h;
                deduped += d;
                misses += m;
                failovers += attempts;
                for unit in units {
                    let outcome = UnitOutcome {
                        // Origins are a local-provenance detail; the
                        // daemons' counters already carried the real
                        // ones, and assembly ignores origins for bytes.
                        cells: unit
                            .cells
                            .into_iter()
                            .map(|c| (c, CellOrigin::Computed))
                            .collect(),
                        cancelled: false,
                    };
                    parts.push(((unit.scen, unit.chip), outcome));
                }
            }
            Err(e) => errors.push(format!("shard {shard_idx}: {e}")),
        }
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }

    let run = match assemble_sharded(&plan, parts, false)
        .map_err(|e| format!("merging shard results: {e}"))?
    {
        SweepOutcome::Complete(run) => run,
        SweepOutcome::Cancelled(_) => unreachable!("shard parts never arrive cancelled"),
    };
    let report = report_text(spec, &run.report)?;
    Ok(ShardOutcome {
        run,
        report,
        hits,
        deduped,
        misses,
        shards: ranges.len(),
        failovers,
    })
}

/// One shard's life: attempt on its home endpoint, rotate to the next
/// endpoint with exponential backoff on every retryable failure.
/// Returns the shard's units, its `[hits, deduped, misses]`, and how
/// many re-attempts it took.
fn run_shard(
    shard_idx: usize,
    range: (usize, usize),
    sweep_spec: &JobSpec,
    cfg: &ShardSweepConfig,
    on_progress: &(dyn Fn(ShardProgress<'_>) + Sync),
) -> ShardResult {
    let shard_spec = JobSpec {
        chip_range: Some(range),
        ..sweep_spec.clone()
    };
    let mut attempt = 0usize;
    loop {
        let endpoint = &cfg.endpoints[(shard_idx + attempt) % cfg.endpoints.len()];
        match attempt_shard(shard_idx, endpoint, &shard_spec, cfg.timeout, on_progress) {
            Ok((units, counters)) => return Ok((units, counters, attempt)),
            Err(AttemptError::Fatal(reason)) => return Err(reason),
            Err(AttemptError::Retry(reason)) => {
                if attempt >= cfg.retries {
                    return Err(format!(
                        "chips {}..{} failed after {} attempts: {reason}",
                        range.0,
                        range.1,
                        attempt + 1
                    ));
                }
                let delay = cfg.backoff * 2u32.saturating_pow(attempt.min(16) as u32);
                let next = &cfg.endpoints[(shard_idx + attempt + 1) % cfg.endpoints.len()];
                on_progress(ShardProgress::Failover {
                    shard: shard_idx,
                    from: endpoint.to_string(),
                    to: next.to_string(),
                    reason,
                    delay,
                });
                std::thread::sleep(delay);
                attempt += 1;
            }
        }
    }
}

/// One submit-and-stream attempt against one daemon.
fn attempt_shard(
    shard_idx: usize,
    endpoint: &Endpoint,
    shard_spec: &JobSpec,
    timeout: Option<Duration>,
    on_progress: &(dyn Fn(ShardProgress<'_>) + Sync),
) -> Result<(Vec<ShardUnit>, [usize; 3]), AttemptError> {
    let where_ = endpoint.to_string();
    let mut stream = endpoint
        .open(&Request::Submit(shard_spec.clone()))
        .map_err(AttemptError::Retry)?;
    stream
        .set_read_timeout(timeout)
        .map_err(|e| AttemptError::Retry(format!("arming the read timeout: {e}")))?;
    loop {
        match stream.next_event() {
            Ok(Some(Event::ShardDone {
                units,
                hits,
                deduped,
                misses,
                ..
            })) => return Ok((units, [hits, deduped, misses])),
            Ok(Some(Event::Rejected { reason })) => {
                // A draining daemon is a transient condition — another
                // endpoint may still accept. A bad spec never will.
                if reason.starts_with("draining") {
                    return Err(AttemptError::Retry(format!("{where_} is draining")));
                }
                return Err(AttemptError::Fatal(format!("{where_} rejected: {reason}")));
            }
            Ok(Some(Event::Failed { reason, .. })) => {
                return Err(AttemptError::Retry(format!(
                    "job failed on {where_}: {reason}"
                )))
            }
            Ok(Some(Event::Cancelled { .. })) => {
                return Err(AttemptError::Retry(format!(
                    "the shard job was cancelled on {where_}"
                )))
            }
            Ok(Some(Event::Done { .. })) => {
                return Err(AttemptError::Fatal(format!(
                    "{where_} answered a shard submission with a full report; \
                     daemon too old for {}?",
                    crate::protocol::SERVE_SCHEMA
                )))
            }
            Ok(Some(event)) => on_progress(ShardProgress::Event {
                shard: shard_idx,
                endpoint: where_.clone(),
                event: &event,
            }),
            Ok(None) => return Err(AttemptError::Retry(format!("{where_} hung up mid-shard"))),
            Err(e) => return Err(AttemptError::Retry(format!("reading from {where_}: {e}"))),
        }
    }
}
