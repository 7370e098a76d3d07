//! `matic-serve` — the long-running sweep service.
//!
//! Where `matic sweep` is a batch script (one plan, run to completion,
//! exit), this crate turns the harness into a **daemon**: jobs arrive as
//! JSON-lines over a local Unix-domain socket or the vendored HTTP/1.1
//! shim ([`protocol`], [`transport`]), multiplex onto one shared worker
//! pool that hands out their units round-robin, stream per-cell
//! progress back to their clients from admission on, and share a
//! single content-addressed cell cache —
//! with an in-flight claim table so two jobs covering the same cell
//! trigger **one** computation ([`matic_harness::Inflight`]).
//!
//! On top of single daemons, the [`coordinator`] scales a sweep *out*:
//! `matic shard-sweep` splits the chip population into chip-seed-range
//! shards, dispatches them to N daemons (local or remote), retries and
//! fails shards over between daemons, and merges the partial results
//! back in grid order — byte-identical to the single-process run.
//!
//! The service guarantees (enforced by `tests/serve_e2e.rs` and the CI
//! serve smoke job):
//!
//! * **Determinism** — a report obtained via `matic submit` is
//!   byte-identical to the same plan run via `matic sweep`, across
//!   worker counts, concurrent-job interleavings, and cache states. The
//!   daemon reuses the engine's grid-order assembly and ships the exact
//!   report bytes as a string payload, never a re-serialized tree.
//! * **Exactly-once overlap** — overlapping concurrent jobs compute the
//!   shared cells once; the second observer replays them (visible as
//!   `deduped`/`hits` counters, never as different bytes).
//! * **Cancellation at cell granularity** — `matic cancel` stops a job
//!   at the next cell boundary; every finished cell is already
//!   checkpointed, so resubmitting the plan resumes instead of redoing.
//! * **Graceful drain** — shutdown finishes and checkpoints in-flight
//!   cells, answers new submissions with a structured rejection, then
//!   exits cleanly.
//! * **A status line per finished job** — a job ends in the terminal
//!   [`Event`] its stream sends, built once and handed to that stream.
//!   Its plan, datasets, memo and unit outcomes are freed when its last
//!   unit finishes, so a long-lived daemon keeps only the id, phase and
//!   counts `matic status` shows for each finished job.
//!
//! Everything is `std`-only: Unix sockets, threads, mutexes and
//! condvars — no new dependencies over the offline vendor set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod daemon;
mod http;
pub mod job;
mod pool;
pub mod protocol;
pub mod transport;

pub use coordinator::{shard_sweep, ShardOutcome, ShardProgress, ShardSweepConfig};
pub use daemon::{serve, ServeConfig};
pub use protocol::{Event, JobKind, JobSpec, JobStatusInfo, Request, ShardUnit, SERVE_SCHEMA};
pub use transport::{Endpoint, EventStream};
