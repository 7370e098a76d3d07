//! Workload generation. The program under test receives only the plans
//! and `JobSpec`s built here; the `serve-replay` job mix is a pure
//! function of the benchmark's `--seed`.

use matic_harness::{SweepPlan, TrainingMode};
use matic_serve::{JobKind, JobSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Worker threads of every batch sweep and of the daemon's pool.
pub const THREADS: usize = 2;

/// The four Table I benchmarks, in the order `--benchmarks all` uses.
const BENCHMARKS: [&str; 4] = ["mnist", "facedet", "inversek2j", "bscholes"];

/// Root seed of every chip population the workloads sweep (the CLI's
/// default). The population is fixed on purpose: with four chips the
/// paper's AEI reduction ranges from about 5x to 37x across root seeds,
/// more than any regression bound can absorb, so `mat_error_reduction_x`
/// is only comparable between runs on one population. `--seed` drives
/// the `serve-replay` job mix instead.
pub const POPULATION_SEED: u64 = 42;

/// A batch workload: its plan and what its runs must reproduce exactly.
pub struct Batch {
    pub plan: fn() -> SweepPlan,
    /// Digest of the report bytes every sweep must produce.
    pub digest: u128,
    /// Per-layer counts a traced run must report exactly. They depend
    /// only on the plan, so a change meant only for speed leaves them be.
    pub exact: [(&'static str, f64); 4],
}

pub const VOLTAGE_MLP: Batch = Batch {
    plan: voltage_mlp,
    digest: 0x17ff8d18268124a8fe9ebefbc52e2974,
    exact: [
        ("sram.faulty_bits", 552480.0),
        ("snnac.cycles_per_inference", 556.4973262032086),
        ("core.mat.trainings", 48.0),
        ("core.mat.sgd_steps", 48528.0),
    ],
};

pub const BER_CONV: Batch = Batch {
    plan: ber_conv,
    digest: 0x036b3cf1cff1495703bfd9d7b9ce9d47,
    exact: [
        ("sram.faulty_bits", 0.0),
        ("snnac.cycles_per_inference", 1787.0),
        ("core.mat.trainings", 24.0),
        ("core.mat.sgd_steps", 12672.0),
    ],
};

/// `voltage-mlp`: the paper's workload. All four benchmarks with their
/// Table I MLPs on the paper's voltage grid, naive + MAT + MAT-canary.
pub fn voltage_mlp() -> SweepPlan {
    SweepPlan::builder()
        .chips(4)
        .voltage_grid(0.46, 0.90, 5)
        .all_benchmarks()
        .modes(&[
            TrainingMode::Naive,
            TrainingMode::Mat,
            TrainingMode::MatCanary,
        ])
        .data_scale(0.25)
        .epoch_scale(0.25)
        .seed(POPULATION_SEED)
        .threads(THREADS)
        .build()
        .expect("voltage-mlp plan is valid")
}

/// `ber-conv`: the i.i.d. bit-error axis on an MNIST conv chain, naive +
/// MAT. Random maps never nest, so every point retrains.
pub fn ber_conv() -> SweepPlan {
    let topology = matic_nn::NetSpec::parse_topology("10x10x1;conv3x4;pool2;dense10")
        .expect("conv topology parses");
    SweepPlan::builder()
        .chips(4)
        .bit_error_rates(&matic_harness::linspace(0.0005, 0.01, 5))
        .benchmark("mnist")
        .expect("mnist is a builtin benchmark")
        .topology(topology)
        .modes(&[TrainingMode::Naive, TrainingMode::Mat])
        .data_scale(0.25)
        .epoch_scale(0.25)
        .seed(POPULATION_SEED)
        .threads(THREADS)
        .build()
        .expect("ber-conv plan is valid")
}

/// The grid `tests/golden/sweep_all_v3.json` was written from.
pub fn golden() -> SweepPlan {
    SweepPlan::builder()
        .chips(2)
        .voltages(&[0.50, 0.90])
        .all_benchmarks()
        .modes(&[TrainingMode::Naive, TrainingMode::Mat])
        .data_scale(0.2)
        .epoch_scale(0.3)
        .seed(42)
        .build()
        .expect("golden plan is valid")
}

/// Chips of the `serve-replay` cache fill.
pub const FILL_CHIPS: usize = 2;
const FILL_SCALE: f64 = 0.25;
const FILL_EPOCHS: f64 = 0.25;
const FRESH_SCALE: f64 = 0.1;
const FRESH_EPOCHS: f64 = 0.2;

fn spec(
    seed: u64,
    chips: usize,
    benchmarks: &[&str],
    modes: &[&str],
    scale: f64,
    epochs: f64,
) -> JobSpec {
    JobSpec {
        kind: JobKind::Sweep,
        chips,
        voltages: None,
        bers: None,
        clock: None,
        benchmarks: benchmarks.iter().map(|b| b.to_string()).collect(),
        modes: modes.iter().map(|m| m.to_string()).collect(),
        data_scale: scale,
        epoch_scale: epochs,
        seed,
        no_reuse: false,
        budget_percent: 2.0,
        budget_mse: 0.02,
        chip_range: None,
        topology: None,
    }
}

/// The `voltage-mlp`-shaped naive + MAT grid that `serve-replay` set-up
/// writes into the daemon's fresh cache.
pub fn serve_fill() -> JobSpec {
    spec(
        POPULATION_SEED,
        FILL_CHIPS,
        &BENCHMARKS,
        &["naive", "mat"],
        FILL_SCALE,
        FILL_EPOCHS,
    )
}

/// What a served job exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobClass {
    /// A sub-grid of the cache fill: every cell replays.
    Replay,
    /// One half of a concurrent pair on uncached cells (in-flight dedup).
    Overlap,
    /// A small uncached grid: cold compute and cache writes.
    Fresh,
    /// An energy job over a warm sub-grid.
    Energy,
    /// A `shard_sweep` over the daemon's own two endpoints.
    Shard,
}

impl JobClass {
    pub fn name(self) -> &'static str {
        match self {
            JobClass::Replay => "replay",
            JobClass::Overlap => "overlap",
            JobClass::Fresh => "fresh",
            JobClass::Energy => "energy",
            JobClass::Shard => "shard",
        }
    }

    /// Whether the job's cells were uncached when it was submitted.
    pub fn computes(self) -> bool {
        matches!(self, JobClass::Overlap | JobClass::Fresh)
    }
}

/// One submission of a client.
#[derive(Debug, Clone)]
pub struct Submission {
    pub class: JobClass,
    pub spec: JobSpec,
    /// Over the daemon's HTTP listener instead of its Unix socket.
    pub http: bool,
}

/// The two clients each submit one job per round and wait for its
/// terminal event; a shard round is one `shard_sweep`, which holds both
/// connections.
#[derive(Debug, Clone)]
pub enum Round {
    Pair(Submission, Submission),
    Shard(Submission),
}

/// Rounds per block. Every block holds the same multiset of jobs — four
/// replay pairs, one overlapping pair, one fresh + replay, one energy +
/// replay and one shard round; the ten replays cover [`REPLAY_SHAPES`],
/// three of them over HTTP. The seed decides the order of the rounds,
/// which replay shape lands where, which replays use HTTP, and which
/// benchmark each uncached grid trains. Job sizes differ eightfold
/// between shapes, so fixing the multiset is what keeps the latency
/// quantiles steady from seed to seed.
pub const BLOCK: usize = 8;

/// `(chips, leading benchmarks, modes)` of the ten replays of a block.
/// Replays must be prefixes of the fill's chips and benchmarks: cell
/// keys include the grid position.
const REPLAY_SHAPES: [(usize, usize, &[&str]); 10] = [
    (1, 1, &["naive"]),
    (1, 2, &["mat"]),
    (1, 3, &["naive", "mat"]),
    (1, 4, &["naive"]),
    (1, 4, &["naive", "mat"]),
    (2, 1, &["mat"]),
    (2, 2, &["naive", "mat"]),
    (2, 3, &["naive"]),
    (2, 4, &["mat"]),
    (2, 4, &["naive", "mat"]),
];

/// Replays per block that go over HTTP.
const HTTP_REPLAYS: usize = 3;

/// The seeded, endless `serve-replay` job mix.
pub struct ServeMix {
    rng: StdRng,
    next_fresh_seed: u64,
    /// Benchmarks the next uncached grids train, refilled with a seeded
    /// permutation of all four, so each is used equally often.
    fresh_benchmarks: Vec<&'static str>,
    queue: Vec<Round>,
}

fn replay(chips: usize, benchmarks: usize, modes: &[&str], http: bool) -> Submission {
    Submission {
        class: JobClass::Replay,
        spec: spec(
            POPULATION_SEED,
            chips,
            &BENCHMARKS[..benchmarks],
            modes,
            FILL_SCALE,
            FILL_EPOCHS,
        ),
        http,
    }
}

impl ServeMix {
    pub fn new(seed: u64) -> Self {
        ServeMix {
            rng: StdRng::seed_from_u64(seed ^ 0x5E7E_0001),
            // Uncached grids use root seeds the fill never touches, one
            // per grid, so their cells are uncached when first submitted.
            next_fresh_seed: (seed % (1 << 20)) << 20 | 1 << 40,
            fresh_benchmarks: Vec::new(),
            queue: Vec::new(),
        }
    }

    fn fresh_spec(&mut self, chips: usize) -> JobSpec {
        if self.fresh_benchmarks.is_empty() {
            self.fresh_benchmarks = BENCHMARKS.to_vec();
            self.fresh_benchmarks.shuffle(&mut self.rng);
        }
        let bench = self.fresh_benchmarks.pop().expect("refilled above");
        let seed = self.next_fresh_seed;
        self.next_fresh_seed += 1;
        spec(
            seed,
            chips,
            &[bench],
            &["naive", "mat"],
            FRESH_SCALE,
            FRESH_EPOCHS,
        )
    }

    fn block(&mut self) -> Vec<Round> {
        let mut http = [false; REPLAY_SHAPES.len()];
        http[..HTTP_REPLAYS].fill(true);
        http.shuffle(&mut self.rng);
        let mut replays: Vec<Submission> = REPLAY_SHAPES
            .iter()
            .zip(http)
            .map(|(&(chips, benchmarks, modes), http)| replay(chips, benchmarks, modes, http))
            .collect();
        replays.shuffle(&mut self.rng);
        let mut rounds = Vec::with_capacity(BLOCK);
        for _ in 0..4 {
            let a = replays.pop().expect("ten replays");
            let b = replays.pop().expect("ten replays");
            rounds.push(Round::Pair(a, b));
        }
        // Overlap: chip 0 of the same uncached grid, submitted at once by
        // both clients (one covers chips 0..2, the other chip 0 only).
        let wide = self.fresh_spec(2);
        let narrow = JobSpec {
            chips: 1,
            ..wide.clone()
        };
        rounds.push(Round::Pair(
            Submission {
                class: JobClass::Overlap,
                spec: wide,
                http: false,
            },
            Submission {
                class: JobClass::Overlap,
                spec: narrow,
                http: true,
            },
        ));
        let fresh = Submission {
            class: JobClass::Fresh,
            spec: self.fresh_spec(1),
            http: false,
        };
        rounds.push(Round::Pair(fresh, replays.pop().expect("ten replays")));
        let mut energy = replay(1, BENCHMARKS.len(), &["naive", "mat"], false);
        energy.class = JobClass::Energy;
        energy.spec.kind = JobKind::Energy;
        rounds.push(Round::Pair(energy, replays.pop().expect("ten replays")));
        let mut shard = replay(FILL_CHIPS, BENCHMARKS.len(), &["naive", "mat"], false);
        shard.class = JobClass::Shard;
        rounds.push(Round::Shard(shard));
        rounds.shuffle(&mut self.rng);
        rounds
    }

    pub fn next_round(&mut self) -> Round {
        if self.queue.is_empty() {
            let mut block = self.block();
            block.reverse();
            self.queue = block;
        }
        self.queue.pop().expect("a block is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn describe(r: &Round) -> String {
        match r {
            Round::Pair(a, b) => format!("{:?}/{:?}", a.spec, b.spec),
            Round::Shard(s) => format!("{:?}", s.spec),
        }
    }

    #[test]
    fn mix_is_a_function_of_the_seed() {
        let mut a = ServeMix::new(7);
        let mut b = ServeMix::new(7);
        let mut c = ServeMix::new(8);
        let ra: Vec<String> = (0..2 * BLOCK).map(|_| describe(&a.next_round())).collect();
        let rb: Vec<String> = (0..2 * BLOCK).map(|_| describe(&b.next_round())).collect();
        let rc: Vec<String> = (0..2 * BLOCK).map(|_| describe(&c.next_round())).collect();
        assert_eq!(ra, rb);
        assert_ne!(ra, rc);
    }

    #[test]
    fn every_block_has_the_same_shares() {
        let mut mix = ServeMix::new(3);
        for _ in 0..3 {
            let mut classes = Vec::new();
            for _ in 0..BLOCK {
                match mix.next_round() {
                    Round::Pair(a, b) => classes.extend([a.class, b.class]),
                    Round::Shard(s) => classes.push(s.class),
                }
            }
            classes.sort();
            let count = |c| classes.iter().filter(|&&x| x == c).count();
            assert_eq!(count(JobClass::Replay), 10);
            assert_eq!(count(JobClass::Overlap), 2);
            assert_eq!(count(JobClass::Fresh), 1);
            assert_eq!(count(JobClass::Energy), 1);
            assert_eq!(count(JobClass::Shard), 1);
        }
    }

    #[test]
    fn specs_build_valid_plans() {
        let mut mix = ServeMix::new(11);
        matic_serve::job::build_plan(&serve_fill()).expect("fill plan");
        for _ in 0..BLOCK {
            let subs = match mix.next_round() {
                Round::Pair(a, b) => vec![a, b],
                Round::Shard(s) => vec![s],
            };
            for s in subs {
                matic_serve::job::build_plan(&s.spec).expect("job plan");
            }
        }
    }
}
