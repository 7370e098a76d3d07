//! The training memo: each distinct model is trained once per sweep.
//!
//! A chip-population sweep asks for far more trainings than it has
//! distinct models. The naive baseline is the same for every chip of a
//! benchmark; MAT against a fault-free profile *is* that baseline; and a
//! canary deployment pins the same bits at every target voltage above the
//! first bit-cell failures. [`TrainingMemo`] answers every repeat from the
//! first training.
//!
//! # Key
//!
//! A training's key covers everything [`MatTrainer::train`] reads: the
//! topology, the [`MatConfig`](crate::MatConfig) fingerprint, the training
//! samples and the fault map's **mask content**
//! ([`FaultMap::mask_fingerprint`]: geometry plus per-bank OR/AND/XOR
//! planes). The map's profiled voltage and temperature are left out on
//! purpose: training only applies the masks, and the operating point
//! differs at every sweep point, so a key that included it would never hit.
//!
//! # Why a hit is byte-identical
//!
//! Training is a pure, deterministic function of exactly those inputs
//! (seeded initialization and shuffling, sequential arithmetic), so the
//! model a hit returns is the model a fresh training would produce — and
//! every report byte derived from it is unchanged.
//!
//! # Scope
//!
//! A memo lives for one sweep execution and is never shared across runs
//! (the persistent cell cache covers reuse between runs). Within a sweep,
//! [`TrainingMemo::evict`] drops the models trained on one split once no
//! unit using that split can still ask for them.
//!
//! # Concurrency
//!
//! Each key owns a once-cell: concurrent requests for one key block on a
//! single training, and the map's mutex is held only for the lookup,
//! never while training. A training that fills a cell must never enter a
//! work-stealing pool (rayon): a worker parked in a nested parallel call
//! could pick up another unit that waits on the very cell it is filling.
//! `matic-core` therefore has no rayon dependency, and must keep it so.

use crate::mat::{MatTrainer, TrainedModel};
use matic_nn::Sample;
use matic_sram::fingerprint::{fingerprint_of, Fingerprint};
use matic_sram::FaultMap;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Training samples with their content digest, computed on first use and
/// then reused, so a caller that requests many models from one split
/// hashes it once.
#[derive(Debug)]
pub struct TrainingSet<'a> {
    samples: &'a [Sample],
    digest: OnceCell<u128>,
}

impl<'a> TrainingSet<'a> {
    /// Wraps a training split (nothing is hashed yet).
    pub fn new(samples: &'a [Sample]) -> Self {
        TrainingSet {
            samples,
            digest: OnceCell::new(),
        }
    }

    /// The samples.
    pub fn samples(&self) -> &'a [Sample] {
        self.samples
    }

    /// 128-bit digest of every input and target value, in order.
    pub fn digest(&self) -> u128 {
        *self.digest.get_or_init(|| {
            let mut f = Fingerprint::new();
            f.write_str("matic.training-set/v1");
            f.write_u64(self.samples.len() as u64);
            for s in self.samples {
                for values in [&s.input, &s.target] {
                    f.write_u64(values.len() as u64);
                    for x in values {
                        f.write_u64(x.to_bits());
                    }
                }
            }
            f.finish()
        })
    }
}

/// The content identity of one training (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TrainingKey {
    data: u128,
    model: u128,
}

impl TrainingKey {
    /// The key of `trainer.train(data.samples(), faults)`.
    fn new(trainer: &MatTrainer, data: &TrainingSet<'_>, faults: &FaultMap) -> Self {
        let mut f = Fingerprint::new();
        f.write_str("matic.training-key/v1");
        f.write_u128(fingerprint_of(trainer.spec()));
        f.write_u128(trainer.config().fingerprint());
        f.write_u128(faults.mask_fingerprint());
        TrainingKey {
            data: data.digest(),
            model: f.finish(),
        }
    }
}

type Slot = Arc<OnceLock<Arc<TrainedModel>>>;

/// A content-keyed memo of trained models; see the module docs.
#[derive(Debug, Default)]
pub struct TrainingMemo {
    slots: Mutex<HashMap<TrainingKey, Slot>>,
    requests: AtomicUsize,
    trainings: AtomicUsize,
}

impl TrainingMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// `trainer.train(data.samples(), faults)`, trained on the first
    /// request for its key and shared by every later one. Concurrent first
    /// requests block until the single training finishes.
    pub fn train(
        &self,
        trainer: &MatTrainer,
        data: &TrainingSet<'_>,
        faults: &FaultMap,
    ) -> Arc<TrainedModel> {
        let key = TrainingKey::new(trainer, data, faults);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("training memo lock poisoned")
                .entry(key)
                .or_default(),
        );
        // The map lock is released: other keys stay available while this
        // one trains.
        Arc::clone(slot.get_or_init(|| {
            self.trainings.fetch_add(1, Ordering::Relaxed);
            Arc::new(trainer.train(data.samples(), faults))
        }))
    }

    /// Drops every model trained on `data`. Call it once nothing can
    /// request them again; a later request would simply retrain.
    pub fn evict(&self, data: &TrainingSet<'_>) {
        let digest = data.digest();
        self.slots
            .lock()
            .expect("training memo lock poisoned")
            .retain(|key, _| key.data != digest);
    }

    /// Models requested so far (hits and trainings).
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Trainings actually run so far.
    pub fn trainings(&self) -> usize {
        self.trainings.load(Ordering::Relaxed)
    }

    /// Models currently held.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .expect("training memo lock poisoned")
            .len()
    }

    /// Whether no model is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeploymentFlow, MatConfig};
    use matic_nn::NetSpec;
    use matic_sram::{profile_array, ArrayConfig, SramArray, SramConfig, VminDistribution};
    use std::sync::Barrier;

    fn data() -> Vec<Sample> {
        (0..24)
            .map(|i| {
                let x = i as f64 / 24.0;
                Sample::new(vec![x], vec![0.4 * x + 0.2])
            })
            .collect()
    }

    fn trainer() -> MatTrainer {
        MatTrainer::new(NetSpec::regressor(&[1, 4, 1]), MatConfig::quick())
    }

    fn array(seed: u64) -> SramArray {
        SramArray::synthesize(
            &ArrayConfig {
                banks: 4,
                bank: SramConfig {
                    words: 64,
                    word_bits: 16,
                    dist: VminDistribution::date2018(),
                },
            },
            seed,
        )
    }

    fn key(trainer: &MatTrainer, data: &[Sample], faults: &FaultMap) -> TrainingKey {
        TrainingKey::new(trainer, &TrainingSet::new(data), faults)
    }

    #[test]
    fn a_hit_equals_a_fresh_training_for_clean_profiled_and_canary_maps() {
        let (data, trainer, memo) = (data(), trainer(), TrainingMemo::new());
        let set = TrainingSet::new(&data);
        let clean = FaultMap::clean(0.9, 4, 64, 16);
        let (profiled, _) = profile_array(array(3).banks_mut(), 0.50, 25.0);
        let mut pinned = None;
        let flow = DeploymentFlow {
            mat: trainer.config().clone(),
            ..DeploymentFlow::new(0.52)
        };
        flow.deploy_with(&mut array(4), |faults| {
            pinned = Some(faults.clone());
            (*memo.train(&trainer, &set, faults)).clone()
        });
        let pinned = pinned.expect("the flow trains once");
        assert!(pinned.fault_count() > 0, "canaries are pinned in the map");
        for faults in [&clean, &profiled, &pinned] {
            let first = memo.train(&trainer, &set, faults);
            let hit = memo.train(&trainer, &set, faults);
            assert!(Arc::ptr_eq(&first, &hit));
            assert_eq!(*hit, trainer.train(&data, faults));
        }
        assert_eq!(memo.trainings(), 3);
        assert_eq!(memo.requests(), 7);
    }

    #[test]
    fn the_key_ignores_the_operating_point() {
        let (data, trainer) = (data(), trainer());
        let (mut other, _) = profile_array(array(5).banks_mut(), 0.50, 25.0);
        let base = key(&trainer, &data, &other);
        other.voltage = 0.48;
        other.temp_c = 85.0;
        assert_eq!(key(&trainer, &data, &other), base);
    }

    #[test]
    fn the_key_covers_masks_spec_recipe_and_every_sample() {
        let (data, trainer) = (data(), trainer());
        let clean = FaultMap::clean(0.9, 4, 64, 16);
        let base = key(&trainer, &data, &clean);

        let mut flipped = clean.clone();
        flipped.bank_mut(2).set_fault(17, 3, true);
        assert_ne!(key(&trainer, &data, &flipped), base, "one stuck bit");

        let wider = MatTrainer::new(NetSpec::regressor(&[1, 5, 1]), MatConfig::quick());
        assert_ne!(key(&wider, &data, &clean), base, "topology");

        let mut cfg = MatConfig::quick();
        cfg.shuffle_seed += 1;
        let reseeded = MatTrainer::new(trainer.spec().clone(), cfg);
        assert_ne!(key(&reseeded, &data, &clean), base, "recipe");

        let mut nudged = data.clone();
        nudged[11].target[0] += 1e-9;
        assert_ne!(key(&trainer, &nudged, &clean), base, "one sample");
    }

    #[test]
    fn concurrent_requests_for_one_key_train_once() {
        let (data, trainer, memo) = (data(), trainer(), TrainingMemo::new());
        let faults = FaultMap::clean(0.9, 4, 64, 16);
        let start = Barrier::new(8);
        let models: Vec<Arc<TrainedModel>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let set = TrainingSet::new(&data);
                        start.wait();
                        memo.train(&trainer, &set, &faults)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("requester thread"))
                .collect()
        });
        assert_eq!(memo.trainings(), 1);
        assert_eq!(memo.requests(), 8);
        assert!(models.iter().all(|m| Arc::ptr_eq(m, &models[0])));
    }

    #[test]
    fn evict_drops_only_the_models_of_one_split() {
        let (data, trainer, memo) = (data(), trainer(), TrainingMemo::new());
        let mut other = data.clone();
        other.truncate(16);
        let (a, b) = (TrainingSet::new(&data), TrainingSet::new(&other));
        let clean = FaultMap::clean(0.9, 4, 64, 16);
        memo.train(&trainer, &a, &clean);
        memo.train(&trainer, &b, &clean);
        memo.evict(&a);
        assert_eq!(memo.len(), 1);
        memo.train(&trainer, &b, &clean);
        assert_eq!(memo.trainings(), 2, "the other split's model survives");
    }
}
