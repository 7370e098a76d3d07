//! The training memo: each distinct model is trained, and each die's
//! canaries walked, once per sweep.
//!
//! A chip-population sweep asks for far more trainings than it has
//! distinct models. The naive baseline is the same for every chip of a
//! benchmark; MAT against a fault-free profile *is* that baseline; and a
//! canary deployment pins the same bits at every target voltage above the
//! first bit-cell failures. [`TrainingMemo`] answers every repeat from the
//! first training.
//!
//! Canary selection repeats too. The paper profiles a die once at
//! compile time and picks its canaries from multi-voltage profiles of
//! that die (§III-A/C): which network is deployed plays no part. Every
//! scenario deployed on a die, and every target voltage above the
//! distribution's safe voltage, asks for the same destructive walk.
//! [`TrainingMemo::select_canaries`] answers every repeat from the first
//! walk.
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
//! A selection walk's key covers everything [`CanarySet::select`] reads:
//! the die ([`SramArray::die`]), the voltage the walk starts at
//! (`min(target − step, safe)`), the temperature, the target map's mask
//! content, the canaries per bank and the rail step. The target voltage
//! itself is left out: above the safe voltage every target starts the
//! same walk.
//!
//! # Why a hit is byte-identical
//!
//! Training is a pure, deterministic function of exactly those inputs
//! (seeded initialization and shuffling, sequential arithmetic), so the
//! model a hit returns is the model a fresh training would produce — and
//! every report byte derived from it is unchanged.
//!
//! So is a selection walk: each profile writes its own test patterns, so
//! the cells found depend on the die's frozen variation, never on what
//! the array held before. Only the cell list is stored. A hit rebuilds the
//! set at the requesting target voltage and parks every bank
//! ([`park_bank`]: safe voltage, every word zero), the state the skipped
//! walk's last profile would have left.
//!
//! # Scope
//!
//! A memo lives for one sweep execution and is never shared across runs
//! (the persistent cell cache covers reuse between runs). Within a sweep,
//! [`TrainingMemo::evict`] drops the models trained on one split once no
//! unit using that split can still ask for them. Selections belong to a
//! die, which every scenario shares, so they stay until the memo is
//! dropped: one cell list per walk.
//!
//! # Concurrency
//!
//! Each key owns a once-cell (one private map type serves models and
//! selections): concurrent requests for one key block on a single
//! training or walk, and the map's mutex is held only for the lookup,
//! never while computing. A training that fills a cell must never enter a
//! work-stealing pool (rayon): a worker parked in a nested parallel call
//! could pick up another unit that waits on the very cell it is filling.
//! The sweep's `(scenario, chip)` unit is its only parallel work and
//! everything inside a unit runs on the unit's thread, so no such call
//! exists. `matic-core` has no rayon dependency, and CI checks that only
//! the sweep engine and the CLI depend on rayon.

use crate::canary::{walk_start, CanaryCell, CanarySet};
use crate::mat::{MatTrainer, TrainedModel};
use matic_nn::Sample;
use matic_sram::fingerprint::{fingerprint_of, Fingerprint};
use matic_sram::{park_bank, FaultMap, SramArray};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

/// The identity of one canary-selection walk: the die it profiles and
/// everything [`CanarySet::select`] reads besides (see the module docs).
fn walk_key(array: &SramArray, at_target: &FaultMap, per_bank: usize, step_v: f64) -> u128 {
    let mut f = Fingerprint::new();
    f.write_str("matic.canary-walk/v1");
    f.write_u128(array.die());
    f.write_u64(walk_start(array, at_target, step_v).to_bits());
    f.write_u64(at_target.temp_c.to_bits());
    f.write_u128(at_target.mask_fingerprint());
    f.write_u64(per_bank as u64);
    f.write_u64(step_v.to_bits());
    f.finish()
}

/// A map of once-cells: each key's value is computed by its first
/// request, and concurrent first requests block on that one computation.
/// The map's mutex is held only for the lookup, never while a value is
/// computed, so other keys stay available.
#[derive(Debug)]
struct OnceMap<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap {
            slots: Mutex::default(),
        }
    }
}

impl<K: Eq + Hash, V: Clone> OnceMap<K, V> {
    /// The value of `key`, computed by `init` if no request has yet.
    fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let slot = Arc::clone(self.lock().entry(key).or_default());
        slot.get_or_init(init).clone()
    }

    /// Keeps only the keys `keep` accepts.
    fn retain(&self, mut keep: impl FnMut(&K) -> bool) {
        self.lock().retain(|key, _| keep(key));
    }

    fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, Arc<OnceLock<V>>>> {
        self.slots.lock().expect("memo lock poisoned")
    }
}

/// A content-keyed memo of trained models and canary selections; see the
/// module docs.
#[derive(Debug, Default)]
pub struct TrainingMemo {
    models: OnceMap<TrainingKey, Arc<TrainedModel>>,
    walks: OnceMap<u128, Arc<[CanaryCell]>>,
    requests: AtomicUsize,
    trainings: AtomicUsize,
    selections: AtomicUsize,
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
        self.models.get_or_init(key, || {
            self.trainings.fetch_add(1, Ordering::Relaxed);
            Arc::new(trainer.train(data.samples(), faults))
        })
    }

    /// [`CanarySet::select`], walked on the first request for its die and
    /// walk and shared by every later one. A later request skips the
    /// destructive walk: it parks every bank of `array` (safe voltage,
    /// every word zero) exactly as the walk would have left it, and gets
    /// the walk's cells guarding its own `at_target` voltage.
    pub fn select_canaries(
        &self,
        array: &mut SramArray,
        at_target: &FaultMap,
        per_bank: usize,
        step_v: f64,
    ) -> CanarySet {
        let key = walk_key(array, at_target, per_bank, step_v);
        let mut walked = false;
        let cells = self.walks.get_or_init(key, || {
            walked = true;
            self.selections.fetch_add(1, Ordering::Relaxed);
            CanarySet::select(array, at_target, per_bank, step_v)
                .cells()
                .into()
        });
        if !walked {
            for bank in array.banks_mut() {
                park_bank(bank, at_target.temp_c);
            }
        }
        CanarySet::from_cells(at_target.voltage, cells.to_vec())
    }

    /// Drops every model trained on `data`. Call it once nothing can
    /// request them again; a later request would simply retrain. Canary
    /// selections belong to dies, not splits, and are kept.
    pub fn evict(&self, data: &TrainingSet<'_>) {
        let digest = data.digest();
        self.models.retain(|key| key.data != digest);
    }

    /// Models requested so far (hits and trainings).
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Trainings actually run so far.
    pub fn trainings(&self) -> usize {
        self.trainings.load(Ordering::Relaxed)
    }

    /// Canary-selection walks actually run so far.
    pub fn selections(&self) -> usize {
        self.selections.load(Ordering::Relaxed)
    }

    /// Models currently held.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no model is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CanarySet, DeploymentFlow, MatConfig};
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
        let mut die = array(4);
        let (at_target, _) = profile_array(die.banks_mut(), 0.52, 25.0);
        flow.deploy_with(&mut die, at_target, CanarySet::select, |faults| {
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

    /// Everything observable about an array's state: every stored word
    /// and each bank's operating point.
    fn array_state(array: &SramArray) -> Vec<(u64, u64, Vec<u32>)> {
        (0..array.bank_count())
            .map(|b| {
                let bank = array.bank(b);
                let words = (0..bank.words()).map(|w| bank.peek(w)).collect();
                (
                    bank.voltage().to_bits(),
                    bank.temperature().to_bits(),
                    words,
                )
            })
            .collect()
    }

    /// `array(seed)` holding weights and overscaled, as a sweep leaves a
    /// chip after evaluating a model on it.
    fn dirty_array(seed: u64) -> SramArray {
        let mut die = array(seed);
        for bank in 0..die.bank_count() {
            for word in 0..64 {
                die.write(bank, word, (word as u32 * 0x2F1 + bank as u32) & 0xFFFF);
            }
        }
        die.set_operating_point(0.47, 60.0);
        die
    }

    #[test]
    fn a_canary_hit_equals_the_cold_walk_in_cells_and_array_state() {
        let memo = TrainingMemo::new();
        for target in [0.46, 0.57, 0.90] {
            let mut cold = dirty_array(7);
            let (at_target, _) = profile_array(cold.banks_mut(), target, 25.0);
            let want = CanarySet::select(&mut cold, &at_target, 8, 0.005);
            assert_eq!(want.cells().len(), 4 * 8);
            // The first request for 0.46 and 0.57 V walks; 0.90 V and
            // every repeat hit (0.57 and 0.90 V start one walk at the
            // safe voltage on a clean map).
            for _ in 0..2 {
                let mut die = dirty_array(7);
                let got = memo.select_canaries(&mut die, &at_target, 8, 0.005);
                assert_eq!(got, want, "cells and target voltage at {target} V");
                assert_eq!(array_state(&die), array_state(&cold), "state at {target} V");
                assert_eq!(die.voltage(), cold.voltage(), "the array's own rail");
            }
        }
        assert_eq!(memo.selections(), 2);
        // Another die walks afresh.
        let mut other = dirty_array(8);
        let (at_target, _) = profile_array(other.banks_mut(), 0.90, 25.0);
        let set = memo.select_canaries(&mut other, &at_target, 8, 0.005);
        assert_eq!(memo.selections(), 3);
        let mut cold = array(8);
        assert_eq!(set, CanarySet::select(&mut cold, &at_target, 8, 0.005));
    }

    #[test]
    fn the_walk_key_covers_die_start_temperature_masks_count_and_step() {
        let (mut die, other) = (array(9), array(10));
        let (at_target, _) = profile_array(die.banks_mut(), 0.50, 25.0);
        let base = walk_key(&die, &at_target, 8, 0.005);
        assert_ne!(walk_key(&other, &at_target, 8, 0.005), base, "die");
        let mut lower = at_target.clone();
        lower.voltage = 0.49;
        assert_ne!(walk_key(&die, &lower, 8, 0.005), base, "start voltage");
        let mut hot = at_target.clone();
        hot.temp_c = 85.0;
        assert_ne!(walk_key(&die, &hot, 8, 0.005), base, "temperature");
        assert_ne!(walk_key(&die, &at_target, 4, 0.005), base, "per bank");
        assert_ne!(walk_key(&die, &at_target, 8, 0.01), base, "step");
        // Targets above the safe voltage share the walk that starts there,
        // as long as their maps agree.
        let clean = FaultMap::clean(0.90, 4, 64, 16);
        let mut nearer = clean.clone();
        nearer.voltage = 0.57;
        let high = walk_key(&die, &clean, 8, 0.005);
        assert_eq!(walk_key(&die, &nearer, 8, 0.005), high);
        nearer.bank_mut(1).set_fault(3, 4, true);
        assert_ne!(walk_key(&die, &nearer, 8, 0.005), high, "masks");
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
