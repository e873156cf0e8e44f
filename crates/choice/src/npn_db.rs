//! A lazily-built NPN class database of candidate structures.
//!
//! The paper's level-oriented strategy is driven by a "4-input NPN library":
//! every cut function is reduced to its NPN class, the class representative is
//! synthesised once, and the resulting structure is replayed for every
//! occurrence with the appropriate input permutation and polarities. This
//! database generalises that idea to every (strategy, representation) pair the
//! MCH construction uses.
//!
//! # Emission order
//!
//! [`NpnDatabase::emit`] canonicalises the function, synthesises the class
//! representative when the database does not hold the class yet, counts the
//! hit or miss and replays the class structure into the target network.
//! [`NpnDatabase::emit_with_canon`] does the same from a canonical form the
//! caller already computed. The MCH construction emits in node-id order, so
//! the database contents and its hit/miss statistics are a function of the
//! input network alone.
//!
//! # Cross-job sharing
//!
//! A batched mapping service runs many flows concurrently, and most of their
//! cut functions fall into the same handful of NPN classes. A
//! [`SharedNpnCache`] is the service-wide second tier behind any number of
//! per-job databases: [`NpnDatabase::with_shared`] routes every class
//! synthesis through the shared store, so a class is synthesised **once per
//! process** instead of once per job. Because [`synthesize`] is a pure
//! function of the class key, whichever job wins the insert race stores
//! exactly the network every other job would have stored — sharing can never
//! change an emitted structure. The per-job database keeps counting its own
//! hits and misses against its own cache in its own emission order, so per-job
//! statistics are byte-identical to a solo run whatever else is in flight.

use crate::strategies::{import_subnetwork, synthesize, SynthesisStrategy};
use mch_logic::{
    npn_canonical, npn_semi_canonical, FastMap, Network, NetworkKind, NpnCanonical, Signal,
    TruthTable,
};
use std::collections::hash_map::Entry;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// The key of one cached candidate structure: the NPN class representative
/// plus the strategy and representation it was synthesised with.
type ClassKey = (TruthTable, SynthesisStrategy, NetworkKind);

/// A process-wide, read-mostly store of synthesised class networks shared
/// across concurrent mapping jobs (the second cache tier behind per-job
/// [`NpnDatabase`]s — see the module docs).
///
/// Reads take the lock briefly and clone the cached network; a miss
/// synthesises outside the lock and inserts first-writer-wins. The hit/miss
/// counters are service-level throughput telemetry: they depend on job
/// interleaving and are **not** deterministic — per-job determinism lives in
/// the per-job [`NpnDatabase`] counters, which never observe this store.
#[derive(Default)]
pub struct SharedNpnCache {
    store: RwLock<FastMap<ClassKey, Network>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SharedNpnCache {
    /// Creates an empty shared store.
    pub fn new() -> Self {
        SharedNpnCache::default()
    }

    /// Number of distinct (class, strategy, representation) entries stored.
    pub fn classes(&self) -> usize {
        self.store
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Syntheses served from the shared store instead of recomputed
    /// (cross-job telemetry; not deterministic).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Class syntheses actually performed through this store.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Returns the class network for `key`, synthesising and publishing it on
    /// first use. Pure in the value: every caller gets a network identical to
    /// a private synthesis.
    fn fetch_or_synthesize(&self, key: &ClassKey) -> Network {
        if let Some(net) = self
            .store
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return net.clone();
        }
        // Synthesise outside the lock; ties are benign because the value is a
        // pure function of the key (never-overwrite keeps the first insert).
        let net = synthesize(&key.0, key.2, key.1);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut store = self.store.write().unwrap_or_else(PoisonError::into_inner);
        store.entry(key.clone()).or_insert(net).clone()
    }
}

impl fmt::Debug for SharedNpnCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedNpnCache")
            .field("classes", &self.classes())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// Cache of synthesised canonical structures keyed by NPN class.
#[derive(Clone, Debug, Default)]
pub struct NpnDatabase {
    cache: FastMap<ClassKey, Network>,
    hits: usize,
    misses: usize,
    shared: Option<Arc<SharedNpnCache>>,
}

impl NpnDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        NpnDatabase::default()
    }

    /// Creates an empty per-job database backed by a service-wide
    /// [`SharedNpnCache`]: every class synthesis is routed through the shared
    /// store, while all hit/miss bookkeeping stays local to this database (so
    /// per-job statistics match a solo run exactly — see the module docs).
    pub fn with_shared(shared: Arc<SharedNpnCache>) -> Self {
        NpnDatabase {
            shared: Some(shared),
            ..NpnDatabase::default()
        }
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of classes synthesised so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of distinct (class, strategy, kind) entries stored.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Returns `true` if no class has been synthesised yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The NPN canonical form the database keys by: exact canonicalisation up
    /// to five variables, the cheaper semi-canonical form above.
    ///
    /// Exposed so callers making several emissions of the *same* function
    /// (one per strategy entry) can canonicalise once and reuse the result
    /// through [`emit_with_canon`](NpnDatabase::emit_with_canon).
    pub fn canonicalize(function: &TruthTable) -> NpnCanonical {
        if function.num_vars() <= 5 {
            npn_canonical(function)
        } else {
            npn_semi_canonical(function)
        }
    }

    /// Emits a candidate structure computing `function` over `leaves` into
    /// `target`, synthesising the function's NPN class representative on first
    /// use and replaying it afterwards. Constant functions emit no gate and
    /// never reach the cache.
    ///
    /// Returns the candidate's output signal in `target`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len() != function.num_vars()`.
    pub fn emit(
        &mut self,
        target: &mut Network,
        function: &TruthTable,
        leaves: &[Signal],
        kind: NetworkKind,
        strategy: SynthesisStrategy,
    ) -> Signal {
        assert_eq!(leaves.len(), function.num_vars(), "one leaf per variable");
        if function.is_const0() {
            return Signal::CONST0;
        }
        if function.is_const1() {
            return Signal::CONST1;
        }
        let canon = Self::canonicalize(function);
        self.emit_with_canon(target, &canon, leaves, kind, strategy)
    }

    /// Like [`emit`](NpnDatabase::emit) but over a pre-computed canonical
    /// form, so one canonicalisation can serve several (strategy, kind)
    /// entries. The caller must have filtered out constant functions.
    ///
    /// A class the database does not hold yet is synthesised (through the
    /// shared store when one is attached) and counted as a miss; a held
    /// class counts as a hit.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len()` differs from the canonical form's variable
    /// count.
    pub fn emit_with_canon(
        &mut self,
        target: &mut Network,
        canon: &NpnCanonical,
        leaves: &[Signal],
        kind: NetworkKind,
        strategy: SynthesisStrategy,
    ) -> Signal {
        let t = &canon.transform;
        assert_eq!(leaves.len(), t.perm.len(), "one leaf per variable");
        let key = (canon.representative.clone(), strategy, kind);
        let class = match self.cache.entry(key) {
            Entry::Occupied(held) => {
                self.hits += 1;
                held.into_mut()
            }
            Entry::Vacant(missing) => {
                self.misses += 1;
                // Identical with or without the shared store: `synthesize`
                // is pure.
                let net = match &self.shared {
                    Some(shared) => shared.fetch_or_synthesize(missing.key()),
                    None => synthesize(&canon.representative, kind, strategy),
                };
                missing.insert(net)
            }
        };
        // canonical(y) = f(x) ^ out  with  y_i = x_{perm[i]} ^ neg_i, therefore
        // f(x) = canonical(y) ^ out when canonical input i is driven by
        // leaves[perm[i]] ^ neg_i.
        let bound: Vec<Signal> = (0..leaves.len())
            .map(|i| leaves[t.perm[i]].xor_complement(t.input_neg & (1 << i) != 0))
            .collect();
        import_subnetwork(target, class, &bound).xor_complement(t.output_neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::output_truth_tables;

    fn check_emit(f: &TruthTable, kind: NetworkKind, strategy: SynthesisStrategy) {
        let mut db = NpnDatabase::new();
        let mut host = Network::new(NetworkKind::Mixed);
        let leaves = host.add_inputs(f.num_vars());
        let out = db.emit(&mut host, f, &leaves, kind, strategy);
        host.add_output(out);
        assert_eq!(&output_truth_tables(&host)[0], f, "{kind:?} {strategy:?}");
    }

    #[test]
    fn emit_reproduces_function_exactly() {
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        let funcs = [
            a.and(&b).or(&c.and(&d)).not(),
            a.xor(&b).xor(&c).and(&d),
            TruthTable::ite(&a, &b, &c.or(&d)),
            TruthTable::maj(&a, &b, &c).xor(&d),
        ];
        for f in &funcs {
            for kind in NetworkKind::homogeneous() {
                check_emit(f, kind, SynthesisStrategy::Decompose);
                check_emit(f, kind, SynthesisStrategy::SopFactor);
            }
        }
    }

    #[test]
    fn exhaustive_three_var_emit() {
        let mut db = NpnDatabase::new();
        for bits in 0..256u64 {
            let f = TruthTable::from_u64(3, bits);
            let mut host = Network::new(NetworkKind::Mixed);
            let leaves = host.add_inputs(3);
            let out = db.emit(
                &mut host,
                &f,
                &leaves,
                NetworkKind::Xmg,
                SynthesisStrategy::Decompose,
            );
            host.add_output(out);
            assert_eq!(output_truth_tables(&host)[0], f, "bits={bits:#x}");
        }
        // 3-variable functions fall into 14 NPN classes; constants bypass the
        // cache, so at most 13 classes are synthesised.
        assert!(db.len() <= 13, "got {} classes", db.len());
        assert!(db.hits() > db.misses());
    }

    #[test]
    fn cache_is_shared_across_equivalent_functions() {
        let mut db = NpnDatabase::new();
        let mut host = Network::new(NetworkKind::Mixed);
        let xs = host.add_inputs(2);
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let _ = db.emit(&mut host, &a.and(&b), &xs, NetworkKind::Aig, SynthesisStrategy::Decompose);
        let _ = db.emit(&mut host, &a.or(&b), &xs, NetworkKind::Aig, SynthesisStrategy::Decompose);
        let _ = db.emit(
            &mut host,
            &a.and(&b).not(),
            &xs,
            NetworkKind::Aig,
            SynthesisStrategy::Decompose,
        );
        assert_eq!(db.misses(), 1);
        assert_eq!(db.hits(), 2);
    }

    #[test]
    fn emit_handles_wide_functions_via_semi_canonical_forms() {
        // Functions with more than five variables take the semi-canonical
        // path; the emitted structure must still match the function exactly.
        let mut db = NpnDatabase::new();
        for seed in 0..10u64 {
            let n = 6 + (seed as usize % 2);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11);
            let mut f = TruthTable::zeros(n);
            for i in 0..f.num_bits() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f.set_bit(i, state & 1 == 1);
            }
            let mut host = Network::new(NetworkKind::Mixed);
            let leaves = host.add_inputs(n);
            let out = db.emit(&mut host, &f, &leaves, NetworkKind::Aig, SynthesisStrategy::SopFactor);
            host.add_output(out);
            assert_eq!(output_truth_tables(&host)[0], f, "seed {seed}");
        }
    }

    #[test]
    fn constants_bypass_cache() {
        let mut db = NpnDatabase::new();
        let mut host = Network::new(NetworkKind::Mixed);
        let xs = host.add_inputs(2);
        let s = db.emit(
            &mut host,
            &TruthTable::ones(2),
            &xs,
            NetworkKind::Aig,
            SynthesisStrategy::SopFactor,
        );
        assert!(s.is_const1());
        assert!(db.is_empty());
    }

    #[test]
    fn shared_cache_changes_neither_networks_nor_local_statistics() {
        // Two "jobs" over the same functions: a private database versus two
        // databases behind one shared store (the second warmed by the first).
        // Emitted networks and per-job hit/miss statistics must be identical
        // in all three runs; only the shared store's own telemetry may see
        // cross-job hits.
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let funcs = [
            a.and(&b).or(&c),
            a.xor(&b).and(&c),
            a.and(&b).or(&c),
            TruthTable::maj(&a, &b, &c).not(),
        ];

        let run = |mut db: NpnDatabase| {
            let mut host = Network::new(NetworkKind::Mixed);
            let leaves = host.add_inputs(3);
            for f in &funcs {
                let s = db.emit(&mut host, f, &leaves, NetworkKind::Xag, SynthesisStrategy::Decompose);
                host.add_output(s);
            }
            (host, db.hits(), db.misses(), db.len())
        };

        let solo = run(NpnDatabase::new());
        let shared = Arc::new(SharedNpnCache::new());
        let first = run(NpnDatabase::with_shared(Arc::clone(&shared)));
        let second = run(NpnDatabase::with_shared(Arc::clone(&shared)));

        assert_eq!(solo, first, "cold shared store must be invisible");
        assert_eq!(solo, second, "warm shared store must be invisible");
        // The second job's syntheses were all served from the shared store.
        assert_eq!(shared.misses(), solo.3);
        assert!(shared.hits() >= solo.3);
        assert_eq!(shared.classes(), solo.3);
    }
}
