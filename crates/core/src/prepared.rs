//! Warm-start artifacts: reusable choice construction and prepared cover
//! state shared across parameter-sweep jobs.
//!
//! An MCH flow spends most of its time on work that does **not** depend on
//! the mapper's per-variant knobs: building the mixed choice network
//! (Algorithm 1 + snapshot views), enumerating and transferring cuts, and
//! enumerating cover candidates (Boolean matching for ASIC targets). A
//! [`PreparedFlow`] captures exactly that params-independent half — the
//! choice network plus, lazily, one [`PreparedCover`] per distinct mapper
//! configuration — so a sweep over `area_rounds` / `exact_area` / rankings
//! pays it once and re-runs only the covering dynamic program per variant.
//!
//! # Keying and correctness
//!
//! A prepared flow is keyed by a [`ChoiceKey`] — the exact subset of
//! [`MchConfig`] that reaches choice construction (objective, snapshot
//! mixing, the [`MchParams`]), with the thread count normalised away because
//! choices are thread-invariant — and addressed by a 64-bit fingerprint
//! folding the network's [`structural_fingerprint`](Network::structural_fingerprint)
//! with the key. Fingerprints are only an index: every cache hit re-verifies
//! **full structural equality** of the stored network and key, so a
//! fingerprint collision degrades to a miss (and a cold build), never to a
//! wrong artifact.
//!
//! Reuse is **byte-invisible**: choice construction and cut/candidate
//! enumeration are deterministic and thread-invariant, so a cached artifact
//! is equal to the one a cold run would build, and the prepared mapper entry
//! points (`mch_mapper::map_*_prepared`) are pinned byte-identical to their
//! one-shot counterparts. A warm-started job therefore produces exactly the
//! bytes of its cold solo run — at every thread count, batch permutation and
//! cache state (`tests/service_warm_start.rs`).
//!
//! # The cache
//!
//! [`PreparedFlowCache`] is a bounded, strict-LRU store of prepared flows
//! with byte-size accounting (`approx_bytes` estimates, the candidate
//! skeletons and the networks dominating). Like the service's
//! [`SharedNpnCache`], its *telemetry* (hit/miss/eviction counts, eviction
//! order) depends on scheduling — two racing coordinators may both miss on
//! the same circuit and build twice — but *outputs* never do. Both failpoints
//! (`cache::prepared_hit`, `cache::prepared_insert`) sit at function entry,
//! before any mutation: an injected fault leaves the cache coherent and the
//! affected job falls back to a cold, byte-identical run
//! (`tests/service_faults.rs`).

use crate::config::MchConfig;
use crate::flow::build_flow_choices;
use mch_choice::{ChoiceNetwork, SharedNpnCache};
use mch_cut::CutCost;
use mch_logic::{Fingerprinter, Network};
use mch_mapper::{
    map_asic_prepared, map_lut_fused_prepared, map_lut_prepared, prepare_asic_cover,
    prepare_fusion_guide, prepare_lut_cover, AsicMapParams, CellNetlist, LutCandidate,
    LutMapParams, LutNetlist, MappingObjective, MatchCandidate, PreparedCover,
};
use mch_techlib::{Library, LutLibrary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The choice-relevant subset of an [`MchConfig`]: exactly the fields that
/// reach [`build_flow_choices`], with the unread `mch.threads` normalised
/// away (a caller can still set it by hand, and jobs differing only there
/// share one artifact). Derived from the **post-degradation** config, so a
/// budgeted job that sheds strategies keys on what it actually built.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct ChoiceKey {
    objective: MappingObjective,
    mix_optimized_snapshots: bool,
    mch: mch_choice::MchParams,
}

impl ChoiceKey {
    /// Extracts the key from a (post-degradation) flow config.
    pub(crate) fn from_config(config: &MchConfig) -> Self {
        let mut mch = config.mch.clone();
        mch.threads = 1;
        ChoiceKey {
            objective: config.objective,
            mix_optimized_snapshots: config.mix_optimized_snapshots,
            mch,
        }
    }
}

/// The 64-bit cache index of `(network, choice key)`: the network's
/// structural fingerprint folded with the key's canonical `Debug` rendering.
/// An index only — hits re-verify full equality (see the module docs).
pub(crate) fn flow_fingerprint(network: &Network, key: &ChoiceKey) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_u64(network.structural_fingerprint());
    fp.write_str(&format!("{key:?}"));
    fp.finish()
}

/// Rough heap footprint of a network for cache accounting: nodes, outputs
/// and the structural-hash table (~one entry per gate).
fn network_bytes(net: &Network) -> usize {
    net.len() * (std::mem::size_of::<mch_logic::Node>() + 48)
        + std::mem::size_of_val(net.outputs())
}

/// One prepared cover's key: everything its preparation phase reads besides
/// the choice network. `cut_limit` is the **post-`shrink_cut_limit`** value,
/// so budgeted and unbudgeted variants never share a cut set they shouldn't.
struct CoverKey<L> {
    ranking: CutCost,
    cut_limit: usize,
    library: L,
}

/// The prepared covers of one flow, one entry per distinct key seen so far
/// (see [`cover_state`]).
type Covers<L, C> = Vec<(CoverKey<L>, Arc<PreparedCover<C>>)>;

/// Lazily grown prepared cover state of one flow. A fusion guide is the
/// ASIC cover of `(objective's default ranking, LUT cut limit, cell
/// library)` (see `mch_mapper::prepare_fusion_guide`), so guides and ASIC
/// flows share the `asic` list.
#[derive(Default)]
struct PreparedMappers {
    asic: Covers<Library, MatchCandidate>,
    lut: Covers<LutLibrary, LutCandidate>,
}

/// The cover keyed by `(ranking, cut_limit, library)`, built by `build` on
/// first use.
fn cover_state<L: PartialEq + Clone, C>(
    covers: &mut Covers<L, C>,
    ranking: CutCost,
    cut_limit: usize,
    library: &L,
    build: impl FnOnce() -> PreparedCover<C>,
) -> Arc<PreparedCover<C>> {
    if let Some((_, prep)) = covers.iter().find(|(k, _)| {
        k.ranking == ranking && k.cut_limit == cut_limit && k.library == *library
    }) {
        return Arc::clone(prep);
    }
    let prep = Arc::new(build());
    let key = CoverKey {
        ranking,
        cut_limit,
        library: library.clone(),
    };
    covers.push((key, Arc::clone(&prep)));
    prep
}

/// The reusable, params-independent artifact of one `(network, choice
/// config)` pair: the built choice network plus lazily-built prepared covers
/// per mapper configuration (see the module docs).
///
/// Shareable across threads: the choice network is immutable after
/// construction, and the mapper states grow under an internal mutex — the
/// mutex is only ever taken by flow coordinator threads, never by fan-out
/// helpers, so holding it across a (parallel) preparation cannot
/// deadlock; it merely serialises duplicate builds of the same state.
#[derive(Debug)]
pub struct PreparedFlow {
    network: Network,
    key: ChoiceKey,
    fingerprint: u64,
    choices: ChoiceNetwork,
    mappers: Mutex<PreparedMappers>,
}

impl std::fmt::Debug for PreparedMappers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedMappers")
            .field("asic", &self.asic.len())
            .field("lut", &self.lut.len())
            .finish()
    }
}

impl PreparedFlow {
    /// Builds the artifact: choice construction (identical to the cold flow
    /// path — [`build_flow_choices`] with the same config and shared NPN
    /// store), mapper states deferred until first use. `config` must be the
    /// post-degradation config `key`/`fingerprint` were derived from.
    pub(crate) fn build(
        network: &Network,
        config: &MchConfig,
        key: ChoiceKey,
        fingerprint: u64,
        shared_npn: Option<&Arc<SharedNpnCache>>,
    ) -> Self {
        let choices = build_flow_choices(network, config, shared_npn);
        PreparedFlow {
            network: network.clone(),
            key,
            fingerprint,
            choices,
            mappers: Mutex::new(PreparedMappers::default()),
        }
    }

    /// The built choice network.
    pub fn choices(&self) -> &ChoiceNetwork {
        &self.choices
    }

    /// The cache index of this artifact: the structural fingerprint of its
    /// `(Network, ChoiceKey)` pair.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Full-equality verification behind every fingerprint match: the stored
    /// network and choice key must equal the requester's exactly.
    pub(crate) fn matches(&self, network: &Network, key: &ChoiceKey) -> bool {
        self.key == *key && self.network == *network
    }

    fn lock_mappers(&self) -> std::sync::MutexGuard<'_, PreparedMappers> {
        self.mappers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The covering phase of the ASIC flow over this artifact. Byte-identical
    /// to `map_asic(self.choices(), library, params)`.
    pub(crate) fn map_asic(&self, library: &Library, params: &AsicMapParams) -> CellNetlist {
        let prep = cover_state(
            &mut self.lock_mappers().asic,
            params.cut_ranking,
            params.cut_limit,
            library,
            || prepare_asic_cover(&self.choices, library, params),
        );
        map_asic_prepared(&self.choices, library, &prep, params)
    }

    /// The covering phase of the LUT flow over this artifact, guided by the
    /// ASIC cover of the `guide` library when `params.fusion` is on.
    /// Byte-identical to `map_lut_fused(self.choices(), lut, library,
    /// params)` with `guide = Some(library)` and to `map_lut(self.choices(),
    /// lut, params)` without one; with fusion off the guide cover is never
    /// built.
    pub(crate) fn map_lut(
        &self,
        lut: &LutLibrary,
        guide: Option<&Library>,
        params: &LutMapParams,
    ) -> LutNetlist {
        let (lut_prep, guide) = {
            let mappers = &mut *self.lock_mappers();
            let (ranking, cut_limit) = (params.cut_ranking, params.cut_limit);
            let lut_prep = cover_state(&mut mappers.lut, ranking, cut_limit, lut, || {
                prepare_lut_cover(&self.choices, lut, params)
            });
            let guide = guide.filter(|_| params.fusion.is_enabled()).map(|library| {
                let ranking = params.objective.default_ranking();
                let prep = cover_state(&mut mappers.asic, ranking, cut_limit, library, || {
                    prepare_fusion_guide(&self.choices, library, params)
                });
                (library, prep)
            });
            (lut_prep, guide)
        };
        match guide {
            Some((library, guide_prep)) => {
                map_lut_fused_prepared(&self.choices, lut, library, params, &lut_prep, &guide_prep)
            }
            None => map_lut_prepared(&self.choices, lut, &lut_prep, params),
        }
    }

    /// Approximate heap footprint in bytes: the stored network, the choice
    /// network and every prepared mapper state (its candidate skeleton and,
    /// for a fusion guide, the memoised cones).
    pub fn approx_bytes(&self) -> usize {
        let mappers = self.lock_mappers();
        let mapper_bytes: usize = mappers
            .asic
            .iter()
            .map(|(_, p)| p.approx_bytes(MatchCandidate::approx_bytes))
            .chain(
                mappers
                    .lut
                    .iter()
                    .map(|(_, p)| p.approx_bytes(LutCandidate::approx_bytes)),
            )
            .sum();
        network_bytes(&self.network)
            + network_bytes(self.choices.network())
            + self.choices.choice_count() * 16
            + mapper_bytes
    }
}

struct CacheEntry {
    fingerprint: u64,
    flow: Arc<PreparedFlow>,
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    entries: Vec<CacheEntry>,
    stamp: u64,
}

/// A bounded, strict-LRU cache of [`PreparedFlow`]s with byte-size
/// accounting (see the module docs).
///
/// Every lookup that matches a fingerprint re-verifies full network + key
/// equality before handing the artifact out; eviction recomputes live byte
/// totals, so an artifact that grew mapper states since insertion is
/// accounted at its current size. The hit/miss/eviction counters are
/// cross-job telemetry: like the shared NPN store's, they depend on
/// scheduling — outputs never do.
#[derive(Debug)]
pub struct PreparedFlowCache {
    max_bytes: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl std::fmt::Debug for CacheInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheInner")
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl PreparedFlowCache {
    /// Default capacity of a service's warm-start cache (256 MiB) — a few
    /// dozen medium circuits' artifacts; see `docs/PERFORMANCE.md` for sizing
    /// guidance.
    pub const DEFAULT_CAPACITY_BYTES: usize = 256 << 20;

    /// Creates a cache holding at most `max_bytes` of estimated artifact
    /// bytes. `0` disables the cache: every lookup misses, nothing is stored.
    pub fn new(max_bytes: usize) -> Self {
        PreparedFlowCache {
            max_bytes,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Whether the cache stores anything at all (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.max_bytes > 0
    }

    /// The configured capacity in (estimated) bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Number of cached artifacts.
    pub fn entries(&self) -> usize {
        self.lock_inner().entries.len()
    }

    /// Estimated bytes currently held (live recount — artifacts grow as
    /// mapper states are added).
    pub fn bytes(&self) -> usize {
        self.lock_inner()
            .entries
            .iter()
            .map(|e| e.flow.approx_bytes())
            .sum()
    }

    /// Lookups served from the cache since creation (telemetry; scheduling-
    /// dependent, see the type docs).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no verified entry since creation.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Artifacts evicted by the byte bound since creation.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a verified artifact for `(fingerprint, network, key)` and
    /// refreshes its LRU stamp. The `cache::prepared_hit` failpoint fires at
    /// entry, before any state is read or touched.
    pub(crate) fn lookup(
        &self,
        fingerprint: u64,
        network: &Network,
        key: &ChoiceKey,
    ) -> Option<Arc<PreparedFlow>> {
        mch_logic::failpoint!("cache::prepared_hit");
        if !self.is_enabled() {
            return None;
        }
        let mut inner = self.lock_inner();
        inner.stamp += 1;
        let stamp = inner.stamp;
        if let Some(entry) = inner
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint && e.flow.matches(network, key))
        {
            entry.last_used = stamp;
            let flow = Arc::clone(&entry.flow);
            drop(inner);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(flow);
        }
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts an artifact and evicts least-recently-used entries while the
    /// estimated total exceeds the capacity — possibly including the one just
    /// inserted (the caller keeps its `Arc`, so its own job is unaffected).
    /// A duplicate of an already-cached artifact is dropped, keeping the
    /// incumbent. The `cache::prepared_insert` failpoint fires at entry,
    /// before any mutation.
    pub(crate) fn insert(&self, flow: Arc<PreparedFlow>) {
        mch_logic::failpoint!("cache::prepared_insert");
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock_inner();
        if inner
            .entries
            .iter()
            .any(|e| e.fingerprint == flow.fingerprint() && e.flow.matches(&flow.network, &flow.key))
        {
            return;
        }
        inner.stamp += 1;
        let stamp = inner.stamp;
        inner.entries.push(CacheEntry {
            fingerprint: flow.fingerprint(),
            flow,
            last_used: stamp,
        });
        loop {
            let total: usize = inner.entries.iter().map(|e| e.flow.approx_bytes()).sum();
            if total <= self.max_bytes || inner.entries.is_empty() {
                break;
            }
            if let Some(lru) = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                inner.entries.remove(lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                break;
            }
        }
    }

    /// [`lookup`](Self::lookup) with fault containment: an injected panic
    /// (the `cache::prepared_hit` failpoint) degrades to a miss, and the
    /// caller builds cold — byte-identical output, no error surfaced.
    pub(crate) fn lookup_contained(
        &self,
        fingerprint: u64,
        network: &Network,
        key: &ChoiceKey,
    ) -> Option<Arc<PreparedFlow>> {
        catch_unwind(AssertUnwindSafe(|| self.lookup(fingerprint, network, key)))
            .ok()
            .flatten()
    }

    /// [`insert`](Self::insert) with fault containment: an injected panic
    /// (the `cache::prepared_insert` failpoint) skips the insert — the job
    /// already holds its artifact, only future warm starts are lost.
    pub(crate) fn insert_contained(&self, flow: Arc<PreparedFlow>) {
        let _ = catch_unwind(AssertUnwindSafe(|| self.insert(flow)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_benchmarks::demo_adder_gt;

    fn build_prepared(network: &Network, config: &MchConfig) -> Arc<PreparedFlow> {
        let key = ChoiceKey::from_config(config);
        let fingerprint = flow_fingerprint(network, &key);
        Arc::new(PreparedFlow::build(network, config, key, fingerprint, None))
    }

    #[test]
    fn lookup_hits_on_equal_inputs_and_misses_on_different_keys() {
        let net = demo_adder_gt();
        let config = MchConfig::lut_area();
        let flow = build_prepared(&net, &config);
        let cache = PreparedFlowCache::new(PreparedFlowCache::DEFAULT_CAPACITY_BYTES);
        cache.insert(Arc::clone(&flow));
        assert_eq!(cache.entries(), 1);

        let key = ChoiceKey::from_config(&config);
        let hit = cache
            .lookup(flow_fingerprint(&net, &key), &net, &key)
            .expect("equal inputs must hit");
        assert!(Arc::ptr_eq(&hit, &flow), "the hit must be the stored artifact");

        // A config differing in a choice-relevant field misses...
        let other = ChoiceKey::from_config(&MchConfig::balanced());
        assert!(cache.lookup(flow_fingerprint(&net, &other), &net, &other).is_none());
        // ...but one differing only in the unread `mch.threads` normalises to
        // the same key.
        let mut threaded = config.clone();
        threaded.mch.threads = 7;
        assert_eq!(key, ChoiceKey::from_config(&threaded));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn duplicate_inserts_keep_the_incumbent() {
        let net = demo_adder_gt();
        let config = MchConfig::lut_area();
        let first = build_prepared(&net, &config);
        let second = build_prepared(&net, &config);
        let cache = PreparedFlowCache::new(PreparedFlowCache::DEFAULT_CAPACITY_BYTES);
        cache.insert(Arc::clone(&first));
        cache.insert(second);
        assert_eq!(cache.entries(), 1);
        let key = ChoiceKey::from_config(&config);
        let hit = cache
            .lookup(flow_fingerprint(&net, &key), &net, &key)
            .expect("hit");
        assert!(Arc::ptr_eq(&hit, &first));
    }

    #[test]
    fn byte_bound_evicts_least_recently_used_first() {
        let net = demo_adder_gt();
        let a = build_prepared(&net, &MchConfig::lut_area());
        let b = build_prepared(&net, &MchConfig::balanced());
        // A capacity that holds exactly one artifact of this size.
        let cache = PreparedFlowCache::new(a.approx_bytes() + b.approx_bytes() / 2);
        cache.insert(Arc::clone(&a));
        cache.insert(Arc::clone(&b));
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.evictions(), 1);
        // `a` (older stamp) was the one evicted.
        let key_b = ChoiceKey::from_config(&MchConfig::balanced());
        assert!(cache.lookup(b.fingerprint(), &net, &key_b).is_some());
        let key_a = ChoiceKey::from_config(&MchConfig::lut_area());
        assert!(cache.lookup(a.fingerprint(), &net, &key_a).is_none());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let net = demo_adder_gt();
        let config = MchConfig::lut_area();
        let flow = build_prepared(&net, &config);
        let cache = PreparedFlowCache::new(0);
        assert!(!cache.is_enabled());
        cache.insert(Arc::clone(&flow));
        assert_eq!((cache.entries(), cache.bytes()), (0, 0));
        let key = ChoiceKey::from_config(&config);
        assert!(cache.lookup(flow.fingerprint(), &net, &key).is_none());
    }

    #[test]
    fn prepared_footprint_grows_with_mapper_state() {
        let net = demo_adder_gt();
        let config = MchConfig::lut_area();
        let flow = build_prepared(&net, &config);
        let before = flow.approx_bytes();
        assert!(before > 0);
        let lut = mch_techlib::LutLibrary::k6();
        let params = LutMapParams::new(config.objective);
        let _ = flow.map_lut(&lut, None, &params);
        assert!(
            flow.approx_bytes() > before,
            "building the LUT prepared state must grow the accounted footprint"
        );
    }
}
