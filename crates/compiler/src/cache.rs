//! The shared compiled-artifact cache: a thread-safe, capacity-bounded
//! memo of [`compile`] results keyed on exactly the fields compilation
//! depends on — plus the *layer tier* beneath it, a sibling memo of
//! per-layer evaluation results ([`LayerArtifactCache`]).
//!
//! Compilation — the buffer-constrained tile-size search plus block
//! emission — dominates the cost of every evaluation path (a single
//! `report` spends most of its time here, and a design-space sweep
//! re-visits the same geometry at every bandwidth point). The paper's
//! toolchain reflects the same split: the Fusion-ISA binary is produced
//! once per (network, accelerator organization) and then evaluated many
//! times (§IV–V of Sharma et al., ISCA 2018). This module makes that
//! compile-once artifact a first-class, shared object:
//!
//! * **key** — [`ArtifactKey`] captures `(model, batch, geometry,
//!   buffers)`: the model identity (name plus a structural fingerprint, so
//!   a mutated model under a reused name cannot alias a stale plan), the
//!   batch size, and the compile-relevant [`ArchConfig`] fields. Off-chip
//!   bandwidth and clock frequency are deliberately **excluded** — tiling
//!   never depends on them, which is what lets a whole bandwidth axis
//!   share one compilation;
//! * **storage** — [`ArtifactCache`] holds `Arc`-shared compile results
//!   (including failures, so an infeasible corner is not re-searched)
//!   behind a mutex, with least-recently-used eviction at a fixed
//!   capacity;
//! * **stats** — [`CacheStats`] exposes hits/misses/evictions so callers
//!   (the session facade, the DSE engine) can report cache effectiveness.
//!
//! Both tiers keep their entries in one private LRU core: a slab of at
//! most `capacity` slots threaded onto doubly linked recency lists, plus a
//! key → slot index. Lookup, touch, insert and eviction are all O(1), and
//! an evicted slot is reused in place, so a full 16 384-entry layer tier
//! costs no more per insert than an empty one. Every entry carries an
//! eviction *class*; the victim is the least recently used entry of the
//! lowest non-empty class. The model tier files failed compilations in the
//! lower class — they are cheap to reproduce relative to a successful
//! plan's tile search — so failures are evicted first; the layer tier uses
//! a single class.
//!
//! The layer tier sits *below* the model tier: once a plan is resolved
//! (from the model tier or a fresh compilation), each of its layers can be
//! evaluated at most once per ([`layer_fingerprint`], batch, geometry,
//! bandwidth, evaluation context) — [`LayerKey`] — however many grid
//! points, quantizations, or models share that layer. Networks built from
//! repeated blocks (ResNet-18's basic blocks, VGG's conv stacks) collapse
//! dramatically under this key; see `DESIGN.md`, "Two-tier compile/sim
//! cache".

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

use bitfusion_core::arch::ArchConfig;
use bitfusion_dnn::model::Model;

use crate::error::CompileError;
use crate::plan::{compile, ExecutionPlan, PlannedLayer};
use crate::store::DiskArtifactStore;

/// A cached compile result: the plan, or the error the compiler produced.
pub type CachedPlan = Arc<Result<ExecutionPlan, CompileError>>;

/// The identity of one compiled artifact: every input [`compile`] actually
/// reads, and nothing else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Model name.
    pub model: String,
    /// Structural fingerprint of the model (layer topology, shapes,
    /// precisions), guarding against two different models sharing a name.
    pub fingerprint: u64,
    /// Batch size compiled for.
    pub batch: u64,
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Input-buffer capacity in bytes.
    pub ibuf_bytes: usize,
    /// Weight-buffer capacity in bytes.
    pub wbuf_bytes: usize,
    /// Output-buffer capacity in bytes.
    pub obuf_bytes: usize,
    /// Bits per SRAM data-array access.
    pub buffer_access_bits: u32,
}

impl ArtifactKey {
    /// Builds the key for compiling `model` at `batch` onto `arch`.
    pub fn of(model: &Model, arch: &ArchConfig, batch: u64) -> Self {
        ArtifactKey::with_fingerprint(&model.name, fingerprint(model), arch, batch)
    }

    /// Builds the key from a precomputed [`fingerprint`] — for callers
    /// (like the DSE engine) that key many architectures against the same
    /// model and should hash it once, not once per geometry.
    pub fn with_fingerprint(
        model: &str,
        fingerprint: u64,
        arch: &ArchConfig,
        batch: u64,
    ) -> Self {
        ArtifactKey {
            model: model.to_string(),
            fingerprint,
            batch,
            rows: arch.rows,
            cols: arch.cols,
            ibuf_bytes: arch.ibuf_bytes,
            wbuf_bytes: arch.wbuf_bytes,
            obuf_bytes: arch.obuf_bytes,
            buffer_access_bits: arch.buffer_access_bits,
        }
    }
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// FNV-1a over the model's debug representation: layer names, shapes, and
/// precisions all land in the stream, so any structural edit changes the
/// fingerprint. Cheap relative to a tile search (microseconds vs
/// milliseconds) and deterministic across runs.
pub fn fingerprint(model: &Model) -> u64 {
    fnv1a(format!("{model:?}").bytes())
}

/// FNV-1a over one planned layer's evaluation-relevant structure: the GEMM
/// view (shape and `PairPrecision`), the chosen tiling, the fused post-ops
/// (a fused residual stream's extra input bits land here), and the mapping
/// facts.
///
/// The layer's *name* and its position in the plan are excluded on
/// purpose: two identically shaped groups at different depths share a
/// fingerprint, which is what lets the layer tier collapse ResNet-style
/// repeated blocks. The instruction block is excluded too — it is a
/// deterministic function of the covered fields plus the geometry already
/// present in [`LayerKey`] (its only position-dependent field, the
/// next-block link, never affects traffic or timing), and hashing its
/// debug form per layer would cost a good fraction of the evaluation being
/// memoized.
pub fn layer_fingerprint(layer: &PlannedLayer) -> u64 {
    fnv1a(
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            layer.gemm, layer.tile_plan, layer.postops, layer.mapping
        )
        .bytes(),
    )
}

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh compilation.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit rate over all lookups so far, or `None` for a cache that has
    /// never been looked up — so an untouched cache reads as "n/a", not as
    /// a suspicious 0%. The sum saturates: pathological counter values can
    /// never overflow the total.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Link value meaning "no slot".
const NIL: usize = usize::MAX;

/// Eviction classes the LRU core keeps apart: a full cache evicts from the
/// lowest non-empty class first.
const CLASSES: usize = 2;

/// One resident entry, threaded onto its class's recency list.
struct Node<K, V> {
    key: K,
    value: V,
    class: usize,
    /// The next less recently used slot of the same class, or [`NIL`].
    older: usize,
    /// The next more recently used slot of the same class, or [`NIL`].
    newer: usize,
}

/// The O(1) least-recently-used core both tiers share: a slab of at most
/// `capacity` nodes, one doubly linked recency list per eviction class,
/// and a key → slot index. The victim is the least recent entry of the
/// lowest non-empty class, which is the minimum `(class, last use)` over
/// all entries, found without a scan.
struct Lru<K, V> {
    index: HashMap<K, usize>,
    slots: Vec<Node<K, V>>,
    /// Per class, the least recently used slot (the eviction end).
    oldest: [usize; CLASSES],
    /// Per class, the most recently used slot.
    newest: [usize; CLASSES],
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            index: HashMap::new(),
            slots: Vec::new(),
            oldest: [NIL; CLASSES],
            newest: [NIL; CLASSES],
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.slots.len(),
            capacity: self.capacity,
        }
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.oldest = [NIL; CLASSES];
        self.newest = [NIL; CLASSES];
    }

    fn unlink(&mut self, slot: usize) {
        let node = &self.slots[slot];
        let (class, older, newer) = (node.class, node.older, node.newer);
        match older {
            NIL => self.oldest[class] = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest[class] = older,
            n => self.slots[n].older = older,
        }
    }

    /// Links `slot` in as the most recent entry of its class.
    fn push_newest(&mut self, slot: usize) {
        let class = self.slots[slot].class;
        let prev = self.newest[class];
        let node = &mut self.slots[slot];
        node.older = prev;
        node.newer = NIL;
        match prev {
            NIL => self.oldest[class] = slot,
            p => self.slots[p].newer = slot,
        }
        self.newest[class] = slot;
    }
}

impl<K: Clone + Eq + Hash, V> Lru<K, V> {
    fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Counts a hit or miss; a hit becomes the most recent of its class.
    fn lookup(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let Some(&slot) = self.index.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.unlink(slot);
        self.push_newest(slot);
        Some(self.slots[slot].value.clone())
    }

    /// Inserts (or replaces) `key` as the most recent entry of `class`.
    /// A new key in a full cache takes over the victim's slot.
    fn insert(&mut self, key: K, value: V, class: usize) {
        if let Some(&slot) = self.index.get(&key) {
            self.unlink(slot);
            let node = &mut self.slots[slot];
            node.value = value;
            node.class = class;
            self.push_newest(slot);
            return;
        }
        let node = Node {
            key: key.clone(),
            value,
            class,
            older: NIL,
            newer: NIL,
        };
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(node);
            self.slots.len() - 1
        } else {
            let slot = self
                .oldest
                .into_iter()
                .find(|&s| s != NIL)
                .expect("a full cache has a victim");
            self.unlink(slot);
            let victim = std::mem::replace(&mut self.slots[slot], node);
            self.index.remove(&victim.key);
            self.evictions += 1;
            slot
        };
        self.index.insert(key, slot);
        self.push_newest(slot);
    }
}

/// What both tiers share: the LRU core behind its lock, and the optional
/// disk tier beneath it.
struct Tier<K, V> {
    lru: Mutex<Lru<K, V>>,
    store: Mutex<Option<Arc<DiskArtifactStore>>>,
}

impl<K, V> Tier<K, V> {
    fn new(capacity: usize) -> Self {
        Tier {
            lru: Mutex::new(Lru::new(capacity)),
            store: Mutex::new(None),
        }
    }

    fn lru(&self) -> MutexGuard<'_, Lru<K, V>> {
        self.lru.lock().expect("cache poisoned")
    }

    fn attach_store(&self, store: Arc<DiskArtifactStore>) {
        *self.store.lock().expect("cache store poisoned") = Some(store);
    }

    fn disk(&self) -> Option<Arc<DiskArtifactStore>> {
        self.store.lock().expect("cache store poisoned").clone()
    }

    fn debug(&self, name: &str, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lru().stats();
        f.debug_struct(name)
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

/// A thread-safe, capacity-bounded, least-recently-used cache of compiled
/// execution plans.
///
/// # Examples
///
/// ```
/// use bitfusion_compiler::cache::ArtifactCache;
/// use bitfusion_core::arch::ArchConfig;
/// use bitfusion_dnn::zoo::Benchmark;
///
/// let cache = ArtifactCache::new(8);
/// let arch = ArchConfig::isca_45nm();
/// let model = Benchmark::Rnn.model();
/// let cold = cache.get_or_compile(&model, &arch, 16);
/// let warm = cache.get_or_compile(&model, &arch, 16);
/// assert!(std::sync::Arc::ptr_eq(&cold, &warm));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct ArtifactCache {
    tier: Tier<ArtifactKey, CachedPlan>,
}

/// Default capacity: comfortably holds the whole zoo at several batch
/// sizes and a modest geometry grid without unbounded growth.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.tier.debug("ArtifactCache", f)
    }
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` compiled plans
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            tier: Tier::new(capacity),
        }
    }

    /// Attaches a persistent disk tier beneath this cache: [`Self::lookup`]
    /// falls through to it on a memory miss (read-through) and
    /// [`Self::insert`] persists successful plans to it (write-behind).
    /// Memory-tier [`CacheStats`] semantics are unchanged — a disk-served
    /// plan still counts as a memory miss; the disk traffic shows up in
    /// [`DiskArtifactStore::stats`].
    pub fn attach_store(&self, store: Arc<DiskArtifactStore>) {
        self.tier.attach_store(store);
    }

    /// Looks `key` up — memory tier first, then the attached disk tier (if
    /// any) — counting a memory hit or miss and refreshing recency on a
    /// hit. A disk-served plan is promoted into the memory tier.
    pub fn lookup(&self, key: &ArtifactKey) -> Option<CachedPlan> {
        if let Some(plan) = self.tier.lru().lookup(key) {
            return Some(plan);
        }
        let store = self.tier.disk()?;
        let plan: CachedPlan = Arc::new(Ok(store.load_plan(key)?));
        self.insert_memory(key.clone(), plan.clone());
        Some(plan)
    }

    /// Whether `key` is resident, without touching counters or recency.
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        self.tier.lru().contains(key)
    }

    /// Inserts a compile result, evicting the least-recently-used entry
    /// when full (failed plans are evicted before successful ones — they
    /// are cheap to reproduce). Successful plans are also written behind
    /// to the attached disk tier, if any; failures stay memory-only (they
    /// are cheap to reproduce and a persisted failure could outlive the
    /// bug that caused it).
    pub fn insert(&self, key: ArtifactKey, plan: CachedPlan) {
        if let Ok(ok) = plan.as_ref() {
            if let Some(store) = self.tier.disk() {
                store.store_plan(&key, ok);
            }
        }
        self.insert_memory(key, plan);
    }

    /// Failures go in class 0, successes in class 1: failures are evicted
    /// first.
    fn insert_memory(&self, key: ArtifactKey, plan: CachedPlan) {
        let class = usize::from(plan.is_ok());
        self.tier.lru().insert(key, plan, class);
    }

    /// Returns the cached plan for `(model, arch, batch)`, compiling and
    /// inserting it on a miss.
    ///
    /// The compilation itself runs *outside* the cache lock, so concurrent
    /// misses on different keys compile in parallel. Two threads racing on
    /// the same cold key may both compile it; the plans are identical
    /// (compilation is deterministic), the last insert wins, and the
    /// duplicated work is bounded by one compilation.
    pub fn get_or_compile(&self, model: &Model, arch: &ArchConfig, batch: u64) -> CachedPlan {
        let key = ArtifactKey::of(model, arch, batch);
        if let Some(plan) = self.lookup(&key) {
            return plan;
        }
        let plan: CachedPlan = Arc::new(compile(model, arch, batch));
        self.insert(key, plan.clone());
        plan
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.tier.lru().stats()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.tier.lru().clear();
    }
}

/// The identity of one memoized layer evaluation in the layer tier: the
/// layer's structural [`layer_fingerprint`] (covering shape,
/// `PairPrecision`, tiling, and fused post-ops), the batch it was planned
/// at, the compile-relevant [`ArchConfig`] geometry (the same field set as
/// [`ArtifactKey`]), plus the off-chip bandwidth — unlike *compilation*,
/// *evaluation* depends on it — and an opaque caller-supplied `context`
/// discriminant folding in whatever else the evaluation reads (backend
/// identity, calibration knobs). Clock frequency stays excluded: cached
/// results live in the cycle domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerKey {
    /// Structural layer fingerprint ([`layer_fingerprint`]).
    pub fingerprint: u64,
    /// Batch size the layer was planned at.
    pub batch: u64,
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Input-buffer capacity in bytes.
    pub ibuf_bytes: usize,
    /// Weight-buffer capacity in bytes.
    pub wbuf_bytes: usize,
    /// Output-buffer capacity in bytes.
    pub obuf_bytes: usize,
    /// Bits per SRAM data-array access.
    pub buffer_access_bits: u32,
    /// Off-chip bandwidth in bits/cycle (an evaluation input, though not a
    /// compilation input).
    pub dram_bits_per_cycle: u32,
    /// Discriminant for evaluation inputs the key cannot cover
    /// structurally (backend identity, calibration options).
    pub context: u64,
}

impl LayerKey {
    /// Builds the key for evaluating a layer with `fingerprint` at `batch`
    /// on `arch` under `context`.
    pub fn of(fingerprint: u64, arch: &ArchConfig, batch: u64, context: u64) -> Self {
        LayerKey {
            fingerprint,
            batch,
            rows: arch.rows,
            cols: arch.cols,
            ibuf_bytes: arch.ibuf_bytes,
            wbuf_bytes: arch.wbuf_bytes,
            obuf_bytes: arch.obuf_bytes,
            buffer_access_bits: arch.buffer_access_bits,
            dram_bits_per_cycle: arch.dram_bits_per_cycle,
            context,
        }
    }
}

/// Default layer-tier capacity. Deep networks on a broad grid produce two
/// orders of magnitude more unique layer keys than model keys, but each
/// entry is one small evaluation result rather than a compiled plan, so
/// the tier is sized accordingly above [`DEFAULT_CACHE_CAPACITY`].
pub const DEFAULT_LAYER_CACHE_CAPACITY: usize = 16_384;

/// The layer tier of the two-tier cache: a thread-safe, capacity-bounded,
/// least-recently-used memo of per-layer evaluation results, sibling to
/// the model-level [`ArtifactCache`].
///
/// Generic over the cached value so this crate does not depend on the
/// simulator's result types — `bitfusion-sim` instantiates it with its
/// `LayerPerf` (as `LayerPerfCache`). Lookup and insert mirror
/// [`ArtifactCache`]: counters on every lookup, recency refreshed on hits,
/// LRU eviction at capacity (there is no cheap-to-reproduce failure class
/// here — evaluation is total — so every entry shares one class).
pub struct LayerArtifactCache<V> {
    tier: Tier<LayerKey, V>,
}

impl<V> Default for LayerArtifactCache<V> {
    fn default() -> Self {
        LayerArtifactCache::new(DEFAULT_LAYER_CACHE_CAPACITY)
    }
}

impl<V> std::fmt::Debug for LayerArtifactCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.tier.debug("LayerArtifactCache", f)
    }
}

impl<V> LayerArtifactCache<V> {
    /// Creates a layer cache holding at most `capacity` evaluation results
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        LayerArtifactCache {
            tier: Tier::new(capacity),
        }
    }

    /// Attaches a persistent disk tier. The value codec lives with the
    /// instantiating crate (the simulator, for `LayerPerf`), so this tier
    /// is consulted by the caller via [`Self::disk`] rather than inside
    /// [`Self::lookup`]; memory-tier [`CacheStats`] semantics are
    /// unchanged.
    pub fn attach_store(&self, store: Arc<DiskArtifactStore>) {
        self.tier.attach_store(store);
    }

    /// The attached disk tier, if any.
    pub fn disk(&self) -> Option<Arc<DiskArtifactStore>> {
        self.tier.disk()
    }

    /// Whether `key` is resident, without touching counters or recency.
    pub fn contains(&self, key: &LayerKey) -> bool {
        self.tier.lru().contains(key)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.tier.lru().stats()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.tier.lru().clear();
    }

    /// Inserts an evaluation result, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&self, key: LayerKey, value: V) {
        self.tier.lru().insert(key, value, 0);
    }
}

impl<V: Clone> LayerArtifactCache<V> {
    /// Looks `key` up, counting a hit or miss, and refreshing recency on a
    /// hit.
    pub fn lookup(&self, key: &LayerKey) -> Option<V> {
        self.tier.lru().lookup(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitfusion_dnn::zoo::Benchmark;

    fn key(tag: u64) -> ArtifactKey {
        ArtifactKey {
            model: format!("m{tag}"),
            fingerprint: tag,
            batch: 1,
            rows: 32,
            cols: 16,
            ibuf_bytes: 1,
            wbuf_bytes: 1,
            obuf_bytes: 1,
            buffer_access_bits: 32,
        }
    }

    fn ok_plan() -> CachedPlan {
        let arch = ArchConfig::isca_45nm();
        Arc::new(compile(&Benchmark::Rnn.model(), &arch, 1))
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let cache = ArtifactCache::new(2);
        let plan = ok_plan();
        cache.insert(key(1), plan.clone());
        cache.insert(key(2), plan.clone());
        // Touch key 1 so key 2 is the least recently used.
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(3), plan.clone());
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 1);
        assert!(cache.contains(&key(1)), "recently used survives");
        assert!(!cache.contains(&key(2)), "LRU entry evicted");
        assert!(cache.contains(&key(3)));
    }

    #[test]
    fn hit_rate_counts_lookups() {
        let cache = ArtifactCache::new(4);
        let arch = ArchConfig::isca_45nm();
        let model = Benchmark::Lstm.model();
        assert!(cache.get_or_compile(&model, &arch, 4).is_ok());
        for _ in 0..3 {
            assert!(cache.get_or_compile(&model, &arch, 4).is_ok());
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert!((stats.hit_rate().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn hit_rate_is_none_until_first_lookup_and_never_overflows() {
        // An untouched cache has no rate — not a 0% one.
        assert_eq!(CacheStats::default().hit_rate(), None);
        assert_eq!(ArtifactCache::default().stats().hit_rate(), None);
        // Saturating sum: counters at the u64 ceiling still produce a
        // finite in-range rate instead of overflowing the total.
        let saturated = CacheStats {
            hits: u64::MAX,
            misses: u64::MAX,
            ..CacheStats::default()
        };
        let rate = saturated.hit_rate().unwrap();
        assert!(rate.is_finite() && rate > 0.0 && rate <= 1.0, "{rate}");
    }

    #[test]
    fn bandwidth_and_frequency_share_an_artifact() {
        let cache = ArtifactCache::default();
        let model = Benchmark::Rnn.model();
        let a = cache.get_or_compile(&model, &ArchConfig::isca_45nm(), 16);
        let b = cache.get_or_compile(
            &model,
            &ArchConfig::isca_45nm().with_bandwidth(512).with_frequency(980),
            16,
        );
        assert!(Arc::ptr_eq(&a, &b), "bandwidth/frequency are not key fields");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn quantizations_of_one_model_never_alias() {
        // The cache-aliasing guard for precision as an axis: two different
        // QuantSpecs applied to the same-named network must produce
        // distinct keys (the fingerprint covers per-layer precisions), so
        // a mixed-precision what-if can never be answered with the paper
        // assignment's plan.
        use bitfusion_dnn::quantspec::QuantSpec;
        let base = Benchmark::Lstm.model();
        let u8m = QuantSpec::parse("uniform8").unwrap().apply(&base).unwrap();
        let u16m = QuantSpec::parse("uniform16").unwrap().apply(&base).unwrap();
        assert_eq!(base.name, u8m.name, "apply keeps the name");
        let arch = ArchConfig::isca_45nm();
        let keys = [
            ArtifactKey::of(&base, &arch, 4),
            ArtifactKey::of(&u8m, &arch, 4),
            ArtifactKey::of(&u16m, &arch, 4),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "quantizations alias one artifact");
            }
        }
        // And end-to-end: three compilations, three distinct plans.
        let cache = ArtifactCache::default();
        let p0 = cache.get_or_compile(&base, &arch, 4);
        let p1 = cache.get_or_compile(&u8m, &arch, 4);
        let p2 = cache.get_or_compile(&u16m, &arch, 4);
        assert!(!Arc::ptr_eq(&p0, &p1));
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().len, 3);
    }

    #[test]
    fn mutated_model_with_same_name_is_a_different_artifact() {
        let cache = ArtifactCache::default();
        let model = Benchmark::Rnn.model();
        let mut mutated = model.clone();
        mutated.layers.pop();
        let arch = ArchConfig::isca_45nm();
        let a = cache.get_or_compile(&model, &arch, 1);
        let b = cache.get_or_compile(&mutated, &arch, 1);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn failed_compiles_are_cached_and_evicted_first() {
        let cache = ArtifactCache::new(2);
        let mut tiny = ArchConfig::isca_45nm();
        tiny.obuf_bytes = 1;
        let model = Benchmark::Svhn.model();
        let failed = cache.get_or_compile(&model, &tiny, 4);
        assert!(failed.is_err());
        // Second lookup of the failure is a hit, not a fresh search.
        assert!(cache.get_or_compile(&model, &tiny, 4).is_err());
        assert_eq!(cache.stats().hits, 1);

        // Fill past capacity: the failure goes before the newest success
        // even though the success is older by recency.
        let plan = ok_plan();
        cache.insert(key(7), plan.clone());
        cache.insert(key(8), plan);
        assert!(!cache.contains(&ArtifactKey::of(&model, &tiny, 4)));
        assert!(cache.contains(&key(7)));
        assert!(cache.contains(&key(8)));
    }

    #[test]
    fn layer_fingerprints_collapse_repeated_blocks_but_not_names() {
        // ResNet-18-style repetition: identically shaped groups at
        // different depths (different names) share a fingerprint, which is
        // the whole point of the layer tier.
        let arch = ArchConfig::isca_45nm();
        let plan = compile(&Benchmark::ResNet18.model(), &arch, 16).unwrap();
        let mut unique = std::collections::HashSet::new();
        for l in &plan.layers {
            unique.insert(layer_fingerprint(l));
        }
        assert!(
            unique.len() < plan.layers.len(),
            "{} unique fingerprints across {} layers: repeated basic \
             blocks must share",
            unique.len(),
            plan.layers.len()
        );
        // But distinct shapes never collide in practice.
        assert!(unique.len() > 1);
    }

    #[test]
    fn layer_keys_separate_batch_arch_bandwidth_and_context() {
        let arch = ArchConfig::isca_45nm();
        let base = LayerKey::of(7, &arch, 16, 0);
        assert_eq!(base, LayerKey::of(7, &arch, 16, 0));
        assert_ne!(base, LayerKey::of(8, &arch, 16, 0), "fingerprint");
        assert_ne!(base, LayerKey::of(7, &arch, 8, 0), "batch");
        assert_ne!(base, LayerKey::of(7, &arch, 16, 1), "context");
        // Bandwidth is an evaluation input: unlike ArtifactKey, it splits
        // layer keys.
        let wide = arch.clone().with_bandwidth(512);
        assert_ne!(base, LayerKey::of(7, &wide, 16, 0), "bandwidth");
        // Frequency stays excluded: results are cycle-domain.
        let fast = arch.clone().with_frequency(980);
        assert_eq!(base, LayerKey::of(7, &fast, 16, 0), "frequency excluded");
    }

    #[test]
    fn layer_cache_counts_and_evicts_lru() {
        let arch = ArchConfig::isca_45nm();
        let key = |fp: u64| LayerKey::of(fp, &arch, 1, 0);
        let cache: LayerArtifactCache<u64> = LayerArtifactCache::new(2);
        assert_eq!(cache.lookup(&key(1)), None);
        cache.insert(key(1), 10);
        cache.insert(key(2), 20);
        assert_eq!(cache.lookup(&key(1)), Some(10));
        cache.insert(key(3), 30);
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 1);
        assert!(cache.contains(&key(1)), "recently used survives");
        assert!(!cache.contains(&key(2)), "LRU entry evicted");
        assert!(cache.contains(&key(3)));
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn concurrent_get_or_compile_is_safe() {
        let cache = ArtifactCache::default();
        let arch = ArchConfig::isca_45nm();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for b in [Benchmark::Rnn, Benchmark::Lstm] {
                        let plan = cache.get_or_compile(&b.model(), &arch, 2);
                        assert!(plan.is_ok());
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.hits + stats.misses, 8);
    }

    /// The eviction rule the O(1) core replaced, kept as the reference: a
    /// tick advanced on every lookup and insert, and a full cache evicting
    /// `min_by_key((class, last_used))` over every resident entry.
    struct ScanModel {
        /// tag -> (class, last_used).
        map: HashMap<u64, (bool, u64)>,
        tick: u64,
        capacity: usize,
        stats: CacheStats,
    }

    impl ScanModel {
        fn new(capacity: usize) -> Self {
            ScanModel {
                map: HashMap::new(),
                tick: 0,
                capacity,
                stats: CacheStats {
                    capacity,
                    ..CacheStats::default()
                },
            }
        }

        fn lookup(&mut self, tag: u64) -> Option<bool> {
            self.tick += 1;
            match self.map.get_mut(&tag) {
                Some(entry) => {
                    entry.1 = self.tick;
                    self.stats.hits += 1;
                    Some(entry.0)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, tag: u64, class: bool) {
            self.tick += 1;
            if !self.map.contains_key(&tag) && self.map.len() >= self.capacity {
                let victim = *self.map.iter().min_by_key(|(_, e)| **e).unwrap().0;
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
            self.map.insert(tag, (class, self.tick));
        }

        fn snapshot(&self) -> CacheStats {
            CacheStats {
                len: self.map.len(),
                ..self.stats
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert { tag: u64, ok: bool },
        Lookup(u64),
        Clear,
    }

    const TAGS: u64 = 12;

    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..20, 0..TAGS, any::<bool>()).prop_map(|(kind, tag, ok)| match kind {
            0..=9 => Op::Insert { tag, ok },
            10..=18 => Op::Lookup(tag),
            _ => Op::Clear,
        })
    }

    fn shared_ok_plan() -> CachedPlan {
        static PLAN: std::sync::OnceLock<CachedPlan> = std::sync::OnceLock::new();
        PLAN.get_or_init(ok_plan).clone()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Both tiers agree with the scanning reference after every
        /// operation: hits, misses, evictions, length and resident keys.
        /// The resident-key check calls `contains` on every key after every
        /// step, so it also proves `contains` leaves recency alone.
        #[test]
        fn lru_core_matches_the_scanning_reference(
            capacity in 1usize..=8,
            ops in prop::collection::vec(arb_op(), 1..120),
        ) {
            let failed: CachedPlan = Arc::new(Err(CompileError::EmptyModel));
            let arch = ArchConfig::isca_45nm();
            let layer_key = |tag: u64| LayerKey::of(tag, &arch, 1, 0);
            let plans = ArtifactCache::new(capacity);
            let layers: LayerArtifactCache<u64> = LayerArtifactCache::new(capacity);
            // The model tier evicts failures first; the layer tier has one
            // class, so its reference files every entry in the same one.
            let mut plan_ref = ScanModel::new(capacity);
            let mut layer_ref = ScanModel::new(capacity);
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Insert { tag, ok } => {
                        let plan = if ok { shared_ok_plan() } else { failed.clone() };
                        plans.insert(key(tag), plan);
                        plan_ref.insert(tag, ok);
                        layers.insert(layer_key(tag), tag);
                        layer_ref.insert(tag, true);
                    }
                    Op::Lookup(tag) => {
                        let got = plans.lookup(&key(tag)).map(|p| p.is_ok());
                        prop_assert_eq!(got, plan_ref.lookup(tag), "step {}: {:?}", step, op);
                        let got = layers.lookup(&layer_key(tag));
                        prop_assert_eq!(got, layer_ref.lookup(tag).map(|_| tag));
                    }
                    Op::Clear => {
                        plans.clear();
                        plan_ref.map.clear();
                        layers.clear();
                        layer_ref.map.clear();
                    }
                }
                prop_assert_eq!(plans.stats(), plan_ref.snapshot(), "step {}: {:?}", step, op);
                prop_assert_eq!(layers.stats(), layer_ref.snapshot(), "step {}: {:?}", step, op);
                for tag in 0..TAGS {
                    prop_assert_eq!(
                        plans.contains(&key(tag)),
                        plan_ref.map.contains_key(&tag)
                    );
                    prop_assert_eq!(
                        layers.contains(&layer_key(tag)),
                        layer_ref.map.contains_key(&tag)
                    );
                }
            }
        }
    }

    #[test]
    fn evicting_inserts_reuse_slots_and_never_grow_the_slab() {
        let capacity = DEFAULT_LAYER_CACHE_CAPACITY;
        let mut lru: Lru<u64, u64> = Lru::new(capacity);
        for k in 0..10 * capacity as u64 {
            lru.insert(k, k, 0);
            assert!(lru.slots.len() <= capacity);
        }
        let stats = lru.stats();
        assert_eq!(stats.len, capacity);
        assert_eq!(lru.index.len(), capacity);
        assert_eq!(stats.evictions, 9 * capacity as u64);
        // The survivors are exactly the most recent `capacity` keys.
        let newest = 9 * capacity as u64;
        assert!(!lru.contains(&(newest - 1)));
        assert!(lru.contains(&newest));
        let last = 10 * capacity as u64 - 1;
        assert_eq!(lru.lookup(&last), Some(last));
    }
}
