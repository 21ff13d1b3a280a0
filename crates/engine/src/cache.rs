//! Frontend memoization: the LRU caches that let repeated `advise` calls on
//! the same kernel skip parsing and graph construction entirely.
//!
//! Two layers are cached independently, because backends consume different
//! artifacts: parsed ASTs (keyed by source text) feed the simulator and
//! COMPOFF backends, and relational graphs (keyed by an instance's source
//! plus the [`BuilderConfig`]-relevant fields: representation and launch)
//! feed the GNN backend. A graph miss parses the instance's launch-free
//! body through the AST layer, so every launch of one body shares one
//! parse. Keys own the full text, so distinct
//! kernels can never alias a cache entry. Entries are shared via `Arc`, so
//! cache hits are pointer copies. Hit/miss counters are atomic and count
//! lookups in both layers; engine-lifetime totals live on the cache, and
//! per-request deltas ([`RequestCounters`]) surface in every
//! [`AdviseReport`](crate::AdviseReport).

use paragraph_core::{build, to_relational, BuilderConfig, RelationalGraph, Representation};
use pg_advisor::KernelInstance;
use pg_frontend::{Ast, ParseOptions};
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::EngineError;

/// A small least-recently-used map. Recency is tracked with a monotonic
/// stamp per entry; eviction scans for the minimum, which is O(capacity) but
/// only runs when the cache is full — fine for the few-hundred-entry caches
/// the engine uses.
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, (V, u64)>,
    stamp: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            stamp: 0,
            capacity: capacity.max(1),
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    ///
    /// Delegates to [`LruCache::get_by`], so the two lookup paths can never
    /// diverge in recency behaviour: a hit through either refreshes the
    /// entry's stamp. (The borrowed-form path is the one every
    /// [`FrontendCache`] probe takes — `&str` against `String`/`Arc<str>`
    /// keys — so a `get_by` that forgot to refresh would evict the hottest
    /// AST entries mid-sweep. `lru_get_by_refreshes_recency_like_get` below
    /// pins both paths.)
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.get_by(key)
    }

    /// Borrowed-form lookup (e.g. `&str` against `String` keys),
    /// refreshing recency on a hit.
    pub fn get_by<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|(value, used)| {
            *used = stamp;
            value.clone()
        })
    }

    /// Insert a key, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        self.stamp += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (value, self.stamp));
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Cache key of a built relational graph: source identity plus every
/// [`BuilderConfig`](paragraph_core::BuilderConfig) field that changes the
/// graph.
///
/// The key owns the full source rather than a 64-bit hash of it: a hash
/// collision here would silently serve one kernel's graph for another, and
/// the engine cache is the seam a long-lived serving system leans on. The
/// source is an interned `Arc<str>` (see [`FrontendCache::intern`]) so
/// probing the map on the hot path clones a pointer, not kilobytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GraphKey {
    source: Arc<str>,
    representation: Representation,
    teams: u64,
    threads: u64,
}

/// Cumulative hit/miss counters of a [`FrontendCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the frontend.
    pub misses: u64,
}

impl CacheCounters {
    /// Counter delta since an earlier snapshot.
    pub fn since(self, earlier: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// Hit/miss accounting scoped to one request. The engine threads one of
/// these through each `advise` call so concurrent requests on a shared
/// engine do not attribute each other's cache activity (the engine-lifetime
/// totals remain on [`FrontendCache`] itself).
#[derive(Debug, Default)]
pub struct RequestCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RequestCounters {
    /// Read the counters accumulated so far.
    pub fn snapshot(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// The engine's shared frontend memo: parsed ASTs and built relational
/// graphs. Thread-safe; `Arc`-shared values make hits cheap.
#[derive(Debug)]
pub struct FrontendCache {
    /// Intern table: source text -> shared `Arc<str>` used in graph keys.
    sources: Mutex<LruCache<String, Arc<str>>>,
    asts: Mutex<LruCache<Arc<str>, Arc<Ast>>>,
    graphs: Mutex<LruCache<GraphKey, Arc<RelationalGraph>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Parse budget applied to every miss. The cache sits on the raw-source
    /// ingestion path (uncatalogued `/advise` bodies land here), so limits
    /// are enforced at the same place parsing happens.
    parse_options: ParseOptions,
}

impl FrontendCache {
    /// Create a cache with `capacity` entries per layer and the default
    /// parse budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_parse_options(capacity, ParseOptions::default())
    }

    /// Create a cache with an explicit per-request parse budget.
    pub fn with_parse_options(capacity: usize, parse_options: ParseOptions) -> Self {
        Self {
            sources: Mutex::new(LruCache::new(capacity)),
            asts: Mutex::new(LruCache::new(capacity)),
            graphs: Mutex::new(LruCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            parse_options,
        }
    }

    /// The parse budget applied to cache misses.
    pub fn parse_options(&self) -> ParseOptions {
        self.parse_options
    }

    /// Shared `Arc<str>` for a source. Interning is contents-based, so an
    /// evicted-and-re-interned source still compares equal in graph keys.
    fn intern(&self, source: &str) -> Arc<str> {
        let mut table = self.sources.lock().expect("intern table poisoned");
        if let Some(interned) = table.get_by(source) {
            return interned;
        }
        let interned: Arc<str> = Arc::from(source);
        table.insert(source.to_string(), Arc::clone(&interned));
        interned
    }

    fn record(&self, request: Option<&RequestCounters>, hit: bool) {
        let (global, per_request) = if hit {
            (&self.hits, request.map(|r| &r.hits))
        } else {
            (&self.misses, request.map(|r| &r.misses))
        };
        global.fetch_add(1, Ordering::Relaxed);
        if let Some(counter) = per_request {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Parse `source`, memoized. Parsing happens outside the lock so
    /// concurrent misses do not serialize the frontend.
    pub fn ast(&self, source: &str) -> Result<Arc<Ast>, EngineError> {
        self.ast_recorded(source, None)
    }

    pub(crate) fn ast_recorded(
        &self,
        source: &str,
        request: Option<&RequestCounters>,
    ) -> Result<Arc<Ast>, EngineError> {
        let probe = pg_obs::obs().timer(pg_obs::Stage::CacheLookup);
        let cached = self.asts.lock().expect("ast cache poisoned").get_by(source);
        probe.finish();
        if let Some(ast) = cached {
            self.record(request, true);
            return Ok(ast);
        }
        self.record(request, false);
        let ast = Arc::new(pg_frontend::parse_with_options(source, self.parse_options)?);
        let key = self.intern(source);
        self.asts
            .lock()
            .expect("ast cache poisoned")
            .insert(key, Arc::clone(&ast));
        Ok(ast)
    }

    /// Build the relational graph of `instance` under a representation,
    /// memoized by the instance's source, the representation and its
    /// launch.
    ///
    /// A miss builds the graph from the AST of the instance's launch-free
    /// body ([`pg_advisor::BodyKey::text`]) with the instance's launch in
    /// the [`BuilderConfig`]. The builder reads a launch from the pragma and
    /// falls back to its config only when the pragma spells none, and the
    /// body's pragma spells none, so the graph equals the one built from the
    /// source. Every launch of a body then shares one parse.
    pub fn relational_graph(
        &self,
        instance: &KernelInstance,
        representation: Representation,
    ) -> Result<Arc<RelationalGraph>, EngineError> {
        self.relational_graph_recorded(instance, representation, None)
    }

    pub(crate) fn relational_graph_recorded(
        &self,
        instance: &KernelInstance,
        representation: Representation,
        request: Option<&RequestCounters>,
    ) -> Result<Arc<RelationalGraph>, EngineError> {
        let (teams, threads) = (instance.launch.teams, instance.launch.threads);
        let key = GraphKey {
            source: self.intern(&instance.source),
            representation,
            teams,
            threads,
        };
        let probe = pg_obs::obs().timer(pg_obs::Stage::CacheLookup);
        let cached = self.graphs.lock().expect("graph cache poisoned").get(&key);
        probe.finish();
        if let Some(graph) = cached {
            self.record(request, true);
            return Ok(graph);
        }
        self.record(request, false);
        let ast = self.body_ast(instance, request)?;
        let config = BuilderConfig::for_representation(representation).with_launch(teams, threads);
        let graph = Arc::new(to_relational(&build(&ast, &config)));
        self.graphs
            .lock()
            .expect("graph cache poisoned")
            .insert(key, Arc::clone(&graph));
        Ok(graph)
    }

    /// The AST a graph of `instance` is built from: its launch-free body's,
    /// through the AST layer. A pragma line is one token, so a body and its
    /// source have the same tokens, nodes and depth, and the byte cap is the
    /// one parse limit that can tell them apart: it is checked on the
    /// instance's own source. A source that does not spell its launch, or
    /// is over the cap, or whose body fails to parse, is parsed itself, so
    /// each instance reports its own error.
    fn body_ast(
        &self,
        instance: &KernelInstance,
        request: Option<&RequestCounters>,
    ) -> Result<Arc<Ast>, EngineError> {
        if instance.source.len() <= self.parse_options.max_source_bytes {
            if let Cow::Owned(body) = instance.body_key().text() {
                if let Ok(ast) = self.ast_recorded(&body, request) {
                    return Ok(ast);
                }
            }
        }
        self.ast_recorded(&instance.source, request)
    }

    /// Snapshot of the cumulative hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "void f(float *a) { for (int i = 0; i < 32; i++) { a[i] = 1.0; } }";

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(10)); // refresh 1; 2 is now oldest
        lru.insert(3, 30);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_get_by_refreshes_recency_like_get() {
        // Same scenario twice — once through the typed path, once through
        // the borrowed-form path `FrontendCache` uses — asserting identical
        // eviction order. A `get_by` that failed to refresh recency would
        // evict the hot entry (1) instead of the cold one (2) here.
        let run = |use_get_by: bool| -> (Option<u32>, Option<u32>, Option<u32>) {
            let mut lru: LruCache<String, u32> = LruCache::new(2);
            lru.insert("one".to_string(), 10);
            lru.insert("two".to_string(), 20);
            let hit = if use_get_by {
                lru.get_by("one")
            } else {
                lru.get(&"one".to_string())
            };
            assert_eq!(hit, Some(10)); // refresh "one"; "two" is now oldest
            lru.insert("three".to_string(), 30);
            (lru.get_by("one"), lru.get_by("two"), lru.get_by("three"))
        };
        assert_eq!(run(false), (Some(10), None, Some(30)));
        assert_eq!(run(true), (Some(10), None, Some(30)));
    }

    #[test]
    fn reinserting_a_key_does_not_evict() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(2, 21);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&2), Some(21));
    }

    #[test]
    fn ast_layer_hits_on_repeat() {
        let cache = FrontendCache::new(8);
        let a = cache.ast(SRC).unwrap();
        let b = cache.ast(SRC).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let counters = cache.counters();
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.misses, 1);
    }

    /// A CPU instance of `source` at `threads` threads.
    fn instance(source: &str, threads: u64) -> KernelInstance {
        KernelInstance {
            application: "t".into(),
            kernel: "f".into(),
            variant: pg_advisor::Variant::Cpu,
            sizes: Default::default(),
            launch: pg_advisor::LaunchConfig { teams: 1, threads },
            source: source.to_string(),
            bytes_to_device: 0,
            bytes_from_device: 0,
        }
    }

    #[test]
    fn graph_layer_distinguishes_launch_configs() {
        let cache = FrontendCache::new(8);
        let graph = |threads| {
            cache
                .relational_graph(&instance(SRC, threads), Representation::ParaGraph)
                .unwrap()
        };
        let g1 = graph(8);
        let g2 = graph(16);
        let g1_again = graph(8);
        assert!(Arc::ptr_eq(&g1, &g1_again));
        assert!(!Arc::ptr_eq(&g1, &g2));
    }

    #[test]
    fn launches_of_one_body_share_a_parse_and_build_the_source_graph() {
        let spelled = |threads: u64| {
            instance(
                &format!(
                    "void f(float *a) {{\n#pragma omp parallel for num_threads({threads})\n\
                     for (int i = 0; i < 4096; i++) {{ a[i] = 1.0; }}\n}}\n"
                ),
                threads,
            )
        };
        let cache = FrontendCache::new(8);
        for threads in [2, 8, 64] {
            let instance = spelled(threads);
            let got = cache
                .relational_graph(&instance, Representation::ParaGraph)
                .unwrap();
            let config = BuilderConfig::for_representation(Representation::ParaGraph)
                .with_launch(1, threads);
            let want = to_relational(&build(
                &pg_frontend::parse(&instance.source).unwrap(),
                &config,
            ));
            assert_eq!(*got, want, "{threads} threads");
        }
        // Three graph misses, one body parse and two body hits.
        assert_eq!(cache.counters(), CacheCounters { hits: 2, misses: 4 });
    }

    #[test]
    fn parse_errors_surface() {
        let cache = FrontendCache::new(8);
        assert!(cache.ast("garbage !!").is_err());
    }
}
