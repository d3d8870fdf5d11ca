//! The Generalized Hash Trie (GHT) and its build strategies.
//!
//! A GHT (Definition 3.1) is a tree whose internal nodes are hash maps from
//! key tuples to children and whose leaves are vectors of tuples. This module
//! implements the GHT over the column-oriented storage of `fj-storage`: leaf
//! vectors hold *row offsets* into the input relation rather than copies of
//! tuples, exactly as the paper's COLT (Column-Oriented Lazy Trie,
//! Section 4.2) prescribes, and hash-map levels are built either eagerly or
//! lazily depending on the [`TrieStrategy`]:
//!
//! * [`TrieStrategy::Simple`] — every map level is built up front (the
//!   classic Generic Join trie).
//! * [`TrieStrategy::Slt`] — only the first level is built up front; inner
//!   levels are built on first access (Freitag et al.'s lazy trie).
//! * [`TrieStrategy::Colt`] — nothing is built up front; the root iterates
//!   the base relation directly, and every level is built on first probe.
//!
//! # Key representation and hashing
//!
//! Every hash-map level is a `HashMap<LevelKey, Arc<TrieNode>,
//! FastBuildHasher>` ([`LevelMap`]). A [`LevelKey`] packs the level's key
//! values **inline** for arity ≤ 2 (a fixed-width `Copy` struct — the
//! overwhelmingly common case in JOB/LSQB-shaped plans) and spills wider
//! keys to a `Box<[Value]>` allocated once per *distinct* key; the hasher is
//! the workspace's FxHash-style multiply-xor [`FastBuildHasher`] (see
//! `fj_storage::key`). Two consequences shape the hot paths here:
//!
//! * **Building** a level reads keys directly from the column vectors —
//!   arity-1 and arity-2 levels hoist their column references and construct
//!   inline keys per row, so eager builds and lazy forcing perform no
//!   per-row heap allocation (wide levels fill a reused buffer and allocate
//!   only per distinct key).
//! * **Probing** never constructs an owned key: `LevelKey` implements
//!   `Borrow<[Value]>` with slice-delegated `Hash`/`Eq`, so [`InputTrie::get`]
//!   accepts a borrowed `&[Value]` (e.g. a stack array), and
//!   [`InputTrie::get_key`] accepts an inline key built in place.
//!
//! `Null` is an ordinary key value (`Null == Null`), so NULL groups occupy
//! trie branches like any other — a trie must represent every row. The
//! refactor preserves the engines' existing NULL policy bit-for-bit: NULL
//! keys match NULL keys in every engine (see `fj_storage::Value` on the
//! SQL-semantics gap tracked in the ROADMAP).
//!
//! # Threading model
//!
//! The trie is `Send + Sync` so that the work-stealing parallel executor
//! ([`crate::exec`]) can probe — and therefore lazily force — nodes from
//! many worker threads at once. Every node carries its immutable *raw*
//! payload (the row offsets it stands for) plus a [`OnceLock`] holding the
//! forced hash-map level. Probe-time forcing goes through
//! [`OnceLock::get_or_init`]: the first thread to touch an unforced node
//! builds its map while any racing threads block, and afterwards reads are
//! lock-free (a single atomic load). The trade-off versus the
//! single-threaded `RefCell` design this replaced is that a *lazily* forced
//! node keeps its raw offset vector alive alongside the map (shared readers
//! may still hold it), costing at most one extra copy of each lazily forced
//! level's offsets; eagerly built levels (the simple-trie strategy) own
//! their rows during construction and carry no such copy.

use crate::options::TrieStrategy;
use crate::prep::BoundInput;
use fj_storage::{FastBuildHasher, LevelKey, Relation, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A forced hash-map level: packed key to child node, under the fast hasher.
pub type LevelMap = HashMap<LevelKey, Arc<TrieNode>, FastBuildHasher>;

/// The raw (unforced) payload of a trie node: which base rows it stands for.
#[derive(Debug)]
enum RawRows {
    /// Lazily represents *every* row of the relation without materializing
    /// offsets — the COLT root before any probe ("iterate directly over the
    /// base table").
    AllRows,
    /// A vector of row offsets into the base relation (an unforced node, or a
    /// leaf).
    Offsets(Vec<u32>),
}

/// A read-only view of a node's current payload.
#[derive(Debug)]
pub enum NodeData<'a> {
    /// Every row of the base relation (an unforced COLT root).
    AllRows,
    /// Row offsets into the base relation (an unforced node, or a leaf).
    Offsets(&'a [u32]),
    /// A forced hash-map level.
    Map(&'a LevelMap),
}

/// One node of a GHT.
///
/// `Send + Sync`: the raw payload is immutable after construction and the
/// forced map is built at most once through the `OnceLock`.
#[derive(Debug)]
pub struct TrieNode {
    /// The rows below this node; fixed at construction.
    raw: RawRows,
    /// The forced hash-map level, built lazily at most once.
    forced: OnceLock<LevelMap>,
    /// Deterministic O(1) cardinality bound, fixed at construction: the
    /// number of rows below this node (or the distinct-key count for
    /// eagerly built map nodes, which own no offsets). Unlike
    /// [`InputTrie::estimated_keys`], this never changes when the node is
    /// lazily forced, so decisions keyed on it are identical at any thread
    /// count or steal schedule — the property adaptive subatom reordering
    /// relies on.
    bound: usize,
}

impl TrieNode {
    fn new(raw: RawRows, bound: usize) -> Arc<Self> {
        Arc::new(TrieNode { raw, forced: OnceLock::new(), bound })
    }

    /// Is this node currently a hash map?
    pub fn is_map(&self) -> bool {
        self.forced.get().is_some()
    }

    /// The construction-fixed cardinality bound: an O(1) upper bound on the
    /// distinct keys below this node (row count for unforced nodes, map size
    /// for eagerly built levels). Deterministic — independent of whether or
    /// when the node was lazily forced.
    pub fn key_bound(&self) -> usize {
        self.bound
    }

    /// View the node payload (the forced map if one exists, the raw rows
    /// otherwise).
    pub fn data(&self) -> NodeData<'_> {
        match self.forced.get() {
            Some(map) => NodeData::Map(map),
            None => match &self.raw {
                RawRows::AllRows => NodeData::AllRows,
                RawRows::Offsets(offsets) => NodeData::Offsets(offsets),
            },
        }
    }
}

/// The GHT of one pipeline input, together with the metadata needed to build
/// and access it (the paper's `relation`, `schema` and `vars` fields of the
/// COLT structure, Figure 12).
#[derive(Debug)]
pub struct InputTrie {
    /// Input display name (for diagnostics).
    name: String,
    /// The bound (filtered) relation the offsets point into.
    relation: Arc<Relation>,
    /// Variable names per level; the last level may be empty (a pure leaf).
    schema: Vec<Vec<String>>,
    /// Column index (in `relation`) of each variable, per level.
    level_cols: Vec<Vec<usize>>,
    /// The root node.
    root: Arc<TrieNode>,
    /// Number of hash-map levels built (eager + lazy).
    maps_built: AtomicU64,
    /// Number of hash-map levels built lazily during the join phase.
    lazy_built: AtomicU64,
}

/// The executor moves `InputTrie` references across worker threads and
/// forces nodes concurrently; keep that invariant checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<InputTrie>();
    assert_send_sync::<TrieNode>();
};

impl InputTrie {
    /// Build the trie for a bound input according to the GHT schema computed
    /// from the Free Join plan and the chosen strategy.
    ///
    /// # Panics
    /// Panics if a schema variable is not bound by the input.
    pub fn build(input: &BoundInput, schema: Vec<Vec<String>>, strategy: TrieStrategy) -> Self {
        let level_cols: Vec<Vec<usize>> = schema
            .iter()
            .map(|vars| {
                vars.iter()
                    .map(|v| {
                        input.col_of(v).unwrap_or_else(|| {
                            panic!("schema variable {v} not bound by input {}", input.name)
                        })
                    })
                    .collect()
            })
            .collect();
        let mut trie = InputTrie {
            name: input.name.clone(),
            relation: Arc::clone(&input.relation),
            schema,
            level_cols,
            root: TrieNode::new(RawRows::AllRows, input.relation.num_rows()),
            maps_built: AtomicU64::new(0),
            lazy_built: AtomicU64::new(0),
        };
        match strategy {
            TrieStrategy::Colt => {}
            TrieStrategy::Slt => {
                if trie.num_levels() > 1 {
                    trie.force(&trie.root.clone(), 0, false);
                }
            }
            TrieStrategy::Simple => {
                trie.root = trie.build_eager(RawRows::AllRows, 0);
            }
        }
        trie
    }

    /// The input name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root node.
    pub fn root(&self) -> Arc<TrieNode> {
        self.root.clone()
    }

    /// Number of rows in the underlying bound relation.
    pub fn num_rows(&self) -> usize {
        self.relation.num_rows()
    }

    /// Number of levels in the GHT schema.
    pub fn num_levels(&self) -> usize {
        self.schema.len()
    }

    /// The variables keyed at a level.
    pub fn level_vars(&self, level: usize) -> &[String] {
        &self.schema[level]
    }

    /// Is `level` the last level of the schema?
    pub fn is_last_level(&self, level: usize) -> bool {
        level + 1 >= self.schema.len()
    }

    /// Number of hash-map levels built so far (eager and lazy).
    pub fn maps_built(&self) -> u64 {
        self.maps_built.load(Ordering::Relaxed)
    }

    /// Number of hash-map levels built lazily during the join phase.
    pub fn lazy_built(&self) -> u64 {
        self.lazy_built.load(Ordering::Relaxed)
    }

    /// A pessimistic estimate of the trie's eventual heap footprint in
    /// bytes, for cache budget accounting: the bound relation's columns plus
    /// an allowance per row and level for the hash-map nodes lazy forcing
    /// may eventually build (offset vectors, key tuples, table overhead).
    /// Charged once at cache-insert time, so it deliberately bounds the
    /// *fully forced* trie rather than tracking lazy growth.
    pub fn estimated_bytes(&self) -> usize {
        // Per-(row, level) cost of a forced level, computed from the actual
        // layout so cache budget accounting stays honest if the key
        // representation changes again: a copied `u32` offset in a child's
        // offset vector, plus — pessimistically assuming every row is a
        // distinct key — one map entry (inline `LevelKey` + child `Arc`
        // pointer) and a word of hash-table control/bucket overhead. Keys
        // wider than `MAX_INLINE_KEY_ARITY` spill per distinct key; the
        // all-distinct assumption already over-counts enough to absorb that.
        // Fixed per-trie overhead, charged even for a trie over zero rows:
        // the `InputTrie` struct, its name/schema strings, the root node,
        // and a share of the cache's own key/bookkeeping for this entry.
        // Without a floor, a serving workload probing many distinct filters
        // that each match nothing would insert zero-cost entries the budget
        // never sees, growing the cache without bound.
        const BASE_BYTES: usize = 256;
        let map_entry = std::mem::size_of::<LevelKey>() + std::mem::size_of::<Arc<TrieNode>>();
        let row_level = std::mem::size_of::<u32>() + map_entry + std::mem::size_of::<u64>();
        BASE_BYTES
            + self.relation.approx_bytes()
            + self.relation.num_rows() * self.schema.len().max(1) * row_level
    }

    /// An estimate of the number of keys at a node, used for dynamic cover
    /// selection and split-threshold checks: exact for forced nodes, the
    /// tuple count otherwise (the paper: "we use the length of the vector as
    /// an estimate"). O(1) for every strategy, but the answer *changes* when
    /// a lazy node is forced — schedule-dependent under parallel execution.
    /// Adaptive reordering therefore uses [`TrieNode::key_bound`] instead,
    /// which is fixed at construction.
    pub fn estimated_keys(&self, node: &TrieNode) -> usize {
        match node.data() {
            NodeData::AllRows => self.relation.num_rows(),
            NodeData::Offsets(v) => v.len(),
            NodeData::Map(m) => m.len(),
        }
    }

    /// The number of base tuples represented below this node.
    pub fn tuple_count(&self, node: &TrieNode) -> u64 {
        match node.data() {
            NodeData::AllRows => self.relation.num_rows() as u64,
            NodeData::Offsets(v) => v.len() as u64,
            NodeData::Map(m) => m.values().map(|c| self.tuple_count(c)).sum(),
        }
    }

    /// Read the key values of `level` for a row offset into a reusable
    /// buffer (used by the parallel executor when iterating the base table
    /// directly, and by wide-key paths here; arity ≤ 2 paths build inline
    /// [`LevelKey`]s instead).
    pub(crate) fn read_key_into(&self, level: usize, offset: u32, key: &mut Vec<Value>) {
        key.clear();
        for &c in &self.level_cols[level] {
            key.push(self.relation.column(c).get(offset as usize));
        }
    }

    /// Group a node's rows by the key of `level`.
    fn group_rows(
        &self,
        rows: &RawRows,
        level: usize,
    ) -> HashMap<LevelKey, Vec<u32>, FastBuildHasher> {
        match rows {
            RawRows::AllRows => self.group_row_iter(level, 0..self.relation.num_rows() as u32),
            RawRows::Offsets(offsets) => self.group_row_iter(level, offsets.iter().copied()),
        }
    }

    /// Group row offsets by the key of `level`, reading keys directly from
    /// the column vectors. Arity-1 and arity-2 levels hoist their column
    /// references and build inline (`Copy`, heap-free) keys per row; wider
    /// levels fill a reused buffer and allocate one boxed key per *distinct*
    /// key (via the `Borrow<[Value]>` lookup), never per row.
    fn group_row_iter(
        &self,
        level: usize,
        rows: impl Iterator<Item = u32>,
    ) -> HashMap<LevelKey, Vec<u32>, FastBuildHasher> {
        let mut groups: HashMap<LevelKey, Vec<u32>, FastBuildHasher> = HashMap::default();
        match *self.level_cols[level].as_slice() {
            [] => {
                let offsets: Vec<u32> = rows.collect();
                if !offsets.is_empty() {
                    groups.insert(LevelKey::empty(), offsets);
                }
            }
            [c] => {
                let col = self.relation.column(c);
                for offset in rows {
                    let key = LevelKey::single(col.get(offset as usize));
                    groups.entry(key).or_default().push(offset);
                }
            }
            [c0, c1] => {
                let (a, b) = (self.relation.column(c0), self.relation.column(c1));
                for offset in rows {
                    let key = LevelKey::pair(a.get(offset as usize), b.get(offset as usize));
                    groups.entry(key).or_default().push(offset);
                }
            }
            ref cols => {
                let mut buf: Vec<Value> = Vec::with_capacity(cols.len());
                for offset in rows {
                    buf.clear();
                    buf.extend(cols.iter().map(|&c| self.relation.column(c).get(offset as usize)));
                    match groups.get_mut(buf.as_slice()) {
                        Some(group) => group.push(offset),
                        None => {
                            groups.insert(LevelKey::from_values(&buf), vec![offset]);
                        }
                    }
                }
            }
        }
        groups
    }

    /// Group a node's rows by the key of `level` into a fresh map level.
    fn build_level_map(&self, node: &TrieNode, level: usize) -> LevelMap {
        self.group_rows(&node.raw, level)
            .into_iter()
            .map(|(k, offsets)| {
                let bound = offsets.len();
                (k, TrieNode::new(RawRows::Offsets(offsets), bound))
            })
            .collect()
    }

    /// Build a fully-forced subtree for `rows` at `level` (the simple-trie
    /// strategy). Unlike probe-time forcing, eager construction owns its
    /// rows outright, so inner nodes are created as pure map nodes without
    /// retaining an offset vector; only the leaves (the last schema level)
    /// keep their offsets — those are the GHT leaves.
    fn build_eager(&self, rows: RawRows, level: usize) -> Arc<TrieNode> {
        if self.is_last_level(level) {
            let bound = match &rows {
                RawRows::AllRows => self.relation.num_rows(),
                RawRows::Offsets(v) => v.len(),
            };
            return TrieNode::new(rows, bound);
        }
        let map: LevelMap = self
            .group_rows(&rows, level)
            .into_iter()
            .map(|(k, offsets)| (k, self.build_eager(RawRows::Offsets(offsets), level + 1)))
            .collect();
        self.maps_built.fetch_add(1, Ordering::Relaxed);
        let bound = map.len();
        Arc::new(TrieNode { raw: RawRows::Offsets(Vec::new()), forced: OnceLock::from(map), bound })
    }

    /// Force a node at `level` into a hash map, returning the map (no-op if
    /// already forced). `lazy` marks whether this happens during the join
    /// phase (for the statistics that distinguish eager from lazy building).
    ///
    /// Safe to call from many threads at once: the first caller builds the
    /// map while the others block, and exactly one build is counted.
    pub fn force<'n>(&self, node: &'n TrieNode, level: usize, lazy: bool) -> &'n LevelMap {
        let mut built_here = false;
        let map = node.forced.get_or_init(|| {
            built_here = true;
            self.build_level_map(node, level)
        });
        if built_here {
            self.maps_built.fetch_add(1, Ordering::Relaxed);
            if lazy {
                self.lazy_built.fetch_add(1, Ordering::Relaxed);
            }
        }
        map
    }

    /// Look up `key` at `node` (which sits at `level`), forcing the node into
    /// a map first if necessary. Returns the child node, or `None` if the key
    /// is absent. This is the `get` of the GHT interface (Figure 5).
    ///
    /// The key is a borrowed value slice — a stack array or reused buffer —
    /// looked up through `LevelKey: Borrow<[Value]>`, so probing allocates
    /// nothing at any arity.
    pub fn get(&self, node: &TrieNode, level: usize, key: &[Value]) -> Option<Arc<TrieNode>> {
        self.force(node, level, true).get(key).cloned()
    }

    /// [`InputTrie::get`] for a [`LevelKey`] built in place (the arity ≤ 2
    /// probe fast path: the key is `Copy` and lives in registers).
    pub fn get_key(&self, node: &TrieNode, level: usize, key: &LevelKey) -> Option<Arc<TrieNode>> {
        self.force(node, level, true).get(key).cloned()
    }

    /// Iterate the entries of `node` at `level`, calling `f(key, child)`.
    ///
    /// * For a forced (map) node, `key` ranges over the distinct keys and
    ///   `child` is the corresponding subtrie.
    /// * For an unforced node at the **last** level, the iteration goes
    ///   directly over the underlying tuples (one call per tuple, duplicates
    ///   included) and `child` is `None` — the paper's "iterate directly over
    ///   the base table" optimization.
    /// * For an unforced node at a non-final level, the node is first forced
    ///   (iterating it tuple-wise would enumerate duplicate keys and multiply
    ///   work below).
    ///
    /// This is the `iter` of the GHT interface (Figure 5); the child is
    /// passed along so the caller does not need a separate `get` on the
    /// iterated trie (line 8 of Figure 7).
    pub fn for_each(
        &self,
        node: &TrieNode,
        level: usize,
        mut f: impl FnMut(&[Value], Option<&Arc<TrieNode>>),
    ) {
        if !node.is_map() && !self.is_last_level(level) {
            self.force(node, level, true);
        }
        match node.data() {
            NodeData::Map(m) => {
                for (key, child) in m {
                    f(key.values(), Some(child));
                }
            }
            NodeData::AllRows => {
                self.for_each_row_key(level, 0..self.relation.num_rows() as u32, &mut f);
            }
            NodeData::Offsets(offsets) => {
                self.for_each_row_key(level, offsets.iter().copied(), &mut f);
            }
        }
    }

    /// Tuple-wise iteration of the [`InputTrie::for_each`] fast path (and of
    /// the executor's base-row range tasks): call `f` with the key values of
    /// every row offset, reading directly from the column vectors. Arity ≤ 2 keys are assembled in stack arrays;
    /// wider keys go through one reused buffer. No per-row allocation either
    /// way.
    pub(crate) fn for_each_row_key(
        &self,
        level: usize,
        rows: impl Iterator<Item = u32>,
        f: &mut impl FnMut(&[Value], Option<&Arc<TrieNode>>),
    ) {
        match *self.level_cols[level].as_slice() {
            [] => {
                for _ in rows {
                    f(&[], None);
                }
            }
            [c] => {
                let col = self.relation.column(c);
                for offset in rows {
                    f(&[col.get(offset as usize)], None);
                }
            }
            [c0, c1] => {
                let (a, b) = (self.relation.column(c0), self.relation.column(c1));
                for offset in rows {
                    f(&[a.get(offset as usize), b.get(offset as usize)], None);
                }
            }
            ref cols => {
                let mut buf: Vec<Value> = Vec::with_capacity(cols.len());
                for offset in rows {
                    self.read_key_into(level, offset, &mut buf);
                    f(&buf, None);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::prepare_inputs;
    use fj_query::QueryBuilder;
    use fj_storage::{Catalog, RelationBuilder, Schema};

    /// The paper's Figure 3 instance of relation S for the clover query,
    /// with n = 3: {(x0,b0)} ∪ {(x2,bl_i), (x3,br_i) | i in 1..3}.
    fn clover_s_input() -> BoundInput {
        let mut cat = Catalog::new();
        let mut b = RelationBuilder::new("S", Schema::all_int(&["x", "b"]));
        b.push_ints(&[0, 100]).unwrap();
        for i in 1..=3i64 {
            b.push_ints(&[2, 200 + i]).unwrap();
            b.push_ints(&[3, 300 + i]).unwrap();
        }
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("S", &["x", "b"]).build();
        prepare_inputs(&cat, &q).unwrap().atoms.remove(0)
    }

    fn schema(levels: &[&[&str]]) -> Vec<Vec<String>> {
        levels.iter().map(|l| l.iter().map(|s| s.to_string()).collect()).collect()
    }

    #[test]
    fn colt_builds_nothing_up_front() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        assert_eq!(trie.maps_built(), 0);
        assert_eq!(trie.lazy_built(), 0);
        assert_eq!(trie.num_levels(), 2);
        assert!(!trie.root().is_map());
        assert_eq!(trie.estimated_keys(&trie.root()), 7);
        assert_eq!(trie.tuple_count(&trie.root()), 7);
    }

    #[test]
    fn slt_builds_only_first_level() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Slt);
        assert_eq!(trie.maps_built(), 1);
        assert_eq!(trie.lazy_built(), 0);
        assert!(trie.root().is_map());
        // The children (second level) are unforced offset vectors.
        let root = trie.root();
        let x2 = trie.get(&root, 0, &[Value::Int(2)]).unwrap();
        assert!(!x2.is_map());
        assert_eq!(trie.estimated_keys(&x2), 3);
    }

    #[test]
    fn simple_builds_every_map_level() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"], &[]]), TrieStrategy::Simple);
        // Level 0 is one map; level 1 is one map per x value (3 of them).
        assert_eq!(trie.maps_built(), 4);
        assert_eq!(trie.lazy_built(), 0);
        let root = trie.root();
        let x3 = trie.get(&root, 0, &[Value::Int(3)]).unwrap();
        assert!(x3.is_map());
        let b = trie.get(&x3, 1, &[Value::Int(301)]).unwrap();
        // The leaf is a vector of one offset.
        assert_eq!(trie.estimated_keys(&b), 1);
        assert_eq!(trie.tuple_count(&x3), 3);
    }

    #[test]
    fn colt_get_forces_lazily_and_counts() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        let root = trie.root();
        // First probe forces the first level.
        let x0 = trie.get(&root, 0, &[Value::Int(0)]).unwrap();
        assert_eq!(trie.maps_built(), 1);
        assert_eq!(trie.lazy_built(), 1);
        assert_eq!(trie.estimated_keys(&x0), 1);
        // Missing key returns None without further building.
        assert!(trie.get(&root, 0, &[Value::Int(42)]).is_none());
        assert_eq!(trie.maps_built(), 1);
        // Probing the second level of one branch only forces that branch.
        let x2 = trie.get(&root, 0, &[Value::Int(2)]).unwrap();
        assert!(trie.get(&x2, 1, &[Value::Int(201)]).is_some());
        assert!(trie.get(&x2, 1, &[Value::Int(999)]).is_none());
        assert_eq!(trie.maps_built(), 2);
        // The x3 branch was never touched.
        let x3 = trie.get(&root, 0, &[Value::Int(3)]).unwrap();
        assert!(!x3.is_map());
    }

    #[test]
    fn for_each_on_map_yields_distinct_keys_with_children() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Slt);
        let root = trie.root();
        let mut keys = Vec::new();
        trie.for_each(&root, 0, |key, child| {
            assert!(child.is_some());
            keys.push(key[0]);
        });
        keys.sort_by(|a, b| a.total_cmp(*b));
        assert_eq!(keys, vec![Value::Int(0), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn for_each_on_last_level_iterates_tuples_directly() {
        let input = clover_s_input();
        // Single-level schema: the whole relation is iterated as a flat
        // vector (the left-child case that COLT never builds a map for).
        let trie = InputTrie::build(&input, schema(&[&["x", "b"]]), TrieStrategy::Colt);
        let root = trie.root();
        let mut count = 0;
        trie.for_each(&root, 0, |key, child| {
            assert_eq!(key.len(), 2);
            assert!(child.is_none());
            count += 1;
        });
        assert_eq!(count, 7);
        // No map was ever built.
        assert_eq!(trie.maps_built(), 0);
    }

    #[test]
    fn for_each_on_unforced_middle_level_forces_first() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        let root = trie.root();
        let mut distinct = 0;
        trie.for_each(&root, 0, |_, child| {
            assert!(child.is_some());
            distinct += 1;
        });
        assert_eq!(distinct, 3);
        assert_eq!(trie.lazy_built(), 1);
    }

    #[test]
    fn duplicate_tuples_are_preserved_in_leaves() {
        let mut cat = Catalog::new();
        let mut b = RelationBuilder::new("D", Schema::all_int(&["x", "y"]));
        b.push_ints(&[1, 5]).unwrap();
        b.push_ints(&[1, 5]).unwrap();
        b.push_ints(&[1, 6]).unwrap();
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("D", &["x", "y"]).build();
        let input = prepare_inputs(&cat, &q).unwrap().atoms.remove(0);
        let trie = InputTrie::build(&input, schema(&[&["x"], &["y"], &[]]), TrieStrategy::Colt);
        let root = trie.root();
        let x1 = trie.get(&root, 0, &[Value::Int(1)]).unwrap();
        let y5 = trie.get(&x1, 1, &[Value::Int(5)]).unwrap();
        // Two duplicate (1,5) tuples → the leaf holds two offsets.
        assert_eq!(trie.estimated_keys(&y5), 2);
        assert_eq!(trie.tuple_count(&y5), 2);
        let y6 = trie.get(&x1, 1, &[Value::Int(6)]).unwrap();
        assert_eq!(trie.tuple_count(&y6), 1);
    }

    #[test]
    fn empty_key_level_maps_everything_to_one_child() {
        let input = clover_s_input();
        // Schema with an empty first level (arises for cross-product probes).
        let trie = InputTrie::build(&input, schema(&[&[], &["x", "b"]]), TrieStrategy::Colt);
        let root = trie.root();
        let child = trie.get(&root, 0, &[]).unwrap();
        assert_eq!(trie.tuple_count(&child), 7);
        let mut n = 0;
        trie.for_each(&child, 1, |_, _| n += 1);
        assert_eq!(n, 7);
    }

    #[test]
    fn empty_relation_trie() {
        let mut cat = Catalog::new();
        cat.add(fj_storage::Relation::empty("E", Schema::all_int(&["x"]))).unwrap();
        let q = QueryBuilder::new("q").atom("E", &["x"]).build();
        let input = prepare_inputs(&cat, &q).unwrap().atoms.remove(0);
        let trie = InputTrie::build(&input, schema(&[&["x"]]), TrieStrategy::Simple);
        let root = trie.root();
        assert_eq!(trie.estimated_keys(&root), 0);
        let mut n = 0;
        trie.for_each(&root, 0, |_, _| n += 1);
        assert_eq!(n, 0);
        assert!(trie.get(&root, 0, &[Value::Int(1)]).is_none());
        // Even a zero-row trie charges its fixed overhead, so caching many
        // distinct empty-result tries stays bounded by the byte budget.
        assert!(trie.estimated_bytes() > 0, "empty tries must not be budget-free");
    }

    #[test]
    fn name_and_level_metadata() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        assert_eq!(trie.name(), "S");
        assert_eq!(trie.level_vars(0), &["x".to_string()]);
        assert_eq!(trie.level_vars(1), &["b".to_string()]);
        assert!(!trie.is_last_level(0));
        assert!(trie.is_last_level(1));
    }

    /// The acceptance bar of the key refactor: every key on the arity ≤ 2
    /// trie path is stored and probed inline — `Copy`, no `Vec<Value>`, no
    /// heap allocation per build row or probe.
    #[test]
    fn arity_le_2_level_keys_are_inline_and_copy() {
        fn assert_copy<T: Copy>() {}
        // The inline representation is Copy by construction…
        assert_copy::<fj_storage::InlineKey>();
        // …and arity-1 / arity-2 levels actually use it: force both levels
        // of the clover trie and inspect every stored key.
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["x", "b"]]), TrieStrategy::Colt);
        let root = trie.root();
        for (key, child) in trie.force(&root, 0, true) {
            assert!(key.is_inline(), "arity-1 key spilled: {key:?}");
            for key2 in trie.force(child, 1, true).keys() {
                assert!(key2.is_inline(), "arity-2 key spilled: {key2:?}");
            }
        }
        const { assert!(fj_storage::MAX_INLINE_KEY_ARITY >= 2) };
        // Keys wider than the inline arity spill (and still round-trip).
        let wide = LevelKey::from_values(&[Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!(!wide.is_inline());
    }

    #[test]
    fn key_bound_is_fixed_at_construction_across_strategies() {
        let input = clover_s_input();
        // COLT: the bound is the row count everywhere and — unlike
        // `estimated_keys` — does not shrink when a node is lazily forced.
        let colt = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        let root = colt.root();
        assert_eq!(root.key_bound(), 7);
        assert_eq!(colt.estimated_keys(&root), 7);
        let x2 = colt.get(&root, 0, &[Value::Int(2)]).unwrap();
        assert_eq!(x2.key_bound(), 3);
        colt.force(&x2, 1, true);
        assert_eq!(x2.key_bound(), 3, "forcing must not change the bound");
        assert_eq!(colt.estimated_keys(&x2), 3);
        // Root after forcing: estimated_keys becomes the distinct count (3)
        // while the bound stays at the construction-time row count (7).
        assert_eq!(colt.estimated_keys(&root), 3);
        assert_eq!(root.key_bound(), 7);

        // SLT: the pre-forced root still reports its construction bound.
        let slt = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Slt);
        assert_eq!(slt.root().key_bound(), 7);

        // Simple: eagerly built map nodes report their distinct-key count,
        // leaves their row count.
        let simple = InputTrie::build(&input, schema(&[&["x"], &["b"], &[]]), TrieStrategy::Simple);
        let root = simple.root();
        assert_eq!(root.key_bound(), 3, "eager root bound is the distinct x count");
        let x3 = simple.get(&root, 0, &[Value::Int(3)]).unwrap();
        assert_eq!(x3.key_bound(), 3, "eager inner bound is its distinct b count");
    }

    #[test]
    fn estimated_bytes_scales_with_rows_and_levels() {
        let input = clover_s_input();
        let one = InputTrie::build(&input, schema(&[&["x", "b"]]), TrieStrategy::Colt);
        let two = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        assert!(one.estimated_bytes() >= input.relation.approx_bytes());
        assert!(two.estimated_bytes() > one.estimated_bytes(), "more levels cost more");
    }

    #[test]
    fn concurrent_probes_force_each_level_exactly_once() {
        use std::sync::Barrier;

        let mut cat = Catalog::new();
        let mut b = RelationBuilder::new("R", Schema::all_int(&["x", "y"]));
        for i in 0..512i64 {
            b.push_ints(&[i % 32, i]).unwrap();
        }
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("R", &["x", "y"]).build();
        let input = prepare_inputs(&cat, &q).unwrap().atoms.remove(0);
        let trie = InputTrie::build(&input, schema(&[&["x"], &["y"]]), TrieStrategy::Colt);

        let threads = 8;
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let trie = &trie;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let root = trie.root();
                    for i in 0..32i64 {
                        let x = trie.get(&root, 0, &[Value::Int((i + t as i64) % 32)]).unwrap();
                        // Also race the second level.
                        assert!(trie.get(&x, 1, &[Value::Int(-1)]).is_none());
                    }
                });
            }
        });
        // 1 root level + 32 second-level branches, each counted exactly once
        // despite 8 threads racing to force them.
        assert_eq!(trie.maps_built(), 33);
        assert_eq!(trie.lazy_built(), 33);
    }
}
