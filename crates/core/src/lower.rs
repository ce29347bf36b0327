//! Shared plan-tree lowering: post-order indexing used by both the
//! training path ([`crate::tree::TreeBatch`]) and the serving path
//! ([`crate::infer::PlanProgram`]).
//!
//! Both engines flatten a [`PlanNode`] tree into its post-order position
//! list and need, for every position, the positions of its children; the
//! serving engine additionally schedules positions by *height from the
//! leaves* so that all nodes whose children are already computed can share
//! one gemm per operator family. Keeping the lowering here guarantees the
//! two engines agree on position numbering — the differential tests compare
//! their outputs position by position.

use qpp_plansim::operators::{
    AggStrategy, HashAlgorithm, JoinAlgorithm, JoinType, Operator, ParentRel, ScanMethod,
    SortMethod,
};
use qpp_plansim::plan::PlanNode;

/// An **exact** content key of everything featurization reads from one
/// plan node: the operator variant with all its parameters, the full
/// `EXPLAIN` estimate block, the learned-cardinality attachment and the
/// multiprogramming level. Two nodes with equal keys featurize to
/// bit-identical vectors under any one featurizer/whitener pair — which is
/// why the serving engines may key feature-row caches and subtree sharing
/// on it without ever re-verifying: this is a lossless encoding (a
/// conservative superset of the featurized fields), not a hash, so there
/// are no collisions to defend against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct NodeContentKey([u64; 12]);

impl NodeContentKey {
    /// Encodes `node`'s feature-determining content.
    pub fn of(node: &PlanNode) -> NodeContentKey {
        // Layout: [tag | learned-flag << 8, op0, op1, op2,
        //          width, rows, buffers, ios, total_cost, selectivity,
        //          learned_rows, concurrency].
        let mut k = [0u64; 12];
        let (tag, op0, op1, op2): (u64, u64, u64, u64) = match &node.op {
            Operator::Scan { table, method, predicate_col } => {
                let m = match method {
                    ScanMethod::Seq => 0,
                    ScanMethod::Index { index, forward } => {
                        1 | ((*index as u64) << 8) | ((*forward as u64) << 1)
                    }
                };
                (0, *table as u64, m, predicate_col.map_or(0, |c| c as u64 + 1))
            }
            Operator::Filter { parallel } => (1, *parallel as u64, 0, 0),
            Operator::Join { algo, jtype, parent_rel } => {
                let a = match algo {
                    JoinAlgorithm::NestedLoop => 0,
                    JoinAlgorithm::Hash => 1,
                    JoinAlgorithm::Merge => 2,
                };
                let t = match jtype {
                    JoinType::Inner => 0,
                    JoinType::Semi => 1,
                    JoinType::Anti => 2,
                    JoinType::Full => 3,
                };
                let p = match parent_rel {
                    ParentRel::None => 0,
                    ParentRel::Inner => 1,
                    ParentRel::Outer => 2,
                    ParentRel::Subquery => 3,
                };
                (2, a, t, p)
            }
            Operator::Hash { buckets, algo } => {
                (3, buckets.to_bits(), matches!(algo, HashAlgorithm::Chained) as u64, 0)
            }
            Operator::Sort { key, method } => {
                let m = match method {
                    SortMethod::Quicksort => 0,
                    SortMethod::TopN => 1,
                    SortMethod::External => 2,
                };
                (4, *key as u64, m, 0)
            }
            Operator::Aggregate { strategy, partial, op } => {
                let s = match strategy {
                    AggStrategy::Plain => 0,
                    AggStrategy::Sorted => 1,
                    AggStrategy::Hashed => 2,
                };
                (5, s, *partial as u64, *op as u64)
            }
            Operator::Materialize => (6, 0, 0, 0),
            Operator::Limit { count } => (7, count.to_bits(), 0, 0),
        };
        k[0] = tag | (node.learned_rows.is_some() as u64) << 8;
        k[1] = op0;
        k[2] = op1;
        k[3] = op2;
        k[4] = node.est.width.to_bits();
        k[5] = node.est.rows.to_bits();
        k[6] = node.est.buffers.to_bits();
        k[7] = node.est.ios.to_bits();
        k[8] = node.est.total_cost.to_bits();
        k[9] = node.est.selectivity.to_bits();
        k[10] = node.learned_rows.map_or(0, f64::to_bits);
        k[11] = node.concurrency.to_bits();
        NodeContentKey(k)
    }

    /// The raw encoded words, exposed for deterministic hashing (shard
    /// routing in [`crate::stream`] folds these through FNV-1a so the
    /// same plan always lands on the same shard, on every platform).
    pub(crate) fn words(&self) -> &[u64; 12] {
        &self.0
    }
}

/// The structural fingerprint of one *resident subtree* in the incremental
/// serving engine: the root node's exact content plus the identities of
/// its (already-deduplicated) children. Because children are resolved
/// bottom-up, two subtrees receive equal keys **iff** they are
/// node-for-node identical in every featurized field — the common-
/// subexpression-elimination map (`qppnet::stream`) keys shared wavefront
/// rows on this, so sharing is exact (same bits), never heuristic.
///
/// The key is `Copy`: operator arity is at most 2 ([`OpKind::arity`]), so
/// the children live inline and keying a node never touches the heap.
///
/// [`OpKind::arity`]: qpp_plansim::operators::OpKind::arity
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SubtreeKey {
    /// Content key of the subtree's root node.
    pub content: NodeContentKey,
    /// Shared-node ids of the root's children, left to right; entries
    /// past `arity` stay zero so the derived equality and hash see only
    /// the real children.
    children: [u32; 2],
    arity: u8,
}

impl SubtreeKey {
    /// The key of a node with root content `content` over the shared
    /// subtrees `children` (left to right).
    ///
    /// # Panics
    /// Panics if `children` has more than two entries (no operator does).
    pub fn new(content: NodeContentKey, children: &[u32]) -> SubtreeKey {
        let mut ids = [0; 2];
        ids[..children.len()].copy_from_slice(children);
        SubtreeKey { content, children: ids, arity: children.len() as u8 }
    }

    /// Shared-node ids of the root's children, left to right.
    pub fn children(&self) -> &[u32] {
        &self.children[..self.arity as usize]
    }
}

/// A plan tree lowered to flat post-order form: per-position child lists
/// in CSR layout plus heights from the leaves.
///
/// The CSR layout (one flat index array + offsets instead of one `Vec`
/// per position) keeps lowering allocation-light — the serving compiler
/// lowers thousands of nodes per batch on its hot path.
#[derive(Debug, Clone, Default)]
pub struct Lowering {
    /// `children[child_offsets[k]..child_offsets[k + 1]]` are the
    /// post-order positions of position `k`'s children.
    child_offsets: Vec<usize>,
    children: Vec<usize>,
    /// Height from the leaves per position (leaves are 0, internal nodes
    /// `1 + max(child heights)`).
    heights: Vec<usize>,
}

impl Lowering {
    /// Number of positions (nodes) in the lowered tree.
    pub fn len(&self) -> usize {
        self.heights.len()
    }

    /// True for an empty lowering (never produced by [`lower`], which
    /// always emits at least the root).
    pub fn is_empty(&self) -> bool {
        self.heights.is_empty()
    }

    /// Child positions of post-order position `k`.
    pub fn children_of(&self, k: usize) -> &[usize] {
        &self.children[self.child_offsets[k]..self.child_offsets[k + 1]]
    }

    /// Height from the leaves of position `k`.
    pub fn height_of(&self, k: usize) -> usize {
        self.heights[k]
    }

    /// Resets to the empty pre-sentinel state, keeping capacity. Used by
    /// the scratch decoder (`qppnet::serve::scratch`) to rebuild a reused
    /// lowering without allocating; callers must finish with
    /// [`Lowering::seal`] before reading.
    pub(crate) fn clear(&mut self) {
        self.child_offsets.clear();
        self.children.clear();
        self.heights.clear();
    }

    /// Appends one post-order position with the given child positions,
    /// computing its height, and returns its position index. Children
    /// must already be present (post order).
    pub(crate) fn push_node(&mut self, kids: &[usize]) -> usize {
        let my = self.heights.len();
        let h = kids.iter().map(|&c| self.heights[c] + 1).max().unwrap_or(0);
        self.child_offsets.push(self.children.len());
        self.children.extend_from_slice(kids);
        self.heights.push(h);
        my
    }

    /// Truncates back to `n` positions, discarding later nodes and their
    /// child lists. Used when a duplicate `children` key forces a re-parse
    /// of a subtree range (last-wins JSON semantics).
    pub(crate) fn truncate_nodes(&mut self, n: usize) {
        let child_len = self.child_offsets.get(n).copied().unwrap_or(self.children.len());
        self.child_offsets.truncate(n);
        self.children.truncate(child_len);
        self.heights.truncate(n);
    }

    /// Pushes the final CSR sentinel offset. Must be called exactly once
    /// after the last [`Lowering::push_node`]; [`lower`] does the
    /// equivalent internally.
    pub(crate) fn seal(&mut self) {
        self.child_offsets.push(self.children.len());
    }
}

/// Lowers `root`'s subtree to flat post-order form.
///
/// Position numbering matches [`PlanNode::postorder`]: children before
/// parents, the root last. Heights are the wavefront key of the serving
/// engine: a node at height `h` only consumes outputs of nodes at heights
/// `< h`, so evaluating heights in ascending order satisfies every data
/// dependency regardless of tree shape.
///
/// ```
/// use qppnet::lower::lower;
/// use qpp_plansim::operators::{JoinAlgorithm, JoinType, Operator, ParentRel, ScanMethod};
/// use qpp_plansim::plan::PlanNode;
///
/// let scan = |t| PlanNode::new(
///     Operator::Scan { table: t, method: ScanMethod::Seq, predicate_col: None }, vec![]);
/// let join = PlanNode::new(
///     Operator::Join { algo: JoinAlgorithm::Hash, jtype: JoinType::Inner,
///                      parent_rel: ParentRel::None },
///     vec![scan(0), scan(1)]);
///
/// let lw = lower(&join);
/// assert_eq!(lw.len(), 3);                   // post order: scan, scan, join
/// assert_eq!(lw.children_of(2), &[0, 1]);    // the root joins positions 0 and 1
/// assert_eq!((lw.height_of(0), lw.height_of(2)), (0, 1));
/// ```
pub fn lower(root: &PlanNode) -> Lowering {
    fn rec(node: &PlanNode, lw: &mut Lowering, stack: &mut Vec<usize>) -> usize {
        let mark = stack.len();
        for c in &node.children {
            let ci = rec(c, lw, stack);
            stack.push(ci);
        }
        let my = lw.heights.len();
        let kids = &stack[mark..];
        let h = kids.iter().map(|&c| lw.heights[c] + 1).max().unwrap_or(0);
        lw.child_offsets.push(lw.children.len());
        lw.children.extend_from_slice(kids);
        lw.heights.push(h);
        stack.truncate(mark);
        my
    }
    let n = root.node_count();
    let mut lw = Lowering {
        child_offsets: Vec::with_capacity(n + 1),
        children: Vec::with_capacity(n.saturating_sub(1)),
        heights: Vec::with_capacity(n),
    };
    let mut stack = Vec::new();
    rec(root, &mut lw, &mut stack);
    lw.child_offsets.push(lw.children.len());
    debug_assert_eq!(lw.heights.len(), n);
    lw
}

/// For every post-order position of `root`'s subtree, the post-order
/// positions of its children (empty for leaves) — the owned-`Vec` view of
/// [`lower`], used where per-position ownership is convenient (e.g.
/// [`crate::tree::TreeBatch`] moves each child list into its positions).
pub fn postorder_children(root: &PlanNode) -> Vec<Vec<usize>> {
    let lw = lower(root);
    (0..lw.len()).map(|k| lw.children_of(k).to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_plansim::operators::{JoinAlgorithm, JoinType, Operator, ParentRel, ScanMethod};

    fn scan() -> PlanNode {
        PlanNode::new(
            Operator::Scan { table: 0, method: ScanMethod::Seq, predicate_col: None },
            vec![],
        )
    }

    fn join(l: PlanNode, r: PlanNode) -> PlanNode {
        PlanNode::new(
            Operator::Join {
                algo: JoinAlgorithm::Hash,
                jtype: JoinType::Inner,
                parent_rel: ParentRel::None,
            },
            vec![l, r],
        )
    }

    #[test]
    fn children_follow_postorder_numbering() {
        // Post order of join(scan, join(scan, scan)):
        //   0: scan, 1: scan, 2: scan, 3: join(1,2), 4: root join(0,3)
        let tree = join(scan(), join(scan(), scan()));
        let children = postorder_children(&tree);
        assert_eq!(children, vec![vec![], vec![], vec![], vec![1, 2], vec![0, 3]]);
    }

    #[test]
    fn heights_respect_dependencies() {
        let tree = join(scan(), join(scan(), scan()));
        let lw = lower(&tree);
        let h: Vec<usize> = (0..lw.len()).map(|k| lw.height_of(k)).collect();
        assert_eq!(h, vec![0, 0, 0, 1, 2]);
        // Every parent is strictly above all of its children.
        for k in 0..lw.len() {
            for &c in lw.children_of(k) {
                assert!(h[c] < h[k]);
            }
        }
    }

    #[test]
    fn single_node_tree_lowering() {
        let tree = scan();
        assert_eq!(postorder_children(&tree), vec![Vec::<usize>::new()]);
        let lw = lower(&tree);
        assert_eq!(lw.len(), 1);
        assert!(!lw.is_empty());
        assert_eq!(lw.children_of(0), &[] as &[usize]);
        assert_eq!(lw.height_of(0), 0);
    }

    #[test]
    fn content_keys_track_features_not_actuals() {
        let mut a = scan();
        a.est.rows = 123.0;
        let mut b = a.clone();
        // Actuals are never featurized — keys must ignore them.
        b.actual.latency_ms = 1e9;
        b.actual.rows = 7.0;
        assert_eq!(NodeContentKey::of(&a), NodeContentKey::of(&b));
        // Any featurized field difference must split the key.
        let mut c = a.clone();
        c.est.rows = 124.0;
        assert_ne!(NodeContentKey::of(&a), NodeContentKey::of(&c));
        let mut d = a.clone();
        d.concurrency = 2.0;
        assert_ne!(NodeContentKey::of(&a), NodeContentKey::of(&d));
        let mut e = a.clone();
        e.learned_rows = Some(123.0);
        assert_ne!(NodeContentKey::of(&a), NodeContentKey::of(&e));
        // learned_rows = Some(0.0) must differ from None (flag bit).
        let mut f = a.clone();
        f.learned_rows = Some(0.0);
        assert_ne!(NodeContentKey::of(&a), NodeContentKey::of(&f));
        // A different operator family always differs.
        assert_ne!(
            NodeContentKey::of(&scan()),
            NodeContentKey::of(&PlanNode::new(Operator::Materialize, vec![scan()]))
        );
    }

    #[test]
    fn subtree_keys_separate_structure_and_content() {
        let key = |node: &PlanNode, children: Vec<u32>| {
            SubtreeKey::new(NodeContentKey::of(node), &children)
        };
        let a = scan();
        assert_eq!(key(&a, vec![]), key(&a, vec![]));
        // Same content, different (shared) children → different subtree.
        assert_ne!(key(&a, vec![0]), key(&a, vec![1]));
        assert_ne!(key(&a, vec![0, 1]), key(&a, vec![1, 0]), "child order matters");
        assert_ne!(key(&a, vec![0, 1]), key(&a, vec![0, 2]), "every child counts");
        assert_ne!(key(&a, vec![]), key(&a, vec![0]), "zero padding is not a child");
        assert_eq!(key(&a, vec![3, 4]).children(), [3, 4]);
    }

    #[test]
    fn csr_lowering_agrees_with_owned_view() {
        let tree = join(join(scan(), scan()), join(scan(), join(scan(), scan())));
        let lw = lower(&tree);
        let children = postorder_children(&tree);
        assert_eq!(lw.len(), children.len());
        for (k, kids) in children.iter().enumerate() {
            assert_eq!(lw.children_of(k), kids.as_slice(), "position {k}");
        }
    }
}
