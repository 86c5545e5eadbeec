//! The value estimation tree (paper §4.2, with the Appendix A optimization).
//!
//! An AVL tree keyed on the tuple indices where some windowed scan starts or
//! ends. Following Appendix A we store the net delta `∆(n) = S(n) − E(n)`
//! (the change in per-scan income at that index) rather than `S` and `E`
//! separately; to make scan *removal* exact we additionally keep integer
//! counts of the scans starting/ending at each key and delete a node only
//! when both counts reach zero, so float residue can never strand ghost
//! nodes or drop live ones.
//!
//! An in-order traversal yields `(key, ∆)` pairs from which Algorithm 1
//! recovers the piecewise-constant tuple value function in `O(|W|)`.

use std::cmp::Ordering;

use super::ValueTreeError;

/// One tree node: a unique scan start/end index and its aggregated deltas.
#[derive(Debug)]
struct Node {
    key: u64,
    /// Net per-scan income change at `key`: Σ weights of scans starting here
    /// minus Σ weights of scans ending here.
    delta: f64,
    /// Number of windowed scans starting at `key`.
    start_count: u32,
    /// Number of windowed scans ending at `key`.
    end_count: u32,
    height: i32,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

impl Node {
    fn new(key: u64) -> Box<Node> {
        Box::new(Node {
            key,
            delta: 0.0,
            start_count: 0,
            end_count: 0,
            height: 1,
            left: None,
            right: None,
        })
    }
}

fn height(node: &Option<Box<Node>>) -> i32 {
    node.as_ref().map_or(0, |n| n.height)
}

fn update(node: &mut Box<Node>) {
    node.height = 1 + height(&node.left).max(height(&node.right));
}

fn balance_factor(node: &Node) -> i32 {
    height(&node.left) - height(&node.right)
}

fn rotate_right(mut root: Box<Node>) -> Box<Node> {
    let Some(mut new_root) = root.left.take() else {
        unreachable!("rotate_right is only called on a left-heavy node");
    };
    root.left = new_root.right.take();
    update(&mut root);
    new_root.right = Some(root);
    update(&mut new_root);
    new_root
}

fn rotate_left(mut root: Box<Node>) -> Box<Node> {
    let Some(mut new_root) = root.right.take() else {
        unreachable!("rotate_left is only called on a right-heavy node");
    };
    root.right = new_root.left.take();
    update(&mut root);
    new_root.left = Some(root);
    update(&mut new_root);
    new_root
}

fn rebalance(mut node: Box<Node>) -> Box<Node> {
    update(&mut node);
    let bf = balance_factor(&node);
    if bf > 1 {
        nashdb_obs::counter_add("value_tree.rebalances", 1);
        // bf > 1 implies a left child of height >= 2.
        if node.left.as_ref().is_some_and(|l| balance_factor(l) < 0) {
            node.left = node.left.take().map(rotate_left);
        }
        rotate_right(node)
    } else if bf < -1 {
        nashdb_obs::counter_add("value_tree.rebalances", 1);
        // bf < -1 implies a right child of height >= 2.
        if node.right.as_ref().is_some_and(|r| balance_factor(r) > 0) {
            node.right = node.right.take().map(rotate_right);
        }
        rotate_left(node)
    } else {
        node
    }
}

/// Which endpoint of a scan a tree update refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// The (inclusive) starting tuple of a scan.
    Start,
    /// The (exclusive) ending tuple of a scan.
    End,
}

/// The AVL value estimation tree.
#[derive(Debug, Default)]
pub struct AvlValueTree {
    root: Option<Box<Node>>,
    len: usize,
}

impl AvlValueTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct scan start/end indices currently tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no scans are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint in bytes (for the paper's §10.1 overhead
    /// measurement): one allocation per node.
    pub fn approx_bytes(&self) -> usize {
        self.len * std::mem::size_of::<Node>()
    }

    /// Records one endpoint of a newly windowed scan: the scan's normalized
    /// weight `Price(s)/Size(s)` is added at its start key and subtracted at
    /// its end key.
    pub(crate) fn add(&mut self, key: u64, weight: f64, endpoint: Endpoint) {
        let signed = match endpoint {
            Endpoint::Start => weight,
            Endpoint::End => -weight,
        };
        let root = self.root.take();
        let (root, created) = Self::insert_into(root, key, signed, endpoint);
        self.root = Some(root);
        if created {
            self.len += 1;
        }
    }

    /// Reverses a prior [`add`](Self::add) when a scan leaves the window.
    /// Deletes the node once no windowed scan starts or ends at its key.
    ///
    /// # Errors
    /// Returns [`ValueTreeError::UntrackedKey`] if no scan endpoint is
    /// tracked at `key`, and [`ValueTreeError::EndpointUnderflow`] if no
    /// scan with this endpoint kind was inserted there. On error the tree is
    /// left unchanged.
    pub(crate) fn remove(
        &mut self,
        key: u64,
        weight: f64,
        endpoint: Endpoint,
    ) -> Result<(), ValueTreeError> {
        // Validate up front so a failed removal cannot mutate half the path.
        self.check_removable(key, endpoint)?;
        let signed = match endpoint {
            Endpoint::Start => -weight,
            Endpoint::End => weight,
        };
        let root = self.root.take();
        let (root, deleted) = Self::remove_from(root, key, signed, endpoint);
        self.root = root;
        if deleted {
            self.len -= 1;
        }
        Ok(())
    }

    /// Verifies that a scan endpoint of the given kind is tracked at `key`.
    pub(crate) fn check_removable(
        &self,
        key: u64,
        endpoint: Endpoint,
    ) -> Result<(), ValueTreeError> {
        let mut node = self.root.as_deref();
        while let Some(n) = node {
            match key.cmp(&n.key) {
                Ordering::Equal => {
                    let count = match endpoint {
                        Endpoint::Start => n.start_count,
                        Endpoint::End => n.end_count,
                    };
                    return if count > 0 {
                        Ok(())
                    } else {
                        Err(ValueTreeError::EndpointUnderflow { key })
                    };
                }
                Ordering::Less => node = n.left.as_deref(),
                Ordering::Greater => node = n.right.as_deref(),
            }
        }
        Err(ValueTreeError::UntrackedKey { key })
    }

    fn insert_into(
        node: Option<Box<Node>>,
        key: u64,
        signed_weight: f64,
        endpoint: Endpoint,
    ) -> (Box<Node>, bool) {
        let Some(mut node) = node else {
            let mut n = Node::new(key);
            Self::apply(&mut n, signed_weight, endpoint, 1);
            return (n, true);
        };
        let created = match key.cmp(&node.key) {
            Ordering::Equal => {
                Self::apply(&mut node, signed_weight, endpoint, 1);
                return (node, false);
            }
            Ordering::Less => {
                let (child, created) =
                    Self::insert_into(node.left.take(), key, signed_weight, endpoint);
                node.left = Some(child);
                created
            }
            Ordering::Greater => {
                let (child, created) =
                    Self::insert_into(node.right.take(), key, signed_weight, endpoint);
                node.right = Some(child);
                created
            }
        };
        (rebalance(node), created)
    }

    fn apply(node: &mut Node, signed_weight: f64, endpoint: Endpoint, dir: i64) {
        node.delta += signed_weight;
        let key = node.key;
        let bump = |count: &mut u32| {
            if dir > 0 {
                *count += 1;
            } else {
                // Removals are validated by `check_removable` before any
                // mutation, so the count cannot underflow here.
                let Some(next) = count.checked_sub(1) else {
                    unreachable!("unvalidated removal at key {key}");
                };
                *count = next;
            }
        };
        match endpoint {
            Endpoint::Start => bump(&mut node.start_count),
            Endpoint::End => bump(&mut node.end_count),
        }
    }

    fn remove_from(
        node: Option<Box<Node>>,
        key: u64,
        signed_weight: f64,
        endpoint: Endpoint,
    ) -> (Option<Box<Node>>, bool) {
        let Some(mut node) = node else {
            // `check_removable` proved the key exists before we started.
            unreachable!("unvalidated removal at untracked key {key}");
        };
        let deleted = match key.cmp(&node.key) {
            Ordering::Equal => {
                Self::apply(&mut node, signed_weight, endpoint, -1);
                if node.start_count == 0 && node.end_count == 0 {
                    return (Self::delete_node(node), true);
                }
                false
            }
            Ordering::Less => {
                let (child, deleted) =
                    Self::remove_from(node.left.take(), key, signed_weight, endpoint);
                node.left = child;
                deleted
            }
            Ordering::Greater => {
                let (child, deleted) =
                    Self::remove_from(node.right.take(), key, signed_weight, endpoint);
                node.right = child;
                deleted
            }
        };
        (Some(rebalance(node)), deleted)
    }

    /// Removes `node` from the tree, returning the replacement subtree.
    #[allow(clippy::boxed_local)] // nodes live in Boxes; unboxing here would re-allocate
    fn delete_node(mut node: Box<Node>) -> Option<Box<Node>> {
        match (node.left.take(), node.right.take()) {
            (None, None) => None,
            (Some(l), None) => Some(l),
            (None, Some(r)) => Some(r),
            (Some(l), Some(r)) => {
                // Replace with the in-order successor (min of right subtree).
                let (r, mut successor) = Self::pop_min(r);
                successor.left = Some(l);
                successor.right = r;
                Some(rebalance(successor))
            }
        }
    }

    fn pop_min(mut node: Box<Node>) -> (Option<Box<Node>>, Box<Node>) {
        match node.left.take() {
            None => {
                let right = node.right.take();
                (right, node)
            }
            Some(l) => {
                let (rest, min) = Self::pop_min(l);
                node.left = rest;
                (Some(rebalance(node)), min)
            }
        }
    }

    /// In-order `(key, ∆)` pairs — the input to Algorithm 1.
    pub fn deltas(&self) -> Deltas<'_> {
        let mut iter = Deltas { stack: Vec::new() };
        iter.push_left(self.root.as_deref());
        iter
    }

    /// Maximum depth (for balance verification in tests).
    #[cfg(test)]
    pub(crate) fn height(&self) -> i32 {
        height(&self.root)
    }

    /// Walks the whole tree checking the AVL balance factor and the cached
    /// height of every node, returning the key of the first offender.
    #[cfg(any(test, feature = "invariant-audit"))]
    pub(crate) fn balance_violation(&self) -> Option<u64> {
        fn walk(node: &Option<Box<Node>>) -> Result<i32, u64> {
            match node {
                None => Ok(0),
                Some(n) => {
                    let l = walk(&n.left)?;
                    let r = walk(&n.right)?;
                    if (l - r).abs() > 1 || n.height != 1 + l.max(r) {
                        return Err(n.key);
                    }
                    Ok(n.height)
                }
            }
        }
        walk(&self.root).err()
    }

    #[cfg(test)]
    pub(crate) fn assert_balanced(&self) {
        if let Some(key) = self.balance_violation() {
            panic!("unbalanced or stale height at key {key}");
        }
    }
}

/// In-order iterator over `(key, ∆)`.
#[derive(Debug)]
pub struct Deltas<'a> {
    stack: Vec<&'a Node>,
}

impl<'a> Deltas<'a> {
    fn push_left(&mut self, mut node: Option<&'a Node>) {
        while let Some(n) = node {
            self.stack.push(n);
            node = n.left.as_deref();
        }
    }
}

impl Iterator for Deltas<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        self.push_left(node.right.as_deref());
        Some((node.key, node.delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_scan(tree: &mut AvlValueTree, start: u64, end: u64, weight: f64) {
        tree.add(start, weight, Endpoint::Start);
        tree.add(end, weight, Endpoint::End);
    }

    fn remove_scan(tree: &mut AvlValueTree, start: u64, end: u64, weight: f64) {
        tree.remove(start, weight, Endpoint::Start).unwrap();
        tree.remove(end, weight, Endpoint::End).unwrap();
    }

    /// The paper's Figure 2: scans (7,10,price 6), (4,10,price 3),
    /// (0,5,price 3/... price 3 over 5 tuples? Fig 2: s1=(7..10, price 6),
    /// s2=(4..10, price 3), s3=(0..5, price 5).
    fn figure2_tree() -> AvlValueTree {
        let mut t = AvlValueTree::new();
        add_scan(&mut t, 7, 10, 6.0 / 3.0); // s1: 3 tuples, price 6
        add_scan(&mut t, 4, 10, 3.0 / 6.0); // s2: 6 tuples, price 3
        add_scan(&mut t, 0, 5, 1.0); // s3: 5 tuples, price 5 -> weight 1
        t
    }

    #[test]
    fn figure2_deltas_match_paper() {
        let t = figure2_tree();
        assert_eq!(t.len(), 5);
        let deltas: Vec<(u64, f64)> = t.deltas().collect();
        let expect = [
            (0u64, 1.0), // S=1, E=0
            (4, 0.5),    // S=0.5, E=0
            (5, -1.0),   // S=0, E=1
            (7, 2.0),    // S=2, E=0
            (10, -2.5),  // S=0, E=2.5
        ];
        assert_eq!(deltas.len(), expect.len());
        for ((k, d), (ek, ed)) in deltas.iter().zip(expect.iter()) {
            assert_eq!(k, ek);
            assert!((d - ed).abs() < 1e-12, "key {k}: {d} vs {ed}");
        }
    }

    #[test]
    fn shared_keys_accumulate() {
        let mut t = AvlValueTree::new();
        add_scan(&mut t, 0, 10, 1.0);
        add_scan(&mut t, 0, 10, 2.0);
        assert_eq!(t.len(), 2);
        let d: Vec<_> = t.deltas().collect();
        assert!((d[0].1 - 3.0).abs() < 1e-12);
        assert!((d[1].1 + 3.0).abs() < 1e-12);
    }

    #[test]
    fn removal_deletes_empty_nodes() {
        let mut t = figure2_tree();
        remove_scan(&mut t, 7, 10, 6.0 / 3.0);
        // Key 7 disappears; key 10 stays (s2 still ends there).
        let keys: Vec<u64> = t.deltas().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 4, 5, 10]);
        remove_scan(&mut t, 4, 10, 3.0 / 6.0);
        let keys: Vec<u64> = t.deltas().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 5]);
        remove_scan(&mut t, 0, 5, 1.0);
        assert!(t.is_empty());
        assert_eq!(t.deltas().count(), 0);
    }

    #[test]
    fn start_and_end_at_same_key_keeps_node_until_both_gone() {
        let mut t = AvlValueTree::new();
        add_scan(&mut t, 0, 5, 1.0); // ends at 5
        add_scan(&mut t, 5, 9, 2.0); // starts at 5
        assert_eq!(t.len(), 3); // keys 0, 5 (shared), 9
        remove_scan(&mut t, 0, 5, 1.0);
        // Key 5 must survive: a scan still starts there.
        let keys: Vec<u64> = t.deltas().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![5, 9]);
    }

    #[test]
    fn removing_unknown_key_is_an_error() {
        let mut t = AvlValueTree::new();
        assert_eq!(
            t.remove(3, 1.0, Endpoint::Start),
            Err(ValueTreeError::UntrackedKey { key: 3 })
        );
    }

    #[test]
    fn removing_wrong_endpoint_is_an_error() {
        let mut t = AvlValueTree::new();
        t.add(3, 1.0, Endpoint::Start);
        assert_eq!(
            t.remove(3, 1.0, Endpoint::End),
            Err(ValueTreeError::EndpointUnderflow { key: 3 })
        );
        // The failed removal left the tree untouched.
        assert_eq!(t.len(), 1);
        let d: Vec<_> = t.deltas().collect();
        assert!((d[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stays_balanced_under_sequential_inserts() {
        let mut t = AvlValueTree::new();
        for i in 0..1024u64 {
            t.add(i, 1.0, Endpoint::Start);
        }
        t.assert_balanced();
        // A balanced tree over 1024 keys has height ~10..14; a degenerate
        // list would be 1024.
        assert!(t.height() <= 15, "height {}", t.height());
    }

    #[test]
    fn stays_balanced_under_mixed_churn() {
        let mut t = AvlValueTree::new();
        for i in 0..512u64 {
            add_scan(&mut t, i * 7 % 997, i * 7 % 997 + 10, 1.0);
        }
        t.assert_balanced();
        for i in 0..512u64 {
            remove_scan(&mut t, i * 7 % 997, i * 7 % 997 + 10, 1.0);
            if i % 64 == 0 {
                t.assert_balanced();
            }
        }
        assert!(t.is_empty());
    }

    #[test]
    fn approx_bytes_tracks_len() {
        let mut t = AvlValueTree::new();
        assert_eq!(t.approx_bytes(), 0);
        add_scan(&mut t, 0, 10, 1.0);
        assert_eq!(t.approx_bytes(), 2 * std::mem::size_of::<Node>());
    }
}
