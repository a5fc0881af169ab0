//! Division of a connected graph into `O(√n)` disjoint connected subgraphs
//! of `≈√n` nodes each.
//!
//! Paper §3: *"In \[Erdős, Gerencsér, Máté\] a construction is given to
//! divide every connected graph in `O(√n)` disjoint connected subgraphs of
//! `≈√n` nodes each. Number the nodes in each subgraph 1 through `√n` (if
//! necessary, divide the excess numbers over the nodes)."*
//!
//! [`Decomposition::new`] implements a spanning-tree chunking that yields
//! disjoint **connected** parts covering all nodes, each of size at most
//! `2t − 1` where `t = ⌈√n⌉`, and at least `t` wherever the topology
//! permits (high-degree "star" centers can force smaller parts — in that
//! case, exactly as the paper prescribes, the `t` labels are divided over
//! the part's nodes so every label is still present in every part).
//!
//! The general-network locate algorithm (paper §3, implemented in
//! `mm-core::strategies::decomposed`) uses the decomposition as follows: a
//! server whose node carries label `ℓ` in its own part posts at every node
//! carrying label `ℓ` in *all* parts; a client broadcasts its query within
//! its own part. The rendezvous is the node labelled `ℓ` in the client's
//! part.

use crate::graph::{Graph, NodeId, TopoError};
use crate::props::is_connected;
use crate::spanning::SpanningTree;

/// A partition of a connected graph into connected parts with per-part
/// label assignments (labels `0..t`).
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Target part size `t ≈ √n`; also the number of labels.
    pub t: usize,
    parts: Vec<Vec<NodeId>>,
    part_of: Vec<u32>,
    /// `label_to_node[part][label]` = the node in `part` carrying `label`.
    label_to_node: Vec<Vec<NodeId>>,
    /// `labels_of[v]` = the labels carried by node `v` within its part.
    labels_of: Vec<Vec<u32>>,
}

impl Decomposition {
    /// Decomposes connected `g` with the default target size `t = ⌈√n⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::Disconnected`] if `g` is not connected, and
    /// [`TopoError::InvalidParameter`] if `g` is empty.
    pub fn new(g: &Graph) -> Result<Self, TopoError> {
        let n = g.node_count();
        let t = (n as f64).sqrt().ceil() as usize;
        Self::with_part_size(g, t.max(1))
    }

    /// Decomposes connected `g` into parts of target size `t`.
    ///
    /// Every part is connected and has at most `2t − 1` nodes. Parts are
    /// at least `t` nodes wherever possible; undersized parts only occur
    /// when forced by topology (e.g. around very high-degree nodes) and the
    /// labels are divided over their nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::Disconnected`] if `g` is not connected, and
    /// [`TopoError::InvalidParameter`] if `g` is empty or `t == 0`.
    pub fn with_part_size(g: &Graph, t: usize) -> Result<Self, TopoError> {
        let n = g.node_count();
        if n == 0 || t == 0 {
            return Err(TopoError::InvalidParameter {
                reason: "decomposition requires a non-empty graph and t >= 1".into(),
            });
        }
        if !is_connected(g) {
            return Err(TopoError::Disconnected);
        }

        let tree = SpanningTree::bfs(g, NodeId::new(0));
        let children = tree.children();

        // Post-order chunking. pending[v] accumulates v plus the uncut
        // subtrees of its children; when it reaches t it is cut as a part.
        // Processing children one at a time keeps every part below 2t.
        let mut parts: Vec<Vec<NodeId>> = Vec::new();
        let mut pending: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        // iterate nodes in reverse BFS order = children before parents
        for &v in tree.order.iter().rev() {
            let mut acc = vec![v];
            for &c in &children[v.index()] {
                let child_pending = std::mem::take(&mut pending[c.index()]);
                if child_pending.is_empty() {
                    continue;
                }
                if acc.len() + child_pending.len() >= 2 * t {
                    // cutting child_pending alone keeps it connected (it is
                    // a c-rooted residual subtree); it has < t nodes but we
                    // cannot merge it through v without overshooting.
                    if child_pending.len() >= t {
                        parts.push(child_pending);
                    } else if acc.len() >= child_pending.len() {
                        // prefer cutting the larger accumulated chunk; but
                        // acc must stay connected through v, so cut acc only
                        // when v can be spared: v must stay to connect the
                        // remaining children, so cut the child chunk.
                        parts.push(child_pending);
                    } else {
                        parts.push(child_pending);
                    }
                } else {
                    acc.extend(child_pending);
                }
                if acc.len() >= t {
                    // acc = v + some full child subtrees: connected via v.
                    // v must remain available to attach the *next* child
                    // chunks; cutting acc with v would orphan them, so we
                    // only cut acc once all children are folded in — unless
                    // acc already reached t and the remaining children can
                    // be emitted standalone. Simpler invariant: keep
                    // accumulating; final cut happens after the loop.
                }
            }
            if acc.len() >= t {
                parts.push(acc);
            } else {
                pending[v.index()] = acc;
            }
        }
        // Root remainder: fewer than t nodes left over.
        let root_pending = std::mem::take(&mut pending[0]);
        if !root_pending.is_empty() {
            // Merge into the part adjacent to the root if that stays < 2t;
            // otherwise keep it as an (undersized) part of its own.
            let merged = parts.iter_mut().find(|p| {
                p.len() + root_pending.len() < 2 * t
                    && p.iter()
                        .any(|&u| root_pending.iter().any(|&w| g.has_edge(u, w)))
            });
            match merged {
                Some(part) => part.extend(root_pending.iter().copied()),
                None => parts.push(root_pending),
            }
        }

        // Canonical ordering inside parts and across parts.
        for p in &mut parts {
            p.sort_unstable();
        }
        parts.sort_by_key(|p| p[0]);

        let mut part_of = vec![u32::MAX; n];
        for (pi, p) in parts.iter().enumerate() {
            for &v in p {
                part_of[v.index()] = pi as u32;
            }
        }
        debug_assert!(part_of.iter().all(|&p| p != u32::MAX));

        // Assign labels 0..t round-robin over each part's nodes: every
        // label appears in every part ("divide the excess numbers over the
        // nodes"), and in a part of size >= t each node carries >= 1 label.
        let mut label_to_node = Vec::with_capacity(parts.len());
        let mut labels_of = vec![Vec::new(); n];
        for p in &parts {
            let mut l2n = Vec::with_capacity(t);
            for label in 0..t {
                let v = p[label % p.len()];
                l2n.push(v);
                labels_of[v.index()].push(label as u32);
            }
            label_to_node.push(l2n);
        }

        Ok(Decomposition {
            t,
            parts,
            part_of,
            label_to_node,
            labels_of,
        })
    }

    /// The parts, each a sorted list of nodes.
    pub fn parts(&self) -> &[Vec<NodeId>] {
        &self.parts
    }

    /// Number of parts.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// The part index containing `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn part_of(&self, v: NodeId) -> usize {
        self.part_of[v.index()] as usize
    }

    /// The node carrying `label` within `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part >= part_count()` or `label >= t`.
    pub fn node_with_label(&self, part: usize, label: u32) -> NodeId {
        self.label_to_node[part][label as usize]
    }

    /// The labels carried by `v` (possibly several in undersized parts,
    /// possibly none in parts larger than `t`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn labels_of(&self, v: NodeId) -> &[u32] {
        &self.labels_of[v.index()]
    }

    /// A canonical label for `v`: its first label if it carries any, or
    /// `v's position in its part` modulo `t` otherwise (parts larger than
    /// `t` leave some nodes label-less; the strategy needs *some* label for
    /// every server host).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn canonical_label(&self, v: NodeId) -> u32 {
        if let Some(&l) = self.labels_of[v.index()].first() {
            return l;
        }
        let part = &self.parts[self.part_of(v)];
        let pos = part
            .binary_search(&v)
            .expect("node must be in its own part");
        (pos % self.t) as u32
    }

    /// All nodes carrying `label`, one (or more, for oversized parts —
    /// exactly one per part) across the whole network: the server's posting
    /// set in the general-network algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `label >= t`.
    pub fn nodes_with_label(&self, label: u32) -> Vec<NodeId> {
        (0..self.part_count())
            .map(|p| self.node_with_label(p, label))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::props::components;

    fn check_partition(g: &Graph, d: &Decomposition) {
        // disjoint cover
        let mut seen = vec![false; g.node_count()];
        for p in d.parts() {
            for &v in p {
                assert!(!seen[v.index()], "node {v} in two parts");
                seen[v.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "partition must cover all nodes");
        // connected parts
        for p in d.parts() {
            let (sub, _) = g.induced_subgraph(p).unwrap();
            assert_eq!(components(&sub).len(), 1, "part must be connected");
        }
        // size bound
        for p in d.parts() {
            assert!(p.len() <= 2 * d.t, "part exceeds 2t");
        }
        // every label present in every part
        for part in 0..d.part_count() {
            for label in 0..d.t as u32 {
                let v = d.node_with_label(part, label);
                assert_eq!(d.part_of(v), part);
            }
        }
    }

    #[test]
    fn decompose_grid() {
        let g = gen::grid(8, 8, false);
        let d = Decomposition::new(&g).unwrap();
        check_partition(&g, &d);
        assert_eq!(d.t, 8);
        // most parts should be of size >= t on a grid
        let big = d.parts().iter().filter(|p| p.len() >= d.t).count();
        assert!(big >= d.part_count() - 1);
    }

    #[test]
    fn decompose_ring_exact() {
        let g = gen::ring(16);
        let d = Decomposition::new(&g).unwrap();
        check_partition(&g, &d);
        assert_eq!(d.t, 4);
        assert!(d.part_count() >= 2);
    }

    #[test]
    fn decompose_star_tolerates_undersized_parts() {
        let g = gen::star(24); // 25 nodes, t = 5
        let d = Decomposition::new(&g).unwrap();
        check_partition(&g, &d);
        // a star cannot be cut into >=t connected parts; labels still work
        for label in 0..d.t as u32 {
            assert_eq!(d.nodes_with_label(label).len(), d.part_count());
        }
    }

    #[test]
    fn decompose_complete() {
        let g = gen::complete(30);
        let d = Decomposition::new(&g).unwrap();
        check_partition(&g, &d);
    }

    #[test]
    fn decompose_single_node() {
        let g = Graph::new(1);
        let d = Decomposition::new(&g).unwrap();
        assert_eq!(d.part_count(), 1);
        assert_eq!(d.t, 1);
        assert_eq!(d.canonical_label(NodeId::new(0)), 0);
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::new(3);
        assert_eq!(Decomposition::new(&g).unwrap_err(), TopoError::Disconnected);
    }

    #[test]
    fn zero_t_rejected() {
        let g = gen::ring(4);
        assert!(Decomposition::with_part_size(&g, 0).is_err());
    }

    #[test]
    fn canonical_label_defined_for_all_nodes() {
        let g = gen::grid(7, 9, false);
        let d = Decomposition::new(&g).unwrap();
        for v in g.nodes() {
            let l = d.canonical_label(v);
            assert!((l as usize) < d.t);
        }
    }

    #[test]
    fn part_count_scales_like_sqrt_n() {
        for side in [6usize, 10, 14] {
            let n = side * side;
            let g = gen::grid(side, side, false);
            let d = Decomposition::new(&g).unwrap();
            // between n/(2t) and n/t parts plus slack for undersized ones
            let t = d.t;
            assert!(d.part_count() >= n / (2 * t));
            assert!(
                d.part_count() <= n / t * 2 + 2,
                "too many parts: {}",
                d.part_count()
            );
        }
    }
}
