//! Spanning-tree broadcast and multicast cost accounting.
//!
//! The paper's complexity unit is the *message pass* (one hop). For a
//! complete network, posting at `P(i)` costs `#P(i)` passes. In a
//! store-and-forward network (§2.3.5):
//!
//! * if the subgraph induced by the addressed set (plus the sender) is
//!   connected, broadcasting over a spanning tree of it costs exactly
//!   `#addressed nodes` passes (one per tree edge reaching a new node);
//! * otherwise there is a routing *overhead*
//!   `m(i,j) − #P(i) − #Q(j) > 0`.
//!
//! [`multicast_cost`] computes the exact number of message passes needed to
//! deliver one message from a source to every node of a target set, using a
//! shortest-path Steiner-tree approximation (union of greedily-chosen
//! shortest paths): this is what a reasonable implementation would achieve
//! with per-node routing tables, and it degrades gracefully to the
//! spanning-tree number when the target set is locally connected.
//!
//! Cost accounting is generic over [`Router`], so it works equally on the
//! O(n²) table oracle and on the closed-form analytic routers — no
//! materialized graph or table is required.

use crate::graph::{Graph, NodeId};
use crate::router::Router;
use crate::routing::bfs;

/// A rooted spanning tree of (the reachable part of) a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningTree {
    /// The root the tree was grown from.
    pub root: NodeId,
    /// `parent[v]` is `v`'s tree parent, `u32::MAX` for the root and for
    /// nodes unreachable from it.
    pub parent: Vec<u32>,
    /// Nodes reachable from the root, in BFS order (root first).
    pub order: Vec<NodeId>,
}

impl SpanningTree {
    /// Grows a BFS spanning tree of `g` from `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn bfs(g: &Graph, root: NodeId) -> Self {
        let b = bfs(g, root);
        SpanningTree {
            root,
            parent: b.parent,
            order: b.order,
        }
    }

    /// Number of nodes the tree spans (reachable from the root).
    pub fn spanned(&self) -> usize {
        self.order.len()
    }

    /// Message passes to broadcast from the root to every spanned node:
    /// one per tree edge, i.e. `spanned() - 1`.
    pub fn broadcast_cost(&self) -> u64 {
        self.spanned().saturating_sub(1) as u64
    }

    /// The children lists of the tree (index = node).
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for &v in &self.order {
            let p = self.parent[v.index()];
            if p != u32::MAX {
                ch[p as usize].push(v);
            }
        }
        ch
    }
}

/// Message passes to deliver one message from `src` to every node in
/// `targets`, multicasting over a tree of shortest paths.
///
/// Builds a Steiner-tree approximation: targets are connected in ascending
/// node order, each through the canonical shortest path from its nearest
/// *anchor* — the source (rank 0) or an earlier-connected target (ranks
/// 1.., in connection order), the lowest rank winning a distance tie — and
/// each edge reaching a not-yet-covered node counts as one message pass.
/// Shared path prefixes are charged once. Duplicate targets and `src`
/// itself are ignored; input that is already strictly ascending (a
/// `TargetSet`) is used in place, anything else is sorted first.
///
/// The accounting uses only [`Router`] queries, so no materialized graph
/// or table is needed. Finding the nearest anchor is neighbor-first on
/// routers with [a small neighborhood](Router::has_small_neighborhood):
/// distinct nodes are at least one hop apart, so an anchor adjacent to the
/// target is nearest, and the lowest-ranked such anchor is the one the
/// full scan would pick. That costs O(degree · log |targets|) per target,
/// so a contiguous set (a checkerboard row or column on a grid or torus)
/// costs O(|targets| · degree · log |targets|) to account. Only targets
/// with no adjacent anchor, and every target on the other routers, fall
/// back to a scan over all anchors that stops at the first one hop away:
/// O(|targets|² + Σ path lengths) in the worst case. Every call also
/// zeroes an O(n) covered-node bitmap.
///
/// Returns `None` if some target is unreachable from `src`.
///
/// # Panics
///
/// Panics if `src` or any target is out of range.
///
/// # Example
///
/// ```
/// use mm_topo::{gen, spanning::multicast_cost, RoutingTable, NodeId};
///
/// let g = gen::path(5); // 0-1-2-3-4
/// let rt = RoutingTable::new(&g);
/// // reaching nodes 2 and 4 from 0 shares the prefix 0-1-2: 4 passes total
/// let cost = multicast_cost(&rt, NodeId::new(0),
///                           &[NodeId::new(2), NodeId::new(4)]).unwrap();
/// assert_eq!(cost, 4);
/// ```
pub fn multicast_cost<R: Router>(rt: &R, src: NodeId, targets: &[NodeId]) -> Option<u64> {
    let resorted: Vec<NodeId>;
    let sorted: &[NodeId] = if targets.windows(2).all(|w| w[0] < w[1]) {
        targets
    } else {
        let mut v = targets.to_vec();
        v.sort_unstable();
        v.dedup();
        resorted = v;
        &resorted
    };
    let neighbor_first = rt.has_small_neighborhood();
    let mut covered = vec![false; rt.node_count()];
    covered[src.index()] = true;
    let mut cost = 0u64;

    for (k, &t) in sorted.iter().enumerate() {
        if t == src {
            continue;
        }
        // `sorted[..k]` may hold `src` again; as a later duplicate of rank
        // 0 it never wins, so the anchors need no filtering.
        let earlier = &sorted[..k];
        let attach = neighbor_first
            .then(|| adjacent_anchor(rt, src, earlier, t))
            .flatten()
            .or_else(|| nearest_anchor(rt, src, earlier, t))?;
        // walk the canonical shortest path without materializing it; each
        // edge reaching a new node is one message pass.
        for hop in rt.hops(attach, t) {
            if !covered[hop.index()] {
                covered[hop.index()] = true;
                cost += 1;
            }
        }
    }
    Some(cost)
}

/// The lowest-ranked anchor adjacent to `t`: `src` if it is a neighbor,
/// else the lowest-numbered neighbor in the ascending `earlier` (rank
/// order is node order there). `None` when no anchor is one hop away.
fn adjacent_anchor<R: Router>(
    rt: &R,
    src: NodeId,
    earlier: &[NodeId],
    t: NodeId,
) -> Option<NodeId> {
    let mut found = None;
    // neighbors arrive in ascending order, so the first hit in `earlier`
    // is its lowest; only `src` may still displace it
    rt.for_each_neighbor(t, &mut |u| {
        if found == Some(src) {
            return;
        }
        if u == src || (found.is_none() && earlier.binary_search(&u).is_ok()) {
            found = Some(u);
        }
    });
    found
}

/// The nearest anchor to `t` by a scan in rank order (`src`, then
/// `earlier`), the lowest rank winning a tie; `None` if none reaches `t`.
fn nearest_anchor<R: Router>(rt: &R, src: NodeId, earlier: &[NodeId], t: NodeId) -> Option<NodeId> {
    let mut best: Option<(u32, NodeId)> = None;
    for a in std::iter::once(src).chain(earlier.iter().copied()) {
        if let Some(d) = rt.distance(a, t) {
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, a));
                if d == 1 {
                    // anchors are distinct from `t`: nothing is nearer
                    break;
                }
            }
        }
    }
    best.map(|(_, a)| a)
}

/// Message passes for a point-to-point send: the hop distance.
///
/// Returns `None` if `dst` is unreachable from `src`.
///
/// # Panics
///
/// Panics if `src` or `dst` is out of range.
pub fn unicast_cost<R: Router>(rt: &R, src: NodeId, dst: NodeId) -> Option<u64> {
    rt.distance(src, dst).map(u64::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::router::AnyRouter;
    use crate::routing::RoutingTable;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The O(|targets|²) accounting `multicast_cost` replaced: every
    /// target scans every anchor. Kept as the exactness reference.
    fn reference_cost<R: Router>(rt: &R, src: NodeId, targets: &[NodeId]) -> Option<u64> {
        let n = rt.node_count();
        let mut covered = vec![false; n];
        covered[src.index()] = true;
        let sorted: Vec<NodeId> = targets
            .iter()
            .copied()
            .filter(|&t| t != src)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut anchors: Vec<NodeId> = Vec::with_capacity(sorted.len() + 1);
        anchors.push(src);
        let mut cost = 0u64;

        for &t in &sorted {
            // nearest anchor; on ties the earliest-connected anchor wins.
            let mut best: Option<(u32, NodeId)> = None;
            for &a in &anchors {
                if let Some(d) = rt.distance(a, t) {
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, a));
                    }
                }
            }
            let (_, attach) = best?;
            for hop in rt.hops(attach, t) {
                if !covered[hop.index()] {
                    covered[hop.index()] = true;
                    cost += 1;
                }
            }
            anchors.push(t);
        }
        Some(cost)
    }

    /// The anchor the reference scan attaches `sorted[k]` to.
    fn reference_anchor(rt: &AnyRouter, src: NodeId, sorted: &[NodeId], k: usize) -> NodeId {
        let t = sorted[k];
        let mut best: Option<(u32, NodeId)> = None;
        for a in std::iter::once(src).chain(sorted[..k].iter().copied().filter(|&a| a != src)) {
            let d = rt.distance(a, t).expect("structured routers are connected");
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, a));
            }
        }
        best.expect("src is always an anchor").1
    }

    /// A structured router from a proptest draw: ring, grid, torus or
    /// hypercube of at most 144 nodes, with its row length (1 if none).
    fn structured(family: u8, a: usize, b: usize) -> (AnyRouter, usize) {
        let (name, nodes, row) = match family {
            0 => (format!("ring({a})"), a, a),
            1 => (format!("grid({a}x{b})"), a * b, b),
            2 => (format!("torus({a}x{b})"), a * b, b),
            _ => {
                let d = (a % 8) as u32;
                (format!("hypercube({d})"), 1 << d, 1 << (d / 2))
            }
        };
        let rt = AnyRouter::analytic_for(&name, nodes).expect("structured name");
        (rt, row)
    }

    /// A target set of the given shape over an `nodes`-node router with
    /// rows of length `row`, drawn from `rng`:
    /// 0 a contiguous row, 1 a column (stride `row`), 2 a scattered random
    /// subset, 3 an unsorted list with duplicates.
    fn target_set(shape: u8, nodes: usize, row: usize, rng: &mut SplitMix) -> Vec<NodeId> {
        let pick = |rng: &mut SplitMix| n((rng.next() % nodes as u64) as u32);
        match shape {
            0 => {
                let start = (rng.next() % nodes as u64) as usize / row * row;
                (start..(start + row).min(nodes))
                    .map(|v| n(v as u32))
                    .collect()
            }
            1 => {
                let col = (rng.next() % row as u64) as usize;
                (col..nodes).step_by(row).map(|v| n(v as u32)).collect()
            }
            2 => {
                let mut v: Vec<NodeId> = (0..1 + rng.next() % 12).map(|_| pick(rng)).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            _ => {
                let mut v: Vec<NodeId> = (0..1 + rng.next() % 16).map(|_| pick(rng)).collect();
                let dup = v[(rng.next() % v.len() as u64) as usize];
                v.push(dup);
                v.reverse();
                v
            }
        }
    }

    /// A splitmix64 stream, so one drawn seed yields a whole case.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Neighbor-first search charges exactly what the full scan
        /// charges, and attaches every target to the same anchor, on
        /// every structured family and set shape. `src_mode` places the
        /// source anywhere (0), inside the set (1), or next to a target
        /// (2) — the last sets up a one-hop tie between rank 0 and a
        /// later-connected target.
        #[test]
        fn multicast_cost_matches_the_full_scan(
            family in 0u8..4,
            a in 1usize..13,
            b in 1usize..13,
            shape in 0u8..4,
            src_mode in 0u8..3,
            seed in any::<u64>(),
        ) {
            let (rt, row) = structured(family, a, b);
            prop_assert!(rt.has_small_neighborhood());
            let nodes = rt.node_count();
            let mut rng = SplitMix(seed);
            let targets = target_set(shape, nodes, row, &mut rng);
            let member = targets[(rng.next() % targets.len() as u64) as usize];
            let src = match src_mode {
                0 => n((rng.next() % nodes as u64) as u32),
                1 => member,
                _ => {
                    let mut around = Vec::new();
                    rt.for_each_neighbor(member, &mut |u| around.push(u));
                    around.get((rng.next() % 4) as usize).copied().unwrap_or(member)
                }
            };
            prop_assert_eq!(
                multicast_cost(&rt, src, &targets),
                reference_cost(&rt, src, &targets)
            );
            let mut sorted = targets.clone();
            sorted.sort_unstable();
            sorted.dedup();
            for (k, &t) in sorted.iter().enumerate() {
                if t == src {
                    continue;
                }
                let want = reference_anchor(&rt, src, &sorted, k);
                if let Some(got) = adjacent_anchor(&rt, src, &sorted[..k], t) {
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(nearest_anchor(&rt, src, &sorted[..k], t), Some(want));
            }
        }
    }

    #[test]
    fn only_small_closed_form_neighborhoods_go_neighbor_first() {
        for g in [
            gen::ring(8),
            gen::grid(3, 4, false),
            gen::grid(3, 4, true),
            gen::hypercube(3),
        ] {
            assert!(
                AnyRouter::for_graph(&g).has_small_neighborhood(),
                "{}",
                g.name()
            );
            assert!(
                !AnyRouter::table_for(&g).has_small_neighborhood(),
                "{}",
                g.name()
            );
        }
        assert!(!AnyRouter::for_graph(&gen::complete(8)).has_small_neighborhood());
    }

    #[test]
    fn one_hop_tie_goes_to_the_source() {
        // grid(3x4), row 1 = 4..8, source 1 sits above 5: when 5 connects,
        // both 1 (rank 0) and 4 (rank 1) are one hop away
        let rt = AnyRouter::for_graph(&gen::grid(3, 4, false));
        let row: Vec<NodeId> = (4..8).map(n).collect();
        assert_eq!(adjacent_anchor(&rt, n(1), &row[..1], n(5)), Some(n(1)));
        assert_eq!(nearest_anchor(&rt, n(1), &row[..1], n(5)), Some(n(1)));
        // without the source adjacent, the lowest earlier neighbor wins
        assert_eq!(adjacent_anchor(&rt, n(11), &row[..1], n(5)), Some(n(4)));
        assert_eq!(
            multicast_cost(&rt, n(1), &row),
            reference_cost(&rt, n(1), &row)
        );
    }

    #[test]
    fn spanning_tree_of_ring() {
        let g = gen::ring(6);
        let t = SpanningTree::bfs(&g, n(0));
        assert_eq!(t.spanned(), 6);
        assert_eq!(t.broadcast_cost(), 5);
        let ch = t.children();
        assert_eq!(ch[0].len(), 2); // ring root has two subtrees
    }

    #[test]
    fn spanning_tree_of_disconnected_graph_spans_component() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2)]).unwrap();
        let t = SpanningTree::bfs(&g, n(0));
        assert_eq!(t.spanned(), 3);
        assert_eq!(t.broadcast_cost(), 2);
    }

    #[test]
    fn multicast_to_connected_neighborhood_is_set_size() {
        // In a complete graph every target is one hop: cost = #targets.
        let g = gen::complete(6);
        let rt = RoutingTable::new(&g);
        let targets: Vec<NodeId> = (1..5).map(n).collect();
        assert_eq!(multicast_cost(&rt, n(0), &targets), Some(4));
    }

    #[test]
    fn multicast_shares_path_prefixes() {
        let g = gen::path(7);
        let rt = RoutingTable::new(&g);
        // targets 3 and 6 share prefix 0-1-2-3: total = 6 edges not 9
        assert_eq!(multicast_cost(&rt, n(0), &[n(3), n(6)]), Some(6));
    }

    #[test]
    fn multicast_ignores_duplicates_and_source() {
        let g = gen::path(4);
        let rt = RoutingTable::new(&g);
        assert_eq!(multicast_cost(&rt, n(0), &[n(0), n(2), n(2)]), Some(2));
        assert_eq!(multicast_cost(&rt, n(0), &[]), Some(0));
    }

    #[test]
    fn multicast_unreachable_target_is_none() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let rt = RoutingTable::new(&g);
        assert_eq!(multicast_cost(&rt, n(0), &[n(3)]), None);
    }

    #[test]
    fn unicast_is_distance() {
        let g = gen::ring(10);
        let rt = RoutingTable::new(&g);
        assert_eq!(unicast_cost(&rt, n(0), n(5)), Some(5));
        assert_eq!(unicast_cost(&rt, n(0), n(9)), Some(1));
    }

    #[test]
    fn grid_multicast_row_costs_row_length_minus_one() {
        // In a p×q grid, posting along the whole row from a row member is a
        // connected sweep: q-1 passes. This is the Manhattan server cost.
        let g = gen::grid(4, 6, false);
        let rt = RoutingTable::new(&g);
        // row 2 = nodes 12..18
        let row: Vec<NodeId> = (12..18).map(n).collect();
        assert_eq!(multicast_cost(&rt, n(14), &row), Some(5));
    }

    /// Cost pins on every analytic family: the table oracle and the
    /// closed-form router must charge identical passes, and the values are
    /// pinned so accounting drift is loud.
    #[test]
    fn multicast_and_unicast_pin_on_all_generators() {
        use crate::router::AnyRouter;
        let cases: [(Graph, u32, Vec<u32>, u64); 5] = [
            // complete: every target one hop → #targets
            (gen::complete(8), 0, (1..6).collect(), 5),
            // ring(12): targets 3,6,9 from 0 — 0→3 (3), 3→6 (3), 9 via
            // 0 backwards (3): contiguous sweeps, 9 passes
            (gen::ring(12), 0, vec![3, 6, 9], 9),
            // grid(3x4): row 1 (4..8) plus far corner 11 from 5 — the
            // corner attaches to row-end 7, one hop down: 4 total
            (gen::grid(3, 4, false), 5, vec![4, 6, 7, 11], 4),
            // torus(4x4): opposite corner is 2 hops with wrap
            (gen::grid(4, 4, true), 0, vec![15], 2),
            // hypercube(4): antipode + two of its neighbors share a prefix
            (gen::hypercube(4), 0, vec![15, 14, 7], 6),
        ];
        for (g, src, targets, want) in cases {
            let targets: Vec<NodeId> = targets.into_iter().map(n).collect();
            let table = AnyRouter::table_for(&g);
            let analytic = AnyRouter::for_graph(&g);
            assert!(analytic.is_analytic(), "{}", g.name());
            let via_table = multicast_cost(&table, n(src), &targets);
            let via_closed = multicast_cost(&analytic, n(src), &targets);
            assert_eq!(via_table, via_closed, "{}", g.name());
            assert_eq!(via_table, Some(want), "{}", g.name());
            for &t in &targets {
                assert_eq!(
                    unicast_cost(&table, n(src), t),
                    unicast_cost(&analytic, n(src), t),
                    "{}",
                    g.name()
                );
            }
        }
    }
}
