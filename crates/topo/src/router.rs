//! Next-hop routing as a *capability*, not a table.
//!
//! The paper's §3 cost model gives every node a full Dalal–Metcalfe
//! routing table — O(n²) space once materialized in [`RoutingTable`].
//! That is faithful, but it is also the one hard wall between the
//! simulator and million-node structured fabrics: a 65,536-node table is
//! already ~34 GB. For the structured generators (ring, grid, torus,
//! hypercube, complete) the table content is pure arithmetic, so this
//! module factors routing behind the [`Router`] trait and provides
//! closed-form, O(1)-memory, allocation-free implementations per family.
//!
//! Canonical tie-break. [`RoutingTable`] pins `next(s, v)` to the
//! *lowest-numbered* neighbor of `s` that starts a shortest path to `v`,
//! and every analytic router here reproduces exactly that choice. The
//! consequence is strong: any simulation driven through a [`Router`] is
//! byte-identical whether the backend is a materialized table or closed
//! forms — the table stays available as the conformance oracle for
//! arbitrary graphs (the same oracle pattern as `QueueKind::BTree`).
//!
//! [`AnyRouter::for_graph`] picks the backend by the graph's generator
//! name (`"ring(8)"`, `"grid(4x5)"`, `"torus(3x3)"`, `"hypercube(5)"`,
//! `"complete(64)"`), which means structured topologies can be built as
//! *shell* graphs — correct node count and name, zero edges — and still
//! route: nothing in the closed forms ever consults adjacency.

use crate::graph::{Graph, NodeId};
use crate::routing::RoutingTable;

/// Shortest-path next-hop routing over a fixed node universe.
///
/// Implementations must agree with the canonical [`RoutingTable`] built
/// over the same graph: identical distances and identical (lowest-numbered
/// shortest-path neighbor) next hops for every ordered pair. The
/// conformance suite proptests this for every analytic family.
pub trait Router {
    /// Number of nodes routed over.
    fn node_count(&self) -> usize;

    /// Hop distance from `a` to `b`, or `None` if unreachable.
    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32>;

    /// First hop on the canonical shortest path from `a` to `b`; `None`
    /// when `a == b` or `b` is unreachable.
    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId>;

    /// Calls `f` for each neighbor of `v`, in ascending node order.
    ///
    /// For analytic routers the neighborhood is closed-form; for a
    /// [`RoutingTable`] it is recovered as the distance-1 row (an O(n)
    /// scan — fine for the beam/reverse-path uses this serves).
    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId));

    /// `true` when [`for_each_neighbor`](Router::for_each_neighbor) is
    /// closed-form and visits only a few nodes, so hot loops may
    /// enumerate neighborhoods (ring, grid/torus, hypercube). The default
    /// `false` covers the table, whose neighborhood is an O(n) row scan,
    /// and K_n, whose neighborhood is everyone else.
    fn has_small_neighborhood(&self) -> bool {
        false
    }

    /// Walks the canonical shortest path from `a` to `b` hop by hop,
    /// yielding each node *after* `a` (the final item is `b`).
    /// Allocation-free; empty when `a == b` or `b` is unreachable.
    fn hops(&self, a: NodeId, b: NodeId) -> RouteWalk<'_, Self>
    where
        Self: Sized,
    {
        RouteWalk {
            router: self,
            cur: a,
            dest: b,
        }
    }

    /// The §4 reverse-path trick (Dalal–Metcalfe tables "back-to-front"):
    /// the neighbors `u` of `v` whose canonical route to `origin` starts
    /// with `v`. Walking such edges moves strictly *away* from the origin,
    /// which is what simulates a straight-line beam — and it needs no
    /// materialized graph, only `next_hop` and the neighborhood.
    fn reverse_next_hops(&self, origin: NodeId, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_neighbor(v, &mut |u| {
            if self.next_hop(u, origin) == Some(v) {
                out.push(u);
            }
        });
        out
    }
}

/// Allocation-free shortest-path walk produced by [`Router::hops`].
#[derive(Debug, Clone)]
pub struct RouteWalk<'a, R> {
    router: &'a R,
    cur: NodeId,
    dest: NodeId,
}

impl<R: Router> Iterator for RouteWalk<'_, R> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.cur == self.dest {
            return None;
        }
        self.cur = self.router.next_hop(self.cur, self.dest)?;
        Some(self.cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.router.distance(self.cur, self.dest) {
            Some(d) => (d as usize, Some(d as usize)),
            None => (0, Some(0)),
        }
    }
}

impl Router for RoutingTable {
    fn node_count(&self) -> usize {
        RoutingTable::node_count(self)
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        RoutingTable::distance(self, a, b)
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        RoutingTable::next_hop(self, a, b)
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        let n = RoutingTable::node_count(self);
        for u in 0..n as u32 {
            if RoutingTable::distance(self, v, NodeId::new(u)) == Some(1) {
                f(NodeId::new(u));
            }
        }
    }
}

/// K_n: every pair at distance 1; the next hop *is* the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteRouter {
    n: u32,
}

impl CompleteRouter {
    /// Router for `complete(n)`.
    pub fn new(n: usize) -> Self {
        CompleteRouter { n: n as u32 }
    }
}

impl Router for CompleteRouter {
    fn node_count(&self) -> usize {
        self.n as usize
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        debug_assert!(a.raw() < self.n && b.raw() < self.n);
        Some(u32::from(a != b))
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        debug_assert!(a.raw() < self.n && b.raw() < self.n);
        (a != b).then_some(b)
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        for u in 0..self.n {
            if u != v.raw() {
                f(NodeId::new(u));
            }
        }
    }
}

/// Cycle C_n (`ring(n)`): route the strictly shorter way around; on the
/// antipodal tie (even n) take the lower-numbered neighbor, matching the
/// canonical table. `ring(2)` is the single edge, `ring(1)` a lone node —
/// exactly what the generator degenerates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingRouter {
    n: u32,
}

impl RingRouter {
    /// Router for `ring(n)`.
    pub fn new(n: usize) -> Self {
        RingRouter { n: n as u32 }
    }

    /// (forward distance, backward distance) from `a` to `b`.
    fn arcs(&self, a: u32, b: u32) -> (u32, u32) {
        let fwd = (b + self.n - a) % self.n;
        (fwd, (self.n - fwd) % self.n)
    }
}

impl Router for RingRouter {
    fn node_count(&self) -> usize {
        self.n as usize
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        debug_assert!(a.raw() < self.n && b.raw() < self.n);
        let (fwd, bwd) = self.arcs(a.raw(), b.raw());
        Some(fwd.min(bwd))
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        debug_assert!(a.raw() < self.n && b.raw() < self.n);
        if a == b {
            return None;
        }
        let (fwd, bwd) = self.arcs(a.raw(), b.raw());
        let succ = (a.raw() + 1) % self.n;
        let pred = (a.raw() + self.n - 1) % self.n;
        let hop = match fwd.cmp(&bwd) {
            std::cmp::Ordering::Less => succ,
            std::cmp::Ordering::Greater => pred,
            std::cmp::Ordering::Equal => succ.min(pred),
        };
        Some(NodeId::new(hop))
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        if self.n < 2 {
            return;
        }
        let succ = (v.raw() + 1) % self.n;
        let pred = (v.raw() + self.n - 1) % self.n;
        if succ == pred {
            f(NodeId::new(succ));
        } else {
            f(NodeId::new(succ.min(pred)));
            f(NodeId::new(succ.max(pred)));
        }
    }

    fn has_small_neighborhood(&self) -> bool {
        true
    }
}

/// p×q mesh (`grid(pxq)`) or torus (`torus(pxq)`, `wrap = true`).
///
/// Node (r, c) is index `r·q + c`. Distance is per-axis: plain |Δ| on an
/// open axis, cyclic min(|Δ|, len−|Δ|) on a wrapped one. Wrap is
/// *suppressed per axis* for sides < 3, mirroring the generator (a length-2
/// cycle would duplicate the edge). The next hop scans the ≤ 4 closed-form
/// neighbors and keeps the lowest-numbered distance-decreaser — the
/// canonical rule by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridRouter {
    p: u32,
    q: u32,
    wrap: bool,
}

impl GridRouter {
    /// Router for `grid(pxq)` (`wrap = false`) or `torus(pxq)`.
    pub fn new(p: usize, q: usize, wrap: bool) -> Self {
        GridRouter {
            p: p as u32,
            q: q as u32,
            wrap,
        }
    }

    fn axis_dist(x1: u32, x2: u32, len: u32, wrapped: bool) -> u32 {
        let d = x1.abs_diff(x2);
        if wrapped {
            d.min(len - d)
        } else {
            d
        }
    }

    fn dist_to(&self, r: u32, c: u32, r2: u32, c2: u32) -> u32 {
        Self::axis_dist(r, r2, self.p, self.wrap && self.p >= 3)
            + Self::axis_dist(c, c2, self.q, self.wrap && self.q >= 3)
    }

    /// The ≤ 4 neighbors of (r, c) as (row, col) pairs, unordered.
    fn neighbors_of(&self, r: u32, c: u32) -> [Option<(u32, u32)>; 4] {
        let mut out = [None; 4];
        let (wp, wq) = (self.wrap && self.p >= 3, self.wrap && self.q >= 3);
        if wp {
            out[0] = Some(((r + self.p - 1) % self.p, c));
            out[1] = Some(((r + 1) % self.p, c));
        } else {
            out[0] = (r > 0).then(|| (r - 1, c));
            out[1] = (r + 1 < self.p).then(|| (r + 1, c));
        }
        if wq {
            out[2] = Some((r, (c + self.q - 1) % self.q));
            out[3] = Some((r, (c + 1) % self.q));
        } else {
            out[2] = (c > 0).then(|| (r, c - 1));
            out[3] = (c + 1 < self.q).then(|| (r, c + 1));
        }
        out
    }
}

impl Router for GridRouter {
    fn node_count(&self) -> usize {
        (self.p * self.q) as usize
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        debug_assert!(a.raw() < self.p * self.q && b.raw() < self.p * self.q);
        let (r1, c1) = (a.raw() / self.q, a.raw() % self.q);
        let (r2, c2) = (b.raw() / self.q, b.raw() % self.q);
        Some(self.dist_to(r1, c1, r2, c2))
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        if a == b {
            return None;
        }
        let d = self.distance(a, b)?;
        let (r1, c1) = (a.raw() / self.q, a.raw() % self.q);
        let (r2, c2) = (b.raw() / self.q, b.raw() % self.q);
        let mut best = u32::MAX;
        for (r, c) in self.neighbors_of(r1, c1).into_iter().flatten() {
            if self.dist_to(r, c, r2, c2) + 1 == d {
                best = best.min(r * self.q + c);
            }
        }
        debug_assert_ne!(best, u32::MAX, "a neighbor must decrease distance");
        Some(NodeId::new(best))
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        let (r, c) = (v.raw() / self.q, v.raw() % self.q);
        let mut ids = [u32::MAX; 4];
        for (slot, (nr, nc)) in ids
            .iter_mut()
            .zip(self.neighbors_of(r, c).into_iter().flatten())
        {
            *slot = nr * self.q + nc;
        }
        ids.sort_unstable();
        for id in ids {
            if id != u32::MAX {
                f(NodeId::new(id));
            }
        }
    }

    fn has_small_neighborhood(&self) -> bool {
        true
    }
}

/// d-cube (`hypercube(d)`): distance is Hamming. The canonical next hop
/// is *not* plain lowest-set-bit XOR: the lowest-numbered shortest-path
/// neighbor first clears the **highest** bit of `a & (a^b)` (clearing any
/// bit beats setting one, and clearing the highest clears the most), and
/// only once `a`'s surplus bits are gone sets the **lowest** bit of `a^b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HypercubeRouter {
    d: u32,
}

impl HypercubeRouter {
    /// Router for `hypercube(d)`, n = 2^d.
    ///
    /// # Panics
    ///
    /// Panics if `d > 30` (mirrors the generator's limit).
    pub fn new(d: u32) -> Self {
        assert!(d <= 30, "hypercube dimension too large: {d}");
        HypercubeRouter { d }
    }
}

impl Router for HypercubeRouter {
    fn node_count(&self) -> usize {
        1usize << self.d
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        debug_assert!(a.index() < self.node_count() && b.index() < self.node_count());
        Some((a.raw() ^ b.raw()).count_ones())
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let diff = a.raw() ^ b.raw();
        if diff == 0 {
            return None;
        }
        let down = diff & a.raw();
        let bit = if down != 0 {
            31 - down.leading_zeros()
        } else {
            diff.trailing_zeros()
        };
        Some(NodeId::new(a.raw() ^ (1 << bit)))
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        // ascending order: clearing bit i yields v − 2^i (descending i ⇒
        // ascending value, all below v), then setting yields v + 2^i.
        for i in (0..self.d).rev() {
            if v.raw() & (1 << i) != 0 {
                f(NodeId::new(v.raw() ^ (1 << i)));
            }
        }
        for i in 0..self.d {
            if v.raw() & (1 << i) == 0 {
                f(NodeId::new(v.raw() ^ (1 << i)));
            }
        }
    }

    fn has_small_neighborhood(&self) -> bool {
        true
    }
}

/// A routing backend: one of the closed-form families, or the BFS table
/// oracle for arbitrary graphs. Enum (not `dyn`) so the sim hot path
/// dispatches with a branch instead of a vtable.
#[derive(Debug, Clone)]
pub enum AnyRouter {
    /// `complete(n)` — everything one hop away.
    Complete(CompleteRouter),
    /// `ring(n)` — shorter arc, canonical antipodal tie-break.
    Ring(RingRouter),
    /// `grid(pxq)` / `torus(pxq)` — per-axis Manhattan / cyclic.
    Grid(GridRouter),
    /// `hypercube(d)` — Hamming distance, canonical bit order.
    Hypercube(HypercubeRouter),
    /// BFS all-pairs table: the O(n²) oracle of §3, for arbitrary graphs.
    Table(RoutingTable),
}

impl AnyRouter {
    /// Resolves an analytic router from a generator-convention graph name
    /// (`"complete(64)"`, `"ring(8)"`, `"grid(4x5)"`, `"torus(3x3)"`,
    /// `"hypercube(5)"`), validated against the node count `n`. Returns
    /// `None` for anything else — including a name whose advertised shape
    /// does not match `n`.
    pub fn analytic_for(name: &str, n: usize) -> Option<AnyRouter> {
        if n == 0 || n > u32::MAX as usize {
            return None;
        }
        if let Some(k) = parse_arg(name, "complete") {
            return (k == n as u64).then(|| AnyRouter::Complete(CompleteRouter::new(n)));
        }
        if let Some(k) = parse_arg(name, "ring") {
            return (k == n as u64).then(|| AnyRouter::Ring(RingRouter::new(n)));
        }
        if let Some(d) = parse_arg(name, "hypercube") {
            if d <= 30 && (1u64 << d) == n as u64 {
                return Some(AnyRouter::Hypercube(HypercubeRouter::new(d as u32)));
            }
            return None;
        }
        for (prefix, wrap) in [("grid", false), ("torus", true)] {
            if let Some((p, q)) = parse_dims(name, prefix) {
                return (p * q == n as u64)
                    .then(|| AnyRouter::Grid(GridRouter::new(p as usize, q as usize, wrap)));
            }
        }
        None
    }

    /// The routing backend for `g`: analytic when the graph name matches a
    /// structured family (edges are never consulted — shell graphs route
    /// fine), the BFS table oracle otherwise.
    pub fn for_graph(g: &Graph) -> AnyRouter {
        Self::analytic_for(g.name(), g.node_count())
            .unwrap_or_else(|| AnyRouter::Table(RoutingTable::new(g)))
    }

    /// The table oracle for `g`, regardless of name. O(n²) memory.
    pub fn table_for(g: &Graph) -> AnyRouter {
        AnyRouter::Table(RoutingTable::new(g))
    }

    /// `true` for the closed-form backends, `false` for the table oracle.
    pub fn is_analytic(&self) -> bool {
        !matches!(self, AnyRouter::Table(_))
    }

    /// Short label for reports/diagnostics: `"analytic"` or `"table"`.
    pub fn kind_label(&self) -> &'static str {
        if self.is_analytic() {
            "analytic"
        } else {
            "table"
        }
    }
}

/// `"ring(8)"` with prefix `"ring"` → `Some(8)`.
fn parse_arg(name: &str, prefix: &str) -> Option<u64> {
    parse_paren(name, prefix)?.parse().ok()
}

/// `"grid(4x5)"` with prefix `"grid"` → `Some((4, 5))`.
fn parse_dims(name: &str, prefix: &str) -> Option<(u64, u64)> {
    let (p, q) = parse_paren(name, prefix)?.split_once('x')?;
    Some((p.parse().ok()?, q.parse().ok()?))
}

fn parse_paren<'a>(name: &'a str, prefix: &str) -> Option<&'a str> {
    name.strip_prefix(prefix)?
        .strip_prefix('(')?
        .strip_suffix(')')
}

impl Router for AnyRouter {
    fn node_count(&self) -> usize {
        match self {
            AnyRouter::Complete(r) => r.node_count(),
            AnyRouter::Ring(r) => r.node_count(),
            AnyRouter::Grid(r) => r.node_count(),
            AnyRouter::Hypercube(r) => r.node_count(),
            AnyRouter::Table(r) => Router::node_count(r),
        }
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        match self {
            AnyRouter::Complete(r) => r.distance(a, b),
            AnyRouter::Ring(r) => r.distance(a, b),
            AnyRouter::Grid(r) => r.distance(a, b),
            AnyRouter::Hypercube(r) => r.distance(a, b),
            AnyRouter::Table(r) => Router::distance(r, a, b),
        }
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        match self {
            AnyRouter::Complete(r) => r.next_hop(a, b),
            AnyRouter::Ring(r) => r.next_hop(a, b),
            AnyRouter::Grid(r) => r.next_hop(a, b),
            AnyRouter::Hypercube(r) => r.next_hop(a, b),
            AnyRouter::Table(r) => Router::next_hop(r, a, b),
        }
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        match self {
            AnyRouter::Complete(r) => r.for_each_neighbor(v, f),
            AnyRouter::Ring(r) => r.for_each_neighbor(v, f),
            AnyRouter::Grid(r) => r.for_each_neighbor(v, f),
            AnyRouter::Hypercube(r) => r.for_each_neighbor(v, f),
            AnyRouter::Table(r) => Router::for_each_neighbor(r, v, f),
        }
    }

    fn has_small_neighborhood(&self) -> bool {
        match self {
            AnyRouter::Complete(r) => r.has_small_neighborhood(),
            AnyRouter::Ring(r) => r.has_small_neighborhood(),
            AnyRouter::Grid(r) => r.has_small_neighborhood(),
            AnyRouter::Hypercube(r) => r.has_small_neighborhood(),
            AnyRouter::Table(r) => Router::has_small_neighborhood(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Every ordered pair: distance, next hop, neighborhood, and reverse
    /// next-hops must match the canonical table oracle exactly.
    fn assert_conformant(g: &Graph, r: &AnyRouter) {
        assert!(r.is_analytic(), "expected analytic router for {}", g.name());
        let oracle = RoutingTable::new(g);
        assert_eq!(r.node_count(), g.node_count());
        for a in g.nodes() {
            let mut mine = Vec::new();
            r.for_each_neighbor(a, &mut |u| mine.push(u));
            let real: Vec<NodeId> = g.neighbor_ids(a).collect();
            assert_eq!(mine, real, "{}: neighbors of {a:?}", g.name());
            for b in g.nodes() {
                assert_eq!(
                    r.distance(a, b),
                    RoutingTable::distance(&oracle, a, b),
                    "{}: distance {a:?}->{b:?}",
                    g.name()
                );
                assert_eq!(
                    r.next_hop(a, b),
                    RoutingTable::next_hop(&oracle, a, b),
                    "{}: next hop {a:?}->{b:?}",
                    g.name()
                );
                assert_eq!(
                    r.reverse_next_hops(a, b),
                    Router::reverse_next_hops(&oracle, a, b),
                    "{}: reverse hops origin {a:?} at {b:?}",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn ring_conforms_to_oracle() {
        for k in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 31] {
            let g = gen::ring(k);
            assert_conformant(&g, &AnyRouter::for_graph(&g));
        }
    }

    #[test]
    fn grid_and_torus_conform_to_oracle() {
        for (p, q) in [
            (1, 1),
            (1, 5),
            (2, 2),
            (2, 6),
            (3, 3),
            (4, 5),
            (5, 4),
            (7, 3),
        ] {
            for wrap in [false, true] {
                let g = gen::grid(p, q, wrap);
                assert_conformant(&g, &AnyRouter::for_graph(&g));
            }
        }
    }

    #[test]
    fn hypercube_conforms_to_oracle() {
        for d in 0u32..=6 {
            let g = gen::hypercube(d);
            assert_conformant(&g, &AnyRouter::for_graph(&g));
        }
    }

    #[test]
    fn complete_conforms_to_oracle() {
        for k in [1usize, 2, 3, 9] {
            let g = gen::complete(k);
            assert_conformant(&g, &AnyRouter::for_graph(&g));
        }
    }

    #[test]
    fn shell_graph_routes_without_edges() {
        // the whole point: a named, edgeless shell routes identically to
        // the materialized graph.
        let real = gen::grid(4, 6, true);
        let shell = Graph::with_name(24, "torus(4x6)");
        let r = AnyRouter::for_graph(&shell);
        assert!(r.is_analytic());
        let oracle = RoutingTable::new(&real);
        for a in real.nodes() {
            for b in real.nodes() {
                assert_eq!(r.distance(a, b), RoutingTable::distance(&oracle, a, b));
                assert_eq!(r.next_hop(a, b), RoutingTable::next_hop(&oracle, a, b));
            }
        }
    }

    #[test]
    fn hops_walk_matches_table_walk() {
        let g = gen::ring(9);
        let r = AnyRouter::for_graph(&g);
        let rt = RoutingTable::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                let walked: Vec<NodeId> = r.hops(a, b).collect();
                let oracle: Vec<NodeId> = rt.hops(a, b).collect();
                assert_eq!(walked, oracle);
                assert_eq!(r.hops(a, b).size_hint().0, walked.len());
            }
        }
    }

    #[test]
    fn name_resolution_validates_shape() {
        // mismatched node counts must not resolve analytically.
        assert!(AnyRouter::analytic_for("ring(8)", 9).is_none());
        assert!(AnyRouter::analytic_for("grid(4x5)", 21).is_none());
        assert!(AnyRouter::analytic_for("hypercube(3)", 9).is_none());
        assert!(AnyRouter::analytic_for("complete(4)", 5).is_none());
        assert!(AnyRouter::analytic_for("", 5).is_none());
        assert!(AnyRouter::analytic_for("path(5)", 5).is_none());
        assert!(AnyRouter::analytic_for("ring(8", 8).is_none());
        // matched ones do.
        assert!(AnyRouter::analytic_for("ring(8)", 8).is_some());
        assert!(AnyRouter::analytic_for("torus(3x4)", 12).is_some());
        assert!(AnyRouter::analytic_for("hypercube(4)", 16).is_some());
    }

    #[test]
    fn unnamed_graph_falls_back_to_table() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = AnyRouter::for_graph(&g);
        assert!(!r.is_analytic());
        assert_eq!(r.kind_label(), "table");
        assert_eq!(r.next_hop(n(0), n(3)), Some(n(1)));
    }

    #[test]
    fn million_node_routers_are_cheap() {
        // 1M-node fabrics: distance and next hop in O(1), no allocation.
        let ring = RingRouter::new(1 << 20);
        assert_eq!(ring.distance(n(0), n(1 << 19)), Some(1 << 19));
        let grid = GridRouter::new(1024, 1024, false);
        assert_eq!(grid.distance(n(0), n((1 << 20) - 1)), Some(2046));
        let torus = GridRouter::new(1024, 1024, true);
        assert_eq!(torus.distance(n(0), n((1 << 20) - 1)), Some(2));
        let cube = HypercubeRouter::new(20);
        assert_eq!(cube.distance(n(0), n((1 << 20) - 1)), Some(20));
        // a canonical walk across the cube terminates in d hops.
        assert_eq!(cube.hops(n(0), n((1 << 20) - 1)).count(), 20);
    }
}
