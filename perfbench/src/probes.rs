//! Layer probes: small timed loops over one layer's public functions, on
//! the workload's own topology, strategy, n and seed. Each returns a cost
//! per operation plus a check that the layer answered correctly.

use mm_core::strategies::{Checkerboard, PortMapped};
use mm_core::Port;
use mm_proto::{LocateOutcome, ShotgunEngine};
use mm_sim::queue::CalendarQueue;
use mm_sim::{CostModel, QueueKind, RouterKind, ShardMode};
use mm_topo::{spanning, AnyRouter, Graph, NodeId, Router};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time each probe loop runs for (at least one batch).
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// A deterministic splitmix64 stream for the probes' seeded samples.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream keyed by the run seed and a per-probe salt.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform node of an `n`-node network.
    pub fn node(&mut self, n: usize) -> NodeId {
        NodeId::from((self.next_u64() % n as u64) as usize)
    }
}

/// Runs `batch` (which reports how many operations it did) until the
/// probe budget is spent; returns ns per operation.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0;
    loop {
        ops += batch();
        if start.elapsed() >= PROBE_BUDGET {
            return start.elapsed().as_nanos() as f64 / ops as f64;
        }
    }
}

/// The analytic router of the workload's topology.
pub fn router_for(graph: &Graph) -> Result<AnyRouter, String> {
    AnyRouter::analytic_for(graph.name(), graph.node_count())
        .ok_or_else(|| format!("no analytic router for {}", graph.name()))
}

/// The largest distance from node 0: the per-message delivery delay range
/// under hop cost (1 under uniform cost).
pub fn eccentricity(router: &AnyRouter, cost: CostModel) -> u64 {
    match cost {
        CostModel::Uniform => 1,
        CostModel::Hops => (0..router.node_count())
            .filter_map(|v| router.distance(NodeId::new(0), NodeId::from(v)))
            .max()
            .map_or(1, |d| u64::from(d).max(1)),
    }
}

/// `spanning::multicast_cost` over a seeded sample of checkerboard post
/// and query sets: µs per multicast, and the summed cost as a checksum.
pub fn multicast_cost(router: &AnyRouter, n: usize, seed: u64) -> Result<(f64, u64), String> {
    let strategy = Checkerboard::new(n);
    let port = Port::from_name("perfbench-probe");
    let mut rng = SplitMix::new(seed, 1);
    let cases: Vec<(NodeId, Vec<NodeId>)> = (0..16)
        .map(|i| {
            let (src, at) = (rng.node(n), rng.node(n));
            let set = if i % 2 == 0 {
                strategy.post_set_for(at, port)
            } else {
                strategy.query_set_for(at, port)
            };
            (src, set)
        })
        .collect();
    let mut checksum = 0;
    for (src, set) in &cases {
        let cost =
            spanning::multicast_cost(router, *src, set).ok_or("multicast target unreachable")?;
        // every target other than the source costs at least one pass
        let reach = set.iter().filter(|&&t| t != *src).count() as u64;
        if cost < reach {
            return Err(format!(
                "multicast to {reach} targets cost only {cost} passes"
            ));
        }
        checksum += cost;
    }
    let ns = ns_per_op(|| {
        for (src, set) in &cases {
            black_box(spanning::multicast_cost(router, *src, black_box(set)));
        }
        cases.len() as u64
    });
    Ok((ns / 1e3, checksum))
}

/// `Router::distance` over seeded node pairs: ns per call.
pub fn distance(router: &AnyRouter, n: usize, seed: u64) -> Result<f64, String> {
    let mut rng = SplitMix::new(seed, 2);
    let pairs: Vec<(NodeId, NodeId)> = (0..4096).map(|_| (rng.node(n), rng.node(n))).collect();
    if pairs.iter().any(|&(a, b)| router.distance(a, b).is_none()) {
        return Err("distance probe hit an unreachable pair".into());
    }
    Ok(ns_per_op(|| {
        let mut sum = 0u64;
        for &(a, b) in &pairs {
            sum += u64::from(router.distance(black_box(a), black_box(b)).unwrap_or(0));
        }
        black_box(sum);
        pairs.len() as u64
    }))
}

/// `CalendarQueue` in the hold model: filled to `depth` events spread over
/// `spread` ticks, then each operation pops the earliest event and pushes
/// it back 1..=`spread` ticks later. ns per push + pop pair.
pub fn queue(depth: u64, spread: u64, seed: u64) -> Result<f64, String> {
    let mut rng = SplitMix::new(seed, 3);
    let mut q: CalendarQueue<u64> = CalendarQueue::default();
    for i in 0..depth.max(1) {
        q.push(1 + rng.next_u64() % spread, i);
    }
    let mut last = 0;
    let mut ordered = true;
    let ns = ns_per_op(|| {
        for _ in 0..4096 {
            let (at, ev) = q
                .pop_next_until(u64::MAX)
                .expect("the hold model never drains");
            ordered &= at >= last;
            last = at;
            q.push(at + 1 + rng.next_u64() % spread, black_box(ev));
        }
        4096
    });
    if !ordered || q.len() as u64 != depth.max(1) {
        return Err("calendar queue popped out of order or lost events".into());
    }
    Ok(ns)
}

/// The paper's single-locate regime: one registered server on an idle
/// network, then seeded locates each run to quiescence. Returns µs per
/// locate and mean message passes per locate.
pub fn idle_locate(
    graph: Graph,
    cost: CostModel,
    queue: QueueKind,
    router: RouterKind,
    seed: u64,
) -> Result<(f64, f64), String> {
    let n = graph.node_count();
    let mut eng = ShotgunEngine::with_router(
        graph,
        Checkerboard::new(n),
        cost,
        queue,
        ShardMode::Single,
        router,
    );
    let mut rng = SplitMix::new(seed, 4);
    let port = Port::from_name("perfbench-probe");
    let server = rng.node(n);
    eng.register_server(server, port);
    eng.run();
    let passes_before = eng.metrics().message_passes;
    let mut locates = 0u64;
    let mut wrong = 0u64;
    let ns = ns_per_op(|| {
        for _ in 0..16 {
            let h = eng.locate(rng.node(n), port);
            eng.run();
            if !matches!(eng.outcome(h), LocateOutcome::Found { addr, .. } if addr == server) {
                wrong += 1;
            }
        }
        locates += 16;
        16
    });
    if wrong > 0 {
        return Err(format!(
            "{wrong} of {locates} idle locates missed the server"
        ));
    }
    let passes = (eng.metrics().message_passes - passes_before) as f64 / locates as f64;
    Ok((ns / 1e3, passes))
}

/// `Checkerboard` post and query set construction: µs per
/// (`post_set_for` + `query_set_for`) pair. Also checks the rendezvous
/// guarantee #(P ∩ Q) ≥ 1 on a sample of pairs.
pub fn query_set(n: usize, seed: u64) -> Result<f64, String> {
    let strategy = Checkerboard::new(n);
    let port = Port::from_name("perfbench-probe");
    let mut rng = SplitMix::new(seed, 5);
    let pairs: Vec<(NodeId, NodeId)> = (0..256).map(|_| (rng.node(n), rng.node(n))).collect();
    for &(i, j) in pairs.iter().take(8) {
        let mut p = strategy.post_set_for(i, port);
        p.sort_unstable();
        let q = strategy.query_set_for(j, port);
        if !q.iter().any(|v| p.binary_search(v).is_ok()) {
            return Err(format!("P({i:?}) and Q({j:?}) do not meet"));
        }
    }
    let ns = ns_per_op(|| {
        for &(i, j) in &pairs {
            black_box(strategy.post_set_for(black_box(i), port));
            black_box(strategy.query_set_for(black_box(j), port));
        }
        pairs.len() as u64
    });
    Ok(ns / 1e3)
}
