//! # mm-sim — deterministic discrete-event network simulator
//!
//! The paper measures match-making algorithms in *message passes* ("hops"):
//! the sending of a message from one node to a direct neighbor in the
//! store-and-forward communications graph. This crate provides a simulator
//! that accounts for exactly that quantity:
//!
//! * [`Sim`] — the event loop: nodes implement [`Node`] handlers, exchange
//!   messages over a [`mm_topo::Graph`], and every edge traversal is
//!   counted.
//! * [`CostModel`] — `Hops` routes every message along shortest paths
//!   (store-and-forward, §2.3.5); `Uniform` charges one pass per
//!   destination (the paper's complete-network assumption of §2.1, "all
//!   messages can be routed in one message pass to their destinations").
//! * [`Metrics`] — message passes, sends, deliveries, drops, per-node load.
//! * fault injection — [`Sim::crash`]/[`Sim::restore`]: crashed processors
//!   neither receive nor forward; messages die at the first crashed node
//!   on their path, and the passes spent up to that point stay spent.
//! * [`QueueKind`] — the event queue: the production calendar queue or
//!   the `BTreeMap` reference queue, kept as the ordering oracle.
//!
//! Everything is deterministic: events execute in `(time, sequence)` order
//! and the only randomness is whatever the embedded protocols draw from
//! their own seeded generators.
//!
//! # Example
//!
//! ```
//! use mm_sim::{Sim, Node, NodeApi, Envelope, CostModel};
//! use mm_topo::{gen, NodeId};
//!
//! #[derive(Clone, Debug)]
//! enum Msg { Ping, Pong }
//!
//! struct Echo;
//! impl Node<Msg> for Echo {
//!     fn on_message(&mut self, env: Envelope<Msg>, api: &mut NodeApi<'_, Msg>) {
//!         if matches!(env.msg, Msg::Ping) {
//!             api.send(env.from, Msg::Pong);
//!         }
//!     }
//! }
//!
//! let g = gen::ring(8);
//! let mut sim = Sim::new(g, (0..8).map(|_| Echo).collect(), CostModel::Hops);
//! sim.inject(NodeId::new(0), NodeId::new(4), Msg::Ping);
//! sim.run();
//! // the injected ping is an external stimulus (free); the pong 4->0
//! // travels 4 hops around the ring
//! assert_eq!(sim.metrics().message_passes, 4);
//! ```

pub mod metrics;
pub mod queue;
mod route;
pub mod targets;

pub use metrics::Metrics;
pub use queue::QueueKind;
pub use targets::TargetSet;

use mm_topo::{AnyRouter, Graph, NodeId};
use queue::EventQueue;
use route::{NetEnv, RouteCounters};

/// Which routing backend a hop-cost simulation uses.
///
/// Output-invariant by construction: the analytic routers are
/// byte-conformant to the [`mm_topo::RoutingTable`] oracle,
/// so every variant produces identical simulations — they differ only in
/// memory (O(1) vs O(n²)) and next-hop cost. Like [`QueueKind`], the
/// non-default variants exist for conformance checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterKind {
    /// Closed-form router when the graph is a recognized structured
    /// family (by generator name), BFS table otherwise. The default.
    #[default]
    Auto,
    /// Closed-form router, or panic if the graph is not a recognized
    /// structured family — the guard for shell graphs, where a silent
    /// table fallback would BFS an edgeless graph and break routing.
    Analytic,
    /// Always the O(n²) BFS [`mm_topo::RoutingTable`] oracle of §3.
    Table,
}

impl RouterKind {
    /// Builds the routing backend for `g` under this policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`RouterKind::Analytic`] and `g` is not a
    /// recognized structured family.
    pub fn build(self, g: &Graph) -> AnyRouter {
        match self {
            RouterKind::Auto => AnyRouter::for_graph(g),
            RouterKind::Analytic => AnyRouter::analytic_for(g.name(), g.node_count())
                .unwrap_or_else(|| {
                    panic!(
                        "no analytic router for graph {:?} (n = {})",
                        g.name(),
                        g.node_count()
                    )
                }),
            RouterKind::Table => AnyRouter::table_for(g),
        }
    }
}

/// Simulated time in abstract ticks (one tick = one hop of latency).
pub type SimTime = u64;

/// How message passes are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Store-and-forward: a message from `a` to `b` costs `dist(a,b)`
    /// passes and arrives after that many ticks; multicasts share path
    /// prefixes (Steiner-tree accounting).
    Hops,
    /// Complete-network abstraction: every destination costs exactly one
    /// pass and one tick (paper §2.1 framework assumption 1).
    Uniform,
}

/// A delivered message with its envelope metadata.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Originating node.
    pub from: NodeId,
    /// Destination node (the node receiving this envelope).
    pub to: NodeId,
    /// Tick at which the message was sent.
    pub sent_at: SimTime,
    /// The payload.
    pub msg: M,
}

/// Handler interface for a simulated processor.
///
/// Handlers react to messages and timers through [`NodeApi`]; they never
/// block. State lives in the implementing struct.
pub trait Node<M> {
    /// A message arrived at this node.
    fn on_message(&mut self, env: Envelope<M>, api: &mut NodeApi<'_, M>);

    /// A timer set via [`NodeApi::set_timer`] fired.
    fn on_timer(&mut self, _tag: u64, _api: &mut NodeApi<'_, M>) {}
}

/// Buffered actions a handler can take; applied by the simulator after the
/// handler returns (so handlers can't observe in-flight state).
#[derive(Debug)]
pub(crate) enum Op<M> {
    Send { to: NodeId, msg: M },
    Multicast { to: TargetSet, msg: M },
    Timer { delay: SimTime, tag: u64 },
}

/// The per-invocation API handed to [`Node`] handlers.
#[derive(Debug)]
pub struct NodeApi<'a, M> {
    pub(crate) ops: &'a mut Vec<Op<M>>,
    pub(crate) now: SimTime,
    pub(crate) me: NodeId,
}

impl<M> NodeApi<'_, M> {
    /// Sends `msg` to `to` (point-to-point).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.ops.push(Op::Send { to, msg });
    }

    /// Sends `msg` to every node in `to`, sharing path prefixes under
    /// [`CostModel::Hops`]. Duplicates and the sender itself are delivered
    /// once / locally for free.
    pub fn multicast(&mut self, to: &[NodeId], msg: M)
    where
        M: Clone,
    {
        self.ops.push(Op::Multicast {
            to: TargetSet::new(to),
            msg,
        });
    }

    /// Sends `msg` to an interned target set without copying it — the
    /// zero-allocation path for resolvers that reuse `P`/`Q` sets across
    /// operations. The sender itself (if a member) is delivered locally
    /// for free.
    pub fn multicast_set(&mut self, to: TargetSet, msg: M)
    where
        M: Clone,
    {
        self.ops.push(Op::Multicast { to, msg });
    }

    /// Schedules [`Node::on_timer`] with `tag` after `delay` ticks.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.ops.push(Op::Timer { delay, tag });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this handler runs on.
    pub fn me(&self) -> NodeId {
        self.me
    }
}

/// A scheduled simulator event.
#[derive(Debug)]
pub(crate) enum Event<M> {
    Deliver(Envelope<M>),
    Timer { at: NodeId, tag: u64 },
}

/// Number of log₂ queue-depth buckets tracked by [`Sim`].
pub const QUEUE_DEPTH_BUCKETS: usize = 65;

/// The execution core. The simulator has exactly one, the
/// single-threaded event loop; this enum survives only because the repo
/// benchmark (`perfbench/`) passes it to `ShotgunEngine::with_router`
/// and `ScenarioRunner::with_router`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// One queue, one thread: the exact event loop.
    Single,
}

/// The simulator: a graph, one [`Node`] state machine per graph node, an
/// event queue, and exact message-pass metrics. Events execute one at a
/// time in strict global `(time, sequence)` order.
#[derive(Debug)]
pub struct Sim<M, N> {
    graph: Graph,
    /// Built only under [`CostModel::Hops`]; `Uniform` never routes.
    routing: Option<AnyRouter>,
    nodes: Vec<N>,
    crashed: Vec<bool>,
    /// Number of currently crashed nodes (lets routing skip hop walks
    /// entirely while everyone is alive).
    crashed_count: usize,
    queue: EventQueue<Event<M>>,
    now: SimTime,
    cost_model: CostModel,
    metrics: Metrics,
    /// Handler-op buffer reused across `step` calls (no per-event `Vec`).
    scratch: Vec<Op<M>>,
    /// Log₂ histogram of queue depth, sampled at every push: bucket 0
    /// holds depth 0, bucket `k > 0` holds depths in `[2^(k-1), 2^k)`.
    /// Identical across queue implementations (same pending-event set).
    depth_buckets: [u64; QUEUE_DEPTH_BUCKETS],
}

impl<M: Clone, N: Node<M>> Sim<M, N> {
    /// Creates a simulator over `graph` with one handler per node, using
    /// the production calendar event queue.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()`.
    pub fn new(graph: Graph, nodes: Vec<N>, cost_model: CostModel) -> Self {
        Self::with_queue(graph, nodes, cost_model, QueueKind::Calendar)
    }

    /// Creates a simulator with an explicit event-queue implementation.
    /// [`QueueKind::BTree`] is the pre-calendar reference core, kept for
    /// determinism cross-checks and queue-isolated benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()`.
    pub fn with_queue(graph: Graph, nodes: Vec<N>, cost_model: CostModel, kind: QueueKind) -> Self {
        Self::with_router(graph, nodes, cost_model, kind, RouterKind::Auto)
    }

    /// Creates a simulator with every backend choice explicit: event
    /// queue and routing backend. Both axes are output-invariant; this is
    /// the constructor conformance suites use to pit the analytic routers
    /// against the table oracle.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()`, or if `router` is
    /// [`RouterKind::Analytic`] and the graph is not a structured family.
    pub fn with_router(
        graph: Graph,
        nodes: Vec<N>,
        cost_model: CostModel,
        kind: QueueKind,
        router: RouterKind,
    ) -> Self {
        assert_eq!(
            nodes.len(),
            graph.node_count(),
            "one handler per graph node required"
        );
        let routing = match cost_model {
            CostModel::Hops => Some(router.build(&graph)),
            CostModel::Uniform => None,
        };
        let n = graph.node_count();
        Sim {
            graph,
            routing,
            nodes,
            crashed: vec![false; n],
            crashed_count: 0,
            queue: EventQueue::new(kind),
            now: 0,
            cost_model,
            metrics: Metrics::new(n),
            scratch: Vec::new(),
            depth_buckets: [0; QUEUE_DEPTH_BUCKETS],
        }
    }

    /// The simulated network graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The routing backend in use (`None` under [`CostModel::Uniform`],
    /// which never routes).
    pub fn routing(&self) -> Option<&AnyRouter> {
        self.routing.as_ref()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Immutable access to a node's state.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node(&self, v: NodeId) -> &N {
        &self.nodes[v.index()]
    }

    /// Mutable access to a node's state (for test setup and inspection —
    /// protocol logic should live in handlers).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node_mut(&mut self, v: NodeId) -> &mut N {
        &mut self.nodes[v.index()]
    }

    /// Marks `v` crashed: it stops receiving, forwarding and firing timers.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn crash(&mut self, v: NodeId) {
        if !self.crashed[v.index()] {
            self.crashed[v.index()] = true;
            self.crashed_count += 1;
        }
        self.metrics.crashes += 1;
    }

    /// Restores a crashed node (its state is as it was; protocols decide
    /// what re-joining means).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn restore(&mut self, v: NodeId) {
        if self.crashed[v.index()] {
            self.crashed[v.index()] = false;
            self.crashed_count -= 1;
        }
    }

    /// Is `v` currently crashed?
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_crashed(&self, v: NodeId) -> bool {
        self.crashed[v.index()]
    }

    /// Injects an external message to `at` (delivered at the current time,
    /// no message passes charged — models a local request arriving at a
    /// process, e.g. "locate port X").
    pub fn inject(&mut self, from: NodeId, at: NodeId, msg: M) {
        let env = Envelope {
            from,
            to: at,
            sent_at: self.now,
            msg,
        };
        push(
            &mut self.queue,
            &mut self.metrics,
            &mut self.depth_buckets,
            self.now,
            Event::Deliver(env),
        );
    }

    /// Schedules a timer externally (e.g. protocol drivers).
    pub fn inject_timer(&mut self, at: NodeId, delay: SimTime, tag: u64) {
        push(
            &mut self.queue,
            &mut self.metrics,
            &mut self.depth_buckets,
            self.now + delay,
            Event::Timer { at, tag },
        );
    }

    /// Cumulative queue-depth histogram (one observation per event
    /// push). Snapshot and subtract to attribute pressure to a phase.
    pub fn queue_depth_buckets(&self) -> &[u64; QUEUE_DEPTH_BUCKETS] {
        &self.depth_buckets
    }

    /// Runs until the event queue drains; returns the final time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs every event scheduled at or before `deadline`, then advances
    /// the clock to `deadline` (idle gaps between scheduled work — e.g.
    /// quiet phases of a workload — pass in one jump). The clock never
    /// moves backwards: a `deadline` already in the past only drains
    /// events due now.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self.step_until(deadline) {}
        self.now = self.now.max(deadline);
        self.now
    }

    /// Executes the next event; returns `false` when idle.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::MAX)
    }

    /// Executes the next event if it is due at or before `deadline`.
    fn step_until(&mut self, deadline: SimTime) -> bool {
        let Some((t, ev)) = self.queue.pop_next_until(deadline) else {
            return false;
        };
        self.now = t;
        self.metrics.events_executed += 1;
        let at = match &ev {
            Event::Deliver(env) => env.to,
            Event::Timer { at, .. } => *at,
        };
        if self.crashed[at.index()] {
            if matches!(ev, Event::Deliver(_)) {
                self.metrics.dropped += 1;
            }
            return true;
        }
        // reuse one ops buffer across events instead of allocating per
        // handler invocation; apply_ops drains it back to empty
        let mut ops = std::mem::take(&mut self.scratch);
        debug_assert!(ops.is_empty());
        let mut api = NodeApi {
            ops: &mut ops,
            now: self.now,
            me: at,
        };
        match ev {
            Event::Deliver(env) => {
                self.metrics.delivered += 1;
                self.metrics.node_load[at.index()] += 1;
                self.nodes[at.index()].on_message(env, &mut api);
            }
            Event::Timer { tag, .. } => self.nodes[at.index()].on_timer(tag, &mut api),
        }
        self.apply_ops(at, &mut ops);
        self.scratch = ops;
        true
    }

    fn apply_ops(&mut self, from: NodeId, ops: &mut Vec<Op<M>>) {
        let env = NetEnv {
            routing: self.routing.as_ref(),
            crashed: &self.crashed,
            crashed_count: self.crashed_count,
            cost_model: self.cost_model,
        };
        let mut c = RouteCounters::default();
        let queue = &mut self.queue;
        let metrics = &mut self.metrics;
        let depth_buckets = &mut self.depth_buckets;
        route::apply_ops(&env, self.now, from, ops, &mut c, &mut |at, ev| {
            push(queue, metrics, depth_buckets, at, ev);
        });
        metrics.sends += c.sends;
        metrics.message_passes += c.passes;
        metrics.dropped += c.dropped;
    }
}

/// Schedules `ev` at `at` and samples the queue depth (peak and log₂
/// histogram) — the one push path for injections and handler ops alike.
fn push<M>(
    queue: &mut EventQueue<Event<M>>,
    metrics: &mut Metrics,
    depth_buckets: &mut [u64; QUEUE_DEPTH_BUCKETS],
    at: SimTime,
    ev: Event<M>,
) {
    queue.push(at, ev);
    let depth = queue.len() as u64;
    if depth > metrics.peak_queue_depth {
        metrics.peak_queue_depth = depth;
    }
    depth_buckets[(64 - depth.leading_zeros()) as usize] += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_topo::gen;
    use proptest::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
        Spread(Vec<NodeId>),
        Note,
    }

    #[derive(Default)]
    struct Recorder {
        got: Vec<(NodeId, Msg, SimTime)>,
        timers: Vec<u64>,
    }

    impl Node<Msg> for Recorder {
        fn on_message(&mut self, env: Envelope<Msg>, api: &mut NodeApi<'_, Msg>) {
            self.got.push((env.from, env.msg.clone(), api.now()));
            match env.msg {
                Msg::Ping => api.send(env.from, Msg::Pong),
                Msg::Spread(targets) => api.multicast(&targets, Msg::Note),
                _ => {}
            }
        }
        fn on_timer(&mut self, tag: u64, _api: &mut NodeApi<'_, Msg>) {
            self.timers.push(tag);
        }
    }

    fn recorders(n: usize) -> Vec<Recorder> {
        (0..n).map(|_| Recorder::default()).collect()
    }

    fn nid(v: u32) -> NodeId {
        NodeId::new(v)
    }

    #[test]
    fn ping_pong_hop_accounting() {
        let g = gen::path(5); // 0-1-2-3-4
        let mut sim = Sim::new(g, recorders(5), CostModel::Hops);
        sim.inject(nid(0), nid(4), Msg::Ping);
        sim.run();
        // the injected ping is free; the pong reply travels 4 hops back
        assert_eq!(sim.metrics().message_passes, 4);
        assert_eq!(sim.metrics().delivered, 2);
        let back = &sim.node(nid(0)).got;
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].1, Msg::Pong);
        assert_eq!(back[0].2, 4, "pong arrives at t=4");
    }

    #[test]
    fn uniform_model_charges_one_per_send() {
        let g = gen::path(5);
        let mut sim = Sim::new(g, recorders(5), CostModel::Uniform);
        sim.inject(nid(0), nid(4), Msg::Ping);
        sim.run();
        // free injection + one uniform pass for the pong
        assert_eq!(sim.metrics().message_passes, 1);
    }

    #[test]
    fn multicast_shares_prefix() {
        let g = gen::path(7);
        let mut sim = Sim::new(g, recorders(7), CostModel::Hops);
        // node 0 spreads to 3 and 6: Steiner cost = 6
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(3), nid(6)]));
        sim.run();
        assert_eq!(sim.metrics().message_passes, 6);
        assert_eq!(sim.node(nid(3)).got.len(), 1);
        assert_eq!(sim.node(nid(6)).got.len(), 1);
        assert_eq!(sim.node(nid(6)).got[0].1, Msg::Note);
    }

    #[test]
    fn multicast_to_self_is_free() {
        let g = gen::ring(4);
        let mut sim = Sim::new(g, recorders(4), CostModel::Hops);
        sim.inject(nid(1), nid(1), Msg::Spread(vec![nid(1)]));
        sim.run();
        // the external inject + the self-delivery
        assert_eq!(sim.metrics().message_passes, 0);
        assert_eq!(sim.node(nid(1)).got.len(), 2);
    }

    #[test]
    fn crashed_destination_drops() {
        let g = gen::path(3);
        let mut sim = Sim::new(g, recorders(3), CostModel::Hops);
        sim.crash(nid(2));
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(2)]));
        sim.run();
        assert_eq!(sim.node(nid(2)).got.len(), 0);
        // the Steiner tree to {2} is the 2-edge path; both passes are
        // charged even though the message dies at its destination
        assert_eq!(sim.metrics().message_passes, 2);
        assert_eq!(sim.metrics().dropped, 1);
    }

    #[test]
    fn crashed_intermediate_truncates_path_cost() {
        let g = gen::path(5);
        let mut sim = Sim::new(g, recorders(5), CostModel::Hops);
        sim.crash(nid(2));
        // handler-driven multicast 0 -> {4} dies at node 2
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(4)]));
        sim.run();
        assert_eq!(sim.node(nid(4)).got.len(), 0);
        // the Steiner tree 0-1-2-3-4 is charged in full (4 passes): the
        // spanning-tree forwarding commits the copies before the crash is
        // discovered, so a dead intermediate wastes the whole branch
        assert_eq!(sim.metrics().message_passes, 4);
        assert_eq!(sim.metrics().sends, 1);
        assert_eq!(sim.metrics().dropped, 1);
        assert_eq!(sim.metrics().delivered, 1, "only the free injection lands");
    }

    #[test]
    fn crashed_branch_keeps_live_deliveries_and_full_tree_cost() {
        // 0-1-2-3-4-5-6 with node 2 dead: multicast 0 -> {1, 4}.
        // The Steiner tree (0-1-2-3-4, 4 edges) is charged once; the live
        // branch to 1 still delivers while the branch through 2 drops.
        let g = gen::path(7);
        let mut sim = Sim::new(g, recorders(7), CostModel::Hops);
        sim.crash(nid(2));
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(1), nid(4)]));
        sim.run();
        assert_eq!(sim.metrics().message_passes, 4);
        assert_eq!(sim.metrics().dropped, 1);
        assert_eq!(sim.node(nid(1)).got.len(), 1);
        assert_eq!(sim.node(nid(4)).got.len(), 0);
    }

    #[test]
    fn run_until_advances_clock_through_idle_gaps() {
        let g = gen::ring(3);
        let mut sim = Sim::new(g, recorders(3), CostModel::Hops);
        // nothing scheduled at all: the clock must still reach the deadline
        assert_eq!(sim.run_until(100), 100);
        assert_eq!(sim.now(), 100);
        // a timer far in the future is not executed early, but the clock
        // advances to the deadline between phases
        sim.inject_timer(nid(0), 400, 9); // fires at t = 500
        assert_eq!(sim.run_until(250), 250);
        assert!(sim.node(nid(0)).timers.is_empty());
        assert_eq!(sim.run_until(600), 600);
        assert_eq!(sim.node(nid(0)).timers, vec![9]);
        // the clock never moves backwards
        assert_eq!(sim.run_until(10), 600);
    }

    #[test]
    fn run_until_executes_events_at_deadline_inclusive() {
        let g = gen::ring(3);
        let mut sim = Sim::new(g, recorders(3), CostModel::Hops);
        sim.inject_timer(nid(1), 50, 1);
        assert_eq!(sim.run_until(50), 50);
        assert_eq!(sim.node(nid(1)).timers, vec![1]);
    }

    #[test]
    fn restore_lets_messages_flow_again() {
        let g = gen::path(3);
        let mut sim = Sim::new(g, recorders(3), CostModel::Hops);
        sim.crash(nid(1));
        sim.inject(nid(0), nid(1), Msg::Note);
        sim.run();
        assert_eq!(sim.node(nid(1)).got.len(), 0);
        sim.restore(nid(1));
        sim.inject(nid(0), nid(1), Msg::Note);
        sim.run();
        assert_eq!(sim.node(nid(1)).got.len(), 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<(u64, SimTime)>,
        }
        impl Node<Msg> for TimerNode {
            fn on_message(&mut self, _env: Envelope<Msg>, api: &mut NodeApi<'_, Msg>) {
                api.set_timer(10, 1);
                api.set_timer(5, 2);
                api.set_timer(10, 3);
            }
            fn on_timer(&mut self, tag: u64, api: &mut NodeApi<'_, Msg>) {
                self.fired.push((tag, api.now()));
            }
        }
        let g = gen::ring(3);
        let nodes = (0..3).map(|_| TimerNode { fired: vec![] }).collect();
        let mut sim = Sim::new(g, nodes, CostModel::Hops);
        sim.inject(nid(0), nid(0), Msg::Note);
        sim.run();
        let fired = &sim.node(nid(0)).fired;
        assert_eq!(fired.len(), 3);
        assert_eq!(fired[0], (2, 5));
        assert_eq!(fired[1], (1, 10));
        assert_eq!(fired[2], (3, 10), "same-time timers keep insertion order");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let g = gen::grid(4, 4, false);
            let mut sim = Sim::new(g, recorders(16), CostModel::Hops);
            sim.inject(nid(0), nid(15), Msg::Ping);
            sim.inject(nid(3), nid(12), Msg::Ping);
            sim.inject(nid(5), nid(5), Msg::Spread(vec![nid(0), nid(10), nid(15)]));
            sim.run();
            (
                sim.metrics().message_passes,
                sim.metrics().delivered,
                sim.now(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn node_load_tracks_deliveries() {
        let g = gen::complete(4);
        let mut sim = Sim::new(g, recorders(4), CostModel::Uniform);
        sim.inject(nid(1), nid(0), Msg::Ping); // 0 receives, answers to 1
        sim.run();
        assert_eq!(sim.metrics().node_load[0], 1);
        assert_eq!(sim.metrics().node_load[1], 1);
        assert_eq!(sim.metrics().node_load[2], 0);
    }

    #[test]
    #[should_panic(expected = "one handler per graph node")]
    fn node_count_mismatch_panics() {
        let _ = Sim::new(gen::ring(3), recorders(2), CostModel::Hops);
    }

    #[test]
    fn queue_depth_histogram_counts_every_push() {
        let g = gen::complete(4);
        let mut sim = Sim::new(g, recorders(4), CostModel::Uniform);
        sim.inject(nid(1), nid(0), Msg::Ping); // push at depth 1
        sim.run(); // the pong is pushed at depth 1 again
        let buckets = sim.queue_depth_buckets();
        assert_eq!(buckets.iter().sum::<u64>(), 2, "one sample per push");
        assert_eq!(buckets[1], 2, "both pushes saw depth 1");
    }

    // ---- calendar queue against the BTreeMap oracle, whole simulator ----

    /// Every observable output of one simulation.
    #[derive(Debug, PartialEq)]
    struct SimOutput {
        metrics: Metrics,
        buckets: [u64; QUEUE_DEPTH_BUCKETS],
        now: SimTime,
        logs: Vec<Vec<(NodeId, Msg, SimTime)>>,
        timers: Vec<Vec<u64>>,
    }

    fn output(sim: &Sim<Msg, Recorder>) -> SimOutput {
        let n = sim.graph().node_count() as u32;
        SimOutput {
            metrics: sim.metrics().clone(),
            buckets: *sim.queue_depth_buckets(),
            now: sim.now(),
            logs: (0..n).map(|v| sim.node(nid(v)).got.clone()).collect(),
            timers: (0..n).map(|v| sim.node(nid(v)).timers.clone()).collect(),
        }
    }

    /// Drives one busy scenario (pings, multicasts, timers, a crash +
    /// restore, phased `run_until`) on the given queue and returns every
    /// observable output.
    fn drive(kind: QueueKind) -> SimOutput {
        let n = 36;
        let mut sim = Sim::with_queue(gen::grid(6, 6, false), recorders(n), CostModel::Hops, kind);
        sim.inject(nid(0), nid(35), Msg::Ping);
        sim.inject(nid(3), nid(30), Msg::Ping);
        sim.inject(nid(5), nid(5), Msg::Spread(vec![nid(0), nid(17), nid(35)]));
        sim.inject_timer(nid(9), 7, 42);
        sim.run_until(6);
        sim.crash(nid(14));
        sim.inject(nid(2), nid(14), Msg::Note);
        sim.inject(nid(20), nid(20), Msg::Spread(vec![nid(8), nid(26)]));
        sim.run_until(40);
        sim.restore(nid(14));
        sim.inject(nid(2), nid(14), Msg::Ping);
        sim.run();
        output(&sim)
    }

    #[test]
    fn calendar_core_matches_btree_oracle() {
        let oracle = drive(QueueKind::BTree);
        assert!(oracle.metrics.dropped > 0, "the crash window must bite");
        assert_eq!(drive(QueueKind::Calendar), oracle);
    }

    /// splitmix64 — deterministic traffic generator for the property
    /// suite (no external RNG state, reproduces per test name).
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drives a deterministic pseudo-random batch of pings, multicasts,
    /// timers, phased `run_until`s and a crash/restore cycle.
    fn random_traffic(sim: &mut Sim<Msg, Recorder>, n: usize, mut s: u64) {
        let node = |s: &mut u64| nid((mix(s) % n as u64) as u32);
        for phase in 0..4 {
            for _ in 0..6 {
                match mix(&mut s) % 4 {
                    0 => {
                        let (a, b) = (node(&mut s), node(&mut s));
                        sim.inject(a, b, Msg::Ping);
                    }
                    1 => {
                        let from = node(&mut s);
                        let targets: Vec<NodeId> =
                            (0..1 + mix(&mut s) % 5).map(|_| node(&mut s)).collect();
                        sim.inject(from, from, Msg::Spread(targets));
                    }
                    2 => {
                        let at = node(&mut s);
                        sim.inject_timer(at, 1 + mix(&mut s) % 40, mix(&mut s));
                    }
                    _ => {
                        let v = node(&mut s);
                        if sim.is_crashed(v) {
                            sim.restore(v);
                        } else {
                            sim.crash(v);
                        }
                    }
                }
            }
            let deadline = sim.now() + 10 + mix(&mut s) % 30;
            sim.run_until(deadline);
            if phase == 2 {
                // drain fully once mid-sequence, then keep going
                sim.run();
            }
        }
        sim.run();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random traffic under either cost model: the calendar queue
        /// reproduces the BTreeMap oracle's metrics, depth histogram,
        /// clock, per-node delivery logs and fired timers exactly.
        #[test]
        fn random_traffic_is_queue_invariant(
            seed in any::<u64>(),
            w in 3usize..7,
            h in 3usize..7,
            uniform in any::<bool>(),
        ) {
            let n = w * h;
            let cost = if uniform { CostModel::Uniform } else { CostModel::Hops };
            let run = |kind| {
                let mut sim = Sim::with_queue(gen::grid(w, h, false), recorders(n), cost, kind);
                random_traffic(&mut sim, n, seed);
                output(&sim)
            };
            prop_assert_eq!(run(QueueKind::Calendar), run(QueueKind::BTree));
        }
    }
}
