//! The Shotgun Locate engine (paper §1.5, §2.1).
//!
//! *"A server process `s` located at address `A_s` and offering a service
//! identified by a port `π` selects a collection `P_s` of network nodes
//! and posts at these nodes that server `s` receives requests on port `π`
//! at the address `A_s`. … When a client process `c` … has a request to
//! send to `π`, it selects a collection of network nodes `Q_c` and queries
//! each node in `Q_c` for the address of `π`. When `P_s ∩ Q_c ≠ ∅`, the
//! node(s) in the intersection will return a message to `c` stating that
//! `π` is available at `A_s`."*
//!
//! [`ShotgunEngine`] drives that protocol on the [`mm_sim`] simulator. It
//! is generic over [`PortMapped`], the `P, Q : U × Π → 2^U` generalization
//! of §5 — so plain strategies (which ignore the port) and Hash Locate
//! (which ignores the node) both run unchanged.
//!
//! A locate completes when every queried node has answered; the client
//! prefers the answer with the newest timestamp, which makes locates
//! return the *current* address even right after a migration (the server's
//! fresh posting necessarily intersects the client's query set).

use crate::cache::Cache;
use crate::fault::{FaultProfile, FORGED_STAMP};
use crate::intern::TargetInterner;
use crate::messages::ProtoMsg;
use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_sim::{
    CostModel, Envelope, Metrics, Node, NodeApi, QueueKind, RouterKind, ShardMode, Sim, SimTime,
    TargetSet,
};
use mm_topo::{Graph, NodeId};
use std::collections::{BTreeSet, HashMap};

/// Client-side bookkeeping for one locate operation.
#[derive(Debug, Clone, Default)]
struct Pending {
    expected: usize,
    misses: usize,
    /// Hit answers as `(answering node, advertised addr, stamp)`, in
    /// arrival order. The winner is chosen at read time by
    /// [`Pending::best`], so arrival order never influences the verdict.
    answers: Vec<(NodeId, NodeId, u64)>,
    issued_at: SimTime,
    completed_at: Option<SimTime>,
}

impl Pending {
    /// The winning advertisement: newest stamp, ties broken by lowest
    /// answering node — deterministic regardless of reply arrival order
    /// (the live runtime's mailboxes do not preserve it).
    fn best(&self) -> Option<(NodeId, u64)> {
        self.answers
            .iter()
            .max_by(|a, b| a.2.cmp(&b.2).then(b.0.cmp(&a.0)))
            .map(|&(_, addr, stamp)| (addr, stamp))
    }

    /// Hit answers that disagree with the winning address — the client's
    /// cross-check signal for Byzantine forgeries.
    fn dissent(&self) -> usize {
        match self.best() {
            Some((winner, _)) => self.answers.iter().filter(|a| a.1 != winner).count(),
            None => 0,
        }
    }
}

/// The state of a finished (or still-running) locate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocateOutcome {
    /// Every queried node answered and at least one had the port cached:
    /// the freshest address wins.
    Found {
        /// The located server address.
        addr: NodeId,
        /// The winning advertisement's timestamp.
        stamp: u64,
        /// Ticks from issue to the final answer.
        elapsed: SimTime,
        /// The rendezvous nodes that answered with a hit, sorted — the
        /// realized match-making intersection, `|meets| = m(P,Q)` when
        /// postings are fresh.
        meets: Vec<NodeId>,
        /// Hit answers whose address disagreed with the winner. Zero on
        /// honest fresh runs; nonzero whenever stale caches or Byzantine
        /// forgeries were out-voted — the client's lie-detection signal.
        dissent: usize,
    },
    /// Every queried node answered and none knew the port.
    NotFound {
        /// Ticks from issue to the final answer.
        elapsed: SimTime,
    },
    /// Some queried nodes never answered (crashed rendezvous); partial
    /// results are reported.
    Unresolved {
        /// Hits received so far.
        hits: usize,
        /// Misses received so far.
        misses: usize,
        /// Queries that never got an answer.
        missing: usize,
        /// Best address seen so far, if any hit arrived.
        best: Option<(NodeId, u64)>,
        /// Hit answers received so far that disagree with `best` — lets a
        /// client that salvages a partial answer at timeout still run its
        /// lie detection.
        dissent: usize,
    },
}

impl LocateOutcome {
    /// Convenience: the located address if the outcome is `Found`.
    pub fn addr(&self) -> Option<NodeId> {
        match self {
            LocateOutcome::Found { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// `true` if every queried node answered.
    pub fn is_complete(&self) -> bool {
        !matches!(self, LocateOutcome::Unresolved { .. })
    }
}

/// Handle identifying a locate operation: `(client node, locate id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocateHandle {
    /// The client node the locate was issued from.
    pub client: NodeId,
    /// Engine-unique id.
    pub id: u64,
}

/// Outcome of an application-level request (service model, §1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The server answered.
    Replied {
        /// Response body.
        body: u64,
        /// Ticks from issue to reply.
        elapsed: SimTime,
    },
    /// The addressed node does not serve the port (stale cache).
    StaleAddress,
}

/// Per-node protocol state: the rendezvous cache, locally served ports,
/// and client-side operation bookkeeping.
#[derive(Debug, Default)]
pub struct NsNode {
    /// The rendezvous cache.
    pub cache: Cache,
    /// Ports served by a process on this node.
    pub served: BTreeSet<Port>,
    /// Adversarial behavior profile (default: honest).
    pub fault: FaultProfile,
    pending: HashMap<u64, Pending>,
    requests: HashMap<u64, (SimTime, Option<RequestOutcome>)>,
}

impl Node<ProtoMsg> for NsNode {
    fn on_message(&mut self, env: Envelope<ProtoMsg>, api: &mut NodeApi<'_, ProtoMsg>) {
        match env.msg {
            ProtoMsg::DoPost {
                port,
                addr,
                stamp,
                targets,
            } => {
                api.multicast_set(targets, ProtoMsg::Post { port, addr, stamp });
            }
            ProtoMsg::DoUnpost {
                port,
                addr,
                stamp,
                targets,
            } => {
                api.multicast_set(targets, ProtoMsg::Unpost { port, addr, stamp });
            }
            ProtoMsg::DoLocate {
                port,
                locate_id,
                targets,
            } => {
                self.pending.insert(
                    locate_id,
                    Pending {
                        expected: targets.len(),
                        issued_at: api.now(),
                        ..Pending::default()
                    },
                );
                api.multicast_set(
                    targets,
                    ProtoMsg::Query {
                        port,
                        reply_to: api.me(),
                        locate_id,
                    },
                );
            }
            ProtoMsg::DoRequest {
                port,
                addr,
                body,
                request_id,
            } => {
                api.send(
                    addr,
                    ProtoMsg::Request {
                        port,
                        reply_to: api.me(),
                        body,
                        request_id,
                    },
                );
            }
            ProtoMsg::Post { port, addr, stamp } => match self.fault {
                // broken storage: the posting is silently lost
                FaultProfile::DropPosts => {}
                // pin the first posting; later (fresher) posts are ignored
                FaultProfile::StaleAddress => {
                    if self.cache.lookup(port).is_none() {
                        self.cache.insert(port, addr, stamp);
                    }
                }
                _ => {
                    self.cache.insert(port, addr, stamp);
                }
            },
            ProtoMsg::Unpost { port, stamp, .. } => {
                if !matches!(
                    self.fault,
                    FaultProfile::DropPosts | FaultProfile::StaleAddress
                ) {
                    self.cache.remove(port, stamp);
                }
            }
            ProtoMsg::Query {
                port,
                reply_to,
                locate_id,
            } => {
                let at = api.me();
                match self.fault {
                    // forge a hit for every port, stamped to out-bid honesty
                    FaultProfile::ForgedAddress => api.send(
                        reply_to,
                        ProtoMsg::Hit {
                            port,
                            addr: at,
                            stamp: FORGED_STAMP,
                            locate_id,
                            at,
                        },
                    ),
                    FaultProfile::RefuseMatch => {
                        api.send(reply_to, ProtoMsg::Miss { port, locate_id })
                    }
                    _ => match self.cache.lookup(port) {
                        Some(e) => api.send(
                            reply_to,
                            ProtoMsg::Hit {
                                port,
                                addr: e.addr,
                                stamp: e.stamp,
                                locate_id,
                                at,
                            },
                        ),
                        None => api.send(reply_to, ProtoMsg::Miss { port, locate_id }),
                    },
                }
            }
            ProtoMsg::Hit {
                addr,
                stamp,
                locate_id,
                at,
                ..
            } => {
                if let Some(p) = self.pending.get_mut(&locate_id) {
                    p.answers.push((at, addr, stamp));
                    if p.answers.len() + p.misses == p.expected {
                        p.completed_at = Some(api.now());
                    }
                }
            }
            ProtoMsg::Miss { locate_id, .. } => {
                if let Some(p) = self.pending.get_mut(&locate_id) {
                    p.misses += 1;
                    if p.answers.len() + p.misses == p.expected {
                        p.completed_at = Some(api.now());
                    }
                }
            }
            ProtoMsg::Request {
                port,
                reply_to,
                body,
                request_id,
            } => {
                if self.served.contains(&port) {
                    api.send(
                        reply_to,
                        ProtoMsg::Reply {
                            port,
                            // a trivially checkable service: echo body + 1
                            body: body.wrapping_add(1),
                            request_id,
                        },
                    );
                } else {
                    api.send(reply_to, ProtoMsg::NotHere { port, request_id });
                }
            }
            ProtoMsg::Reply {
                body, request_id, ..
            } => {
                if let Some((issued, slot)) = self.requests.get_mut(&request_id) {
                    *slot = Some(RequestOutcome::Replied {
                        body,
                        elapsed: api.now() - *issued,
                    });
                }
            }
            ProtoMsg::NotHere { request_id, .. } => {
                if let Some((_, slot)) = self.requests.get_mut(&request_id) {
                    *slot = Some(RequestOutcome::StaleAddress);
                }
            }
        }
    }
}

/// The engine: a simulator full of [`NsNode`]s plus the `P`/`Q` resolver
/// and operation bookkeeping.
#[derive(Debug)]
pub struct ShotgunEngine<PM> {
    sim: Sim<ProtoMsg, NsNode>,
    resolver: PM,
    /// Memoized `P`/`Q` sets: operations reuse shared target sets
    /// instead of cloning fresh `Vec`s out of the resolver.
    interner: TargetInterner,
    next_locate: u64,
    next_request: u64,
    clock: u64,
}

impl<PM: PortMapped> ShotgunEngine<PM> {
    /// Builds an engine over `graph` using `resolver` for `P`/`Q`.
    ///
    /// # Panics
    ///
    /// Panics if the resolver's universe size differs from the graph's.
    pub fn new(graph: Graph, resolver: PM, cost_model: CostModel) -> Self {
        Self::with_queue(graph, resolver, cost_model, QueueKind::Calendar)
    }

    /// Builds an engine with an explicit simulator event-queue
    /// implementation (see [`QueueKind`]); used by the determinism suite
    /// to cross-check the calendar queue against the `BTreeMap` oracle.
    ///
    /// # Panics
    ///
    /// Panics if the resolver's universe size differs from the graph's.
    pub fn with_queue(graph: Graph, resolver: PM, cost_model: CostModel, kind: QueueKind) -> Self {
        Self::with_router(
            graph,
            resolver,
            cost_model,
            kind,
            ShardMode::Single,
            RouterKind::Auto,
        )
    }

    /// Builds an engine with an explicit routing backend on top of the
    /// queue choice (see [`RouterKind`]). Both axes are output-invariant;
    /// the conformance suite uses this to pit analytic routers against
    /// the table oracle. `ShardMode` has the single variant
    /// [`ShardMode::Single`] and changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the resolver's universe size differs from the graph's,
    /// or if `router` is `RouterKind::Analytic` on a non-structured graph.
    pub fn with_router(
        graph: Graph,
        resolver: PM,
        cost_model: CostModel,
        kind: QueueKind,
        _mode: ShardMode,
        router: RouterKind,
    ) -> Self {
        assert_eq!(
            graph.node_count(),
            resolver.node_count(),
            "resolver universe must match the graph"
        );
        let n = graph.node_count();
        let nodes = (0..n).map(|_| NsNode::default()).collect();
        ShotgunEngine {
            sim: Sim::with_router(graph, nodes, cost_model, kind, router),
            resolver,
            interner: TargetInterner::default(),
            next_locate: 0,
            next_request: 0,
            clock: 0,
        }
    }

    /// The underlying simulator (for inspection).
    pub fn sim(&self) -> &Sim<ProtoMsg, NsNode> {
        &self.sim
    }

    /// The resolver in use.
    pub fn resolver(&self) -> &PM {
        &self.resolver
    }

    /// Accumulated metrics (message passes etc.).
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// The memoized query set `Q(client, port)` this engine would use for
    /// a locate — exposed so tracing layers can enumerate the fan-out
    /// without duplicating the interner.
    pub fn query_targets(&mut self, client: NodeId, port: Port) -> TargetSet {
        self.interner.query_set(&self.resolver, client, port)
    }

    /// The memoized post set `P(at, port)` this engine would use for a
    /// registration — the tracing-layer counterpart of
    /// [`ShotgunEngine::query_targets`].
    pub fn post_targets(&mut self, at: NodeId, port: Port) -> TargetSet {
        self.interner.post_set(&self.resolver, at, port)
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Registers a server for `port` at node `at` and posts its address at
    /// `P(at, port)`. Returns the posting timestamp.
    pub fn register_server(&mut self, at: NodeId, port: Port) -> u64 {
        let stamp = self.next_stamp();
        self.sim.node_mut(at).served.insert(port);
        let targets = self.interner.post_set(&self.resolver, at, port);
        self.sim.inject(
            at,
            at,
            ProtoMsg::DoPost {
                port,
                addr: at,
                stamp,
                targets,
            },
        );
        stamp
    }

    /// Posts `(port, at)` at an explicit target set (Hash Locate repair
    /// posting to rehash backups). Returns the posting timestamp.
    pub fn post_at(&mut self, at: NodeId, port: Port, targets: Vec<NodeId>) -> u64 {
        let targets = TargetSet::from_vec(targets);
        let stamp = self.next_stamp();
        self.sim.inject(
            at,
            at,
            ProtoMsg::DoPost {
                port,
                addr: at,
                stamp,
                targets,
            },
        );
        stamp
    }

    /// Deregisters the server and withdraws its postings.
    pub fn deregister_server(&mut self, at: NodeId, port: Port) {
        let stamp = self.next_stamp();
        self.sim.node_mut(at).served.remove(&port);
        let targets = self.interner.post_set(&self.resolver, at, port);
        self.sim.inject(
            at,
            at,
            ProtoMsg::DoUnpost {
                port,
                addr: at,
                stamp,
                targets,
            },
        );
    }

    /// Migrates the server for `port` from `from` to `to`: the paper's
    /// mobile-process scenario. The new posting carries a newer stamp, so
    /// caches and clients converge on the new address.
    pub fn migrate_server(&mut self, port: Port, from: NodeId, to: NodeId) -> u64 {
        self.sim.node_mut(from).served.remove(&port);
        self.register_server(to, port)
    }

    /// Issues a locate for `port` from `client`; run the engine, then read
    /// the result with [`ShotgunEngine::outcome`].
    pub fn locate(&mut self, client: NodeId, port: Port) -> LocateHandle {
        let id = self.next_locate;
        self.next_locate += 1;
        let targets = self.interner.query_set(&self.resolver, client, port);
        self.sim.inject(
            client,
            client,
            ProtoMsg::DoLocate {
                port,
                locate_id: id,
                targets,
            },
        );
        LocateHandle { client, id }
    }

    /// Issues a locate querying an explicit target set (used by Hash
    /// Locate's rehash retries).
    pub fn locate_at(&mut self, client: NodeId, port: Port, targets: Vec<NodeId>) -> LocateHandle {
        let targets = TargetSet::from_vec(targets);
        let id = self.next_locate;
        self.next_locate += 1;
        self.sim.inject(
            client,
            client,
            ProtoMsg::DoLocate {
                port,
                locate_id: id,
                targets,
            },
        );
        LocateHandle { client, id }
    }

    /// Sends an application request to a located address (charging the
    /// client→server route). Check the result with
    /// [`ShotgunEngine::request_outcome`] after running.
    pub fn request(&mut self, client: NodeId, addr: NodeId, port: Port, body: u64) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        let now = self.sim.now();
        self.sim.node_mut(client).requests.insert(id, (now, None));
        self.sim.inject(
            client,
            client,
            ProtoMsg::DoRequest {
                port,
                addr,
                body,
                request_id: id,
            },
        );
        id
    }

    /// Runs the simulation until idle; returns the metrics.
    pub fn run(&mut self) -> &Metrics {
        self.sim.run();
        self.sim.metrics()
    }

    /// Runs the simulation up to (and including) `deadline`, advancing
    /// the clock through idle gaps — the open-loop driver used by
    /// workload generators that interleave injections with simulated
    /// time. Returns the new simulated time.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.sim.run_until(deadline)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The current state of a locate operation.
    ///
    /// A handle whose issue message was lost — the client crashed in the
    /// same tick it called [`locate`](Self::locate), so the self-delivered
    /// `DoLocate` was dropped before the pending record existed — reports
    /// as permanently [`LocateOutcome::Unresolved`]; the caller's
    /// operation timeout classifies it.
    pub fn outcome(&self, h: LocateHandle) -> LocateOutcome {
        let node = self.sim.node(h.client);
        let Some(p) = node.pending.get(&h.id) else {
            return LocateOutcome::Unresolved {
                hits: 0,
                misses: 0,
                missing: 0,
                best: None,
                dissent: 0,
            };
        };
        match p.completed_at {
            Some(done) => match p.best() {
                Some((addr, stamp)) => {
                    let mut meets: Vec<NodeId> = p.answers.iter().map(|a| a.0).collect();
                    meets.sort_unstable();
                    LocateOutcome::Found {
                        addr,
                        stamp,
                        elapsed: done - p.issued_at,
                        meets,
                        dissent: p.dissent(),
                    }
                }
                None => LocateOutcome::NotFound {
                    elapsed: done - p.issued_at,
                },
            },
            None => LocateOutcome::Unresolved {
                hits: p.answers.len(),
                misses: p.misses,
                missing: p.expected - p.answers.len() - p.misses,
                best: p.best(),
                dissent: p.dissent(),
            },
        }
    }

    /// The outcome of an application request, if the reply arrived.
    pub fn request_outcome(&self, client: NodeId, id: u64) -> Option<RequestOutcome> {
        self.sim
            .node(client)
            .requests
            .get(&id)
            .and_then(|(_, o)| *o)
    }

    /// Crashes a node (it keeps no cache and answers nothing).
    pub fn crash(&mut self, v: NodeId) {
        self.sim.crash(v);
    }

    /// Restores a crashed node (cache intact; real systems would rebuild —
    /// callers can clear it via [`ShotgunEngine::clear_cache`]).
    pub fn restore(&mut self, v: NodeId) {
        self.sim.restore(v);
    }

    /// Empties a node's rendezvous cache (e.g. after restoring a crash to
    /// model lost volatile memory).
    pub fn clear_cache(&mut self, v: NodeId) {
        self.sim.node_mut(v).cache = Cache::new();
    }

    /// Assigns an adversarial behavior profile to a node (see
    /// [`FaultProfile`]). Takes effect for all messages the node handles
    /// from now on; pass [`FaultProfile::Honest`] to heal it.
    pub fn set_fault(&mut self, v: NodeId, profile: FaultProfile) {
        self.sim.node_mut(v).fault = profile;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_core::strategies::{Broadcast, Checkerboard};
    use mm_topo::gen;

    fn port(name: &str) -> Port {
        Port::from_name(name)
    }

    #[test]
    fn locate_finds_posted_server() {
        let g = gen::complete(16);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(16), CostModel::Uniform);
        let p = port("file");
        eng.register_server(NodeId::new(3), p);
        eng.run();
        let h = eng.locate(NodeId::new(12), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Found { addr, meets, .. } => {
                assert_eq!(addr, NodeId::new(3));
                assert_eq!(
                    meets.len(),
                    1,
                    "checkerboard row ∩ column meets at exactly one node"
                );
                let q = mm_core::Strategy::query_set(eng.resolver(), NodeId::new(12));
                let p = mm_core::Strategy::post_set(eng.resolver(), NodeId::new(3));
                assert!(q.contains(&meets[0]) && p.contains(&meets[0]));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn locate_unknown_port_is_not_found() {
        let g = gen::complete(9);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(9), CostModel::Uniform);
        let h = eng.locate(NodeId::new(0), port("ghost"));
        eng.run();
        assert!(matches!(eng.outcome(h), LocateOutcome::NotFound { .. }));
    }

    #[test]
    fn message_cost_matches_strategy_prediction() {
        let n = 25;
        let g = gen::complete(n);
        let strat = Checkerboard::new(n);
        let post = mm_core::Strategy::post_count(&strat, NodeId::new(7));
        let query = mm_core::Strategy::query_count(&strat, NodeId::new(19));
        let mut eng = ShotgunEngine::new(g, strat, CostModel::Uniform);
        let p = port("svc");
        eng.register_server(NodeId::new(7), p);
        eng.run();
        let before = eng.metrics().message_passes;
        // posting costs #P passes, minus a free self-delivery if the
        // server's own node is in P
        let self_in_p = mm_core::Strategy::post_set(eng.resolver(), NodeId::new(7))
            .contains(&NodeId::new(7)) as usize;
        assert_eq!(before as usize, post - self_in_p, "posting costs #P passes");
        let h = eng.locate(NodeId::new(19), p);
        eng.run();
        let after = eng.metrics().message_passes;
        // locate costs #Q queries + #Q replies (self queries/replies free)
        let self_in_q = mm_core::Strategy::query_set(eng.resolver(), NodeId::new(19))
            .contains(&NodeId::new(19)) as usize;
        assert_eq!((after - before) as usize, 2 * (query - self_in_q));
        assert!(matches!(eng.outcome(h), LocateOutcome::Found { .. }));
    }

    #[test]
    fn migration_newest_stamp_wins() {
        let g = gen::complete(16);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(16), CostModel::Uniform);
        let p = port("db");
        eng.register_server(NodeId::new(2), p);
        eng.run();
        eng.migrate_server(p, NodeId::new(2), NodeId::new(13));
        eng.run();
        let h = eng.locate(NodeId::new(5), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Found { addr, .. } => {
                assert_eq!(addr, NodeId::new(13), "locate must see the new address")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crashed_rendezvous_leaves_unresolved_with_broadcast_still_working() {
        let g = gen::complete(9);
        let mut eng = ShotgunEngine::new(g, Broadcast::new(9), CostModel::Uniform);
        let p = port("svc");
        eng.register_server(NodeId::new(4), p);
        eng.run();
        // crash one *non-rendezvous* node: broadcast queries it, gets no answer
        eng.crash(NodeId::new(8));
        let h = eng.locate(NodeId::new(0), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Unresolved { best, missing, .. } => {
                assert_eq!(best.map(|(a, _)| a), Some(NodeId::new(4)));
                assert_eq!(missing, 1);
            }
            other => panic!("expected unresolved with partial hit, got {other:?}"),
        }
    }

    #[test]
    fn request_reply_roundtrip() {
        let g = gen::complete(8);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(8), CostModel::Uniform);
        let p = port("adder");
        eng.register_server(NodeId::new(6), p);
        eng.run();
        let id = eng.request(NodeId::new(1), NodeId::new(6), p, 41);
        eng.run();
        assert_eq!(
            eng.request_outcome(NodeId::new(1), id),
            Some(RequestOutcome::Replied {
                body: 42,
                elapsed: 2
            })
        );
    }

    #[test]
    fn stale_address_yields_not_here() {
        let g = gen::complete(8);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(8), CostModel::Uniform);
        let p = port("svc");
        eng.register_server(NodeId::new(6), p);
        eng.run();
        eng.migrate_server(p, NodeId::new(6), NodeId::new(2));
        eng.run();
        // request the *old* address
        let id = eng.request(NodeId::new(1), NodeId::new(6), p, 0);
        eng.run();
        assert_eq!(
            eng.request_outcome(NodeId::new(1), id),
            Some(RequestOutcome::StaleAddress)
        );
    }

    #[test]
    fn forged_address_wins_stamp_but_is_flagged_by_dissent() {
        let n = 16;
        let mut eng = ShotgunEngine::new(gen::complete(n), Broadcast::new(n), CostModel::Uniform);
        let p = port("svc");
        eng.register_server(NodeId::new(3), p);
        eng.run();
        let liar = NodeId::new(7);
        eng.set_fault(liar, FaultProfile::ForgedAddress);
        let h = eng.locate(NodeId::new(0), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Found {
                addr,
                stamp,
                dissent,
                ..
            } => {
                assert_eq!(addr, liar, "the forged stamp out-bids honesty");
                assert_eq!(stamp, FORGED_STAMP);
                assert!(dissent >= 1, "the honest hit disagrees: lie is detectable");
            }
            other => panic!("expected a (detectable) forged hit, got {other:?}"),
        }
    }

    #[test]
    fn drop_posts_and_refuse_match_erode_redundancy() {
        // checkerboard rendezvous are singletons: one bad rendezvous node
        // converts a sure hit into a clean miss
        let n = 16;
        let strat = Checkerboard::new(n);
        let server = NodeId::new(3);
        let client = NodeId::new(12);
        let rdv = mm_core::Strategy::rendezvous(&strat, server, client);
        assert_eq!(rdv.len(), 1);
        for fault in [FaultProfile::DropPosts, FaultProfile::RefuseMatch] {
            let mut eng =
                ShotgunEngine::new(gen::complete(n), Checkerboard::new(n), CostModel::Uniform);
            eng.set_fault(rdv[0], fault);
            let p = port("svc");
            eng.register_server(server, p);
            eng.run();
            let h = eng.locate(client, p);
            eng.run();
            assert!(
                matches!(eng.outcome(h), LocateOutcome::NotFound { .. }),
                "{fault:?} at the only rendezvous must sever the pair"
            );
        }
    }

    #[test]
    fn stale_address_fault_pins_the_first_posting() {
        use mm_core::strategies::HashLocate;
        let n = 16;
        let mut eng =
            ShotgunEngine::new(gen::complete(n), HashLocate::new(n, 2), CostModel::Uniform);
        let p = port("svc");
        let replicas = eng.resolver().rendezvous_nodes(p);
        for &r in &replicas {
            eng.set_fault(r, FaultProfile::StaleAddress);
        }
        eng.register_server(NodeId::new(2), p);
        eng.run();
        eng.migrate_server(p, NodeId::new(2), NodeId::new(13));
        eng.run();
        let h = eng.locate(NodeId::new(5), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Found { addr, dissent, .. } => {
                assert_eq!(
                    addr,
                    NodeId::new(2),
                    "pinned first posting survives the migration"
                );
                assert_eq!(
                    dissent, 0,
                    "unanimous staleness is undetectable by cross-check"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hops_model_costs_more_on_sparse_graphs() {
        let n = 16;
        let run = |cost| {
            let g = gen::ring(n);
            let mut eng = ShotgunEngine::new(g, Checkerboard::new(n), cost);
            let p = port("svc");
            eng.register_server(NodeId::new(0), p);
            eng.run();
            let h = eng.locate(NodeId::new(8), p);
            eng.run();
            assert!(eng.outcome(h).is_complete());
            eng.metrics().message_passes
        };
        assert!(
            run(CostModel::Hops) > run(CostModel::Uniform),
            "store-and-forward overhead must show up on a ring"
        );
    }
}
