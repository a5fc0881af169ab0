//! The simulator-backed scenario runner: compiles a [`Workload`] into
//! simulator injections and drives a [`ServiceNet`]/[`ShotgunEngine`]
//! open-loop to the horizon.
//!
//! The runner is the missing layer between the protocols and the
//! benchmarks: the paper (and the E1–E18 harness) measures one locate at a
//! time on an otherwise silent network, while [`ScenarioRunner`] sustains
//! concurrent load — arrivals do not wait for earlier operations, churn
//! fires on schedule, and servers refresh their postings while clients
//! keep querying. Per-[`crate::Phase`] metrics come out as
//! [`PhaseReport`]s (throughput, passes per locate, hit rate, node-load
//! percentiles, staleness recoveries), byte-identically reproducible for
//! equal seeds. The same specs run unchanged on the threaded runtime via
//! [`crate::live_runner::LiveScenarioRunner`]; the report schema and the
//! timeline compilation are shared ([`crate::report`],
//! [`crate::timeline`]) so the two runtimes are differential-testable.

use crate::clients::{ClientPool, OpDriver};
use crate::observe::{
    emit_fault_span, emit_locate_spans, emit_post_spans, emit_request_span, finish_trace,
    observe_locate, virtual_elapsed,
};
use crate::report::{
    build_closed_loop, build_phase_report, classify_hit, predict_passes_per_locate, Acc,
    RobustnessReport,
};
use crate::spec::{ChurnAction, Workload};
use crate::timeline::{draw_arrival, resolve_churn, Event, ResolvedChurn, Timeline};
use crate::traffic::PopularitySampler;
use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_obs::{Registry, TraceConfig, TraceFile, Tracer, HIST_BUCKETS};
use mm_proto::service::ServiceNet;
use mm_proto::shotgun::RequestOutcome;
use mm_proto::{FaultProfile, LocateHandle, LocateOutcome, ShotgunEngine};
use mm_sim::{CostModel, QueueKind, RouterKind, ShardMode, SimTime};
use mm_topo::{Graph, NodeId, Router as _};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

pub use crate::report::{LocateRecord, LocateVerdict, PhaseReport, ScenarioReport};

/// An in-flight client operation awaiting its verdict.
#[derive(Debug)]
enum Op {
    Locate {
        handle: LocateHandle,
        port_idx: usize,
        issued_at: SimTime,
        /// Position in the deterministic arrival sequence; `None` for
        /// stale-recovery retries (which are timing-dependent and thus
        /// excluded from the cross-runtime operation log).
        arrival: Option<u64>,
        /// This locate is the retry after a stale request bounce.
        retry: bool,
        /// Causal-trace id allocated at dispatch; `None` when tracing is
        /// off or the operation is an untraced stale-recovery retry.
        trace: Option<u64>,
    },
    Request {
        client: NodeId,
        request_id: u64,
        port_idx: usize,
        issued_at: SimTime,
        /// This request follows a stale-retry locate; don't retry again.
        after_retry: bool,
    },
}

/// The simulator's [`OpDriver`]: issues locates into the engine and polls
/// their outcomes, translating engine time (offset by `t0`) to the spec's
/// virtual clock. The engine reports the *exact* completion tick
/// (`issued + elapsed`), so per-tick polling never skews latency
/// accounting.
struct SimDriver<'a, PM: PortMapped> {
    net: &'a mut ServiceNet<PM>,
    ports: &'a [Port],
    homes: &'a [NodeId],
    /// Byzantine ground truth: `liars[v]` iff node `v` forges addresses.
    liars: &'a [bool],
    /// Hostile-world client policy: act on the best partial answer once
    /// the timeout fires instead of writing the operation off.
    salvage: bool,
    t0: SimTime,
    op_timeout: SimTime,
    tracer: &'a mut Option<Tracer>,
    registry: &'a mut Option<Registry>,
    /// Observability side table, engine locate id → (trace id, port
    /// index). The pool polls without the port, and the simulator only
    /// learns the verdict at poll time, so dispatch-time facts ride here
    /// until the unique successful poll emits the spans.
    traced: &'a mut HashMap<u64, (Option<u64>, usize)>,
}

impl<PM: PortMapped> OpDriver for SimDriver<'_, PM> {
    fn issue(&mut self, _now: SimTime, client: NodeId, port_idx: usize) -> (u64, Option<SimTime>) {
        let handle = self.net.engine_mut().locate(client, self.ports[port_idx]);
        if self.tracer.is_some() || self.registry.is_some() {
            // allocated inside the shared pool code path, so the live
            // driver allocates the identical id for the identical attempt
            let trace = self.tracer.as_mut().map(Tracer::next_trace_id);
            self.traced.insert(handle.id, (trace, port_idx));
        }
        // no wake-up hint: the verdict tick is only knowable by polling
        (handle.id, None)
    }

    fn poll(
        &mut self,
        client: NodeId,
        token: u64,
        issued: SimTime,
        now: SimTime,
        port_idx: usize,
    ) -> Option<(LocateVerdict, Option<NodeId>, SimTime)> {
        // idempotent: make sure every event due at `now` has executed
        // (an operation issued this tick may complete this tick)
        self.net.engine_mut().run_until(self.t0 + now);
        let outcome = self
            .net
            .engine()
            .outcome(LocateHandle { client, id: token });
        let (result, meets) = match outcome {
            LocateOutcome::Found {
                addr,
                elapsed,
                meets,
                dissent,
                ..
            } => {
                let verdict = classify_hit(addr, self.homes[port_idx], dissent, self.liars);
                (Some((verdict, Some(addr), issued + elapsed)), meets)
            }
            LocateOutcome::NotFound { elapsed } => (
                Some((LocateVerdict::Miss, None, issued + elapsed)),
                Vec::new(),
            ),
            LocateOutcome::Unresolved { best, dissent, .. } => (
                (now.saturating_sub(issued) >= self.op_timeout).then(|| {
                    match best.filter(|_| self.salvage) {
                        // hostile-world clients salvage the best partial
                        // answer at timeout (and still run lie detection)
                        Some((addr, _)) => (
                            classify_hit(addr, self.homes[port_idx], dissent, self.liars),
                            Some(addr),
                            issued + self.op_timeout,
                        ),
                        None => (LocateVerdict::Unresolved, None, issued + self.op_timeout),
                    }
                }),
                Vec::new(),
            ),
        };
        if let Some((verdict, _, completed)) = result {
            // the pool reads each verdict exactly once; emit here
            if let Some((trace, port_idx)) = self.traced.remove(&token) {
                let targets = self
                    .net
                    .engine_mut()
                    .query_targets(client, self.ports[port_idx]);
                let solo = targets.len() == 1 && targets.contains(client);
                // a salvaged verdict waited out the full timeout; the
                // virtual law only knows decisive completions
                let elapsed = if completed - issued >= self.op_timeout
                    && verdict != LocateVerdict::Unresolved
                {
                    self.op_timeout
                } else {
                    virtual_elapsed(solo, verdict, self.op_timeout)
                };
                if let Some(reg) = self.registry.as_mut() {
                    observe_locate(reg, verdict, elapsed, targets.len(), meets.len());
                }
                if let (Some(tr), Some(trace)) = (self.tracer.as_mut(), trace) {
                    emit_locate_spans(
                        tr, trace, client, port_idx, &targets, &meets, verdict, elapsed, issued,
                    );
                }
            }
        }
        result
    }

    fn home(&self, port_idx: usize) -> NodeId {
        self.homes[port_idx]
    }
}

/// Drives one [`Workload`] against one `topology × strategy × cost model`
/// instance and produces a [`ScenarioReport`].
#[derive(Debug)]
pub struct ScenarioRunner<PM: PortMapped> {
    net: ServiceNet<PM>,
    spec: Workload,
    rng: StdRng,
    sampler: PopularitySampler,
    /// Port handles, index-aligned with the spec's port space.
    ports: Vec<Port>,
    /// Current true server address per port.
    homes: Vec<NodeId>,
    /// Runner-side crash view (mirrors the simulator).
    crashed: Vec<bool>,
    /// Byzantine ground truth for verdict classification: `liars[v]` iff
    /// the spec gives node `v` a forging fault profile.
    liars: Vec<bool>,
    /// Emit the §2.4 robustness block (auto-on for hostile specs).
    robust: bool,
    /// Replication factor echoed in the robustness block (1 = base).
    replication: u64,
    /// Lowest sampled alive-pair survival fraction seen after any crash.
    min_survival: f64,
    /// Currently-live nodes, ascending — kept incrementally in sync with
    /// `crashed` so the per-arrival client draw is O(log n), not O(n).
    live: Vec<NodeId>,
    in_flight: Vec<Op>,
    acc: Acc,
    /// Per-operation verdict log for the cross-runtime conformance suite.
    op_log: Vec<LocateRecord>,
    next_arrival: u64,
    /// Offset between spec-relative time and simulator time (setup
    /// posting settles during the offset window).
    t0: SimTime,
    /// Client timeout actually used: the spec's `op_timeout` under the
    /// uniform cost model, stretched to cover a store-and-forward
    /// round trip (≈ 2·diameter) under [`CostModel::Hops`] — otherwise
    /// healthy slow answers on sparse topologies would be misreported
    /// as unresolved.
    op_timeout: SimTime,
    strategy: String,
    topology: String,
    cost_label: String,
    /// Deterministic causal tracer (`None` = tracing off, the default).
    tracer: Option<Tracer>,
    /// Metrics registry (`None` = observability off, the default).
    registry: Option<Registry>,
    /// Measure wall-clock events/sec per phase into the report.
    wallclock: bool,
    /// Echo of the trace config's sampling rate for the file header.
    sample_rate: f64,
    /// Closed-loop observability side table (see [`SimDriver::traced`]).
    traced: HashMap<u64, (Option<u64>, usize)>,
}

impl<PM: PortMapped> ScenarioRunner<PM> {
    /// Builds a runner for `spec` over `graph` with `resolver` as the
    /// match-making strategy. `strategy` is the label echoed in reports.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Workload::validate`] or the resolver
    /// universe differs from the graph size.
    pub fn new(
        spec: Workload,
        graph: Graph,
        resolver: PM,
        cost_model: CostModel,
        strategy: &str,
    ) -> Self {
        Self::with_queue(
            spec,
            graph,
            resolver,
            cost_model,
            strategy,
            QueueKind::Calendar,
        )
    }

    /// Like [`ScenarioRunner::new`] with an explicit simulator event-queue
    /// implementation — the determinism suite runs the same scenario
    /// through the calendar queue and the `BTreeMap` reference and
    /// asserts byte-identical reports.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Workload::validate`] or the resolver
    /// universe differs from the graph size.
    pub fn with_queue(
        spec: Workload,
        graph: Graph,
        resolver: PM,
        cost_model: CostModel,
        strategy: &str,
        queue: QueueKind,
    ) -> Self {
        Self::with_router(
            spec,
            graph,
            resolver,
            cost_model,
            strategy,
            queue,
            ShardMode::Single,
            RouterKind::Auto,
        )
    }

    /// Like [`ScenarioRunner::with_queue`] with an explicit routing
    /// backend (see [`RouterKind`]): analytic closed-form routers for the
    /// structured families versus the O(n²) table oracle, byte-identical
    /// reports either way — the router conformance suite enforces it.
    /// `ShardMode` has the single variant [`ShardMode::Single`] and
    /// changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Workload::validate`], the resolver
    /// universe differs from the graph size, or `router` is
    /// `RouterKind::Analytic` on a non-structured graph.
    #[allow(clippy::too_many_arguments)]
    pub fn with_router(
        spec: Workload,
        graph: Graph,
        resolver: PM,
        cost_model: CostModel,
        strategy: &str,
        queue: QueueKind,
        _mode: ShardMode,
        router: RouterKind,
    ) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid workload {:?}: {e}", spec.name);
        }
        let n = graph.node_count();
        assert!(n > 0, "empty graph");
        assert!(
            spec.faults.iter().all(|f| f.node_index < n),
            "fault node_index out of range for n = {n}"
        );
        let mut liars = vec![false; n];
        for f in &spec.faults {
            if f.fault == FaultProfile::ForgedAddress {
                liars[f.node_index] = true;
            }
        }
        let topology = graph.name().to_string();
        let sampler = PopularitySampler::new(spec.ports, spec.popularity);
        let net = ServiceNet::with_router(graph, resolver, cost_model, queue, router);
        let op_timeout = match net.engine().sim().routing() {
            // double-sweep estimate of the diameter via the router:
            // eccentricity of node 0, then of the farthest node
            Some(rt) => {
                let ecc = |from: NodeId| -> (NodeId, u32) {
                    (0..n)
                        .map(NodeId::from)
                        .map(|v| (v, rt.distance(from, v).unwrap_or(0)))
                        .max_by_key(|&(_, d)| d)
                        .expect("nonempty graph")
                };
                let (far, _) = ecc(NodeId::new(0));
                let (_, diameter) = ecc(far);
                // 2·diameter covers query + reply; the spec's timeout is
                // kept as slack for the double-sweep underestimate
                spec.op_timeout
                    .max(2 * diameter as SimTime + spec.op_timeout)
            }
            None => spec.op_timeout,
        };
        ScenarioRunner {
            rng: StdRng::seed_from_u64(spec.seed),
            sampler,
            ports: (0..spec.ports)
                .map(|i| Port::from_name(&format!("svc-{i}")))
                .collect(),
            homes: Vec::new(),
            crashed: vec![false; n],
            liars,
            robust: spec.hostile(),
            replication: 1,
            min_survival: 1.0,
            live: (0..n).map(NodeId::from).collect(),
            in_flight: Vec::new(),
            acc: Acc::default(),
            op_log: Vec::new(),
            next_arrival: 0,
            t0: op_timeout,
            op_timeout,
            strategy: strategy.to_string(),
            topology,
            cost_label: match cost_model {
                CostModel::Uniform => "uniform".to_string(),
                CostModel::Hops => "hops".to_string(),
            },
            tracer: None,
            registry: None,
            wallclock: false,
            sample_rate: 1.0,
            traced: HashMap::new(),
            spec,
            net,
        }
    }

    /// Enables deterministic causal tracing: every workload operation
    /// gets a trace id at dispatch and its fan-out becomes span records.
    /// Collect the sealed file with [`ScenarioRunner::run_traced`].
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.sample_rate = cfg.sample_rate.clamp(0.0, 1.0);
        self.tracer = Some(Tracer::new(cfg));
    }

    /// Enables the metrics registry: per-phase counter/histogram
    /// snapshots appear under the report's `obs` key.
    pub fn enable_obs(&mut self) {
        self.registry = Some(Registry::new());
    }

    /// Enables wall-clock events/sec measurement per phase (host-speed
    /// dependent, so never part of any byte-identity contract).
    pub fn enable_throughput(&mut self) {
        self.wallclock = true;
    }

    /// Forces the §2.4 robustness block into the report (hostile specs
    /// enable it automatically); `replication` is echoed as the factor of
    /// the arrangement under test (1 = base).
    pub fn enable_robustness(&mut self, replication: u64) {
        self.robust = true;
        self.replication = replication.max(1);
    }

    /// Installs the spec's Byzantine fault profiles — before any posting,
    /// so the world is hostile from tick 0 (a stale-address fault pins the
    /// *setup* posting). Hostile traces get one `fault` span per profile
    /// ahead of the setup-post trees.
    fn apply_faults(&mut self) {
        let faults = self.spec.faults.clone();
        for f in &faults {
            let node = NodeId::from(f.node_index);
            self.eng().set_fault(node, f.fault);
            if let Some(tr) = self.tracer.as_mut() {
                let trace = tr.next_trace_id();
                emit_fault_span(tr, trace, node, f.fault.label());
            }
        }
    }

    /// Folds the current crash pattern into the run's minimum sampled
    /// survival fraction (robustness reporting only).
    fn observe_survival(&mut self) {
        if self.robust {
            let sf = mm_core::robust::survival_fraction_pm(
                self.net.engine().resolver(),
                &self.ports,
                &self.crashed,
                64,
            );
            self.min_survival = self.min_survival.min(sf);
        }
    }

    /// Like [`ScenarioRunner::run`], additionally returning the sealed
    /// trace file when [`ScenarioRunner::set_trace`] was called.
    pub fn run_traced(self) -> (ScenarioReport, Option<TraceFile>) {
        let (report, _, trace) = self.run_all();
        (report, trace)
    }

    fn eng(&mut self) -> &mut ShotgunEngine<PM> {
        self.net.engine_mut()
    }

    fn n(&self) -> usize {
        self.crashed.len()
    }

    fn crash_node(&mut self, v: NodeId) {
        debug_assert!(!self.crashed[v.index()]);
        self.crashed[v.index()] = true;
        if let Ok(pos) = self.live.binary_search(&v) {
            self.live.remove(pos);
        }
        self.eng().crash(v);
    }

    fn restore_node(&mut self, v: NodeId, clear_cache: bool) {
        debug_assert!(self.crashed[v.index()]);
        self.crashed[v.index()] = false;
        if let Err(pos) = self.live.binary_search(&v) {
            self.live.insert(pos, v);
        }
        self.eng().restore(v);
        if clear_cache {
            self.eng().clear_cache(v);
        }
    }

    /// Runs the scenario to its horizon and reports.
    pub fn run(self) -> ScenarioReport {
        self.run_logged().0
    }

    /// Like [`ScenarioRunner::run`], additionally returning the
    /// per-operation verdict log (one [`LocateRecord`] per primary
    /// arrival, in arrival order) for cross-runtime conformance checks.
    pub fn run_logged(self) -> (ScenarioReport, Vec<LocateRecord>) {
        let (report, log, _) = self.run_all();
        (report, log)
    }

    /// Emits the setup-post causal trees (trace ids `0..ports`, virtual
    /// tick 0) once the homes are placed.
    fn trace_setup_posts(&mut self) {
        if self.tracer.is_none() {
            return;
        }
        for i in 0..self.spec.ports {
            let home = self.homes[i];
            let targets = self.net.engine_mut().post_targets(home, self.ports[i]);
            let tr = self.tracer.as_mut().expect("checked above");
            let trace = tr.next_trace_id();
            emit_post_spans(tr, trace, home, i, &targets, 0);
        }
    }

    /// Copies the simulator's cumulative queue-depth histogram when the
    /// registry wants per-phase deltas.
    fn queue_depth_snapshot(&self) -> Option<[u64; HIST_BUCKETS]> {
        self.registry
            .as_ref()
            .map(|_| *self.net.engine().sim().queue_depth_buckets())
    }

    /// Finishes a phase's observability: wall-clock throughput and the
    /// registry snapshot (with the phase's queue-depth bucket delta).
    fn finish_phase_obs(
        &mut self,
        report: &mut PhaseReport,
        events_delta: u64,
        wall: Instant,
        qd_before: Option<[u64; HIST_BUCKETS]>,
    ) {
        if self.wallclock {
            let secs = wall.elapsed().as_secs_f64();
            report.throughput = Some(if secs > 0.0 {
                events_delta as f64 / secs
            } else {
                0.0
            });
        }
        if let Some(reg) = self.registry.as_mut() {
            if let Some(before) = qd_before {
                let now = *self.net.engine().sim().queue_depth_buckets();
                let mut delta = [0u64; HIST_BUCKETS];
                for (d, (a, b)) in delta.iter_mut().zip(now.iter().zip(before.iter())) {
                    *d = a - b;
                }
                reg.observe_buckets("queue_depth", &delta);
            }
            report.obs = Some(reg.snapshot_and_reset());
        }
    }

    /// Seals the tracer (when present) with the run's cumulative metrics.
    fn seal_trace(&mut self) -> Option<TraceFile> {
        let totals = self.net.engine().metrics().clone();
        finish_trace(
            self.tracer.take(),
            &self.spec.name,
            &self.strategy,
            self.n() as u64,
            self.spec.seed,
            self.spec.ports as u64,
            self.sample_rate,
            totals.sends,
            totals.message_passes,
        )
    }

    /// The single execution path behind [`ScenarioRunner::run`] /
    /// [`ScenarioRunner::run_logged`] / [`ScenarioRunner::run_traced`].
    fn run_all(mut self) -> (ScenarioReport, Vec<LocateRecord>, Option<TraceFile>) {
        if self.spec.clients.is_some() {
            return self.run_logged_closed();
        }
        let predicted =
            predict_passes_per_locate(self.net.engine().resolver(), self.n(), &self.ports);

        // --- setup: install faults, place one server per port, settle ---
        self.apply_faults();
        for i in 0..self.spec.ports {
            let home = NodeId::from(self.rng.gen_range(0..self.n()));
            self.homes.push(home);
            let port = self.ports[i];
            self.eng().register_server(home, port);
        }
        self.trace_setup_posts();
        let t0 = self.t0;
        self.eng().run_until(t0);

        // --- compile the spec into a merged, sorted event timeline ---
        // Arrival draws happen in phase order before the run so the RNG
        // consumption order is part of the spec's deterministic contract.
        let timeline = Timeline::compile(&self.spec, &mut self.rng);

        // --- drive the engine phase by phase ---
        let mut reports = Vec::with_capacity(timeline.phase_bounds.len());
        let mut next = 0usize;
        let last = timeline.phase_bounds.len() - 1;
        for (pi, (start, end, name)) in timeline.phase_bounds.iter().enumerate() {
            let before = self.net.engine().metrics().clone();
            let wall = Instant::now();
            let qd_before = self.queue_depth_snapshot();
            self.acc = Acc::default();
            while next < timeline.events.len() && timeline.events[next].0 < *end {
                let (t, ev) = timeline.events[next].clone();
                next += 1;
                self.eng().run_until(t0 + t);
                self.drain(t0 + t, false);
                self.apply(t, ev);
            }
            // close the phase; the final phase also absorbs the drain
            // window so straggling operations get their verdict
            let close = if pi == last {
                t0 + end + self.op_timeout
            } else {
                t0 + end
            };
            self.eng().run_until(close);
            self.drain(close, pi == last);
            let after = self.net.engine().metrics().clone();
            let delta = after.delta(&before);
            let mut report =
                build_phase_report(name, *start, *end, &self.acc, &delta, self.spec.hostile());
            self.finish_phase_obs(&mut report, delta.events_executed, wall, qd_before);
            reports.push(report);
        }

        let trace = self.seal_trace();
        let report = self.assemble(None, timeline.horizon, predicted, reports, None);
        let mut log = std::mem::take(&mut self.op_log);
        log.sort_by_key(|r| r.arrival);
        (report, log, trace)
    }

    /// The closed-loop twin of [`ScenarioRunner::run_logged`]: timeline
    /// arrivals are *offered* to a [`ClientPool`] instead of being issued
    /// on the spot, and the runner's event loop interleaves timeline
    /// events with the pool's wake-ups (verdict polls, retry backoffs,
    /// think-pause expiries) in virtual-time order. The pool makes every
    /// random decision, so the live runner — which drives the identical
    /// pool code — consumes the RNG in the same order.
    fn run_logged_closed(mut self) -> (ScenarioReport, Vec<LocateRecord>, Option<TraceFile>) {
        let predicted =
            predict_passes_per_locate(self.net.engine().resolver(), self.n(), &self.ports);
        self.apply_faults();
        for i in 0..self.spec.ports {
            let home = NodeId::from(self.rng.gen_range(0..self.n()));
            self.homes.push(home);
            let port = self.ports[i];
            self.eng().register_server(home, port);
        }
        self.trace_setup_posts();
        let t0 = self.t0;
        self.eng().run_until(t0);

        let timeline = Timeline::compile(&self.spec, &mut self.rng);
        let model = self.spec.clients.expect("closed-loop path");
        let mut pool = ClientPool::new(model);
        let horizon = timeline.horizon;

        let mut reports = Vec::with_capacity(timeline.phase_bounds.len());
        let mut next = 0usize;
        let last = timeline.phase_bounds.len() - 1;
        for (pi, (start, end, name)) in timeline.phase_bounds.iter().enumerate() {
            let before = self.net.engine().metrics().clone();
            let wall = Instant::now();
            let qd_before = self.queue_depth_snapshot();
            self.acc = Acc::default();
            loop {
                let ev_t = timeline.events.get(next).map(|e| e.0).filter(|t| t < end);
                let pool_t = pool.next_wakeup().filter(|t| t < end);
                let t = match (ev_t, pool_t) {
                    (None, None) => break,
                    (a, b) => a.into_iter().chain(b).min().expect("one is Some"),
                };
                self.eng().run_until(t0 + t);
                // verdicts are read before the world reshapes at the same
                // tick (the drain-before-apply discipline of the open loop)
                self.service_pool(&mut pool, t);
                while next < timeline.events.len() && timeline.events[next].0 == t {
                    let (_, ev) = timeline.events[next].clone();
                    next += 1;
                    match ev {
                        Event::Arrival => {
                            let arrival = self.next_arrival;
                            self.next_arrival += 1;
                            pool.offer(t, arrival);
                        }
                        Event::Refresh => self.refresh_all(t),
                        Event::Churn(action) => self.apply_churn(t, action),
                    }
                }
                // dispatch whatever this tick freed or offered
                self.service_pool(&mut pool, t);
            }
            // run in-phase message chains to the boundary so the metrics
            // snapshot charges them to this phase (passes are counted at
            // send time, which is ≤ the boundary for in-phase issues)
            self.eng().run_until(t0 + *end);
            if pi == last {
                // horizon: stop dispatching and retrying, drain verdicts
                pool.freeze();
                let drain_end = horizon + self.op_timeout;
                while let Some(t) = pool.next_wakeup().filter(|&t| t <= drain_end) {
                    self.eng().run_until(t0 + t);
                    self.service_pool(&mut pool, t);
                }
                self.eng().run_until(t0 + drain_end);
            }
            let after = self.net.engine().metrics().clone();
            let delta = after.delta(&before);
            let mut report =
                build_phase_report(name, *start, *end, &self.acc, &delta, self.spec.hostile());
            self.finish_phase_obs(&mut report, delta.events_executed, wall, qd_before);
            reports.push(report);
        }

        let records = pool.into_records();
        let (phase_stats, windows) =
            build_closed_loop(&records, &timeline.phase_bounds, horizon, model.window);
        for (report, stats) in reports.iter_mut().zip(phase_stats) {
            report.closed_loop = Some(stats);
        }
        let trace = self.seal_trace();
        let report = self.assemble(
            Some(model.clients as u64),
            horizon,
            predicted,
            reports,
            Some(windows),
        );
        let mut log = std::mem::take(&mut self.op_log);
        log.sort_by_key(|r| r.arrival);
        (report, log, trace)
    }

    /// One [`ClientPool::service`] call with this runner's engine behind
    /// the [`OpDriver`] seam.
    fn service_pool(&mut self, pool: &mut ClientPool, now: SimTime) {
        let mut driver = SimDriver {
            net: &mut self.net,
            ports: &self.ports,
            homes: &self.homes,
            liars: &self.liars,
            salvage: self.spec.hostile(),
            t0: self.t0,
            op_timeout: self.op_timeout,
            tracer: &mut self.tracer,
            registry: &mut self.registry,
            traced: &mut self.traced,
        };
        pool.service(
            now,
            &mut driver,
            &mut self.rng,
            &self.live,
            &self.sampler,
            &mut self.acc,
            &mut self.op_log,
        );
    }

    /// Assembles the scenario-level report envelope.
    fn assemble(
        &self,
        clients: Option<u64>,
        horizon: SimTime,
        predicted: f64,
        phases: Vec<PhaseReport>,
        windows: Option<Vec<crate::report::WindowReport>>,
    ) -> ScenarioReport {
        ScenarioReport {
            scenario: self.spec.name.clone(),
            strategy: self.strategy.clone(),
            cost_model: self.cost_label.clone(),
            topology: self.topology.clone(),
            n: self.n() as u64,
            seed: self.spec.seed,
            ports: self.spec.ports as u64,
            clients,
            horizon,
            predicted_passes_per_locate: predicted,
            phases,
            windows,
            robustness: self.robust.then(|| RobustnessReport {
                max_tolerated_faults: mm_core::robust::max_tolerated_faults_pm(
                    self.net.engine().resolver(),
                    &self.ports,
                    64,
                ) as u64,
                min_survival_fraction: self.min_survival,
                byzantine_nodes: self.spec.faults.len() as u64,
                replication: self.replication,
            }),
        }
    }

    /// Applies one timeline event at the current simulated time. All
    /// random draws go through the shared decision layer
    /// ([`draw_arrival`]/[`resolve_churn`]) so the RNG-consumption order
    /// is provably identical to the live runner's.
    fn apply(&mut self, t: SimTime, ev: Event) {
        match ev {
            Event::Arrival => {
                let Some((client, port_idx)) =
                    draw_arrival(&mut self.rng, &self.live, &self.sampler)
                else {
                    return; // total outage: the open-loop client is dead too
                };
                let port = self.ports[port_idx];
                let issued_at = self.net.engine().now();
                let handle = self.eng().locate(client, port);
                let arrival = self.next_arrival;
                self.next_arrival += 1;
                // trace ids bind to spec-level arrivals at dispatch, in
                // timeline order — the same order the live runner sees
                let trace = self.tracer.as_mut().map(Tracer::next_trace_id);
                self.in_flight.push(Op::Locate {
                    handle,
                    port_idx,
                    issued_at,
                    arrival: Some(arrival),
                    retry: false,
                    trace,
                });
                self.acc.issued += 1;
            }
            Event::Refresh => self.refresh_all(t),
            Event::Churn(action) => self.apply_churn(t, action),
        }
    }

    fn refresh_all(&mut self, t: SimTime) {
        for i in 0..self.homes.len() {
            let home = self.homes[i];
            if !self.crashed[home.index()] {
                let port = self.ports[i];
                self.eng().register_server(home, port);
                if let Some(tr) = self.tracer.as_mut() {
                    let targets = self.net.engine_mut().post_targets(home, port);
                    let trace = tr.next_trace_id();
                    emit_post_spans(tr, trace, home, i, &targets, t);
                }
            }
        }
    }

    fn apply_churn(&mut self, t: SimTime, action: ChurnAction) {
        let resolved = resolve_churn(
            &action,
            &mut self.rng,
            &self.live,
            &self.crashed,
            &self.homes,
        );
        let mut any_crash = false;
        for r in resolved {
            match r {
                ResolvedChurn::Crash(v) => {
                    any_crash = true;
                    self.crash_node(v)
                }
                ResolvedChurn::Restore { node, clear_cache } => {
                    self.restore_node(node, clear_cache)
                }
                ResolvedChurn::Migrate { port_idx, from, to } => {
                    let port = self.ports[port_idx];
                    self.eng().migrate_server(port, from, to);
                    self.homes[port_idx] = to;
                }
                ResolvedChurn::ClearAllCaches => {
                    for vi in 0..self.n() {
                        self.eng().clear_cache(NodeId::from(vi));
                    }
                }
                ResolvedChurn::RefreshAll => self.refresh_all(t),
            }
        }
        if any_crash {
            self.observe_survival();
        }
    }

    fn record(
        &mut self,
        arrival: Option<u64>,
        handle: LocateHandle,
        port_idx: usize,
        issued_at: SimTime,
        verdict: LocateVerdict,
        addr: Option<NodeId>,
    ) {
        if let Some(arrival) = arrival {
            self.op_log.push(LocateRecord {
                arrival,
                at: issued_at - self.t0,
                client: handle.client,
                port_idx,
                verdict,
                addr,
            });
        }
    }

    /// Feeds one classified locate into the tracer/registry using the
    /// virtual-timing law (never engine clocks — the trace must be
    /// byte-identical to the live runtime's). Returns the virtual elapsed
    /// and fan-out width for the follow-up request span.
    #[allow(clippy::too_many_arguments)]
    fn observe_locate_verdict(
        &mut self,
        trace: Option<u64>,
        client: NodeId,
        port_idx: usize,
        issued_spec: SimTime,
        verdict: LocateVerdict,
        meets: &[NodeId],
        salvaged: bool,
    ) -> (u64, u32) {
        if self.tracer.is_none() && self.registry.is_none() {
            return (0, 0);
        }
        let targets = self
            .net
            .engine_mut()
            .query_targets(client, self.ports[port_idx]);
        let solo = targets.len() == 1 && targets.contains(client);
        // a salvaged verdict was decided by the client's own timeout, not
        // by the slowest reply — its elapsed is the full wait
        let elapsed = if salvaged {
            self.op_timeout
        } else {
            virtual_elapsed(solo, verdict, self.op_timeout)
        };
        if let Some(reg) = self.registry.as_mut() {
            observe_locate(reg, verdict, elapsed, targets.len(), meets.len());
        }
        if let (Some(tr), Some(trace)) = (self.tracer.as_mut(), trace) {
            emit_locate_spans(
                tr,
                trace,
                client,
                port_idx,
                &targets,
                meets,
                verdict,
                elapsed,
                issued_spec,
            );
        }
        (elapsed, targets.len() as u32)
    }

    /// Classifies finished in-flight operations; `force` settles
    /// everything still pending (end of scenario).
    fn drain(&mut self, now: SimTime, force: bool) {
        /// A request to issue once the classification pass is done (the
        /// pass holds the engine immutably; issuing needs it mutably).
        struct Followup {
            client: NodeId,
            addr: NodeId,
            port_idx: usize,
            after_retry: bool,
            /// `(trace id, request-issue tick, locate fan-out)` when the
            /// parent locate was traced.
            trace_info: Option<(u64, SimTime, u32)>,
        }
        let mut requests: Vec<Followup> = Vec::new();
        let mut relocates: Vec<(NodeId, usize)> = Vec::new();
        let ops = std::mem::take(&mut self.in_flight);
        let mut keep = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                Op::Locate {
                    handle,
                    port_idx,
                    issued_at,
                    arrival,
                    retry,
                    trace,
                } => match self.net.engine().outcome(handle) {
                    LocateOutcome::Found {
                        addr,
                        meets,
                        dissent,
                        ..
                    } => {
                        self.acc.completed += 1;
                        let fresh = addr == self.homes[port_idx];
                        let verdict =
                            classify_hit(addr, self.homes[port_idx], dissent, &self.liars);
                        self.record(arrival, handle, port_idx, issued_at, verdict, Some(addr));
                        let issued_spec = issued_at - self.t0;
                        let (elapsed, fanout) = self.observe_locate_verdict(
                            trace,
                            handle.client,
                            port_idx,
                            issued_spec,
                            verdict,
                            &meets,
                            false,
                        );
                        match verdict {
                            LocateVerdict::Hit => {
                                self.acc.hits += 1;
                                if !fresh {
                                    self.acc.stale_results += 1;
                                }
                                if retry && fresh {
                                    self.acc.recoveries += 1;
                                }
                            }
                            LocateVerdict::DetectedLie => {
                                // the dissenting honest answer exposed the
                                // forgery: the client discards the address
                                // and never calls it
                                self.acc.detected_lie += 1;
                            }
                            LocateVerdict::FalseMatch => {
                                // the forgery escaped; the follow-up call
                                // below bounces off the non-serving liar
                                // and the §1.3 loop re-locates
                                self.acc.false_match += 1;
                            }
                            _ => unreachable!("classify_hit never yields {verdict:?}"),
                        }
                        if self.spec.request_after_locate && verdict != LocateVerdict::DetectedLie {
                            requests.push(Followup {
                                client: handle.client,
                                addr,
                                port_idx,
                                after_retry: retry,
                                trace_info: trace.map(|tr| (tr, issued_spec + elapsed, fanout)),
                            });
                        }
                    }
                    LocateOutcome::NotFound { .. } => {
                        self.acc.completed += 1;
                        self.acc.misses += 1;
                        self.record(
                            arrival,
                            handle,
                            port_idx,
                            issued_at,
                            LocateVerdict::Miss,
                            None,
                        );
                        self.observe_locate_verdict(
                            trace,
                            handle.client,
                            port_idx,
                            issued_at - self.t0,
                            LocateVerdict::Miss,
                            &[],
                            false,
                        );
                    }
                    LocateOutcome::Unresolved { best, dissent, .. } => {
                        if force || now.saturating_sub(issued_at) >= self.op_timeout {
                            self.acc.completed += 1;
                            if let Some((addr, _)) = best.filter(|_| self.spec.hostile()) {
                                // hostile-world clients salvage the best
                                // partial answer at timeout: a crashed
                                // rendezvous must not sever an alive pair
                                // that a surviving replica still serves
                                // (§2.4) — and the salvaged address still
                                // runs the lie detection
                                let fresh = addr == self.homes[port_idx];
                                let verdict =
                                    classify_hit(addr, self.homes[port_idx], dissent, &self.liars);
                                self.record(
                                    arrival,
                                    handle,
                                    port_idx,
                                    issued_at,
                                    verdict,
                                    Some(addr),
                                );
                                self.observe_locate_verdict(
                                    trace,
                                    handle.client,
                                    port_idx,
                                    issued_at - self.t0,
                                    verdict,
                                    &[],
                                    true,
                                );
                                match verdict {
                                    LocateVerdict::Hit => {
                                        self.acc.hits += 1;
                                        if !fresh {
                                            self.acc.stale_results += 1;
                                        }
                                        if retry && fresh {
                                            self.acc.recoveries += 1;
                                        }
                                    }
                                    LocateVerdict::DetectedLie => self.acc.detected_lie += 1,
                                    LocateVerdict::FalseMatch => self.acc.false_match += 1,
                                    _ => unreachable!("classify_hit never yields {verdict:?}"),
                                }
                                if self.spec.request_after_locate
                                    && verdict != LocateVerdict::DetectedLie
                                {
                                    requests.push(Followup {
                                        client: handle.client,
                                        addr,
                                        port_idx,
                                        after_retry: retry,
                                        trace_info: trace.map(|tr| {
                                            (tr, issued_at - self.t0 + self.op_timeout, 0)
                                        }),
                                    });
                                }
                            } else {
                                self.acc.unresolved += 1;
                                self.record(
                                    arrival,
                                    handle,
                                    port_idx,
                                    issued_at,
                                    LocateVerdict::Unresolved,
                                    None,
                                );
                                self.observe_locate_verdict(
                                    trace,
                                    handle.client,
                                    port_idx,
                                    issued_at - self.t0,
                                    LocateVerdict::Unresolved,
                                    &[],
                                    false,
                                );
                            }
                        } else {
                            keep.push(Op::Locate {
                                handle,
                                port_idx,
                                issued_at,
                                arrival,
                                retry,
                                trace,
                            });
                        }
                    }
                },
                Op::Request {
                    client,
                    request_id,
                    port_idx,
                    issued_at,
                    after_retry,
                } => match self.net.engine().request_outcome(client, request_id) {
                    Some(RequestOutcome::Replied { .. }) => {
                        self.acc.requests_ok += 1;
                    }
                    Some(RequestOutcome::StaleAddress) => {
                        self.acc.stale_requests += 1;
                        if !after_retry {
                            // §1.3 recovery: re-locate and try again
                            relocates.push((client, port_idx));
                        }
                    }
                    None => {
                        if force || now.saturating_sub(issued_at) >= self.op_timeout {
                            self.acc.request_timeouts += 1;
                        } else {
                            keep.push(Op::Request {
                                client,
                                request_id,
                                port_idx,
                                issued_at,
                                after_retry,
                            });
                        }
                    }
                },
            }
        }
        // After the final forced drain the engine never steps again, so a
        // follow-up issued here could neither run nor be classified —
        // skip issuance rather than let tail operations vanish from the
        // accounting.
        if !force {
            for f in requests {
                let port = self.ports[f.port_idx];
                let issued = self.net.engine().now();
                let id = self.eng().request(f.client, f.addr, port, 1);
                if let Some((trace, tick, fanout)) = f.trace_info {
                    if let Some(tr) = self.tracer.as_mut() {
                        emit_request_span(
                            tr,
                            trace,
                            fanout + 1,
                            f.client,
                            f.addr,
                            f.port_idx,
                            tick,
                        );
                    }
                }
                keep.push(Op::Request {
                    client: f.client,
                    request_id: id,
                    port_idx: f.port_idx,
                    issued_at: issued,
                    after_retry: f.after_retry,
                });
            }
            for (client, port_idx) in relocates {
                let port = self.ports[port_idx];
                let issued = self.net.engine().now();
                let handle = self.eng().locate(client, port);
                // retries are locate operations too: count them as issued
                // so completed can never exceed issued within a phase
                self.acc.issued += 1;
                keep.push(Op::Locate {
                    handle,
                    port_idx,
                    issued_at: issued,
                    // stale-recovery retries are timing-dependent, so
                    // they stay out of the trace (conservation is only
                    // claimed on churn-free specs, which never retry)
                    arrival: None,
                    retry: true,
                    trace: None,
                });
            }
        }
        self.in_flight = keep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use mm_core::strategies::{Checkerboard, HashLocate};
    use mm_topo::gen;

    fn run_scenario(name: &str, n: usize, seed: u64) -> ScenarioReport {
        let spec = scenarios::by_name(name, n, seed).expect("library scenario");
        ScenarioRunner::new(
            spec,
            gen::complete(n),
            Checkerboard::new(n),
            CostModel::Uniform,
            "checkerboard",
        )
        .run()
    }

    #[test]
    fn steady_state_matches_theory_under_load() {
        let r = run_scenario("steady-state", 64, 7);
        assert_eq!(r.phases.len(), 3);
        assert!(r.hit_rate() > 0.99, "steady state hits: {}", r.hit_rate());
        // 2·sqrt(64) = 16 passes per warm locate; sustained load should
        // stay within a few percent of the single-shot theory
        assert!((r.predicted_passes_per_locate - 16.0).abs() < 1e-9);
        let measured = r.passes_per_locate();
        assert!(
            (measured / 16.0 - 1.0).abs() < 0.25,
            "passes per locate {measured} strays from prediction 16"
        );
        let recs = r.records();
        assert_eq!(recs.len(), 3, "one record per completed phase");
        assert!(recs.iter().all(|rec| rec.within_factor(1.5)));
    }

    /// Satellite requirement: two identical seeded workload runs produce
    /// byte-identical metrics (full JSON report equality).
    #[test]
    fn identical_seeds_are_byte_identical() {
        let a = run_scenario("rolling-churn", 64, 42);
        let b = run_scenario("rolling-churn", 64, 42);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "same seed must reproduce byte-identical JSON");
        let c = run_scenario("rolling-churn", 64, 43);
        let jc = serde_json::to_string(&c).unwrap();
        assert_ne!(ja, jc, "a different seed must actually change the run");
    }

    #[test]
    fn report_roundtrips_through_the_value_model() {
        let r = run_scenario("steady-state", 16, 3);
        let v = serde::Serialize::to_value(&r);
        let back: ScenarioReport = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn rolling_churn_degrades_then_recovers() {
        let r = run_scenario("rolling-churn", 64, 7);
        let by_name = |n: &str| {
            r.phases
                .iter()
                .find(|p| p.name == n)
                .unwrap_or_else(|| panic!("phase {n}"))
        };
        let churning = by_name("churning");
        let recovered = by_name("recovered");
        assert!(churning.crashes > 0, "churn must crash nodes");
        assert!(
            churning.unresolved > 0,
            "crashed rendezvous must leave timeouts"
        );
        assert!(churning.dropped > 0, "messages must die at crashed nodes");
        assert!(churning.hit_rate < 0.95);
        assert!(
            recovered.hit_rate > 0.99,
            "refresh must heal the caches: {}",
            recovered.hit_rate
        );
    }

    #[test]
    fn migration_under_load_heals_stale_addresses() {
        let r = run_scenario("migrate-under-load", 64, 7);
        let total_stale: u64 = r.phases.iter().map(|p| p.stale_requests).sum();
        let total_recovered: u64 = r.phases.iter().map(|p| p.staleness_recoveries).sum();
        let total_ok: u64 = r.phases.iter().map(|p| p.requests_ok).sum();
        assert!(
            total_stale > 0,
            "migrating under load must bounce some requests"
        );
        assert!(
            total_recovered > 0 && total_recovered <= total_stale,
            "recoveries ({total_recovered}) heal bounces ({total_stale})"
        );
        assert!(total_ok > 1000, "throughput is sustained through migration");
        assert_eq!(
            r.phases.iter().map(|p| p.request_timeouts).sum::<u64>(),
            0,
            "no server ever crashes in this scenario"
        );
    }

    #[test]
    fn cold_cache_misses_until_refresh_reposts() {
        let r = run_scenario("cold-vs-warm-cache", 64, 7);
        let warm = &r.phases[0];
        let cold = &r.phases[1];
        let rewarmed = &r.phases[2];
        assert!(warm.hit_rate > 0.99);
        assert!(
            cold.hit_rate < 0.2,
            "wiped caches must miss: {}",
            cold.hit_rate
        );
        assert!(cold.misses > 0);
        assert!(rewarmed.hit_rate > 0.99, "refresh re-posts everything");
    }

    #[test]
    fn flash_crowd_concentrates_rendezvous_load() {
        let r = run_scenario("flash-crowd", 64, 7);
        let calm = &r.phases[0];
        let spike = &r.phases[1];
        assert!(
            spike.throughput_per_kilotick > 4.0 * calm.throughput_per_kilotick,
            "the spike multiplies throughput"
        );
        assert!(
            spike.load_p99 > 2.0 * calm.load_p99,
            "hot-port rendezvous nodes absorb the crowd: calm p99 {} spike p99 {}",
            calm.load_p99,
            spike.load_p99
        );
        assert!(r.hit_rate() > 0.99);
    }

    #[test]
    fn hash_locate_runs_the_same_workload() {
        let n = 64;
        let spec = scenarios::steady_state(11);
        let r = ScenarioRunner::new(
            spec,
            gen::complete(n),
            HashLocate::new(n, 3),
            CostModel::Uniform,
            "hash",
        )
        .run();
        assert!(r.hit_rate() > 0.99);
        // Hash Locate queries r = 3 nodes: 2·3 = 6 passes per locate
        assert!((r.predicted_passes_per_locate - 6.0).abs() < 1e-9);
        assert!(r.passes_per_locate() < 16.0, "far cheaper than 2·sqrt(n)");
    }

    #[test]
    fn hops_cost_model_runs_on_sparse_topologies() {
        let n = 36;
        let spec = scenarios::steady_state(5);
        let r = ScenarioRunner::new(
            spec,
            gen::grid(6, 6, false),
            Checkerboard::new(n),
            CostModel::Hops,
            "checkerboard",
        )
        .run();
        assert_eq!(r.cost_model, "hops");
        assert!(r.hit_rate() > 0.9, "hit rate {}", r.hit_rate());
        // store-and-forward costs more than one pass per query
        assert!(r.passes_per_locate() > r.predicted_passes_per_locate);
    }

    #[test]
    fn quiet_phases_advance_the_clock() {
        use crate::spec::{ArrivalProcess, Phase, PortPopularity, Workload};
        let spec = Workload {
            name: "idle-gap".into(),
            seed: 1,
            ports: 1,
            popularity: PortPopularity::Uniform,
            phases: vec![
                Phase::new("busy", 100, ArrivalProcess::FixedRate { interval: 10 }),
                Phase::new("silent", 10_000, ArrivalProcess::Idle),
                Phase::new(
                    "busy-again",
                    100,
                    ArrivalProcess::FixedRate { interval: 10 },
                ),
            ],
            churn: vec![],
            refresh_interval: None,
            request_after_locate: false,
            op_timeout: 32,
            clients: None,
            faults: vec![],
        };
        let r = ScenarioRunner::new(
            spec,
            gen::complete(9),
            Checkerboard::new(9),
            CostModel::Uniform,
            "checkerboard",
        )
        .run();
        assert_eq!(r.horizon, 10_200);
        assert_eq!(r.phases[1].locates_issued, 0);
        assert_eq!(
            r.phases[2].locates_issued, 10,
            "the run must get through the silent phase and keep going"
        );
        assert!(r.phases[2].hit_rate > 0.99);
    }

    /// Acceptance: the overload ramp must expose the saturation knee as
    /// monotonically increasing p99 queueing delay once the offered rate
    /// exceeds the pool's capacity, while service latency stays flat (the
    /// network itself is not the bottleneck) and the overflow shows up as
    /// abandoned operations.
    #[test]
    fn overload_ramp_finds_the_saturation_knee() {
        let r = run_scenario("overload-ramp", 64, 7);
        assert_eq!(r.clients, Some(24));
        let stats: Vec<_> = r
            .phases
            .iter()
            .map(|p| p.closed_loop.as_ref().expect("closed-loop phase stats"))
            .collect();
        // under the knee: negligible queueing
        assert!(stats[0].queue_delay_p99 < 2.0, "light load queues");
        assert!(stats[1].queue_delay_p99 < 2.0, "approach queues");
        // past the knee: p99 queueing delay climbs phase over phase
        assert!(
            stats[1].queue_delay_p99 < stats[2].queue_delay_p99
                && stats[2].queue_delay_p99 < stats[3].queue_delay_p99
                && stats[3].queue_delay_p99 < stats[4].queue_delay_p99,
            "p99 queue delay must climb monotonically past the knee: {:?}",
            stats.iter().map(|s| s.queue_delay_p99).collect::<Vec<_>>()
        );
        // the pool, not the network, is the bottleneck: flat latency
        for s in &stats {
            assert!(s.latency_p99 <= 2.0, "service latency must stay flat");
        }
        // saturation overflow is visible, not silently dropped
        assert!(stats[4].abandoned > 0, "collapse must abandon offers");
        let windows = r.windows.as_ref().expect("time-series windows");
        assert_eq!(windows.len(), 10, "2500 ticks / 250-tick windows");
        // once fully saturated, dispatch rate pins at pool capacity:
        // 24 clients / (2 service + 2 think) = 6 per tick
        for s in &stats[3..] {
            assert_eq!(s.dispatched, 3000, "500 ticks x 6 dispatches");
        }
    }

    /// Acceptance: closed-loop reports are byte-identical across repeated
    /// runs of the same seed and across event-queue implementations, and
    /// a different seed actually changes the bytes.
    #[test]
    fn closed_loop_reports_are_byte_identical() {
        let json = |seed: u64, queue: QueueKind| {
            let spec = scenarios::by_name("overload-ramp", 64, seed).unwrap();
            let r = ScenarioRunner::with_queue(
                spec,
                gen::complete(64),
                Checkerboard::new(64),
                CostModel::Uniform,
                "checkerboard",
                queue,
            )
            .run();
            serde_json::to_string(&r).unwrap()
        };
        let a = json(42, QueueKind::Calendar);
        assert_eq!(a, json(42, QueueKind::Calendar), "repeat run");
        assert_eq!(a, json(42, QueueKind::BTree), "queue cross-check");
        assert_ne!(a, json(43, QueueKind::Calendar), "seed sensitivity");
        assert!(a.contains("\"latency_p99\""));
        assert!(a.contains("\"windows\""));
    }

    /// The open-loop path must not grow any closed-loop JSON keys — its
    /// serialized schema is a compatibility surface.
    #[test]
    fn open_loop_json_has_no_closed_loop_keys() {
        let r = run_scenario("steady-state", 64, 7);
        let json = serde_json::to_string(&r).unwrap();
        for key in ["closed_loop", "windows", "clients", "latency_p50"] {
            assert!(!json.contains(key), "open-loop JSON leaked {key:?}");
        }
        // and it still round-trips through the value model
        let v = serde::Serialize::to_value(&r);
        let back: ScenarioReport = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    /// Closed-loop retries are driven by the spec's budget: the recovery
    /// scenario's outage burns retries, a budget of zero burns none.
    #[test]
    fn flash_crowd_recovery_retries_then_recovers() {
        let r = run_scenario("flash-crowd-recovery", 64, 7);
        let total_retries: u64 = r
            .phases
            .iter()
            .map(|p| p.closed_loop.as_ref().unwrap().retries)
            .sum();
        assert!(total_retries > 0, "the outage must trigger retries");
        let windows = r.windows.as_ref().unwrap();
        let spike = windows
            .iter()
            .map(|w| w.queue_delay_p99)
            .fold(0.0f64, f64::max);
        assert!(spike > 50.0, "the outage must back the pool up: {spike}");
        let last = windows.last().unwrap();
        assert!(
            last.queue_delay_p99 < 2.0 && last.latency_p99 <= 2.0,
            "the pool must drain back to baseline by the horizon"
        );
        assert!(r.hit_rate() > 0.8, "most verdicts still hit");
    }

    #[test]
    fn op_log_covers_every_primary_arrival_in_order() {
        let spec = scenarios::by_name("steady-state", 64, 7).unwrap();
        let (r, log) = ScenarioRunner::new(
            spec,
            gen::complete(64),
            Checkerboard::new(64),
            CostModel::Uniform,
            "checkerboard",
        )
        .run_logged();
        let issued: u64 = r.phases.iter().map(|p| p.locates_issued).sum();
        assert_eq!(log.len() as u64, issued, "no retries in steady state");
        assert!(log.windows(2).all(|w| w[0].arrival < w[1].arrival));
        assert!(
            log.iter()
                .all(|rec| rec.verdict == LocateVerdict::Hit && rec.addr.is_some()),
            "steady state hits everywhere"
        );
    }
}
