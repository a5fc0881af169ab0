//! The live-runtime scenario runner: drives the **same** [`Workload`]
//! specs as [`crate::runner::ScenarioRunner`] through
//! [`mm_proto::live::LiveNet`] — real OS threads and channels instead of
//! the deterministic simulator — and emits the same JSON report schema.
//!
//! # Lock-step execution model
//!
//! The paper's rendezvous invariant (`P(s) ∩ Q(c) ≠ ∅`, so m(P,Q) ≥ 1) is
//! a property of the post/query *sets*, not of the scheduler, and the
//! point of this runner is to check that the measured behaviour of the
//! protocol carries over from simulated ticks to real concurrency. To
//! make the comparison exact, the runner consumes the spec's RNG in
//! **identical order** to the simulator runner ([`crate::timeline`]) and
//! executes timeline events in sequence, waiting for each operation's
//! verdict before the next event fires (concurrency still happens *inside*
//! each operation: a locate fans out to up to `|Q|` node threads at once).
//!
//! This makes the live run deterministic given a seed, with two knowable
//! divergences from the simulator, both tolerated (with documented
//! bounds) by the conformance suite `tests/live_workload_equivalence.rs`:
//!
//! 1. **Churn races.** The simulator is open-loop: a locate can be
//!    in-flight when a crash/restore/migration lands, and its verdict
//!    then depends on tick-level interleaving. Lock-step execution
//!    completes each operation before churn fires, so operations issued
//!    within `op_timeout` ticks before a *racy* churn event (crash,
//!    restore, migrate — not cache wipes or refreshes, which commute with
//!    completed operations) may legitimately differ. Everything outside
//!    those windows must agree exactly.
//! 2. **Phase bucketing.** The simulator attributes a verdict to the
//!    phase where it was *read* (an arrival in the last tick of a phase
//!    completes in the next); the live runner classifies at issue time.
//!    Totals across phases agree; per-phase operation counters can shift
//!    by the handful of boundary operations.
//!
//! Stale-address bounces cannot happen under lock-step execution (a
//! migration never lands between a locate and its follow-up request), so
//! `stale_results`/`stale_requests`/`staleness_recoveries` are
//! structurally 0 here — the simulator's counts are bounded by its
//! at-risk operations, which is exactly the tolerance rule the
//! conformance suite enforces.

use crate::clients::{ClientPool, OpDriver};
use crate::observe::{
    emit_fault_span, emit_locate_spans, emit_post_spans, emit_request_span, finish_trace,
    observe_locate, virtual_elapsed,
};
use crate::report::{
    build_closed_loop, build_phase_report, classify_hit, predict_passes_per_locate, Acc,
    LocateRecord, LocateVerdict, PhaseReport, RobustnessReport, ScenarioReport,
};
use crate::spec::{ChurnAction, Workload};
use crate::timeline::{draw_arrival, rebuild_live, resolve_churn, Event, ResolvedChurn, Timeline};
use crate::traffic::PopularitySampler;
use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_obs::{Registry, TraceConfig, TraceFile, Tracer};
use mm_proto::live::{LiveLocateOutcome, LiveNet, LiveRequestOutcome};
use mm_proto::{FaultProfile, TargetInterner};
use mm_sim::{Metrics, SimTime};
use mm_topo::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The thread network's [`OpDriver`]. The live locate call is synchronous
/// (lock-step), so `issue` runs the whole operation immediately and banks
/// the verdict under a token; `poll` replays it once the virtual clock
/// reaches the modelled completion tick. The virtual-elapsed model mirrors
/// the simulator's uniform-cost timing exactly: a query set containing
/// only the client itself costs 0 ticks (free local delivery), any remote
/// fan-out completes when the slowest reply lands at issue + 2 (query
/// tick + reply tick), and an unresolved operation burns the full client
/// timeout.
struct LiveDriver<'a, PM: PortMapped> {
    net: &'a LiveNet,
    interner: &'a mut TargetInterner,
    resolver: &'a PM,
    ports: &'a [Port],
    homes: &'a [NodeId],
    /// Byzantine ground truth: `liars[v]` iff node `v` forges addresses.
    liars: &'a [bool],
    /// Hostile-world client policy: act on the best partial answer once
    /// the timeout fires instead of writing the operation off.
    salvage: bool,
    op_timeout: SimTime,
    pending: &'a mut Vec<(LocateVerdict, Option<NodeId>, SimTime)>,
    tracer: &'a mut Option<Tracer>,
    registry: &'a mut Option<Registry>,
}

impl<PM: PortMapped> OpDriver for LiveDriver<'_, PM> {
    fn issue(&mut self, now: SimTime, client: NodeId, port_idx: usize) -> (u64, Option<SimTime>) {
        let port = self.ports[port_idx];
        let targets = self.interner.query_set(self.resolver, client, port);
        let solo = targets.len() == 1 && targets.contains(client);
        let mut salvaged = false;
        let (verdict, addr, meets) = match self.net.locate(client, port, targets.clone()) {
            LiveLocateOutcome::Found {
                addr,
                meets,
                dissent,
                ..
            } => {
                let verdict = classify_hit(addr, self.homes[port_idx], dissent, self.liars);
                (verdict, Some(addr), meets)
            }
            LiveLocateOutcome::NotFound => (LocateVerdict::Miss, None, Vec::new()),
            // hostile-world clients salvage the best partial answer at
            // timeout (and still run lie detection on it)
            LiveLocateOutcome::Unresolved { best, dissent, .. } => {
                match best.filter(|_| self.salvage) {
                    Some((addr, _)) => {
                        salvaged = true;
                        let verdict = classify_hit(addr, self.homes[port_idx], dissent, self.liars);
                        (verdict, Some(addr), Vec::new())
                    }
                    None => (LocateVerdict::Unresolved, None, Vec::new()),
                }
            }
        };
        let elapsed = if salvaged {
            self.op_timeout
        } else {
            virtual_elapsed(solo, verdict, self.op_timeout)
        };
        if let Some(reg) = self.registry.as_mut() {
            observe_locate(reg, verdict, elapsed, targets.len(), meets.len());
        }
        if let Some(tr) = self.tracer.as_mut() {
            // same allocation point as the simulator driver: inside the
            // shared pool code, so the ids line up attempt for attempt
            let trace = tr.next_trace_id();
            emit_locate_spans(
                tr, trace, client, port_idx, &targets, &meets, verdict, elapsed, now,
            );
        }
        let done = now + elapsed;
        let token = self.pending.len() as u64;
        self.pending.push((verdict, addr, done));
        (token, Some(done))
    }

    fn poll(
        &mut self,
        _client: NodeId,
        token: u64,
        _issued: SimTime,
        now: SimTime,
        _port_idx: usize,
    ) -> Option<(LocateVerdict, Option<NodeId>, SimTime)> {
        let (verdict, addr, done) = self.pending[token as usize];
        (now >= done).then_some((verdict, addr, done))
    }

    fn home(&self, port_idx: usize) -> NodeId {
        self.homes[port_idx]
    }
}

/// Drives one [`Workload`] against a [`LiveNet`] of `n` node threads and
/// produces a [`ScenarioReport`] with the same schema as the simulator
/// runner. The live runtime is inherently a complete network under the
/// uniform cost model (every thread can message every thread in one
/// pass), so there is no topology/cost parameter.
#[derive(Debug)]
pub struct LiveScenarioRunner<PM: PortMapped> {
    net: LiveNet,
    resolver: PM,
    interner: TargetInterner,
    spec: Workload,
    rng: StdRng,
    sampler: PopularitySampler,
    /// Port handles, index-aligned with the spec's port space.
    ports: Vec<Port>,
    /// Current true server address per port.
    homes: Vec<NodeId>,
    /// Runner-side crash view (mirrors [`LiveNet`]'s).
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
    /// Currently-live nodes, ascending (same draw order as the simulator
    /// runner's), so a client draw is one O(1) indexed pick. Rebuilt from
    /// `crashed` once per churn action that crashes or restores
    /// ([`rebuild_live`]), not per node.
    live: Vec<NodeId>,
    acc: Acc,
    op_log: Vec<LocateRecord>,
    next_arrival: u64,
    strategy: String,
    /// Closed-loop attempt outcomes, indexed by [`OpDriver`] token: the
    /// live locate is synchronous (lock-step), so its verdict is stored at
    /// issue time together with its modelled virtual completion tick and
    /// replayed when the pool polls.
    pending: Vec<(LocateVerdict, Option<NodeId>, SimTime)>,
    /// Deterministic causal tracer (`None` = tracing off, the default).
    tracer: Option<Tracer>,
    /// Metrics registry (`None` = observability off, the default).
    registry: Option<Registry>,
    /// Measure wall-clock events/sec per phase into the report.
    wallclock: bool,
    /// Echo of the trace config's sampling rate for the file header.
    sample_rate: f64,
}

impl<PM: PortMapped> LiveScenarioRunner<PM> {
    /// Builds a live runner for `spec` over `n` node threads with
    /// `resolver` as the match-making strategy.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Workload::validate`], `n` is 0, or the
    /// resolver universe differs from `n`.
    pub fn new(spec: Workload, n: usize, resolver: PM, strategy: &str) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid workload {:?}: {e}", spec.name);
        }
        assert!(n > 0, "empty network");
        assert_eq!(
            n,
            resolver.node_count(),
            "resolver universe must match the network"
        );
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
        let sampler = PopularitySampler::new(spec.ports, spec.popularity);
        LiveScenarioRunner {
            net: LiveNet::new(n),
            resolver,
            interner: TargetInterner::default(),
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
            acc: Acc::default(),
            op_log: Vec::new(),
            next_arrival: 0,
            strategy: strategy.to_string(),
            pending: Vec::new(),
            tracer: None,
            registry: None,
            wallclock: false,
            sample_rate: 1.0,
            spec,
        }
    }

    /// Enables deterministic causal tracing — same trace-id allocation
    /// order and span fields as the simulator runner, so churn-free specs
    /// produce byte-identical files across the runtimes. Collect the
    /// sealed file with [`LiveScenarioRunner::run_traced`].
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.sample_rate = cfg.sample_rate.clamp(0.0, 1.0);
        self.tracer = Some(Tracer::new(cfg));
    }

    /// Enables the metrics registry: per-phase counter/histogram
    /// snapshots appear under the report's `obs` key. (No queue-depth
    /// histogram here — the live runtime has no global event queue.)
    pub fn enable_obs(&mut self) {
        self.registry = Some(Registry::new());
    }

    /// Enables wall-clock events/sec measurement per phase.
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
    /// ahead of the setup-post trees, in the same order as the simulator
    /// runner's.
    fn apply_faults(&mut self) {
        let faults = self.spec.faults.clone();
        for f in &faults {
            let node = NodeId::from(f.node_index);
            self.net.set_fault(node, f.fault);
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
                &self.resolver,
                &self.ports,
                &self.crashed,
                64,
            );
            self.min_survival = self.min_survival.min(sf);
        }
    }

    /// Like [`LiveScenarioRunner::run`], additionally returning the
    /// sealed trace file when [`LiveScenarioRunner::set_trace`] was
    /// called.
    pub fn run_traced(self) -> (ScenarioReport, Option<TraceFile>) {
        let (report, _, trace) = self.run_all();
        (report, trace)
    }

    fn n(&self) -> usize {
        self.crashed.len()
    }

    fn register(&mut self, home: NodeId, port: Port) {
        let targets = self.interner.post_set(&self.resolver, home, port);
        self.net.register_server(home, port, targets);
    }

    /// Runs the scenario to its horizon and reports.
    pub fn run(self) -> ScenarioReport {
        self.run_logged().0
    }

    /// Like [`LiveScenarioRunner::run`], additionally returning the
    /// per-operation verdict log (one [`LocateRecord`] per primary
    /// arrival, in arrival order) for cross-runtime conformance checks.
    pub fn run_logged(self) -> (ScenarioReport, Vec<LocateRecord>) {
        let (report, log, _) = self.run_all();
        (report, log)
    }

    /// Emits the setup-post causal trees (trace ids `0..ports`, virtual
    /// tick 0) — identical to the simulator runner's.
    fn trace_setup_posts(&mut self) {
        if self.tracer.is_none() {
            return;
        }
        for i in 0..self.spec.ports {
            let home = self.homes[i];
            let targets = self.interner.post_set(&self.resolver, home, self.ports[i]);
            let tr = self.tracer.as_mut().expect("checked above");
            let trace = tr.next_trace_id();
            emit_post_spans(tr, trace, home, i, &targets, 0);
        }
    }

    /// Finishes a phase's observability: wall-clock throughput and the
    /// registry snapshot.
    fn finish_phase_obs(&mut self, report: &mut PhaseReport, events_delta: u64, wall: Instant) {
        if self.wallclock {
            let secs = wall.elapsed().as_secs_f64();
            report.throughput = Some(if secs > 0.0 {
                events_delta as f64 / secs
            } else {
                0.0
            });
        }
        if let Some(reg) = self.registry.as_mut() {
            report.obs = Some(reg.snapshot_and_reset());
        }
    }

    /// Seals the tracer (when present); `totals` must be captured from
    /// the network *before* shutdown.
    fn seal_trace(&mut self, totals: &Metrics) -> Option<TraceFile> {
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

    /// The single execution path behind [`LiveScenarioRunner::run`] /
    /// [`LiveScenarioRunner::run_logged`] /
    /// [`LiveScenarioRunner::run_traced`].
    fn run_all(mut self) -> (ScenarioReport, Vec<LocateRecord>, Option<TraceFile>) {
        if self.spec.clients.is_some() {
            return self.run_logged_closed();
        }
        let predicted = predict_passes_per_locate(&self.resolver, self.n(), &self.ports);

        // --- setup: install faults, then place one server per port (same
        // RNG draws as the simulator runner; LiveNet::register_server
        // blocks until the postings are observable, the analogue of
        // `run_until(t0)`) ---
        self.apply_faults();
        for i in 0..self.spec.ports {
            let home = NodeId::from(self.rng.gen_range(0..self.n()));
            self.homes.push(home);
            let port = self.ports[i];
            self.register(home, port);
        }
        self.trace_setup_posts();

        // --- the identical deterministic timeline ---
        let timeline = Timeline::compile(&self.spec, &mut self.rng);

        // --- drive the network phase by phase, lock-step ---
        let mut reports = Vec::with_capacity(timeline.phase_bounds.len());
        let mut next = 0usize;
        for (start, end, name) in timeline.phase_bounds.iter() {
            let before = self.net.metrics();
            let wall = Instant::now();
            self.acc = Acc::default();
            while next < timeline.events.len() && timeline.events[next].0 < *end {
                let (t, ev) = timeline.events[next].clone();
                next += 1;
                self.apply(t, ev);
            }
            let after = self.net.metrics();
            let delta = after.delta(&before);
            let mut report =
                build_phase_report(name, *start, *end, &self.acc, &delta, self.spec.hostile());
            self.finish_phase_obs(&mut report, delta.events_executed, wall);
            reports.push(report);
        }
        let totals = self.net.metrics();
        let trace = self.seal_trace(&totals);
        self.net.shutdown();

        let report = self.assemble(None, timeline.horizon, predicted, reports, None);
        (report, std::mem::take(&mut self.op_log), trace)
    }

    /// The closed-loop twin of [`LiveScenarioRunner::run_logged`]: the
    /// identical [`ClientPool`] event loop as the simulator runner —
    /// offered arrivals queue for slots, wake-ups fire in virtual-time
    /// order, every random draw happens inside the shared pool code — with
    /// the locates executed synchronously on the thread network. The
    /// driver models each attempt's virtual completion tick with the
    /// uniform-cost law (0 for a pure self-query, 2 otherwise, `op_timeout`
    /// for unresolved), which on churn-free scenarios is exactly the
    /// simulator's measured elapsed — so latency percentiles match
    /// byte-for-byte across the runtimes.
    fn run_logged_closed(mut self) -> (ScenarioReport, Vec<LocateRecord>, Option<TraceFile>) {
        let predicted = predict_passes_per_locate(&self.resolver, self.n(), &self.ports);
        self.apply_faults();
        for i in 0..self.spec.ports {
            let home = NodeId::from(self.rng.gen_range(0..self.n()));
            self.homes.push(home);
            let port = self.ports[i];
            self.register(home, port);
        }
        self.trace_setup_posts();

        let timeline = Timeline::compile(&self.spec, &mut self.rng);
        let model = self.spec.clients.expect("closed-loop path");
        let mut pool = ClientPool::new(model);
        let horizon = timeline.horizon;

        let mut reports = Vec::with_capacity(timeline.phase_bounds.len());
        let mut next = 0usize;
        let last = timeline.phase_bounds.len() - 1;
        for (pi, (start, end, name)) in timeline.phase_bounds.iter().enumerate() {
            let before = self.net.metrics();
            let wall = Instant::now();
            self.acc = Acc::default();
            loop {
                let ev_t = timeline.events.get(next).map(|e| e.0).filter(|t| t < end);
                let pool_t = pool.next_wakeup().filter(|t| t < end);
                let t = match (ev_t, pool_t) {
                    (None, None) => break,
                    (a, b) => a.into_iter().chain(b).min().expect("one is Some"),
                };
                // verdicts before same-tick churn, as in the simulator
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
                self.service_pool(&mut pool, t);
            }
            if pi == last {
                pool.freeze();
                let drain_end = horizon + self.spec.op_timeout;
                while let Some(t) = pool.next_wakeup().filter(|&t| t <= drain_end) {
                    self.service_pool(&mut pool, t);
                }
            }
            let after = self.net.metrics();
            let delta = after.delta(&before);
            let mut report =
                build_phase_report(name, *start, *end, &self.acc, &delta, self.spec.hostile());
            self.finish_phase_obs(&mut report, delta.events_executed, wall);
            reports.push(report);
        }
        let totals = self.net.metrics();
        let trace = self.seal_trace(&totals);
        self.net.shutdown();

        let records = pool.into_records();
        let (phase_stats, windows) =
            build_closed_loop(&records, &timeline.phase_bounds, horizon, model.window);
        for (report, stats) in reports.iter_mut().zip(phase_stats) {
            report.closed_loop = Some(stats);
        }
        let report = self.assemble(
            Some(model.clients as u64),
            horizon,
            predicted,
            reports,
            Some(windows),
        );
        // the pool logs at final-verdict time (a retried op can finish
        // after later arrivals); the documented contract is arrival order
        let mut log = std::mem::take(&mut self.op_log);
        log.sort_by_key(|r| r.arrival);
        (report, log, trace)
    }

    /// One [`ClientPool::service`] call with the thread network behind the
    /// [`OpDriver`] seam.
    fn service_pool(&mut self, pool: &mut ClientPool, now: SimTime) {
        let mut driver = LiveDriver {
            net: &self.net,
            interner: &mut self.interner,
            resolver: &self.resolver,
            ports: &self.ports,
            homes: &self.homes,
            liars: &self.liars,
            salvage: self.spec.hostile(),
            op_timeout: self.spec.op_timeout,
            pending: &mut self.pending,
            tracer: &mut self.tracer,
            registry: &mut self.registry,
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
        phases: Vec<crate::report::PhaseReport>,
        windows: Option<Vec<crate::report::WindowReport>>,
    ) -> ScenarioReport {
        ScenarioReport {
            scenario: self.spec.name.clone(),
            strategy: self.strategy.clone(),
            cost_model: "uniform".to_string(),
            topology: "live-threads".to_string(),
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
                    &self.resolver,
                    &self.ports,
                    64,
                ) as u64,
                min_survival_fraction: self.min_survival,
                byzantine_nodes: self.spec.faults.len() as u64,
                replication: self.replication,
            }),
        }
    }

    /// Applies one timeline event, blocking until its effects are
    /// observable (lock-step). All random draws go through the shared
    /// decision layer ([`draw_arrival`]/[`resolve_churn`]) so the
    /// RNG-consumption order is provably identical to the simulator
    /// runner's.
    fn apply(&mut self, t: SimTime, ev: Event) {
        match ev {
            Event::Arrival => {
                let Some((client, port_idx)) =
                    draw_arrival(&mut self.rng, &self.live, &self.sampler)
                else {
                    return; // total outage: the open-loop client is dead too
                };
                let arrival = self.next_arrival;
                self.next_arrival += 1;
                self.locate_and_classify(t, arrival, client, port_idx);
            }
            Event::Refresh => self.refresh_all(t),
            Event::Churn(action) => self.apply_churn(t, action),
        }
    }

    /// Feeds one classified locate into the tracer/registry using the
    /// virtual-timing law (never wall clocks — the trace must be
    /// byte-identical to the simulator's on churn-free specs). Returns the
    /// virtual elapsed and fan-out width for the follow-up request span.
    #[allow(clippy::too_many_arguments)]
    fn observe_locate_verdict(
        &mut self,
        trace: Option<u64>,
        client: NodeId,
        port_idx: usize,
        issued: SimTime,
        verdict: LocateVerdict,
        meets: &[NodeId],
        salvaged: bool,
    ) -> (u64, u32) {
        if self.tracer.is_none() && self.registry.is_none() {
            return (0, 0);
        }
        let port = self.ports[port_idx];
        let targets = self.interner.query_set(&self.resolver, client, port);
        let solo = targets.len() == 1 && targets.contains(client);
        // a salvaged verdict was decided by the client's own timeout, not
        // by the slowest reply — its elapsed is the full wait
        let elapsed = if salvaged {
            self.spec.op_timeout
        } else {
            virtual_elapsed(solo, verdict, self.spec.op_timeout)
        };
        if let Some(reg) = self.registry.as_mut() {
            observe_locate(reg, verdict, elapsed, targets.len(), meets.len());
        }
        if let (Some(tr), Some(trace)) = (self.tracer.as_mut(), trace) {
            emit_locate_spans(
                tr, trace, client, port_idx, &targets, meets, verdict, elapsed, issued,
            );
        }
        (elapsed, targets.len() as u32)
    }

    /// One full client interaction: locate, classify, and (when the spec
    /// asks for it) call the located server with the §1.3 stale-recovery
    /// retry loop — the synchronous equivalent of the simulator runner's
    /// issue/drain split.
    fn locate_and_classify(&mut self, t: SimTime, arrival: u64, client: NodeId, port_idx: usize) {
        let port = self.ports[port_idx];
        self.acc.issued += 1;
        // same allocation point as the simulator runner: at the arrival,
        // before the operation runs
        let trace = self.tracer.as_mut().map(Tracer::next_trace_id);
        let (verdict, addr, meets, salvaged) = self.locate_once(client, port_idx);
        let (elapsed, fanout) =
            self.observe_locate_verdict(trace, client, port_idx, t, verdict, &meets, salvaged);
        self.op_log.push(LocateRecord {
            arrival,
            at: t,
            client,
            port_idx,
            verdict,
            addr,
        });
        let Some(addr) = addr else { return };
        if !self.spec.request_after_locate || verdict == LocateVerdict::DetectedLie {
            // a detected lie is final: the client rejects the address and
            // never calls it, exactly as in the simulator's drain
            return;
        }
        if let Some(trace) = trace {
            let tr = self.tracer.as_mut().expect("trace id implies tracer");
            emit_request_span(tr, trace, fanout + 1, client, addr, port_idx, t + elapsed);
        }
        match self.net.request(client, addr, port, 1) {
            Some(LiveRequestOutcome::Replied { .. }) => self.acc.requests_ok += 1,
            Some(LiveRequestOutcome::StaleAddress) => {
                // §1.3 recovery: re-locate and try again, once. Unreachable
                // under pure lock-step (nothing migrates mid-operation) but
                // kept for parity with the simulator's recovery loop.
                self.acc.stale_requests += 1;
                self.acc.issued += 1;
                let (retry_verdict, retry_addr, retry_meets, retry_salvaged) =
                    self.locate_once(client, port_idx);
                // stale-recovery retries stay out of the trace (no id), but
                // feed the registry, as in the simulator runner
                self.observe_locate_verdict(
                    None,
                    client,
                    port_idx,
                    t,
                    retry_verdict,
                    &retry_meets,
                    retry_salvaged,
                );
                if retry_verdict != LocateVerdict::DetectedLie {
                    if retry_verdict == LocateVerdict::Hit
                        && retry_addr == Some(self.homes[port_idx])
                    {
                        self.acc.recoveries += 1;
                    }
                    if let Some(a) = retry_addr {
                        match self.net.request(client, a, port, 1) {
                            Some(LiveRequestOutcome::Replied { .. }) => self.acc.requests_ok += 1,
                            Some(LiveRequestOutcome::StaleAddress) => self.acc.stale_requests += 1,
                            None => self.acc.request_timeouts += 1,
                        }
                    }
                }
            }
            None => self.acc.request_timeouts += 1,
        }
    }

    /// Issues one locate and folds its verdict into the accumulator.
    /// The trailing `bool` marks a salvaged verdict (hostile-world policy:
    /// the best partial answer, adopted at timeout).
    fn locate_once(
        &mut self,
        client: NodeId,
        port_idx: usize,
    ) -> (LocateVerdict, Option<NodeId>, Vec<NodeId>, bool) {
        let port = self.ports[port_idx];
        let targets = self.interner.query_set(&self.resolver, client, port);
        self.acc.completed += 1;
        match self.net.locate(client, port, targets) {
            LiveLocateOutcome::Found {
                addr,
                meets,
                dissent,
                ..
            } => {
                let verdict = self.classify_and_count(addr, port_idx, dissent);
                (verdict, Some(addr), meets, false)
            }
            LiveLocateOutcome::NotFound => {
                self.acc.misses += 1;
                (LocateVerdict::Miss, None, Vec::new(), false)
            }
            LiveLocateOutcome::Unresolved { best, dissent, .. } => {
                match best.filter(|_| self.spec.hostile()) {
                    // hostile-world clients salvage the best partial
                    // answer at timeout: a crashed rendezvous must not
                    // sever an alive pair that a surviving replica still
                    // serves (§2.4) — lie detection still runs on it
                    Some((addr, _)) => {
                        let verdict = self.classify_and_count(addr, port_idx, dissent);
                        (verdict, Some(addr), Vec::new(), true)
                    }
                    None => {
                        self.acc.unresolved += 1;
                        (LocateVerdict::Unresolved, None, Vec::new(), false)
                    }
                }
            }
        }
    }

    /// Classifies one located address against the port's ground truth and
    /// folds the verdict into the accumulator.
    fn classify_and_count(
        &mut self,
        addr: NodeId,
        port_idx: usize,
        dissent: usize,
    ) -> LocateVerdict {
        let verdict = classify_hit(addr, self.homes[port_idx], dissent, &self.liars);
        match verdict {
            LocateVerdict::Hit => {
                self.acc.hits += 1;
                if addr != self.homes[port_idx] {
                    self.acc.stale_results += 1;
                }
            }
            // the dissenting honest answer exposed the forgery: the
            // client discards the address and never calls it
            LocateVerdict::DetectedLie => self.acc.detected_lie += 1,
            // the forgery escaped; the follow-up call bounces off the
            // non-serving liar and the §1.3 loop re-locates
            LocateVerdict::FalseMatch => self.acc.false_match += 1,
            _ => unreachable!("classify_hit never yields {verdict:?}"),
        }
        verdict
    }

    fn refresh_all(&mut self, t: SimTime) {
        for i in 0..self.homes.len() {
            let home = self.homes[i];
            if !self.crashed[home.index()] {
                let port = self.ports[i];
                self.register(home, port);
                if let Some(tr) = self.tracer.as_mut() {
                    let targets = self.interner.post_set(&self.resolver, home, port);
                    let trace = tr.next_trace_id();
                    emit_post_spans(tr, trace, home, i, &targets, t);
                }
            }
        }
    }

    fn crash_node(&mut self, v: NodeId) {
        debug_assert!(!self.crashed[v.index()]);
        self.crashed[v.index()] = true;
        self.net.crash(v);
    }

    fn restore_node(&mut self, v: NodeId, clear_cache: bool) {
        debug_assert!(self.crashed[v.index()]);
        self.crashed[v.index()] = false;
        self.net.restore(v);
        if clear_cache {
            self.net.clear_cache(v);
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
        let (mut any_crash, mut any_restore) = (false, false);
        for r in resolved {
            match r {
                ResolvedChurn::Crash(v) => {
                    any_crash = true;
                    self.crash_node(v)
                }
                ResolvedChurn::Restore { node, clear_cache } => {
                    any_restore = true;
                    self.restore_node(node, clear_cache)
                }
                ResolvedChurn::Migrate { port_idx, from, to } => {
                    let port = self.ports[port_idx];
                    let targets = self.interner.post_set(&self.resolver, to, port);
                    self.net.migrate_server(port, from, to, targets);
                    self.homes[port_idx] = to;
                }
                ResolvedChurn::ClearAllCaches => {
                    for vi in 0..self.n() {
                        self.net.clear_cache(NodeId::from(vi));
                    }
                }
                ResolvedChurn::RefreshAll => self.refresh_all(t),
            }
        }
        if any_crash || any_restore {
            rebuild_live(&mut self.live, &self.crashed);
        }
        if any_crash {
            self.observe_survival();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use mm_core::strategies::{Checkerboard, HashLocate};

    fn run_live(name: &str, n: usize, seed: u64) -> ScenarioReport {
        let spec = scenarios::by_name(name, n, seed).expect("library scenario");
        LiveScenarioRunner::new(spec, n, Checkerboard::new(n), "checkerboard").run()
    }

    #[test]
    fn live_steady_state_hits_at_theory_cost() {
        let r = run_live("steady-state", 16, 7);
        assert_eq!(r.phases.len(), 3);
        assert!(r.hit_rate() > 0.99, "hit rate {}", r.hit_rate());
        // 2·sqrt(16) = 8 passes per warm locate; the live runtime pays
        // exactly the model cost minus free self-messages
        assert!((r.predicted_passes_per_locate - 8.0).abs() < 1e-9);
        assert!(r.passes_per_locate() <= 8.0);
        assert!(r.passes_per_locate() > 6.0);
    }

    #[test]
    fn live_rolling_churn_degrades_then_recovers() {
        let r = run_live("rolling-churn", 16, 7);
        let churning = r.phases.iter().find(|p| p.name == "churning").unwrap();
        let recovered = r.phases.iter().find(|p| p.name == "recovered").unwrap();
        assert!(churning.crashes > 0);
        assert!(churning.unresolved > 0, "crashed rendezvous leave timeouts");
        assert!(churning.dropped > 0, "messages die at crashed nodes");
        assert!(
            recovered.hit_rate > 0.99,
            "refresh heals: {}",
            recovered.hit_rate
        );
    }

    #[test]
    fn live_migrate_under_load_sustains_requests() {
        let r = run_live("migrate-under-load", 16, 7);
        let ok: u64 = r.phases.iter().map(|p| p.requests_ok).sum();
        assert!(ok > 1000, "requests keep flowing through migrations: {ok}");
        assert_eq!(
            r.phases.iter().map(|p| p.request_timeouts).sum::<u64>(),
            0,
            "no server ever crashes in this scenario"
        );
    }

    #[test]
    fn live_hash_locate_runs_the_same_workload() {
        let n = 16;
        let spec = scenarios::steady_state(11);
        let r = LiveScenarioRunner::new(spec, n, HashLocate::new(n, 3), "hash").run();
        assert!(r.hit_rate() > 0.99);
        assert!((r.predicted_passes_per_locate - 6.0).abs() < 1e-9);
    }

    #[test]
    fn live_runs_are_deterministic_given_a_seed() {
        let a = serde_json::to_string(&run_live("cold-vs-warm-cache", 16, 5)).unwrap();
        let b = serde_json::to_string(&run_live("cold-vs-warm-cache", 16, 5)).unwrap();
        assert_eq!(a, b, "lock-step live runs reproduce byte-identically");
    }

    /// The closed-loop pool drives the thread network too: the ramp's
    /// knee (monotone p99 queueing delay, flat service latency) must be
    /// measurable on real threads, deterministically.
    #[test]
    fn live_overload_ramp_finds_the_same_knee() {
        let r = run_live("overload-ramp", 16, 7);
        assert_eq!(r.clients, Some(24));
        let stats: Vec<_> = r
            .phases
            .iter()
            .map(|p| p.closed_loop.as_ref().expect("closed-loop stats"))
            .collect();
        assert!(
            stats[2].queue_delay_p99 < stats[3].queue_delay_p99
                && stats[3].queue_delay_p99 < stats[4].queue_delay_p99,
            "p99 queueing delay must climb past the knee"
        );
        assert!(stats.iter().all(|s| s.latency_p99 <= 2.0));
        assert!(r.windows.is_some());
        let a = serde_json::to_string(&run_live("overload-ramp", 16, 7)).unwrap();
        let b = serde_json::to_string(&run_live("overload-ramp", 16, 7)).unwrap();
        assert_eq!(a, b, "closed-loop live runs reproduce byte-identically");
    }

    /// Closed-loop retries against a churny network: the recovery
    /// scenario must burn retry budget during the outage and settle back,
    /// and the op log must come back in arrival order even though retried
    /// operations reach their final verdict after later arrivals.
    #[test]
    fn live_flash_crowd_recovery_retries_through_the_outage() {
        let spec = scenarios::by_name("flash-crowd-recovery", 16, 7).unwrap();
        let (r, log) =
            LiveScenarioRunner::new(spec, 16, Checkerboard::new(16), "checkerboard").run_logged();
        assert!(
            log.windows(2).all(|w| w[0].arrival < w[1].arrival),
            "op log must be sorted by arrival"
        );
        let total_retries: u64 = r
            .phases
            .iter()
            .map(|p| p.closed_loop.as_ref().unwrap().retries)
            .sum();
        assert!(total_retries > 0, "the outage must trigger retries");
        let last = r.windows.as_ref().unwrap().last().unwrap().clone();
        assert!(
            last.latency_p99 <= 2.0,
            "latency must settle by the horizon: {}",
            last.latency_p99
        );
    }
}
