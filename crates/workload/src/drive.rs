//! Programmatic single-run invocation — the library face of the
//! `scenarios` binary.
//!
//! Everything the CLI can do to produce **one** scenario report lives
//! here as a [`RunConfig`] → [`ScenarioReport`] function, so other
//! drivers (the `mm-campaign` experiment-matrix runner, tests, future
//! servers) execute *exactly* the code path the binary does. That is the
//! byte-identity contract the campaign layer is built on: the JSON a
//! campaign writes for a run equals, byte for byte, the output of the
//! equivalent `scenarios` CLI invocation at the same seed — because both
//! are this module.
//!
//! The binary keeps only what is CLI-shaped (flag parsing, sweep loops,
//! `--trace` file plumbing, exit codes); graph construction, spec
//! resolution, strategy dispatch and report serialization are shared
//! from here.

use crate::report::ScenarioReport;
use crate::runner::ScenarioRunner;
use crate::scenarios;
use crate::spec::{ClientModel, Workload};
use crate::LiveScenarioRunner;
use mm_core::robust::Replicated;
use mm_core::strategies::{Broadcast, Checkerboard, HashLocate, PortMapped};
use mm_obs::{TraceConfig, TraceFile};
use mm_sim::{CostModel, QueueKind, RouterKind, ShardMode};
use mm_topo::{gen, Graph};

/// Above this size a literal complete graph (O(n²) adjacency) stops being
/// buildable; under the uniform cost model edges are never consulted, so
/// runs substitute an edgeless graph with the same name and scale to 64k+
/// nodes unchanged. Under hop cost the same holds for *every* structured
/// topology once the analytic routers answer next hops — only the
/// `--router table` oracle still materializes edges.
pub const COMPLETE_MATERIALIZE_LIMIT: usize = 4096;

/// Ceiling for `--router table` under hop cost: the O(n²) table at 4096
/// nodes is ~134 MB, which is as far as the conformance oracle needs to
/// go (the byte-identity suite proptests exactly this range).
pub const TABLE_ROUTER_LIMIT: usize = 4096;

/// One OS thread per node: past this the live runtime would exhaust the
/// default thread budget long before it said anything new.
pub const LIVE_THREAD_LIMIT: usize = 4096;

/// Which runtime executes a run: the deterministic simulator or the
/// threaded `mm-proto` live network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// The `mm-sim` event-driven simulator (default).
    #[default]
    Sim,
    /// The threaded [`mm_proto::live::LiveNet`] runtime (one OS thread
    /// per node; complete network under uniform cost only).
    Live,
}

impl RuntimeKind {
    /// Canonical lower-case label (`sim` / `live`), as the CLI spells it.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Live => "live",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(RuntimeKind::Sim),
            "live" => Some(RuntimeKind::Live),
            _ => None,
        }
    }
}

/// Canonical lower-case label of a router policy, as the CLI spells it
/// (`auto` / `analytic` / `table`).
pub fn router_label(router: RouterKind) -> &'static str {
    match router {
        RouterKind::Auto => "auto",
        RouterKind::Analytic => "analytic",
        RouterKind::Table => "table",
    }
}

/// Parses the CLI spelling of a router policy.
pub fn parse_router(s: &str) -> Option<RouterKind> {
    match s {
        "auto" => Some(RouterKind::Auto),
        "analytic" => Some(RouterKind::Analytic),
        "table" => Some(RouterKind::Table),
        _ => None,
    }
}

/// Canonical lower-case label of a queue implementation, as the CLI
/// spells it (`calendar` / `btree`).
pub fn queue_label(queue: QueueKind) -> &'static str {
    match queue {
        QueueKind::Calendar => "calendar",
        QueueKind::BTree => "btree",
    }
}

/// Parses the CLI spelling of a queue kind.
pub fn parse_queue(s: &str) -> Option<QueueKind> {
    match s {
        "calendar" => Some(QueueKind::Calendar),
        "btree" => Some(QueueKind::BTree),
        _ => None,
    }
}

/// Everything that determines one scenario run's report bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Library scenario name (see [`scenarios::by_name`]).
    pub scenario: String,
    /// Requested node count (the grid topology may round it up).
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Strategy name: `checkerboard`, `hash` or `broadcast`.
    pub strategy: String,
    /// Topology name: `complete`, `grid`, `torus`, `ring` or `hypercube`.
    pub topology: String,
    /// Cost model.
    pub cost: CostModel,
    /// Simulator event-queue implementation (ignored by the live runtime).
    pub queue: QueueKind,
    /// Which runtime executes the spec.
    pub runtime: RuntimeKind,
    /// Closed-loop client-pool override applied on top of the scenario
    /// (`None` keeps the scenario's own loop mode).
    pub clients: Option<ClientModel>,
    /// `F` tolerated rendezvous faults; 0 = base strategy, `F > 0`
    /// superimposes `F + 1` strategy copies (§2.4) and reports the
    /// robustness block.
    pub replication: u64,
    /// Routing backend under hop cost. Output-invariant like `queue` (the
    /// analytic routers are byte-conformant to the table oracle), so it
    /// never appears in [`RunConfig::label`]; it decides
    /// only memory — `Table` materializes the O(n²) §3 tables, the
    /// default `Auto` routes structured topologies in O(1) space.
    pub router: RouterKind,
}

impl RunConfig {
    /// A config with the CLI's defaults: checkerboard on a complete
    /// uniform-cost network, calendar queue, simulator runtime, the
    /// scenario's own loop mode, no replication.
    pub fn new(scenario: &str, n: usize, seed: u64) -> Self {
        RunConfig {
            scenario: scenario.to_string(),
            n,
            seed,
            strategy: "checkerboard".into(),
            topology: "complete".into(),
            cost: CostModel::Uniform,
            queue: QueueKind::Calendar,
            runtime: RuntimeKind::Sim,
            clients: None,
            replication: 0,
            router: RouterKind::Auto,
        }
    }

    /// The execution core: always [`ShardMode::Single`], the only core
    /// there is. Kept for callers that pass it to
    /// [`ScenarioRunner::with_router`].
    pub fn shard_mode(&self) -> ShardMode {
        ShardMode::Single
    }

    /// Canonical run label, used as the campaign per-run file stem:
    /// `{scenario}-n{n}-{strategy}-{queue}-{runtime}[-{topology}][-{cost}]-s{seed}`.
    /// Every axis that can change the run (or is asserted byte-equal
    /// across its values, like queue and runtime) is spelled out, so a
    /// directory of campaign runs is self-describing. The topology and
    /// cost segments appear only off their historical defaults
    /// (`complete`, `uniform`), keeping every pre-existing label — and
    /// thus every pinned campaign file name — byte-identical. The router
    /// backend is deliberately absent: it is output-invariant.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}-n{}-{}-{}-{}",
            self.scenario,
            self.n,
            self.strategy,
            queue_label(self.queue),
            self.runtime.label(),
        );
        if self.topology != "complete" {
            label.push('-');
            label.push_str(&self.topology);
        }
        if self.cost != CostModel::Uniform {
            label.push_str("-hops");
        }
        label.push_str(&format!("-s{}", self.seed));
        label
    }
}

/// Observability switches for a run (all off by default — reports stay
/// byte-identical to the historical schema).
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Record the causal span trace.
    pub trace: Option<TraceConfig>,
    /// Per-phase metrics-registry snapshots in the JSON.
    pub obs: bool,
    /// Wall-clock events/sec per phase in the JSON (not deterministic).
    pub throughput: bool,
}

/// Builds the graph for a topology name, mirroring the CLI's rules
/// (edgeless stand-ins wherever routing never consults adjacency, grid
/// and torus rounding to the closest `p × q ≥ n` rectangle, hypercube
/// power-of-two requirement).
///
/// Under hop cost adjacency is materialized only for the `--router
/// table` oracle, the one consumer that reads it. Under uniform cost the
/// complete topology is an edgeless shell, while the sparse families
/// still build their O(n) edges although the simulator never routes
/// through them. The analytic routers answer
/// next hops from closed forms, so a hop-cost ring at n = 1,048,576 is an
/// O(n)-memory run — no adjacency, no table.
pub fn build_graph(
    topology: &str,
    n: usize,
    cost: CostModel,
    router: RouterKind,
) -> Result<Graph, String> {
    // under hop cost the analytic backends route by name alone; only the
    // table oracle (and its BFS build) needs real edges
    let analytic = cost == CostModel::Hops && router != RouterKind::Table;
    if cost == CostModel::Hops && router == RouterKind::Table && n > TABLE_ROUTER_LIMIT {
        return Err(format!(
            "router `table` materializes the O(n^2) routing table; \
             use n <= {TABLE_ROUTER_LIMIT} or `--router analytic`"
        ));
    }
    match topology {
        "complete" => match cost {
            // uniform never routes: an edgeless stand-in is behaviorally
            // identical and O(n) instead of O(n²) to build
            CostModel::Uniform => Ok(gen::complete_shell(n)),
            CostModel::Hops if analytic => Ok(gen::complete_shell(n)),
            CostModel::Hops if n <= COMPLETE_MATERIALIZE_LIMIT => Ok(gen::complete(n)),
            CostModel::Hops => Err(format!(
                "cost model `hops` with topology `complete` materializes O(n^2) edges; \
                 use n <= {COMPLETE_MATERIALIZE_LIMIT} or a sparse topology"
            )),
        },
        "ring" => {
            if analytic {
                Ok(Graph::with_name(n, format!("ring({n})")))
            } else {
                Ok(gen::ring(n))
            }
        }
        "grid" | "torus" => {
            // the closest p x q >= n rectangle
            let p = (n as f64).sqrt().ceil() as usize;
            let q = n.div_ceil(p);
            if p * q != n {
                eprintln!("note: {topology} topology rounded n from {n} to {}", p * q);
            }
            let wrap = topology == "torus";
            let name = format!("{topology}({p}x{q})");
            if analytic {
                Ok(Graph::with_name(p * q, name))
            } else {
                let mut g = gen::grid(p, q, wrap);
                g.set_name(name);
                Ok(g)
            }
        }
        "hypercube" => {
            let d = (n as f64).log2().round() as u32;
            if 1usize << d != n {
                return Err(format!(
                    "topology `hypercube` needs n to be a power of two (got {n})"
                ));
            }
            if analytic {
                Ok(Graph::with_name(n, format!("hypercube({d})")))
            } else {
                Ok(gen::hypercube(d))
            }
        }
        other => Err(format!("unknown topology `{other}`")),
    }
}

/// Resolves the library spec for a config at an explicit node count and
/// applies its closed-loop override, surfacing the validator's
/// explanation instead of panicking.
pub fn build_spec(cfg: &RunConfig, n: usize) -> Result<Workload, String> {
    let mut spec = scenarios::by_name(&cfg.scenario, n, cfg.seed)
        .ok_or_else(|| format!("unknown scenario `{}`", cfg.scenario))?;
    if let Some(clients) = cfg.clients {
        spec.clients = Some(clients);
    }
    spec.validate()
        .map_err(|e| format!("{}: {e}", cfg.scenario))?;
    Ok(spec)
}

/// The strategy copies `replication = F` superimposes (`F + 1`; 1 = base).
fn replication_factor(cfg: &RunConfig, n: usize) -> Result<usize, String> {
    let r = cfg.replication as usize + 1;
    if r > n {
        return Err(format!("replication {} needs n >= {r}", cfg.replication));
    }
    Ok(r)
}

/// Runs one configuration to its report, optionally recording a trace.
///
/// This is the single execution path behind the `scenarios` binary and
/// the campaign runner; equal configs at equal seeds produce
/// byte-identical reports no matter who calls.
///
/// # Errors
///
/// Returns a human-readable message for unknown names, invalid
/// spec/flag combinations, and live-runtime constraint violations —
/// exactly the conditions the CLI exits 2 on.
pub fn run_traced(
    cfg: &RunConfig,
    obs: &ObsOptions,
) -> Result<(ScenarioReport, Option<TraceFile>), String> {
    match cfg.runtime {
        RuntimeKind::Sim => run_sim(cfg, obs),
        RuntimeKind::Live => run_live(cfg, obs),
    }
}

/// Runs one configuration to its report with observability off.
pub fn run(cfg: &RunConfig) -> Result<ScenarioReport, String> {
    run_traced(cfg, &ObsOptions::default()).map(|(report, _)| report)
}

/// Serializes reports exactly as the `scenarios` binary prints them: a
/// JSON array (even for one run) terminated by a newline. Campaign
/// per-run files go through this function so `cmp run.json <(scenarios …)`
/// holds byte for byte.
pub fn reports_to_json(reports: &[ScenarioReport], pretty: bool) -> String {
    let json = if pretty {
        serde_json::to_string_pretty(&reports)
    } else {
        serde_json::to_string(&reports)
    }
    .expect("reports always serialize");
    format!("{json}\n")
}

fn run_sim(
    cfg: &RunConfig,
    obs: &ObsOptions,
) -> Result<(ScenarioReport, Option<TraceFile>), String> {
    let graph = build_graph(&cfg.topology, cfg.n, cfg.cost, cfg.router)?;
    // the grid topology may round n up; size the workload (churn widths
    // etc.) from the node count actually run, not the requested one
    let n = graph.node_count();
    let spec = build_spec(cfg, n)?;
    let r = replication_factor(cfg, n)?;
    match (cfg.strategy.as_str(), r) {
        ("checkerboard", 1) => {
            run_spec(spec, graph, Checkerboard::new(n), cfg, obs, "checkerboard")
        }
        ("checkerboard", _) => {
            let s = Replicated::new(Checkerboard::new(n), r);
            run_spec(spec, graph, s, cfg, obs, &format!("checkerboard-r{r}"))
        }
        ("broadcast", 1) => run_spec(spec, graph, Broadcast::new(n), cfg, obs, "broadcast"),
        ("broadcast", _) => {
            let s = Replicated::new(Broadcast::new(n), r);
            run_spec(spec, graph, s, cfg, obs, &format!("broadcast-r{r}"))
        }
        // Hash Locate's replica count *is* its redundancy level (§5):
        // replication F raises it from the default 3 to F+1
        ("hash", 1) => run_spec(spec, graph, HashLocate::new(n, 3.min(n)), cfg, obs, "hash"),
        ("hash", _) => run_spec(
            spec,
            graph,
            HashLocate::new(n, r),
            cfg,
            obs,
            &format!("hash-r{r}"),
        ),
        (other, _) => Err(format!("unknown strategy `{other}`")),
    }
}

fn run_live(
    cfg: &RunConfig,
    obs: &ObsOptions,
) -> Result<(ScenarioReport, Option<TraceFile>), String> {
    if cfg.topology != "complete" || cfg.cost != CostModel::Uniform {
        return Err("the live runtime is a complete network under uniform cost".into());
    }
    if cfg.n > LIVE_THREAD_LIMIT {
        return Err(format!(
            "the live runtime spawns one thread per node; n = {} exceeds the limit {LIVE_THREAD_LIMIT}",
            cfg.n
        ));
    }
    let n = cfg.n;
    let spec = build_spec(cfg, n)?;
    let r = replication_factor(cfg, n)?;
    match (cfg.strategy.as_str(), r) {
        ("checkerboard", 1) => {
            run_spec_live(spec, n, Checkerboard::new(n), cfg, obs, "checkerboard")
        }
        ("checkerboard", _) => {
            let s = Replicated::new(Checkerboard::new(n), r);
            run_spec_live(spec, n, s, cfg, obs, &format!("checkerboard-r{r}"))
        }
        ("broadcast", 1) => run_spec_live(spec, n, Broadcast::new(n), cfg, obs, "broadcast"),
        ("broadcast", _) => {
            let s = Replicated::new(Broadcast::new(n), r);
            run_spec_live(spec, n, s, cfg, obs, &format!("broadcast-r{r}"))
        }
        ("hash", 1) => run_spec_live(spec, n, HashLocate::new(n, 3.min(n)), cfg, obs, "hash"),
        ("hash", _) => run_spec_live(
            spec,
            n,
            HashLocate::new(n, r),
            cfg,
            obs,
            &format!("hash-r{r}"),
        ),
        (other, _) => Err(format!("unknown strategy `{other}`")),
    }
}

fn run_spec<PM: PortMapped>(
    spec: Workload,
    graph: Graph,
    resolver: PM,
    cfg: &RunConfig,
    obs: &ObsOptions,
    label: &str,
) -> Result<(ScenarioReport, Option<TraceFile>), String> {
    let mut runner = ScenarioRunner::with_router(
        spec,
        graph,
        resolver,
        cfg.cost,
        label,
        cfg.queue,
        cfg.shard_mode(),
        cfg.router,
    );
    if let Some(trace) = obs.trace {
        runner.set_trace(trace);
    }
    if obs.obs {
        runner.enable_obs();
    }
    if obs.throughput {
        runner.enable_throughput();
    }
    if cfg.replication > 0 {
        runner.enable_robustness(cfg.replication + 1);
    }
    Ok(runner.run_traced())
}

fn run_spec_live<PM: PortMapped>(
    spec: Workload,
    n: usize,
    resolver: PM,
    cfg: &RunConfig,
    obs: &ObsOptions,
    label: &str,
) -> Result<(ScenarioReport, Option<TraceFile>), String> {
    let mut runner = LiveScenarioRunner::new(spec, n, resolver, label);
    if let Some(trace) = obs.trace {
        runner.set_trace(trace);
    }
    if obs.obs {
        runner.enable_obs();
    }
    if obs.throughput {
        runner.enable_throughput();
    }
    if cfg.replication > 0 {
        runner.enable_robustness(cfg.replication + 1);
    }
    Ok(runner.run_traced())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_cli() {
        let cfg = RunConfig::new("steady-state", 64, 7);
        assert_eq!(cfg.strategy, "checkerboard");
        assert_eq!(cfg.topology, "complete");
        assert_eq!(cfg.queue, QueueKind::Calendar);
        assert_eq!(cfg.runtime, RuntimeKind::Sim);
        assert_eq!(cfg.label(), "steady-state-n64-checkerboard-calendar-sim-s7");
    }

    #[test]
    fn errors_are_results_not_exits() {
        assert!(run(&RunConfig::new("no-such-scenario", 64, 7)).is_err());
        let mut cfg = RunConfig::new("steady-state", 64, 7);
        cfg.strategy = "telepathy".into();
        assert!(run(&cfg).is_err());
        let mut cfg = RunConfig::new("steady-state", 60, 7);
        cfg.topology = "hypercube".into();
        assert!(run(&cfg).is_err(), "non-power-of-two hypercube");
        let mut cfg = RunConfig::new("steady-state", 64, 7);
        cfg.runtime = RuntimeKind::Live;
        cfg.topology = "ring".into();
        assert!(run(&cfg).is_err(), "live is complete+uniform only");
    }

    #[test]
    fn equal_configs_reproduce_equal_bytes() {
        let cfg = RunConfig::new("steady-state", 64, 7);
        let a = reports_to_json(&[run(&cfg).unwrap()], false);
        let b = reports_to_json(&[run(&cfg).unwrap()], false);
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.starts_with('['), "the CLI prints an array");
    }
}
