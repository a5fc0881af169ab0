//! `perfbench` — the repository benchmark.
//!
//! Runs one named workload (defined in `workloads.json`) through the
//! public `mm_workload` API, one workload per process, single-threaded,
//! repeating the run for a fixed host-time budget. Every report is
//! checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Lines
//! before it print every metric by name with its unit.
//!
//! `--trace 1` adds, after the timed repeats: one pass with `mm-obs`
//! causal tracing at a fixed head-sampling rate, one pass with the metrics
//! registry and per-phase throughput on, and the layer probes. It writes
//! the benchmark's own spans and a per-layer table under `out/`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady-complete-1m --seed 7 --seconds 10 --trace 0
//! ```

mod derive;
mod probes;
mod spans;

use derive::Counts;
use mm_core::strategies::Checkerboard;
use mm_obs::{TraceConfig, TraceFile};
use mm_sim::CostModel;
use mm_workload::drive::{self, RunConfig};
use mm_workload::{ScenarioReport, ScenarioRunner};
use serde::Deserialize;
use spans::SpanLog;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1   (NAME from workloads.json)";

/// Timed repeats per run even when the budget is spent sooner, so every
/// host-time median has at least this many samples.
const MIN_REPEATS: usize = 3;

/// Set-up samples per run: repeats that take long leave few, so extra
/// set-up-only rounds top them up (set-up is cheap next to a run).
const MIN_SETUPS: usize = 20;

/// Head-sampling rate of the `mm-obs` traced pass.
const TRACE_SAMPLE_RATE: f64 = 0.1;

const WORKLOADS_JSON: &str = include_str!("../workloads.json");

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive whole number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark's workload definitions.
#[derive(Debug, Deserialize)]
struct WorkloadsFile {
    workloads: Vec<WorkloadDef>,
}

/// One workload of `workloads.json`. The benchmark reads its name, the
/// `RunConfig` fields it sets on top of `RunConfig::new`, and the counts
/// pinned per seed; the other keys document the workload.
#[derive(Debug, Clone, Deserialize)]
struct WorkloadDef {
    name: String,
    run_config: RecordedConfig,
    pins: Vec<Pin>,
}

#[derive(Debug, Clone, Deserialize)]
struct RecordedConfig {
    scenario: String,
    n: usize,
    topology: String,
    cost: String,
}

#[derive(Debug, Clone, Copy, Deserialize)]
struct Pin {
    seed: u64,
    counts: Counts,
}

impl WorkloadDef {
    fn run_config(&self, seed: u64) -> Result<RunConfig, String> {
        let rc = &self.run_config;
        let mut cfg = RunConfig::new(&rc.scenario, rc.n, seed);
        cfg.topology = rc.topology.clone();
        cfg.cost = match rc.cost.as_str() {
            "uniform" => CostModel::Uniform,
            "hops" => CostModel::Hops,
            other => return Err(format!("workloads.json: unknown cost `{other}`")),
        };
        Ok(cfg)
    }

    fn pin(&self, seed: u64) -> Option<Counts> {
        self.pins.iter().find(|p| p.seed == seed).map(|p| p.counts)
    }
}

fn load_workloads(text: &str) -> Result<Vec<WorkloadDef>, String> {
    serde_json::from_str(text)
        .and_then(|v| WorkloadsFile::from_value(&v))
        .map(|f| f.workloads)
        .map_err(|e| format!("workloads.json: {e}"))
}

/// Which observability the runner has on during a pass.
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// Everything off: the timed repeats.
    Plain,
    /// Metrics registry and per-phase wall-clock throughput.
    Obs,
    /// `mm-obs` causal tracing.
    Traced(TraceConfig),
}

/// Host seconds of the three set-up calls.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    graph_s: f64,
    spec_s: f64,
    runner_new_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.graph_s + self.spec_s + self.runner_new_s
    }
}

/// One scenario run, timed call by call.
struct Run {
    setup: SetupTimes,
    run_s: f64,
    report_json_s: f64,
    report: ScenarioReport,
    json: String,
    trace: Option<TraceFile>,
}

/// Builds the runner for `cfg` exactly as `drive::run` does for a
/// single-copy checkerboard config, with a span around each call.
fn set_up(
    cfg: &RunConfig,
    log: &mut SpanLog,
) -> Result<(ScenarioRunner<Checkerboard>, SetupTimes), String> {
    if cfg.strategy != "checkerboard" || cfg.replication != 0 {
        return Err(format!(
            "the benchmark runs single-copy checkerboard only, not {} with replication {}",
            cfg.strategy, cfg.replication
        ));
    }
    let (graph, graph_t) = log.span("topo.graph", |_| {
        drive::build_graph(&cfg.topology, cfg.n, cfg.cost, cfg.router)
    });
    let graph = graph?;
    let n = graph.node_count();
    let (spec, spec_t) = log.span("workload.spec", |_| drive::build_spec(cfg, n));
    let spec = spec?;
    let (runner, new_t) = log.span("workload.runner_new", |_| {
        ScenarioRunner::with_router(
            spec,
            graph,
            Checkerboard::new(n),
            cfg.cost,
            &cfg.strategy,
            cfg.queue,
            cfg.shard_mode(),
            cfg.router,
        )
    });
    let times = SetupTimes {
        graph_s: graph_t.as_secs_f64(),
        spec_s: spec_t.as_secs_f64(),
        runner_new_s: new_t.as_secs_f64(),
    };
    Ok((runner, times))
}

/// Sets up and runs `cfg` once, with the observability `pass` asks for.
fn run_once(cfg: &RunConfig, pass: Pass, log: &mut SpanLog) -> Result<Run, String> {
    let name = match pass {
        Pass::Plain => "repeat",
        Pass::Obs => "pass.obs",
        Pass::Traced(_) => "pass.traced",
    };
    log.span(name, |log| {
        let (mut runner, setup) = set_up(cfg, log)?;
        match pass {
            Pass::Plain => {}
            Pass::Obs => {
                runner.enable_obs();
                runner.enable_throughput();
            }
            Pass::Traced(tc) => runner.set_trace(tc),
        }
        let ((report, trace), run_t) = log.span("workload.run", |_| runner.run_traced());
        let (json, json_t) = log.span("workload.report_json", |_| {
            drive::reports_to_json(std::slice::from_ref(&report), false)
        });
        Ok(Run {
            setup,
            run_s: run_t.as_secs_f64(),
            report_json_s: json_t.as_secs_f64(),
            report,
            json,
            trace,
        })
    })
    .0
}

/// Output checks over all runs of one process. A run failing any check
/// counts all its operations as failed.
#[derive(Debug, Default)]
struct Checker {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn record(&mut self, report: &ScenarioReport, checks: &[Result<(), String>]) {
        let ops = derive::primary_arrivals(report).max(1);
        self.attempted += ops;
        let before = self.problems.len();
        self.problems
            .extend(checks.iter().filter_map(|c| c.as_ref().err().cloned()));
        if self.problems.len() > before {
            self.failed += ops;
        }
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_line(correct: bool, checker: &Checker, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.attempted, checker.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The commit of the checkout the benchmark was built in, read from its
/// `.git` directory; checkouts without one report that instead.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved ({head})"))
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// A human-readable spread of a host-time sample.
fn spread(xs: &[f64]) -> String {
    let (q1, q3) = derive::quartiles(xs);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "median of {}; q1 {q1:.6}, q3 {q3:.6}, min {min:.6}, max {max:.6}",
        xs.len()
    )
}

fn print_metric(m: &Metric, note: &str) {
    println!("{:<34} {:>16.6} {:<6} {note}", m.name, m.value, m.unit);
}

fn bench(args: &Args, def: &WorkloadDef) -> Result<String, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = def.run_config(args.seed)?;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        def.name, args.seed, args.seconds, args.trace as u8
    );
    let env_line = format!(
        "# env nproc={} commit={} rustc={}",
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        git_commit(root.parent().unwrap_or(root)),
        rustc_version()
    );
    println!("{env_line}");
    println!("# config {cfg:?}");

    let mut log = SpanLog::default();
    let mut checker = Checker::default();
    let pin = def.pin(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    while runs.len() < MIN_REPEATS || start.elapsed() < budget {
        let run = run_once(&cfg, Pass::Plain, &mut log)?;
        let mut checks = vec![derive::check_conservation(&run.report)];
        if let Some(first) = runs.first() {
            if run.json != first.json {
                checks.push(Err("report bytes differ from the first repeat".into()));
            }
        }
        if let Some(pin) = pin {
            checks.push(expect_eq(
                "counts pinned for this seed",
                Counts::of(&run.report),
                pin,
            ));
        }
        checker.record(&run.report, &checks);
        // keep only what the medians need from later repeats
        let run = if runs.is_empty() {
            run
        } else {
            Run {
                json: String::new(),
                ..run
            }
        };
        runs.push(run);
    }
    let mut setups: Vec<SetupTimes> = runs.iter().map(|r| r.setup).collect();
    while setups.len() < MIN_SETUPS {
        let (_runner, times) = log.span("setup", |log| set_up(&cfg, log)).0?;
        setups.push(times);
    }
    let first = &runs[0].report;
    let counts = Counts::of(first);
    println!(
        "# check: {} repeats, verdict conservation, identical report bytes, {}",
        runs.len(),
        match pin {
            Some(_) => format!("counts pinned for seed {} ({counts:?})", args.seed),
            None => format!("no counts pinned for seed {} ({counts:?})", args.seed),
        }
    );

    let setup: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    let run_s: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
    let run_med = derive::median(&run_s);

    let metrics = if !args.trace {
        let fail_ratio = derive::locate_fail_ratio(first);
        let metrics = vec![
            metric("setup_s", derive::median(&setup), "s"),
            metric("run_s", run_med, "s"),
            metric(
                "locates_per_s",
                counts.locates_completed as f64 / run_med,
                "1/s",
            ),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            metric("passes_per_locate", first.passes_per_locate(), "passes"),
            metric("locate_ok_ratio", 1.0 - fail_ratio, "ratio"),
        ];
        let notes = [
            spread(&setup),
            spread(&run_s),
            "of the median run_s".into(),
            "VmHWM at exit".into(),
            "simulated".into(),
            "simulated".into(),
        ];
        for (m, note) in metrics.iter().zip(notes) {
            print_metric(m, &note);
        }
        // deterministic end-to-end figures that are 0 or undefined on some
        // workloads: printed here, reported as per-layer metrics
        print_metric(
            &metric("locate_fail_ratio", fail_ratio, "ratio"),
            "simulated; (unresolved+abandoned+false_match)/primary arrivals",
        );
        for (name, v) in [
            (
                "latency_p99_ticks",
                derive::worst_phase(first, |c| c.latency_p99),
            ),
            (
                "queue_delay_p99_ticks",
                derive::worst_phase(first, |c| c.queue_delay_p99),
            ),
        ] {
            match v {
                Some(v) => print_metric(&metric(name, v, "ticks"), "simulated; worst phase"),
                None => println!(
                    "{name:<34} {:>16} {:<6} open loop: no client pool",
                    "n/a", "ticks"
                ),
            }
        }
        metrics
    } else {
        let (metrics, notes) = layer_metrics(&cfg, &runs, &setups, &mut log, &mut checker)?;
        let mut table = format!(
            "# perfbench layers: workload={} seed={}\n{env_line}\n\n",
            def.name, args.seed
        );
        let _ = writeln!(
            table,
            "{:<28} {:>6} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for t in log.totals() {
            let _ = writeln!(
                table,
                "{:<28} {:>6} {:>12.6} {:>12.6}",
                t.name, t.count, t.total_s, t.self_s
            );
        }
        let _ = writeln!(table, "\n{:<34} {:>16} unit", "metric", "value");
        for m in &metrics {
            let _ = writeln!(table, "{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(table, "\n{notes}");
        print!("{table}");
        let out = root.join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let stem = format!("{}-s{}", def.name, args.seed);
        for (ext, text) in [("spans.jsonl", log.to_jsonl()), ("layers.txt", table)] {
            let path = out.join(format!("{stem}.{ext}"));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        metrics
    };
    let correct = checker.problems.is_empty();
    for p in &checker.problems {
        println!("# FAILED check: {p}");
    }
    result_line(correct, &checker, &metrics)
}

/// The traced run: the passes and probes behind the per-layer metrics.
/// Returns the metrics and a note on the probes and tracing overhead.
fn layer_metrics(
    cfg: &RunConfig,
    runs: &[Run],
    setups: &[SetupTimes],
    log: &mut SpanLog,
    checker: &mut Checker,
) -> Result<(Vec<Metric>, String), String> {
    let first = &runs[0].report;
    let counts = Counts::of(first);
    let med = |xs: Vec<f64>| derive::median(&xs);
    let run_med = med(runs.iter().map(|r| r.run_s).collect());
    let setup_med = |f: fn(&SetupTimes) -> f64| med(setups.iter().map(f).collect());

    // the traced pass runs right after the last timed repeat and is
    // compared with it: host speed drifts over minutes, so the adjacent
    // repeat is the fairer untraced baseline than the median
    let traced = run_once(
        cfg,
        Pass::Traced(TraceConfig::with_rate(cfg.seed, TRACE_SAMPLE_RATE)),
        log,
    )?;
    let untraced_s = runs.last().expect("at least one repeat").run_s;
    let overhead = traced.run_s / untraced_s;
    let obs = run_once(cfg, Pass::Obs, log)?;
    for pass in [&obs, &traced] {
        let checks = [
            derive::check_conservation(&pass.report),
            expect_eq("observed pass counts", Counts::of(&pass.report), counts),
        ];
        checker.record(&pass.report, &checks);
    }
    let trace = traced
        .trace
        .as_ref()
        .ok_or("the traced pass returned no trace")?;

    let phase_obs: Vec<_> = obs
        .report
        .phases
        .iter()
        .filter_map(|p| p.obs.as_ref())
        .collect();
    let hists = |name: &'static str| phase_obs.iter().filter_map(move |o| o.histogram(name));
    let queue_depth = derive::merge_buckets(hists("queue_depth"));
    let phase_ns: Vec<f64> = obs
        .report
        .phases
        .iter()
        .map(|p| p.throughput.map_or(0.0, |eps| 1e9 / eps))
        .collect();
    if phase_ns.len() != 3 {
        return Err(format!(
            "expected 3 phases, the scenario has {}",
            phase_ns.len()
        ));
    }

    // layer probes on the workload's own topology, strategy, n and seed
    let graph = drive::build_graph(&cfg.topology, cfg.n, cfg.cost, cfg.router)?;
    let n = graph.node_count();
    let router = probes::router_for(&graph)?;
    let seed = cfg.seed;
    let (mc, _) = log.span("probe.topo.multicast_cost", |_| {
        probes::multicast_cost(&router, n, seed)
    });
    let (mc_us, mc_sum) = mc?;
    let (dist_ns, _) = log.span("probe.topo.distance", |_| {
        probes::distance(&router, n, seed)
    });
    let spread_ticks = probes::eccentricity(&router, cfg.cost);
    let (queue_ns, _) = log.span("probe.sim.queue", |_| {
        probes::queue(first.peak_queue_depth(), spread_ticks, seed)
    });
    let (idle, _) = log.span("probe.proto.idle_locate", |_| {
        probes::idle_locate(graph, cfg.cost, cfg.queue, cfg.router, seed)
    });
    let (idle_us, idle_passes) = idle?;
    let (qs_us, _) = log.span("probe.core.query_set", |_| probes::query_set(n, seed));

    let r = first;
    let metrics = vec![
        metric("topo.graph_s", setup_med(|s| s.graph_s), "s"),
        metric("workload.spec_s", setup_med(|s| s.spec_s), "s"),
        metric("workload.runner_new_s", setup_med(|s| s.runner_new_s), "s"),
        metric(
            "sim.events_executed",
            counts.events_executed as f64,
            "count",
        ),
        metric("sim.peak_queue_depth", r.peak_queue_depth() as f64, "count"),
        metric(
            "sim.ns_per_event",
            run_med * 1e9 / counts.events_executed as f64,
            "ns",
        ),
        metric(
            "sim.queue_depth_p50",
            derive::bucket_quantile(&queue_depth, 0.5) as f64,
            "count",
        ),
        metric(
            "workload.report_json_s",
            med(runs.iter().map(|r| r.report_json_s).collect()),
            "s",
        ),
        metric(
            "workload.report_json_bytes",
            runs[0].json.len() as f64,
            "bytes",
        ),
        metric("workload.phase1.ns_per_event", phase_ns[0], "ns"),
        metric("workload.phase2.ns_per_event", phase_ns[1], "ns"),
        metric("workload.phase3.ns_per_event", phase_ns[2], "ns"),
        metric("workload.crashes", derive::crashes(r) as f64, "count"),
        metric("workload.retries", derive::retries(r) as f64, "count"),
        metric("workload.abandoned", derive::abandoned(r) as f64, "count"),
        metric("workload.retry_ratio", derive::retry_ratio(r), "ratio"),
        metric(
            "workload.locate_fail_ratio",
            derive::locate_fail_ratio(r),
            "ratio",
        ),
        metric(
            "workload.latency_p99_ticks",
            derive::worst_phase(r, |c| c.latency_p99).unwrap_or(0.0),
            "ticks",
        ),
        metric(
            "workload.queue_delay_p99_ticks",
            derive::worst_phase(r, |c| c.queue_delay_p99).unwrap_or(0.0),
            "ticks",
        ),
        metric(
            "proto.message_passes",
            counts.message_passes as f64,
            "count",
        ),
        metric("proto.delivery_ratio", derive::delivery_ratio(r), "ratio"),
        metric("proto.hit_rate", r.hit_rate(), "ratio"),
        metric(
            "proto.locate_fanout_mean",
            derive::hist_mean(hists("locate_fanout")),
            "count",
        ),
        metric(
            "proto.locate_meets_mean",
            derive::hist_mean(hists("locate_meets")),
            "count",
        ),
        metric("topo.multicast_cost_us", mc_us, "us"),
        metric("topo.distance_ns", dist_ns?, "ns"),
        metric("sim.queue_ns_per_op", queue_ns?, "ns"),
        metric("proto.idle_locate_us", idle_us, "us"),
        metric("proto.idle_locate_passes", idle_passes, "count"),
        metric("core.query_set_us", qs_us?, "us"),
        metric("obs.traced_run_s", traced.run_s, "s"),
        metric("obs.spans", trace.spans.len() as f64, "count"),
        metric("obs.tracing_overhead", overhead, "ratio"),
    ];

    let phase_names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
    let notes = format!(
        "phases 1..3 = {}; multicast probe checksum {mc_sum} passes over 16 sets; \
         queue probe depth {} spread {spread_ticks} ticks\n\
         tracing overhead: traced run_s {:.6} s (mm-obs, sample rate {TRACE_SAMPLE_RATE}, {} spans) \
         vs the adjacent untraced repeat {untraced_s:.6} s = x{overhead:.4}; \
         benchmark spans: {} recorded",
        phase_names.join(", "),
        r.peak_queue_depth(),
        traced.run_s,
        trace.spans.len(),
        log.spans().len(),
    );
    Ok((metrics, notes))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let defs = match load_workloads(WORKLOADS_JSON) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(def) = defs.iter().find(|d| d.name == args.workload) else {
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    match bench(&args, def) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(argv("--workload w --seed 23 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "w".into(),
                seed: 23,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(argv("--workload w --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(argv("--workload w --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(argv("--workload w --seed 7 --trace 0")).is_err());
        assert!(parse_args(argv("--workload w --seed x --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn workloads_file_defines_three_pinned_workloads() {
        let defs = load_workloads(WORKLOADS_JSON).unwrap();
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "steady-complete-1m",
                "steady-torus-262k",
                "churn-closed-262k"
            ]
        );
        for d in &defs {
            d.run_config(7).unwrap();
            assert!(
                d.pin(7).is_some() && d.pin(23).is_some(),
                "{} pins seeds 7 and 23",
                d.name
            );
        }
    }

    /// The benchmark's own build-and-run path must produce the bytes
    /// `drive::run` produces, so it measures what the CLI runs.
    #[test]
    fn run_once_matches_drive_run() {
        for (scenario, topology, cost) in [
            ("steady-state", "complete", CostModel::Uniform),
            ("steady-state", "torus", CostModel::Hops),
            ("flash-crowd-recovery", "complete", CostModel::Uniform),
        ] {
            let mut cfg = RunConfig::new(scenario, 64, 7);
            cfg.topology = topology.into();
            cfg.cost = cost;
            let mut log = SpanLog::default();
            let ours = run_once(&cfg, Pass::Plain, &mut log).unwrap();
            let theirs = drive::reports_to_json(&[drive::run(&cfg).unwrap()], false);
            assert_eq!(ours.json, theirs, "{scenario} on {topology}");
            let names: Vec<&str> = log.spans().iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "repeat",
                    "topo.graph",
                    "workload.spec",
                    "workload.runner_new",
                    "workload.run",
                    "workload.report_json"
                ]
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let checker = Checker {
            attempted: 10,
            failed: 0,
            problems: vec![],
        };
        let line = result_line(true, &checker, &[metric("run_s", 1.25, "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let v = serde_json::from_str(&line).unwrap();
        assert!(v.get("metrics").and_then(|m| m.get("run_s")).is_some());
        assert!(result_line(true, &checker, &[metric("x", f64::NAN, "s")]).is_err());
    }

    #[test]
    fn a_failed_check_fails_every_operation_of_its_run() {
        let report = drive::run(&RunConfig::new("steady-state", 64, 7)).unwrap();
        let ops = derive::primary_arrivals(&report);
        let mut c = Checker::default();
        c.record(&report, &[Ok(())]);
        c.record(&report, &[Ok(()), Err("bytes differ".into())]);
        assert_eq!((c.attempted, c.failed), (2 * ops, ops));
        assert_eq!(c.problems, ["bytes differ"]);
    }
}
