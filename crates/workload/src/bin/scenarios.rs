//! Scenario sweep driver: runs library workloads against a chosen
//! `topology × strategy × cost model` and dumps JSON metrics.
//!
//! ```text
//! cargo run --release -p mm-workload --bin scenarios -- --n 1024 --seed 7
//! cargo run --release -p mm-workload --bin scenarios -- \
//!     --n 256 --scenario rolling-churn --strategy hash --topology grid --cost hops
//! cargo run --release -p mm-workload --bin scenarios -- --sweep 64,256,1024
//! cargo run --release -p mm-workload --bin scenarios -- --n 256 --runtime live
//! cargo run --release -p mm-workload --bin scenarios -- --n 256 --scenario overload-ramp
//! cargo run --release -p mm-workload --bin scenarios -- \
//!     --n 256 --scenario steady-state --clients 16 --think fixed:4 --retries 1
//! ```
//!
//! `--runtime live` executes the same specs on the threaded
//! `mm-proto` [`LiveNet`](mm_proto::live::LiveNet) runtime (one OS thread
//! per node) instead of the simulator, reporting the same JSON schema.
//!
//! `--clients N` turns any scenario closed-loop: offered arrivals queue
//! for a pool of `N` client slots (`--think`, `--retries`, `--backoff`,
//! `--window` shape the pool), and the JSON grows per-phase latency and
//! queueing-delay percentiles plus fixed-width time-series windows. The
//! dedicated closed-loop library scenarios (`overload-ramp`,
//! `flash-crowd-recovery`) carry their own pools. Without `--clients`,
//! open-loop output stays byte-compatible with the historical schema.
//!
//! `--replication F` upgrades the strategy to the paper's §2.4 redundant
//! criterion — `F+1` superimposed copies via
//! [`Replicated`](mm_core::robust::Replicated) (for `hash`, `F+1` hash
//! replicas), tolerating `F` rendezvous crashes per pair — and forces the
//! `robustness` block into the report so the overhead ("robustness …
//! has a price tag in number of message passes") is measurable against
//! the base run. The hostile-world scenarios (`rack-failure`,
//! `byzantine-liars`, `rendezvous-skew` and their `-closed` twins) carry
//! that block automatically.
//!
//! Re-running with identical arguments reproduces byte-identical output
//! (modulo the `--pretty` flag, which only reformats). Execution lives in
//! [`mm_workload::drive`]; this binary only parses flags and loops the
//! sweep, so the `mm-campaign` matrix runner produces the same bytes by
//! construction.
//!
//! # Observability
//!
//! ```text
//! scenarios --n 256 --scenario steady-state --trace out.jsonl
//! scenarios --n 256 --scenario steady-state --trace out.jsonl --runtime live
//! scenarios trace out.jsonl
//! ```
//!
//! `--trace FILE` records every operation's causal span tree (posts,
//! locate fan-outs, follow-up requests) to FILE as JSONL; on churn-free
//! scenarios the file is byte-identical across `--queue` implementations
//! *and* across `--runtime sim|live` at equal seeds. `--trace-rate R`
//! head-samples traces deterministically (a sampled file is an exact
//! subset of the full one). `scenarios trace FILE` analyzes a recorded
//! file: measured `m(P,Q)` distribution, latency attribution, and the
//! span-vs-counters conservation check (exit 1 on violation). `--obs`
//! adds per-phase counter/histogram snapshots to the JSON report,
//! `--throughput` adds wall-clock events/sec, and `--verbose` restores
//! the per-scenario stderr progress lines.

use mm_obs::{TraceConfig, TraceFile};
use mm_sim::{CostModel, QueueKind, RouterKind};
use mm_workload::drive::{self, ObsOptions, RunConfig, RuntimeKind, LIVE_THREAD_LIMIT};
use mm_workload::{scenarios, ClientModel, ScenarioReport, ThinkTime};
use std::time::Instant;

struct Args {
    ns: Vec<usize>,
    seed: u64,
    scenario: String,
    strategy: String,
    topology: String,
    cost: CostModel,
    queue: QueueKind,
    runtime: RuntimeKind,
    /// `--clients N` closed-loop override applied on top of the scenario.
    clients: Option<usize>,
    think: ThinkTime,
    retries: u32,
    backoff: u64,
    window: u64,
    /// `--replication F`: tolerated rendezvous faults; 0 = base strategy.
    replication: u64,
    /// `--router auto|analytic|table`: routing backend under hop cost.
    router: RouterKind,
    pretty: bool,
    records: bool,
    /// `--trace FILE`: write the causal span trace as JSONL.
    trace: Option<String>,
    /// `--trace-rate R`: deterministic head-sampling rate in `[0, 1]`.
    trace_rate: f64,
    /// `--obs`: per-phase metrics-registry snapshots in the JSON.
    obs: bool,
    /// `--throughput`: wall-clock events/sec per phase in the JSON.
    throughput: bool,
    /// `--verbose`: per-scenario progress lines on stderr.
    verbose: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: scenarios [--n N | --sweep N1,N2,..] [--seed S] \
         [--scenario NAME|all] [--strategy checkerboard|hash|broadcast] \
         [--topology complete|grid|torus|ring|hypercube] [--cost uniform|hops] \
         [--queue calendar|btree] [--router auto|analytic|table] \
         [--runtime sim|live] \
         [--clients N] [--think zero|fixed:T|exp:M] [--retries R] \
         [--backoff B] [--window W] [--replication F] \
         [--pretty] [--records] \
         [--trace FILE] [--trace-rate R] [--obs] [--throughput] [--verbose]\n\
         \nusage: scenarios trace FILE    (analyze a recorded trace: \
         measured m(P,Q),\nlatency attribution, conservation check — \
         exit 1 on violation)\n\
         \n--runtime live drives the same specs through the threaded \
         mm-proto LiveNet runtime\n(complete network, uniform cost, \
         n <= {LIVE_THREAD_LIMIT}) and reports the same schema.\n\
         --clients N runs the scenario closed-loop: a pool of N clients, \
         latency/queueing-delay\npercentiles and time-series windows in \
         the JSON ('all' stays the open-loop five).\n\
         --replication F superimposes F+1 strategy copies (paper 2.4: \
         tolerate F rendezvous\ncrashes per pair) and reports the \
         robustness block with the measured overhead.\n\
         --router picks the hop-cost routing backend: auto (default) \
         routes structured\ntopologies in O(1) memory, table forces the \
         O(n^2) oracle (byte-identical output).\n\nopen-loop \
         scenarios: {}\nclosed-loop scenarios: {}\nhostile scenarios: {}",
        scenarios::ALL.join(", "),
        scenarios::CLOSED_LOOP.join(", "),
        scenarios::HOSTILE.join(", ")
    );
    std::process::exit(2);
}

/// Parses a `--think` spec: `zero`, `fixed:T` or `exp:M`.
fn parse_think(s: &str) -> Option<ThinkTime> {
    if s == "zero" {
        return Some(ThinkTime::Zero);
    }
    if let Some(t) = s.strip_prefix("fixed:") {
        return t.parse().ok().map(|ticks| ThinkTime::Fixed { ticks });
    }
    if let Some(m) = s.strip_prefix("exp:") {
        return m
            .parse()
            .ok()
            .filter(|m: &f64| *m > 0.0)
            .map(|mean| ThinkTime::Exponential { mean });
    }
    None
}

fn parse_args() -> Args {
    let mut args = Args {
        ns: vec![1024],
        seed: 7,
        scenario: "all".into(),
        strategy: "checkerboard".into(),
        topology: "complete".into(),
        cost: CostModel::Uniform,
        queue: QueueKind::Calendar,
        runtime: RuntimeKind::Sim,
        clients: None,
        think: ThinkTime::Fixed { ticks: 2 },
        retries: 1,
        backoff: 8,
        window: 250,
        replication: 0,
        router: RouterKind::Auto,
        pretty: false,
        records: false,
        trace: None,
        trace_rate: 1.0,
        obs: false,
        throughput: false,
        verbose: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--n" => {
                args.ns = vec![value(&argv, &mut i).parse().unwrap_or_else(|_| usage())];
            }
            "--sweep" => {
                args.ns = value(&argv, &mut i)
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--seed" => args.seed = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--scenario" => args.scenario = value(&argv, &mut i),
            "--strategy" => args.strategy = value(&argv, &mut i),
            "--topology" => args.topology = value(&argv, &mut i),
            "--cost" => {
                args.cost = match value(&argv, &mut i).as_str() {
                    "uniform" => CostModel::Uniform,
                    "hops" => CostModel::Hops,
                    _ => usage(),
                }
            }
            "--queue" => {
                args.queue = drive::parse_queue(&value(&argv, &mut i)).unwrap_or_else(|| usage())
            }
            "--runtime" => {
                args.runtime = RuntimeKind::parse(&value(&argv, &mut i)).unwrap_or_else(|| usage())
            }
            "--clients" => {
                args.clients = Some(value(&argv, &mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--think" => {
                args.think = parse_think(&value(&argv, &mut i)).unwrap_or_else(|| usage());
            }
            "--retries" => args.retries = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--backoff" => args.backoff = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--window" => args.window = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--replication" => {
                args.replication = value(&argv, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--router" => {
                args.router = drive::parse_router(&value(&argv, &mut i)).unwrap_or_else(|| usage())
            }
            "--pretty" => args.pretty = true,
            "--records" => args.records = true,
            "--trace" => args.trace = Some(value(&argv, &mut i)),
            "--trace-rate" => {
                args.trace_rate = value(&argv, &mut i)
                    .parse()
                    .ok()
                    .filter(|r: &f64| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| usage());
            }
            "--obs" => args.obs = true,
            "--throughput" => args.throughput = true,
            "--verbose" => args.verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if args.ns.is_empty() || args.ns.contains(&0) {
        usage();
    }
    // reject impossible live-runtime combinations before any scenario
    // runs: a failed sweep should not burn minutes of completed work
    // first and then discard it at the incompatible size
    if args.runtime == RuntimeKind::Live {
        if args.topology != "complete" || args.cost != CostModel::Uniform {
            eprintln!("error: --runtime live is a complete network under uniform cost");
            std::process::exit(2);
        }
        if let Some(&n) = args.ns.iter().find(|&&n| n > LIVE_THREAD_LIMIT) {
            eprintln!(
                "error: --runtime live spawns one thread per node; \
                 --n {n} exceeds the limit {LIVE_THREAD_LIMIT}"
            );
            std::process::exit(2);
        }
    }
    // a trace file records ONE run: requiring a single scenario × size
    // keeps the header/footer unambiguous and the file analyzable
    if args.trace.is_some() && (args.scenario == "all" || args.ns.len() != 1) {
        eprintln!("error: --trace needs a single --scenario and a single --n");
        std::process::exit(2);
    }
    args
}

/// The `scenarios trace FILE` subcommand: parse, analyze, render; exit 1
/// when the conservation check is applicable but violated.
fn trace_cmd(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(2);
    });
    let file = TraceFile::from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("error: parsing {path}: {e}");
        std::process::exit(2);
    });
    let analysis = mm_obs::analyze(&file);
    print!("{}", analysis.render());
    if analysis.conservation.applicable && !analysis.conservation.holds() {
        eprintln!("error: span costs do not reproduce the run's message counters");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// One scenario × size of the sweep as a [`drive::RunConfig`].
fn to_config(args: &Args, name: &str, n: usize) -> RunConfig {
    RunConfig {
        scenario: name.to_string(),
        n,
        seed: args.seed,
        strategy: args.strategy.clone(),
        topology: args.topology.clone(),
        cost: args.cost,
        queue: args.queue,
        runtime: args.runtime,
        clients: args.clients.map(|clients| ClientModel {
            clients,
            think: args.think,
            retry_budget: args.retries,
            retry_backoff: args.backoff,
            window: args.window,
        }),
        replication: args.replication,
        router: args.router,
    }
}

/// The observability switches the flags select.
fn to_obs(args: &Args) -> ObsOptions {
    ObsOptions {
        trace: args
            .trace
            .as_ref()
            .map(|_| TraceConfig::with_rate(args.seed, args.trace_rate)),
        obs: args.obs,
        throughput: args.throughput,
    }
}

/// Maps a drive error to the CLI's invalid-invocation exit.
fn fail(e: String) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    // `scenarios trace FILE` — the analysis subcommand
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace") {
        match argv.as_slice() {
            [_, path] => trace_cmd(path),
            _ => usage(),
        }
    }
    let args = parse_args();
    // "all" stays the open-loop five (their concatenated JSON is a
    // compatibility surface); the closed-loop library is addressed by name
    let names: Vec<&str> = if args.scenario == "all" {
        scenarios::ALL.to_vec()
    } else {
        let known = args.scenario.as_str();
        if !scenarios::ALL.contains(&known)
            && !scenarios::CLOSED_LOOP.contains(&known)
            && !scenarios::HOSTILE.contains(&known)
        {
            usage();
        }
        vec![known]
    };
    // fail fast on invalid flag × scenario combinations (e.g. --clients
    // over a request_after_locate workload) before ANY scenario runs: a
    // sweep must not complete half its work and then discard it mid-way
    // (spec validity does not depend on n, so the first size suffices)
    for name in &names {
        let cfg = to_config(&args, name, args.ns[0]);
        drive::build_spec(&cfg, args.ns[0]).unwrap_or_else(|e| fail(e));
    }
    let obs = to_obs(&args);

    let mut reports = Vec::new();
    let mut trace_out: Option<TraceFile> = None;
    for &n in &args.ns {
        for name in &names {
            if args.verbose {
                eprintln!("running {name} at n={n} (seed {}) ...", args.seed);
            }
            let cfg = to_config(&args, name, n);
            let t0 = Instant::now();
            let (report, trace) = drive::run_traced(&cfg, &obs).unwrap_or_else(|e| fail(e));
            let wall = t0.elapsed().as_secs_f64();
            if args.verbose {
                // wall-clock throughput goes to stderr only: stdout JSON
                // must stay byte-identical across equal-seed runs
                let events = report.events_executed();
                eprintln!(
                    "  {events} events in {wall:.3}s ({:.0} events/sec), peak queue depth {}",
                    events as f64 / wall.max(1e-9),
                    report.peak_queue_depth(),
                );
            }
            if trace.is_some() {
                trace_out = trace;
            }
            reports.push(report);
        }
    }
    if let (Some(path), Some(file)) = (&args.trace, &trace_out) {
        if let Err(e) = std::fs::write(path, file.to_jsonl()) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
    }

    if args.records {
        // mm-analysis theory-vs-measured records as a markdown table
        let records: Vec<_> = reports.iter().flat_map(ScenarioReport::records).collect();
        println!("{}", mm_analysis::record::to_markdown(&records));
        return;
    }

    print!("{}", drive::reports_to_json(&reports, args.pretty));
}
