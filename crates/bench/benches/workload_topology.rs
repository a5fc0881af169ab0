//! Topology-sweep workload bench (ISSUE 10, satellite 3): whole library
//! scenarios under the hop cost model on structured topologies, routed
//! by the O(1)-memory analytic routers. This is the end-to-end number
//! the `routing_hot_path` microbench only approximates — event
//! execution, multicast coverage walks and timeout sweeps included.
//!
//! `TOPO_SNAPSHOT=path` mode performs one timed pass per cell (adding
//! the n = 1,048,576 row the criterion axis would take too long to
//! sample) and writes the JSON table quoted in the README's
//! "Topologies at scale" section.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mm_sim::RouterKind;
use mm_workload::drive::{self, RunConfig};

const TOPOLOGIES: [&str; 4] = ["grid", "torus", "hypercube", "ring"];

/// One steady-state run on `topology` at `n`, like the topology-scale
/// campaign; returns deterministic executed-event count.
fn run_cell(topology: &str, n: usize) -> u64 {
    let mut cfg = RunConfig::new("steady-state", n, 7);
    cfg.topology = topology.to_string();
    cfg.cost = mm_sim::CostModel::Hops;
    cfg.router = RouterKind::Auto;
    let report = drive::run(&cfg).expect("cell runs");
    report.events_executed()
}

fn topology_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_topology");
    group.sample_size(5);
    // cells at 65,536: big enough that a table would need 32 GiB, small
    // enough to sample under criterion
    for topology in TOPOLOGIES {
        group.bench_with_input(
            BenchmarkId::new("steady-state/hops", topology),
            &topology,
            |b, &topology| b.iter(|| run_cell(topology, 65_536)),
        );
    }
    group.finish();
}

/// `TOPO_SNAPSHOT=path`: one timed pass per topology × {65,536 /
/// 1,048,576}, like the topology-scale campaign. `events` is
/// deterministic; `secs` is host wall-clock.
fn write_snapshot(path: &str) {
    let mut cases = Vec::new();
    for n in [65_536usize, 1 << 20] {
        for topology in TOPOLOGIES {
            let t0 = std::time::Instant::now();
            let events = run_cell(topology, n);
            let secs = t0.elapsed().as_secs_f64();
            eprintln!("steady-state/{topology} n={n}: {events} events in {secs:.3}s");
            cases.push(format!(
                "    {{\"scenario\": \"steady-state\", \"topology\": \"{topology}\", \
                 \"n\": {n}, \"events\": {events}, \"secs\": {secs:.3}, \
                 \"events_per_sec\": {:.0}}}",
                events as f64 / secs.max(1e-9),
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"workload_topology\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        cases.join(",\n")
    );
    std::fs::write(path, json).expect("snapshot path must be writable");
}

criterion_group!(benches, topology_sweep);

fn main() {
    if let Ok(path) = std::env::var("TOPO_SNAPSHOT") {
        write_snapshot(&path);
        return;
    }
    benches();
}
