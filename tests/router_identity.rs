//! Full-scenario byte-identity across routing backends (ISSUE 10,
//! satellite 1): a workload driven through the O(1)-memory analytic
//! routers must produce the *same JSON bytes* as the same workload
//! driven through the O(n²) table oracle — crash phases, multicast
//! accounting, timeouts and all. The router axis, like the event queue,
//! buys resources, never behavior.

use mm_sim::RouterKind;
use mm_workload::drive::{self, RunConfig};

/// Runs `scenario` on `topology` under hop cost with the given backend
/// and returns the canonical report JSON.
fn run_json(scenario: &str, topology: &str, n: usize, router: RouterKind) -> String {
    let mut cfg = RunConfig::new(scenario, n, 7);
    cfg.topology = topology.to_string();
    cfg.cost = mm_sim::CostModel::Hops;
    cfg.router = router;
    let report = drive::run(&cfg).expect("run succeeds");
    drive::reports_to_json(&[report], false)
}

#[test]
fn analytic_and_table_backends_emit_identical_bytes() {
    // rolling-churn exercises the crash-truncation path (walks),
    // steady-state the crash-free fast path (pure distance lookups)
    for topology in ["grid", "torus", "ring", "hypercube"] {
        for scenario in ["steady-state", "rolling-churn"] {
            let analytic = run_json(scenario, topology, 64, RouterKind::Analytic);
            let table = run_json(scenario, topology, 64, RouterKind::Table);
            assert_eq!(
                analytic, table,
                "{scenario} on {topology}: router backends diverged"
            );
        }
    }
}

#[test]
fn auto_resolves_structured_topologies_to_the_analytic_backend() {
    // Auto (the default) must pick the analytic form where one exists:
    // same bytes as forcing it explicitly
    let auto = run_json("steady-state", "hypercube", 64, RouterKind::Auto);
    let analytic = run_json("steady-state", "hypercube", 64, RouterKind::Analytic);
    assert_eq!(auto, analytic);
}

#[test]
fn hostile_scenarios_agree_across_backends() {
    // fault injection (rack kills, skew, crash-and-restore under a
    // closed-loop crowd) stresses crashed-intermediate truncation where
    // the walk actually runs hop by hop — and, for
    // flash-crowd-recovery, locates lost to a client's own same-tick
    // crash, which both backends must classify identically
    for scenario in ["rack-failure", "rendezvous-skew", "flash-crowd-recovery"] {
        let analytic = run_json(scenario, "grid", 64, RouterKind::Analytic);
        let table = run_json(scenario, "grid", 64, RouterKind::Table);
        assert_eq!(analytic, table, "{scenario}: router backends diverged");
    }
}

#[test]
fn table_backend_refuses_sizes_beyond_its_ceiling() {
    let mut cfg = RunConfig::new("steady-state", 65_536, 7);
    cfg.topology = "grid".to_string();
    cfg.cost = mm_sim::CostModel::Hops;
    cfg.router = RouterKind::Table;
    let err = drive::run(&cfg).expect_err("O(n^2) table at 65536 nodes must refuse");
    assert!(err.contains("table"), "unexpected error: {err}");
}
