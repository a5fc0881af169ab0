//! Metric derivation and output checks: pure functions over
//! [`ScenarioReport`]s and sample vectors, kept apart from the timing loop
//! so they can be tested on small-n report fixtures.

use mm_obs::HistogramSnap;
use mm_workload::{ClosedLoopStats, ScenarioReport};
use serde::Deserialize;

/// Operations the workload offered: closed-loop phases count offers (a
/// retry is another attempt of the same operation), open-loop phases count
/// issued locates.
pub fn primary_arrivals(r: &ScenarioReport) -> u64 {
    r.phases
        .iter()
        .map(|p| {
            p.closed_loop
                .as_ref()
                .map_or(p.locates_issued, |c| c.offered)
        })
        .sum()
}

/// Operations handed to the network: dispatched by the client pool in a
/// closed loop, issued directly in an open loop.
pub fn dispatched(r: &ScenarioReport) -> u64 {
    r.phases
        .iter()
        .map(|p| {
            p.closed_loop
                .as_ref()
                .map_or(p.locates_issued, |c| c.dispatched)
        })
        .sum()
}

fn closed_sum(r: &ScenarioReport, f: impl Fn(&ClosedLoopStats) -> u64) -> u64 {
    r.phases
        .iter()
        .filter_map(|p| p.closed_loop.as_ref())
        .map(f)
        .sum()
}

/// Extra attempts spent by the client pool's retry budget (0 in an open loop).
pub fn retries(r: &ScenarioReport) -> u64 {
    closed_sum(r, |c| c.retries)
}

/// Offered operations still queued at the horizon (0 in an open loop).
pub fn abandoned(r: &ScenarioReport) -> u64 {
    closed_sum(r, |c| c.abandoned)
}

/// Retries per dispatched operation.
pub fn retry_ratio(r: &ScenarioReport) -> f64 {
    ratio(retries(r), dispatched(r))
}

/// `(unresolved + abandoned + false_match) / primary arrivals`: the share
/// of offered locates the simulated world failed to answer correctly.
pub fn locate_fail_ratio(r: &ScenarioReport) -> f64 {
    let unresolved: u64 = r.phases.iter().map(|p| p.unresolved).sum();
    let false_match: u64 = r.phases.iter().filter_map(|p| p.false_match).sum();
    ratio(unresolved + abandoned(r) + false_match, primary_arrivals(r))
}

/// The worst phase's value of a closed-loop percentile, or `None` for an
/// open-loop run (no client pool, so no issue→verdict latency).
pub fn worst_phase(r: &ScenarioReport, f: impl Fn(&ClosedLoopStats) -> f64) -> Option<f64> {
    r.phases
        .iter()
        .filter_map(|p| p.closed_loop.as_ref())
        .map(f)
        .reduce(f64::max)
}

/// Delivered messages per send.
pub fn delivery_ratio(r: &ScenarioReport) -> f64 {
    let delivered: u64 = r.phases.iter().map(|p| p.delivered).sum();
    let sends: u64 = r.phases.iter().map(|p| p.sends).sum();
    ratio(delivered, sends)
}

/// Total message passes, the paper's cost unit.
pub fn message_passes(r: &ScenarioReport) -> u64 {
    r.phases.iter().map(|p| p.message_passes).sum()
}

/// Total crashed nodes over the run.
pub fn crashes(r: &ScenarioReport) -> u64 {
    r.phases.iter().map(|p| p.crashes).sum()
}

/// Checks verdict conservation: in every phase each completed locate has
/// exactly one verdict, and in a closed loop every offered operation was
/// either dispatched or abandoned.
pub fn check_conservation(r: &ScenarioReport) -> Result<(), String> {
    for p in &r.phases {
        let verdicts = p.hits
            + p.misses
            + p.unresolved
            + p.detected_lie.unwrap_or(0)
            + p.false_match.unwrap_or(0);
        if verdicts != p.locates_completed {
            return Err(format!(
                "phase {}: {verdicts} verdicts for {} completed locates",
                p.name, p.locates_completed
            ));
        }
    }
    if r.phases.iter().any(|p| p.closed_loop.is_some()) {
        let offered = closed_sum(r, |c| c.offered);
        let (dispatched, abandoned) = (closed_sum(r, |c| c.dispatched), abandoned(r));
        if offered != dispatched + abandoned {
            return Err(format!(
                "closed loop: offered {offered} != dispatched {dispatched} + abandoned {abandoned}"
            ));
        }
    }
    Ok(())
}

/// The counts pinned per workload and seed: any behaviour change moves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub struct Counts {
    /// Simulator events over the run.
    pub events_executed: u64,
    /// Message passes over the run.
    pub message_passes: u64,
    /// Completed locates over the run.
    pub locates_completed: u64,
}

impl Counts {
    /// The counts of one report.
    pub fn of(r: &ScenarioReport) -> Self {
        Counts {
            events_executed: r.events_executed(),
            message_passes: message_passes(r),
            locates_completed: r.locates_completed(),
        }
    }
}

/// Merges one histogram per phase into a single bucket list, ascending by
/// bucket lower bound.
pub fn merge_buckets<'a>(hists: impl IntoIterator<Item = &'a HistogramSnap>) -> Vec<(u64, u64)> {
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for h in hists {
        for b in &h.buckets {
            match merged.binary_search_by_key(&b.lo, |&(lo, _)| lo) {
                Ok(i) => merged[i].1 += b.count,
                Err(i) => merged.insert(i, (b.lo, b.count)),
            }
        }
    }
    merged
}

/// The lower bound of the log2 bucket holding the `q`-quantile
/// observation (0 when there are none).
pub fn bucket_quantile(buckets: &[(u64, u64)], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for &(lo, count) in buckets {
        seen += count;
        if seen >= rank {
            return lo;
        }
    }
    buckets.last().map_or(0, |&(lo, _)| lo)
}

/// Mean observation over phase histograms (0 when there are none).
pub fn hist_mean<'a>(hists: impl IntoIterator<Item = &'a HistogramSnap>) -> f64 {
    let (sum, count) = hists
        .into_iter()
        .fold((0u64, 0u64), |(s, c), h| (s + h.sum, c + h.count));
    ratio(sum, count)
}

/// `num / den`, 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of a sample (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the exclusive method); a sample of
/// one gives that value twice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |j: usize| {
        // position j/4 of the way through n+1 slots, 1-based
        let m = ((n + 1) * j) as i64;
        let k = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * k) as f64;
        let k = k as usize;
        (v[k - 1] * (4.0 - delta) + v[k] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_workload::drive::{run, RunConfig};

    /// Small-n fixtures from the real runner: an open-loop and a
    /// closed-loop report at n = 64.
    fn open_fixture() -> ScenarioReport {
        run(&RunConfig::new("steady-state", 64, 7)).expect("steady-state runs at n = 64")
    }

    fn closed_fixture() -> ScenarioReport {
        run(&RunConfig::new("flash-crowd-recovery", 64, 7))
            .expect("flash-crowd-recovery runs at n = 64")
    }

    #[test]
    fn fixtures_conserve_verdicts() {
        check_conservation(&open_fixture()).unwrap();
        check_conservation(&closed_fixture()).unwrap();
    }

    #[test]
    fn conservation_catches_a_lost_verdict() {
        let mut r = open_fixture();
        r.phases[1].hits -= 1;
        assert!(check_conservation(&r).is_err());
        let mut r = closed_fixture();
        r.phases[0].closed_loop.as_mut().unwrap().dispatched += 1;
        assert!(check_conservation(&r).is_err());
    }

    #[test]
    fn fail_ratio_counts_unresolved_abandoned_and_false_matches_per_offer() {
        let mut r = open_fixture();
        assert_eq!(
            locate_fail_ratio(&r),
            0.0,
            "a quiet open loop fails nothing"
        );
        let issued = primary_arrivals(&r);
        assert_eq!(
            issued,
            r.phases.iter().map(|p| p.locates_issued).sum::<u64>()
        );
        r.phases[0].unresolved = 3;
        r.phases[2].false_match = Some(2);
        assert_eq!(locate_fail_ratio(&r), 5.0 / issued as f64);

        let mut r = closed_fixture();
        let offered: u64 = r
            .phases
            .iter()
            .map(|p| p.closed_loop.as_ref().unwrap().offered)
            .sum();
        assert_eq!(
            primary_arrivals(&r),
            offered,
            "closed loops count offers, not retries"
        );
        for p in &mut r.phases {
            p.unresolved = 0;
            p.false_match = None;
            p.closed_loop.as_mut().unwrap().abandoned = 0;
        }
        r.phases[1].unresolved = 4;
        r.phases[2].closed_loop.as_mut().unwrap().abandoned = 6;
        assert_eq!(locate_fail_ratio(&r), 10.0 / offered as f64);
    }

    #[test]
    fn worst_phase_picks_the_largest_p99() {
        assert_eq!(worst_phase(&open_fixture(), |c| c.latency_p99), None);
        let mut r = closed_fixture();
        for (p, v) in r.phases.iter_mut().zip([5.0, 240.0, 17.5]) {
            p.closed_loop.as_mut().unwrap().latency_p99 = v;
        }
        assert_eq!(worst_phase(&r, |c| c.latency_p99), Some(240.0));
        r.phases[2].closed_loop.as_mut().unwrap().latency_p99 = 300.0;
        assert_eq!(worst_phase(&r, |c| c.latency_p99), Some(300.0));
    }

    #[test]
    fn retry_ratio_is_per_dispatch() {
        let mut r = closed_fixture();
        for p in &mut r.phases {
            let c = p.closed_loop.as_mut().unwrap();
            c.retries = 0;
            c.dispatched = 10;
        }
        r.phases[1].closed_loop.as_mut().unwrap().retries = 3;
        assert_eq!(retry_ratio(&r), 3.0 / 30.0);
        assert_eq!(retry_ratio(&open_fixture()), 0.0);
    }

    #[test]
    fn bucket_quantile_walks_cumulative_counts() {
        let merged = vec![(0, 1), (4, 2), (8, 6), (16, 1)];
        assert_eq!(bucket_quantile(&merged, 0.5), 8);
        assert_eq!(bucket_quantile(&merged, 0.3), 4);
        assert_eq!(bucket_quantile(&merged, 1.0), 16);
        assert_eq!(bucket_quantile(&[], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
