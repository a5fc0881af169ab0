//! Spec → event-timeline compilation, shared by both runtimes.
//!
//! The compiled timeline *is* the deterministic contract between the
//! simulator runner and the live threaded runner: arrival draws happen in
//! phase order before the run, churn and refresh events are merged in,
//! and same-tick events are ordered churn → refresh → arrival (the world
//! reshapes before traffic observes it). Both runners consume the
//! spec's RNG in exactly this order, so operation `k` names the same
//! (tick, kind) in both runtimes — the precondition for differential
//! testing them against each other.

use crate::spec::{ChurnAction, Workload};
use crate::traffic::{arrival_times, pick, PopularitySampler};
use mm_sim::SimTime;
use mm_topo::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

/// Runner events in time order; the discriminant doubles as the same-tick
/// priority (churn reshapes the world before traffic observes it).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    Churn(ChurnAction),
    Refresh,
    Arrival,
}

fn event_priority(e: &Event) -> u8 {
    match e {
        Event::Churn(_) => 0,
        Event::Refresh => 1,
        Event::Arrival => 2,
    }
}

/// One phase's boundaries: `[start, end)` plus its name.
pub(crate) type PhaseBounds = (SimTime, SimTime, String);

/// A compiled scenario timeline.
#[derive(Debug)]
pub(crate) struct Timeline {
    /// All events, sorted by `(tick, priority)`.
    pub events: Vec<(SimTime, Event)>,
    /// Per-phase `[start, end)` windows in spec order.
    pub phase_bounds: Vec<PhaseBounds>,
    /// Sum of phase durations.
    pub horizon: SimTime,
}

impl Timeline {
    /// Compiles `spec` into a sorted timeline, drawing every arrival gap
    /// from `rng` in phase order (part of the seed's deterministic
    /// contract — both runtimes must call this with the RNG in the same
    /// state).
    pub fn compile(spec: &Workload, rng: &mut StdRng) -> Self {
        let mut events: Vec<(SimTime, Event)> = Vec::new();
        let mut phase_bounds: Vec<PhaseBounds> = Vec::new();
        let mut cursor: SimTime = 0;
        for phase in &spec.phases {
            let (start, end) = (cursor, cursor + phase.duration);
            for t in arrival_times(phase.arrivals, start, end, rng) {
                events.push((t, Event::Arrival));
            }
            phase_bounds.push((start, end, phase.name.clone()));
            cursor = end;
        }
        let horizon = cursor;
        for ev in &spec.churn {
            events.push((ev.at, Event::Churn(ev.action.clone())));
        }
        if let Some(r) = spec.refresh_interval {
            let mut t = r;
            while t < horizon {
                events.push((t, Event::Refresh));
                t += r;
            }
        }
        events.sort_by_key(|e| (e.0, event_priority(&e.1)));
        Timeline {
            events,
            phase_bounds,
            horizon,
        }
    }
}

/// One arrival's random choices: `(client, port index)`. `None` when the
/// whole network is down (the open-loop client is dead too — and crucially
/// the RNG is *not* consumed, identically in both runtimes).
pub(crate) fn draw_arrival(
    rng: &mut StdRng,
    live: &[NodeId],
    sampler: &PopularitySampler,
) -> Option<(NodeId, usize)> {
    if live.is_empty() {
        return None;
    }
    let client = pick(live, rng);
    let port_idx = sampler.sample(rng);
    Some((client, port_idx))
}

/// Rebuilds `live` as every node not marked in `crashed`, ascending, in
/// one O(n) pass that reuses the list's capacity. The runners call it
/// once after each churn action that crashed or restored nodes: nothing
/// reads `live` while an action's batch is applied, so every later draw
/// sees the list that per-node updates would have produced.
pub(crate) fn rebuild_live(live: &mut Vec<NodeId>, crashed: &[bool]) {
    live.clear();
    live.extend(
        (0..crashed.len())
            .filter(|&v| !crashed[v])
            .map(NodeId::from),
    );
}

/// A churn action with every random draw already made: concrete nodes to
/// crash/restore, a concrete migration target — ready to execute on
/// either runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ResolvedChurn {
    Crash(NodeId),
    Restore {
        node: NodeId,
        clear_cache: bool,
    },
    Migrate {
        port_idx: usize,
        from: NodeId,
        to: NodeId,
    },
    ClearAllCaches,
    RefreshAll,
}

/// Resolves a spec-level [`ChurnAction`] against the current world state,
/// consuming the RNG in the one canonical order. Both runtimes call this
/// with identical `(rng, live, crashed, homes)` state (`live` ascending,
/// as [`rebuild_live`] leaves it), so who crashes, who restores and where
/// services migrate is decided *once*, here — the runners merely execute
/// the decisions. This is the other half of the deterministic contract
/// established by [`Timeline::compile`].
pub(crate) fn resolve_churn(
    action: &ChurnAction,
    rng: &mut StdRng,
    live: &[NodeId],
    crashed: &[bool],
    homes: &[NodeId],
) -> Vec<ResolvedChurn> {
    match *action {
        ChurnAction::CrashRandom {
            count,
            spare_servers,
        } => {
            let mut pool: Vec<NodeId> = live
                .iter()
                .copied()
                .filter(|v| !spare_servers || !homes.contains(v))
                .collect();
            let mut out = Vec::new();
            for _ in 0..count.min(pool.len()) {
                let k = rng.gen_range(0..pool.len());
                out.push(ResolvedChurn::Crash(pool.swap_remove(k)));
            }
            out
        }
        ChurnAction::CrashServer { port_index } => {
            let v = homes[port_index];
            if crashed[v.index()] {
                Vec::new()
            } else {
                vec![ResolvedChurn::Crash(v)]
            }
        }
        ChurnAction::RestoreAll { clear_caches } => (0..crashed.len())
            .filter(|&vi| crashed[vi])
            .map(|vi| ResolvedChurn::Restore {
                node: NodeId::from(vi),
                clear_cache: clear_caches,
            })
            .collect(),
        ChurnAction::MigrateRandom { port_index } => {
            // one draw over the live list with `from` left out: index
            // `k` past `from`'s position names the next node up
            let from = homes[port_index];
            let skip = live.binary_search(&from).ok();
            let len = live.len() - usize::from(skip.is_some());
            if len == 0 {
                return Vec::new();
            }
            let k = rng.gen_range(0..len);
            let to = match skip {
                Some(pos) if k >= pos => live[k + 1],
                _ => live[k],
            };
            vec![ResolvedChurn::Migrate {
                port_idx: port_index,
                from,
                to,
            }]
        }
        ChurnAction::ClearAllCaches => vec![ResolvedChurn::ClearAllCaches],
        ChurnAction::RefreshAll => vec![ResolvedChurn::RefreshAll],
        ChurnAction::CrashGroup { ref nodes } => {
            // correlated failure: the spec already names the victims, so
            // nothing is drawn — members already down are skipped, and the
            // ascending order makes the execution sequence canonical
            let mut victims: Vec<usize> = nodes
                .iter()
                .copied()
                .filter(|&vi| vi < crashed.len() && !crashed[vi])
                .collect();
            victims.sort_unstable();
            victims.dedup();
            victims
                .into_iter()
                .map(|vi| ResolvedChurn::Crash(NodeId::from(vi)))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use crate::spec::PortPopularity;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The per-node upkeep [`rebuild_live`] replaced: a binary search
    /// plus an O(n) shift for every crashed or restored node.
    fn reference_upkeep(live: &mut Vec<NodeId>, r: &ResolvedChurn) {
        match *r {
            ResolvedChurn::Crash(v) => {
                if let Ok(pos) = live.binary_search(&v) {
                    live.remove(pos);
                }
            }
            ResolvedChurn::Restore { node, .. } => {
                if let Err(pos) = live.binary_search(&node) {
                    live.insert(pos, node);
                }
            }
            _ => {}
        }
    }

    /// The migration draw the indexed skip replaced: copy the live list
    /// without `from`, then pick from the copy.
    fn reference_migration(rng: &mut StdRng, live: &[NodeId], from: NodeId) -> Option<NodeId> {
        let pool: Vec<NodeId> = live.iter().copied().filter(|&v| v != from).collect();
        (!pool.is_empty()).then(|| pick(&pool, rng))
    }

    /// A random node-reshaping churn action over `n` nodes and `ports`
    /// ports. Crash groups repeat a member and may name dead nodes.
    fn random_action(g: &mut StdRng, n: usize, ports: usize) -> ChurnAction {
        match g.gen_range(0..5) {
            0 => ChurnAction::CrashRandom {
                count: g.gen_range(0..n + 2),
                spare_servers: g.gen_bool(0.5),
            },
            1 => {
                let mut nodes: Vec<usize> =
                    (0..g.gen_range(1..6)).map(|_| g.gen_range(0..n)).collect();
                nodes.push(nodes[0]);
                ChurnAction::CrashGroup { nodes }
            }
            2 => ChurnAction::CrashServer {
                port_index: g.gen_range(0..ports),
            },
            3 => ChurnAction::MigrateRandom {
                port_index: g.gen_range(0..ports),
            },
            _ => ChurnAction::RestoreAll {
                clear_caches: g.gen_bool(0.5),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rebuilding the live list once per action gives the list the
        /// per-node upkeep gives, strictly ascending, after every action
        /// of a random churn sequence; arrival draws and migration draws
        /// (from every node, live or crashed) then consume the RNG the
        /// same way and name the same nodes.
        #[test]
        fn rebuilt_live_list_matches_per_node_upkeep(
            n in 1usize..40,
            ports in 1usize..4,
            steps in 1usize..24,
            seed in any::<u64>(),
        ) {
            let mut g = StdRng::seed_from_u64(seed);
            let mut rng = StdRng::seed_from_u64(!seed);
            let sampler = PopularitySampler::new(ports, PortPopularity::Uniform);
            let mut crashed = vec![false; n];
            let mut live: Vec<NodeId> = (0..n).map(NodeId::from).collect();
            let mut reference = live.clone();
            let mut homes: Vec<NodeId> =
                (0..ports).map(|_| NodeId::from(g.gen_range(0..n))).collect();
            for _ in 0..steps {
                let action = random_action(&mut g, n, ports);
                for r in resolve_churn(&action, &mut rng, &live, &crashed, &homes) {
                    match r {
                        ResolvedChurn::Crash(v) => crashed[v.index()] = true,
                        ResolvedChurn::Restore { node, .. } => crashed[node.index()] = false,
                        ResolvedChurn::Migrate { port_idx, to, .. } => homes[port_idx] = to,
                        _ => {}
                    }
                    reference_upkeep(&mut reference, &r);
                }
                rebuild_live(&mut live, &crashed);
                prop_assert_eq!(&live, &reference);
                prop_assert!(live.windows(2).all(|w| w[0] < w[1]));
                let (mut a, mut b) = (rng.clone(), rng.clone());
                for _ in 0..3 {
                    prop_assert_eq!(
                        draw_arrival(&mut a, &live, &sampler),
                        draw_arrival(&mut b, &reference, &sampler)
                    );
                }
                for from in (0..n).map(NodeId::from) {
                    let (mut a, mut b) = (rng.clone(), rng.clone());
                    let got = resolve_churn(
                        &ChurnAction::MigrateRandom { port_index: 0 },
                        &mut a,
                        &live,
                        &crashed,
                        &[from],
                    );
                    let got = match got.as_slice() {
                        [] => None,
                        [ResolvedChurn::Migrate { to, .. }] => Some(*to),
                        other => panic!("unexpected migration {other:?}"),
                    };
                    prop_assert_eq!(got, reference_migration(&mut b, &reference, from));
                    prop_assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn compile_is_deterministic_and_ordered() {
        let spec = scenarios::rolling_churn(64, 9);
        let mut a = StdRng::seed_from_u64(spec.seed);
        let mut b = StdRng::seed_from_u64(spec.seed);
        let ta = Timeline::compile(&spec, &mut a);
        let tb = Timeline::compile(&spec, &mut b);
        assert_eq!(ta.events, tb.events);
        assert_eq!(ta.horizon, spec.horizon());
        assert_eq!(ta.phase_bounds.len(), spec.phases.len());
        assert!(ta
            .events
            .windows(2)
            .all(|w| (w[0].0, event_priority(&w[0].1)) <= (w[1].0, event_priority(&w[1].1))));
    }

    #[test]
    fn resolve_churn_spares_servers_and_respects_pools() {
        let mut rng = StdRng::seed_from_u64(3);
        let live: Vec<NodeId> = (0..8usize).map(NodeId::from).collect();
        let crashed = vec![false; 8];
        let homes = vec![NodeId::new(2), NodeId::new(5)];
        let out = resolve_churn(
            &ChurnAction::CrashRandom {
                count: 6,
                spare_servers: true,
            },
            &mut rng,
            &live,
            &crashed,
            &homes,
        );
        assert_eq!(out.len(), 6, "everyone but the two servers dies");
        for r in &out {
            let ResolvedChurn::Crash(v) = r else {
                panic!("only crashes expected")
            };
            assert!(!homes.contains(v), "servers are spared");
        }
        // migration never targets the current home
        let out = resolve_churn(
            &ChurnAction::MigrateRandom { port_index: 0 },
            &mut rng,
            &live,
            &crashed,
            &homes,
        );
        let [ResolvedChurn::Migrate { from, to, .. }] = out.as_slice() else {
            panic!("one migration expected")
        };
        assert_eq!(*from, NodeId::new(2));
        assert_ne!(to, from);
    }

    #[test]
    fn crash_group_is_rng_free_and_skips_the_dead() {
        let mut rng = StdRng::seed_from_u64(11);
        let live: Vec<NodeId> = (0..8usize).map(NodeId::from).collect();
        let mut crashed = vec![false; 8];
        crashed[5] = true;
        let homes = vec![NodeId::new(2)];
        let before = rng.clone();
        let out = resolve_churn(
            &ChurnAction::CrashGroup {
                nodes: vec![6, 5, 4, 6],
            },
            &mut rng,
            &live,
            &crashed,
            &homes,
        );
        assert_eq!(rng, before, "correlated kills draw nothing");
        assert_eq!(
            out,
            vec![
                ResolvedChurn::Crash(NodeId::new(4)),
                ResolvedChurn::Crash(NodeId::new(6)),
            ],
            "ascending, deduped, already-dead member skipped"
        );
    }

    #[test]
    fn same_tick_churn_precedes_arrivals() {
        let spec = scenarios::cold_vs_warm_cache(7);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let t = Timeline::compile(&spec, &mut rng);
        let wipe_pos = t
            .events
            .iter()
            .position(|(_, e)| matches!(e, Event::Churn(_)))
            .expect("the cache wipe is scheduled");
        let (tick, _) = t.events[wipe_pos];
        // no arrival at the same tick may precede the churn event
        assert!(t.events[..wipe_pos]
            .iter()
            .all(|&(at, ref e)| at < tick || !matches!(e, Event::Arrival)));
    }
}
