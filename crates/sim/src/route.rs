//! Message routing and pass accounting for [`Sim`](crate::Sim).
//!
//! Every scheduled event is handed to an `emit` callback, which the
//! simulator feeds straight into its event queue. Counter deltas
//! accumulate in [`RouteCounters`] and are folded into `Metrics` once per
//! handler invocation.
//!
//! Routing goes through [`AnyRouter`], never through graph adjacency:
//! under an analytic backend a structured topology needs no edges at all,
//! which is what lets hop-cost runs scale to n = 1,048,576. When no node
//! is crashed, hop walks collapse to O(1) `distance` lookups — the walk
//! exists only to find the first crashed intermediate.

use crate::{CostModel, Envelope, Event, Op, SimTime, TargetSet};
use mm_topo::spanning::multicast_cost;
use mm_topo::{AnyRouter, NodeId, Router};

/// Read-only world view routing needs: routes and crash state.
pub(crate) struct NetEnv<'a> {
    /// Built only under [`CostModel::Hops`]; `Uniform` never routes.
    pub routing: Option<&'a AnyRouter>,
    pub crashed: &'a [bool],
    /// Number of `true` entries in `crashed`; maintained by `Sim` so
    /// the common all-alive case can skip hop walks entirely.
    pub crashed_count: usize,
    pub cost_model: CostModel,
}

/// Additive metric deltas produced while routing one batch of ops.
#[derive(Debug, Default)]
pub(crate) struct RouteCounters {
    pub sends: u64,
    pub passes: u64,
    pub dropped: u64,
}

/// Applies a handler's buffered ops: routes sends/multicasts, schedules
/// timers. Every scheduled event is handed to `emit(at, event)` in a
/// deterministic order (op order, and within a multicast, target order).
pub(crate) fn apply_ops<M: Clone>(
    env: &NetEnv<'_>,
    now: SimTime,
    from: NodeId,
    ops: &mut Vec<Op<M>>,
    c: &mut RouteCounters,
    emit: &mut impl FnMut(SimTime, Event<M>),
) {
    for op in ops.drain(..) {
        match op {
            Op::Send { to, msg } => route(env, now, from, to, msg, c, emit),
            Op::Multicast { to, msg } => route_multicast(env, now, from, &to, msg, c, emit),
            Op::Timer { delay, tag } => emit(now + delay, Event::Timer { at: from, tag }),
        }
    }
}

/// Hops travelled toward `to` and whether a crashed intermediate blocked
/// the delivery. `dist` is the known full distance; with nobody crashed
/// the answer is immediate, otherwise the next-hop walk runs until the
/// first crashed node (passes spent up to and into it stay spent).
fn crash_truncated(
    env: &NetEnv<'_>,
    routing: &AnyRouter,
    from: NodeId,
    to: NodeId,
    dist: u32,
) -> (u64, bool) {
    if env.crashed_count == 0 {
        return (u64::from(dist), false);
    }
    if matches!(routing, AnyRouter::Ring(_)) {
        // Ring paths average n/4 hops; at n = 1M a crash window would
        // pay ~260k `next_hop` steps per delivery even when the path
        // never meets a crashed node. The canonical path is one
        // contiguous arc, so scan the crash flags over that arc — the
        // same first-crashed node, found at memory-scan speed.
        return ring_crash_truncated(env.crashed, routing, from, to, dist);
    }
    let mut travelled = 0u64;
    for hop in routing.hops(from, to) {
        travelled += 1;
        if env.crashed[hop.index()] {
            return (travelled, true);
        }
    }
    (travelled, false)
}

/// Arc-scan equivalent of the next-hop walk for [`AnyRouter::Ring`].
///
/// The first hop (which carries the canonical antipodal tie-break)
/// fixes the direction; every later step provably continues the same
/// way around, so the walked nodes are exactly one index arc of length
/// `dist` ending at `to`. Returns the hop count into the first crashed
/// node on that arc, or `(dist, false)` if the whole arc is alive.
fn ring_crash_truncated(
    crashed: &[bool],
    routing: &AnyRouter,
    from: NodeId,
    to: NodeId,
    dist: u32,
) -> (u64, bool) {
    let n = crashed.len();
    let s = from.index();
    let first = routing
        .next_hop(from, to)
        .expect("distinct ring nodes always have a next hop")
        .index();
    let d = dist as usize;
    if first == (s + 1) % n {
        // ascending: (s+1)%n, (s+2)%n, ..., (s+d)%n
        let start = (s + 1) % n;
        let len1 = (n - start).min(d);
        if let Some(k) = crashed[start..start + len1].iter().position(|&c| c) {
            return (k as u64 + 1, true);
        }
        let rem = d - len1;
        if let Some(k) = crashed[..rem].iter().position(|&c| c) {
            return ((len1 + k) as u64 + 1, true);
        }
    } else {
        // descending: s-1, s-2, ..., s-d (all mod n); scan each slice
        // segment from its high end to preserve walk order
        let len1 = s.min(d);
        if let Some(k) = crashed[s - len1..s].iter().rev().position(|&c| c) {
            return (k as u64 + 1, true);
        }
        let rem = d - len1;
        if let Some(k) = crashed[n - rem..].iter().rev().position(|&c| c) {
            return ((len1 + k) as u64 + 1, true);
        }
    }
    (u64::from(dist), false)
}

/// Point-to-point routing with hop accounting and crash truncation.
pub(crate) fn route<M>(
    env: &NetEnv<'_>,
    now: SimTime,
    from: NodeId,
    to: NodeId,
    msg: M,
    c: &mut RouteCounters,
    emit: &mut impl FnMut(SimTime, Event<M>),
) {
    c.sends += 1;
    if from == to {
        // local delivery is free (intra-host communication)
        let env_msg = Envelope {
            from,
            to,
            sent_at: now,
            msg,
        };
        emit(now, Event::Deliver(env_msg));
        return;
    }
    match env.cost_model {
        CostModel::Uniform => {
            c.passes += 1;
            let env_msg = Envelope {
                from,
                to,
                sent_at: now,
                msg,
            };
            emit(now + 1, Event::Deliver(env_msg));
        }
        CostModel::Hops => {
            let routing = env.routing.expect("Hops model builds routing");
            let Some(dist) = routing.distance(from, to) else {
                c.dropped += 1;
                return;
            };
            let (travelled, blocked) = crash_truncated(env, routing, from, to, dist);
            // passes spent up to (and into) a crash point stay spent
            c.passes += travelled;
            if blocked {
                c.dropped += 1;
                return;
            }
            let env_msg = Envelope {
                from,
                to,
                sent_at: now,
                msg,
            };
            emit(now + travelled, Event::Deliver(env_msg));
        }
    }
}

/// Multicast with shared-prefix (spanning/Steiner tree) accounting.
///
/// `targets` is already sorted and duplicate-free ([`TargetSet`]'s
/// construction invariant), so no per-operation sort/dedup happens here.
pub(crate) fn route_multicast<M: Clone>(
    env: &NetEnv<'_>,
    now: SimTime,
    from: NodeId,
    targets: &TargetSet,
    msg: M,
    c: &mut RouteCounters,
    emit: &mut impl FnMut(SimTime, Event<M>),
) {
    match env.cost_model {
        CostModel::Uniform => {
            for t in targets.iter() {
                if t == from {
                    let env_msg = Envelope {
                        from,
                        to: t,
                        sent_at: now,
                        msg: msg.clone(),
                    };
                    emit(now, Event::Deliver(env_msg));
                    continue;
                }
                c.sends += 1;
                c.passes += 1;
                let env_msg = Envelope {
                    from,
                    to: t,
                    sent_at: now,
                    msg: msg.clone(),
                };
                emit(now + 1, Event::Deliver(env_msg));
            }
        }
        CostModel::Hops => {
            // charge the Steiner-tree cost once; deliver along
            // shortest paths, truncated at crashed nodes. The set goes to
            // the accounting as is: it ignores the sender if a member.
            let routing = env.routing.expect("Hops model builds routing");
            let self_in_set = targets.contains(from);
            let Some(cost) = multicast_cost(routing, from, targets.as_slice()) else {
                // unreachable targets: fall back to per-target routing
                for t in targets.iter().filter(|&t| t != from) {
                    route(env, now, from, t, msg.clone(), c, emit);
                }
                // plus local copy if requested
                if self_in_set {
                    let env_msg = Envelope {
                        from,
                        to: from,
                        sent_at: now,
                        msg,
                    };
                    emit(now, Event::Deliver(env_msg));
                }
                return;
            };
            c.passes += cost;
            c.sends += (targets.len() - usize::from(self_in_set)) as u64;
            for t in targets.iter() {
                if t == from {
                    let env_msg = Envelope {
                        from,
                        to: t,
                        sent_at: now,
                        msg: msg.clone(),
                    };
                    emit(now, Event::Deliver(env_msg));
                    continue;
                }
                // reachable (the Steiner cost above proved it); hop count
                // plus first-crashed-intermediate check, no path `Vec`
                let dist = routing.distance(from, t).expect("target reachable");
                let (d, blocked) = crash_truncated(env, routing, from, t, dist);
                if blocked {
                    c.dropped += 1;
                    continue;
                }
                let env_msg = Envelope {
                    from,
                    to: t,
                    sent_at: now,
                    msg: msg.clone(),
                };
                emit(now + d, Event::Deliver(env_msg));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generic next-hop walk `ring_crash_truncated` replaces.
    fn walk_truncated(
        crashed: &[bool],
        routing: &AnyRouter,
        from: NodeId,
        to: NodeId,
    ) -> (u64, bool) {
        let mut travelled = 0u64;
        for hop in routing.hops(from, to) {
            travelled += 1;
            if crashed[hop.index()] {
                return (travelled, true);
            }
        }
        (travelled, false)
    }

    #[test]
    fn ring_arc_scan_matches_the_next_hop_walk() {
        // every (n, from, to) pair — odd and even rings, antipodal
        // tie-breaks, wraparound in both directions — under crash
        // patterns derived from a deterministic counter
        for n in [2usize, 3, 5, 8, 9, 16] {
            let routing =
                AnyRouter::analytic_for(&format!("ring({n})"), n).expect("ring is analytic");
            for pattern in 0u64..64 {
                let crashed: Vec<bool> = (0..n)
                    .map(|i| (pattern.wrapping_mul(0x9e37_79b9).rotate_left(i as u32)) & 1 == 1)
                    .collect();
                for s in 0..n {
                    for t in 0..n {
                        if s == t {
                            continue;
                        }
                        let (a, b) = (NodeId::new(s as u32), NodeId::new(t as u32));
                        let dist = routing.distance(a, b).expect("ring is connected");
                        assert_eq!(
                            ring_crash_truncated(&crashed, &routing, a, b, dist),
                            walk_truncated(&crashed, &routing, a, b),
                            "n={n} pattern={pattern} {s}->{t}"
                        );
                    }
                }
            }
        }
    }
}
