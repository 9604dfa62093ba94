//! Finite-state realisability (compliance) audit for protocols.
//!
//! A `Protocol` is an SM function of its neighbour multiset by
//! construction — the `NeighborView` only answers mod/thresh queries — but
//! finite-state *realisability* additionally needs the set of queries to
//! be bounded: a protocol whose thresholds keep growing round over round
//! (e.g. one that counts neighbours with an unbounded cap) has no
//! mod-thresh compilation and no finite automaton.
//!
//! This module abstract-interprets protocols in the query-signature
//! domain: the abstract state is a [`QueryRecorder`] (per input state, the
//! max threshold and the lcm of moduli queried so far), ordered by
//! [`QueryRecorder::subsumed_by`]. Driving the protocol over a family of
//! probe graphs and merging per-round signatures yields an ascending
//! chain. Convergence is judged on the *aggregate* magnitudes — the
//! global max threshold and global moduli lcm — because the set of
//! queried states is trivially bounded by the finite state space (a huge
//! automaton such as the election protocol legitimately queries fresh
//! states for many rounds), while unbounded growth in the magnitudes is
//! exactly what breaks mod-thresh compilability. The audit demands the
//! aggregate chain reach a fixed point before the stability tail, then
//! checks the full per-state fixed point against the protocol's declared
//! `MAX_THRESHOLD` / `MODULI_LCM` bounds. States that push the aggregate
//! upward during the tail are flagged as divergence suspects.

use fssga_engine::view::QueryRecorder;
use fssga_engine::{Network, Protocol};
use fssga_graph::rng::Xoshiro256;
use fssga_graph::{generators, Graph, NodeId};

use crate::diag::{Diagnostic, Report};

/// Knobs for the compliance probe.
#[derive(Clone, Debug)]
pub struct ProbeConfig {
    /// Rounds to run on each probe graph.
    pub rounds: usize,
    /// How many trailing rounds the merged signature must be stable for to
    /// count as converged.
    pub stable_tail: usize,
    /// Seed for the probe-graph family and the protocol coins.
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            rounds: 60,
            stable_tail: 10,
            seed: 0xF55A,
        }
    }
}

/// Outcome of probing one protocol.
#[derive(Clone, Debug)]
pub struct ComplianceOutcome {
    /// The merged query signature at the end of all probes.
    pub signature: QueryRecorder,
    /// Earliest round index after which the aggregate signature (global
    /// max threshold, global moduli lcm) never grew again, or `None` if it
    /// was still growing in the stability tail.
    pub converged_at: Option<usize>,
    /// States (dense indices) that pushed the aggregate signature upward
    /// during the stability tail — the divergence suspects.
    pub divergent_states: Vec<usize>,
}

/// The probe-graph family: small, structurally diverse, deterministic.
/// Cycles exercise degree-2 symmetry, the star exercises a high-degree
/// hub, the complete graph maximises multiplicities, the grid gives
/// mixed degrees, and the random graphs cover the rest.
fn probe_graphs(seed: u64) -> Vec<Graph> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    vec![
        generators::cycle(8),
        generators::path(9),
        generators::star(7),
        generators::complete(6),
        generators::grid(3, 4),
        generators::connected_gnp(16, 0.25, &mut rng),
        generators::connected_gnp(24, 0.15, &mut rng),
    ]
}

/// Probes a protocol over the graph family, tracking the per-round merged
/// query signature and its convergence.
pub fn probe_protocol<P: Protocol>(
    protocol: P,
    init: impl Fn(NodeId) -> P::State,
    cfg: &ProbeConfig,
) -> ComplianceOutcome {
    let num_states = <P::State as fssga_engine::StateSpace>::COUNT;
    let mut merged = QueryRecorder::new(num_states);
    // The convergence chain lives in the small aggregate lattice:
    // (global max threshold, global moduli lcm) under (max, lcm).
    let mut agg_t = 1u64;
    let mut agg_m = 1u64;
    let mut converged_at = Some(0);
    let mut grew_in_tail = vec![false; num_states];
    for (gi, g) in probe_graphs(cfg.seed).iter().enumerate() {
        let mut net = Network::new(g, &protocol, &init);
        net.enable_recording();
        for round in 0..cfg.rounds {
            net.sync_step_seeded(cfg.seed ^ ((gi as u64) << 32) ^ round as u64);
            let rec = net.recorded_queries().expect("recording enabled");
            let round_t = rec.thresholds.iter().copied().max().unwrap_or(1);
            let round_m = rec
                .moduli
                .iter()
                .copied()
                .fold(1, fssga_core::modthresh::lcm);
            if round_t > agg_t || !agg_m.is_multiple_of(round_m) {
                // The aggregate signature grew this round.
                let in_tail = round + cfg.stable_tail >= cfg.rounds;
                if in_tail {
                    for (q, grew) in grew_in_tail.iter_mut().enumerate() {
                        if rec.thresholds[q] > agg_t || !agg_m.is_multiple_of(rec.moduli[q]) {
                            *grew = true;
                        }
                    }
                    converged_at = None;
                } else if converged_at.is_some() {
                    converged_at = Some(round + 1);
                }
                agg_t = agg_t.max(round_t);
                agg_m = fssga_core::modthresh::lcm(agg_m, round_m);
            }
            merged.merge(&rec);
        }
    }
    ComplianceOutcome {
        signature: merged,
        converged_at,
        divergent_states: grew_in_tail
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g)
            .map(|(q, _)| q)
            .collect(),
    }
}

/// Lint entry point: probes the protocol, then checks (1) signature
/// convergence and (2) that the fixed point is within the declared
/// `MAX_THRESHOLD` / `MODULI_LCM` bounds.
pub fn audit_protocol<P: Protocol>(
    subject: &str,
    protocol: P,
    init: impl Fn(NodeId) -> P::State,
    cfg: &ProbeConfig,
) -> Report {
    let mut report = Report::new();
    let outcome = probe_protocol(protocol, init, cfg);
    if outcome.converged_at.is_none() {
        report.push(
            Diagnostic::error(
                "compliance",
                subject,
                format!(
                    "query signature never converged within {} rounds: protocol may not be \
                     finite-state realisable",
                    cfg.rounds
                ),
            )
            .with_witness(format!(
                "states with still-growing signatures: {:?}",
                outcome.divergent_states
            )),
        );
    }
    for (q, &t) in outcome.signature.thresholds.iter().enumerate() {
        if t > u64::from(P::MAX_THRESHOLD) {
            report.push(Diagnostic::error(
                "compliance",
                subject,
                format!(
                    "state {q}: observed threshold {t} exceeds declared MAX_THRESHOLD {}",
                    P::MAX_THRESHOLD
                ),
            ));
        }
    }
    for (q, &m) in outcome.signature.moduli.iter().enumerate() {
        if u64::from(P::MODULI_LCM) % m != 0 {
            report.push(Diagnostic::error(
                "compliance",
                subject,
                format!(
                    "state {q}: observed modulus {m} does not divide declared MODULI_LCM {}",
                    P::MODULI_LCM
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssga_engine::{impl_state_space, NeighborView};
    use fssga_protocols::two_coloring::TwoColoring;

    #[test]
    fn two_coloring_is_compliant() {
        let report = audit_protocol(
            "two_coloring",
            TwoColoring,
            |v| TwoColoring::init(v == 0),
            &ProbeConfig::default(),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Greedy {
        A,
        B,
    }
    impl_state_space!(Greedy { A, B });

    /// Declares MAX_THRESHOLD = 2 but queries threshold 5: dishonest.
    struct OverThreshold;
    impl Protocol for OverThreshold {
        type State = Greedy;
        fn transition(&self, own: Greedy, n: &NeighborView<'_, Greedy>, _c: u32) -> Greedy {
            if n.at_least(Greedy::B, 5) {
                Greedy::B
            } else {
                own
            }
        }
    }

    #[test]
    fn dishonest_declaration_flagged() {
        let report = audit_protocol(
            "over_threshold",
            OverThreshold,
            |v| if v == 0 { Greedy::B } else { Greedy::A },
            &ProbeConfig::default(),
        );
        assert!(!report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("exceeds declared MAX_THRESHOLD")));
    }

    /// Queries an ever-larger threshold on each activation (interior
    /// mutability models a protocol whose queries depend on unbounded
    /// history): the query signature never settles, so the protocol is
    /// not finite-state realisable.
    struct RaisingThreshold(std::sync::atomic::AtomicU32);
    impl Protocol for RaisingThreshold {
        type State = Greedy;
        // Deliberately generous declaration: divergence must still be
        // caught by the convergence check, not the bounds check.
        const MAX_THRESHOLD: u32 = u32::MAX;
        fn transition(&self, own: Greedy, n: &NeighborView<'_, Greedy>, _c: u32) -> Greedy {
            let t = self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let _ = n.at_least(Greedy::A, t.max(1));
            own
        }
    }

    #[test]
    fn divergent_signature_flagged() {
        let report = audit_protocol(
            "raising_threshold",
            RaisingThreshold(std::sync::atomic::AtomicU32::new(1)),
            |_| Greedy::A,
            &ProbeConfig::default(),
        );
        assert!(!report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("never converged")));
    }
}
