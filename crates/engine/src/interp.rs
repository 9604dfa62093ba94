//! Running table-level FSSGA automata directly.
//!
//! [`crate::Network`] executes typed Rust protocols; this module executes
//! a [`ProbFssga`] given as program tables (the artifact of Section 3's
//! formal model, or of [`crate::compile`]). Coins are drawn with the same
//! `(round_seed, node)` derivation as the typed engine, so a protocol and
//! its compiled form can be stepped side by side and compared state by
//! state.

use fssga_core::multiset::Multiset;
use fssga_core::ProbFssga;
use fssga_graph::rng::Xoshiro256;
use fssga_graph::{DynGraph, Graph, NodeId};

use crate::network::round_coin;
use crate::obs::{NullTracer, RoundMetrics, Tracer};

/// A network whose nodes run a table-level [`ProbFssga`].
pub struct InterpNetwork<'a> {
    auto: &'a ProbFssga,
    graph: DynGraph,
    states: Vec<usize>,
    next: Vec<usize>,
    /// Reusable neighbour-multiset accumulator plus the indices touched
    /// while filling it — cleared sparsely after every activation so the
    /// hot loop never allocates.
    ms: Multiset,
    touched: Vec<usize>,
    /// Synchronous rounds completed (feeds [`RoundMetrics::round`]).
    rounds: u64,
}

impl<'a> InterpNetwork<'a> {
    /// Builds the network; `init` gives each node's initial state id.
    pub fn new(graph: &Graph, auto: &'a ProbFssga, mut init: impl FnMut(NodeId) -> usize) -> Self {
        let states: Vec<usize> = (0..graph.n() as NodeId)
            .map(|v| {
                let s = init(v);
                assert!(s < auto.num_states(), "initial state out of range");
                s
            })
            .collect();
        Self {
            auto,
            graph: DynGraph::from_graph(graph),
            next: states.clone(),
            states,
            ms: Multiset::empty(auto.num_states()),
            touched: Vec::with_capacity(64),
            rounds: 0,
        }
    }

    /// Current states (ids).
    pub fn states(&self) -> &[usize] {
        &self.states
    }

    /// The current topology.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// Removes an edge (benign fault).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.graph.remove_edge(u, v)
    }

    /// Removes a node (benign fault).
    pub fn remove_node(&mut self, v: NodeId) -> bool {
        self.graph.remove_node(v)
    }

    /// Fills the reusable accumulator with `v`'s neighbour multiset.
    /// Pair every call with [`Self::clear_multiset`].
    fn fill_multiset(&mut self, v: NodeId) {
        for &w in self.graph.neighbors(v) {
            let s = self.states[w as usize];
            if self.ms.mu(s) == 0 {
                self.touched.push(s);
            }
            self.ms.push(s);
        }
    }

    fn clear_multiset(&mut self) {
        for &s in &self.touched {
            self.ms.zero(s);
        }
        self.touched.clear();
    }

    /// Asynchronous activation of `v`; returns whether the state changed.
    pub fn activate(&mut self, v: NodeId, rng: &mut Xoshiro256) -> bool {
        if !self.graph.is_alive(v) || self.graph.degree(v) == 0 {
            return false;
        }
        let coin = if self.auto.randomness() > 1 {
            rng.gen_range(self.auto.randomness() as u64) as usize
        } else {
            0
        };
        self.fill_multiset(v);
        let new = self
            .auto
            .transition(self.states[v as usize], coin, &self.ms);
        self.clear_multiset();
        let changed = new != self.states[v as usize];
        self.states[v as usize] = new;
        changed
    }

    /// One synchronous round with an explicit round seed (matches
    /// [`crate::network::round_coin`]); returns the number of changes.
    pub fn sync_step_seeded(&mut self, round_seed: u64) -> usize {
        self.sync_step_seeded_traced(round_seed, &mut NullTracer)
    }

    /// Like [`Self::sync_step_seeded`], but emits one [`RoundMetrics`]
    /// event to `tracer` (with [`NullTracer`] this monomorphizes to the
    /// untraced round). The table-level interpreter evaluates every
    /// eligible node natively, so `eligible = scheduled = activations =
    /// direct`; it has no fault channel of its own, so `faults` is 0.
    pub fn sync_step_seeded_traced<T: Tracer>(&mut self, round_seed: u64, tracer: &mut T) -> usize {
        let trace = tracer.enabled();
        let n = self.graph.n_slots();
        let mut changed = 0;
        let mut evaluated = 0u64;
        let mut reads = 0u64;
        for v in 0..n as NodeId {
            let old = self.states[v as usize];
            if !self.graph.is_alive(v) || self.graph.degree(v) == 0 {
                self.next[v as usize] = old;
                continue;
            }
            if trace {
                evaluated += 1;
                reads += self.graph.degree(v) as u64;
            }
            let coin = round_coin(round_seed, v, self.auto.randomness() as u32) as usize;
            self.fill_multiset(v);
            let new = self.auto.transition(old, coin, &self.ms);
            self.clear_multiset();
            self.next[v as usize] = new;
            if new != old {
                changed += 1;
            }
        }
        std::mem::swap(&mut self.states, &mut self.next);
        self.rounds += 1;
        if trace {
            tracer.round(&RoundMetrics {
                round: self.rounds,
                eligible: evaluated,
                scheduled: evaluated,
                activations: evaluated,
                changes: changed as u64,
                neighbor_reads: reads,
                tabular: 0,
                direct: evaluated,
                faults: 0,
            });
        }
        changed
    }

    /// One synchronous round, drawing the round seed from `rng` exactly as
    /// the typed engine does.
    pub fn sync_step(&mut self, rng: &mut Xoshiro256) -> usize {
        let round_seed = if self.auto.randomness() > 1 {
            rng.next_u64()
        } else {
            0
        };
        self.sync_step_seeded(round_seed)
    }

    /// Synchronous rounds to fixpoint, up to `max_rounds`.
    pub fn run_to_fixpoint(&mut self, rng: &mut Xoshiro256, max_rounds: usize) -> Option<usize> {
        (1..=max_rounds).find(|_| self.sync_step(rng) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssga_core::modthresh::{ModThreshProgram, Prop};
    use fssga_core::{FsmProgram, Fssga};
    use fssga_graph::generators;

    /// 2-state infection automaton as tables.
    fn infection() -> ProbFssga {
        let catch = ModThreshProgram::new(2, 2, vec![(Prop::some(1), 1)], 0).unwrap();
        let keep = ModThreshProgram::new(2, 2, vec![], 1).unwrap();
        ProbFssga::from_deterministic(
            Fssga::new(
                2,
                vec![FsmProgram::ModThresh(catch), FsmProgram::ModThresh(keep)],
            )
            .unwrap(),
        )
    }

    #[test]
    fn interp_spreads_like_native() {
        let auto = infection();
        let g = generators::path(8);
        let mut net = InterpNetwork::new(&g, &auto, |v| usize::from(v == 0));
        let mut rng = Xoshiro256::seed_from_u64(1);
        let rounds = net.run_to_fixpoint(&mut rng, 100).expect("converges");
        assert_eq!(rounds, 8, "7 spreading rounds + 1 quiescent");
        assert!(net.states().iter().all(|&s| s == 1));
    }

    #[test]
    fn interp_respects_faults() {
        let auto = infection();
        let g = generators::path(6);
        let mut net = InterpNetwork::new(&g, &auto, |v| usize::from(v == 0));
        net.remove_edge(2, 3);
        let mut rng = Xoshiro256::seed_from_u64(2);
        net.run_to_fixpoint(&mut rng, 100).unwrap();
        assert_eq!(net.states(), &[1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn async_activation() {
        let auto = infection();
        let g = generators::path(3);
        let mut net = InterpNetwork::new(&g, &auto, |v| usize::from(v == 0));
        let mut rng = Xoshiro256::seed_from_u64(3);
        assert!(!net.activate(2, &mut rng));
        assert!(net.activate(1, &mut rng));
        assert!(net.activate(2, &mut rng));
        assert_eq!(net.states(), &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_initial_state_rejected() {
        let auto = infection();
        let g = generators::path(3);
        let _ = InterpNetwork::new(&g, &auto, |_| 7);
    }
}
