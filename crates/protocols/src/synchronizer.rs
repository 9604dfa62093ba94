//! Section 4.2: synchronizers.
//!
//! **α synchronizer** ([`Alpha`]): a generic transform that takes any
//! synchronous FSSGA protocol `P` and produces an asynchronous protocol
//! over states `(cur, prev, clock mod 3)`. A node advances only when no
//! neighbour's clock is behind; it then feeds `P` the `cur` of same-clock
//! neighbours and the `prev` of ahead-by-one neighbours. Adjacent clocks
//! provably differ by at most 1, so mod-3 clocks suffice (finite state),
//! and — unlike in message passing — reading neighbour state is free in
//! the FSSGA model, so the transform costs nothing extra per round.
//!
//! **β synchronizer baseline** ([`BetaSynchronizer`]): the spanning-tree
//! synchronizer from the introduction, included because its sensitivity
//! is Θ(n) — one dead interior tree node halts every node beneath it —
//! which is exactly the contrast experiment E13 measures against α's
//! sensitivity 0.
//!
//! The α wrapper synthesizes the inner protocol's neighbour view from
//! its own finite queries: it reads, for each product state, the count
//! capped at `P::MAX_THRESHOLD` and mod `P::MODULI_LCM`, and sums those
//! into per-inner-state pseudo-counts that answer every query `P` is
//! declared to make with the exact same result as the true counts.

use fssga_engine::{
    NeighborView, Network, Protocol, Sensitive, SensitiveProtocol, SensitivityClass, StateSpace,
};
use fssga_graph::exact;
use fssga_graph::{DynGraph, Graph, NodeId};

/// The α synchronizer's node state: current simulated state, previous
/// simulated state, and a mod-3 clock.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AlphaState<S> {
    /// `q_c` — state in the simulated round `clock`.
    pub cur: S,
    /// `q_p` — state in the simulated round `clock - 1`.
    pub prev: S,
    /// The round counter mod 3.
    pub clock: u8,
}

impl<S: StateSpace> AlphaState<S> {
    /// The initial wrapper state around `P`'s initial state.
    pub fn init(inner: S) -> Self {
        AlphaState {
            cur: inner,
            prev: inner,
            clock: 0,
        }
    }
}

impl<S: StateSpace> StateSpace for AlphaState<S> {
    const COUNT: usize = S::COUNT * S::COUNT * 3;

    fn index(self) -> usize {
        (self.cur.index() * S::COUNT + self.prev.index()) * 3 + self.clock as usize
    }

    fn from_index(i: usize) -> Self {
        assert!(i < Self::COUNT);
        let clock = (i % 3) as u8;
        let rest = i / 3;
        AlphaState {
            cur: S::from_index(rest / S::COUNT),
            prev: S::from_index(rest % S::COUNT),
            clock,
        }
    }
}

/// The α synchronizer transform: wraps a synchronous protocol for
/// asynchronous execution.
pub struct Alpha<P>(pub P);

impl<P: Protocol> Protocol for Alpha<P> {
    type State = AlphaState<P::State>;
    const COMPILED: bool = P::COMPILED;
    const RANDOMNESS: u32 = P::RANDOMNESS;
    // The wrapper itself reads capped/modded counts of product states.
    const MAX_THRESHOLD: u32 = P::MAX_THRESHOLD;
    const MODULI_LCM: u32 = P::MODULI_LCM;
    // `FOLD` is deliberately not forwarded: waiting on clocks is not a
    // fold of the product states (see `Protocol::FOLD`).

    fn transition(
        &self,
        own: AlphaState<P::State>,
        nbrs: &NeighborView<'_, AlphaState<P::State>>,
        coin: u32,
    ) -> AlphaState<P::State> {
        let i = own.clock;
        let behind = (i + 2) % 3;
        let ahead = (i + 1) % 3;
        let t_bound = P::MAX_THRESHOLD.max(1);
        let l_bound = P::MODULI_LCM.max(1);
        // First pass: if any neighbour is a clock behind, WAIT.
        for ps in nbrs.present_states() {
            if ps.clock == behind {
                return own;
            }
        }
        // Second pass: synthesize the inner neighbour counts. For each
        // product state we learn min(μ, T) and μ mod L, and reconstruct
        // the smallest count consistent with both; sums of these answer
        // every inner query (t <= T, m | L) exactly as the true counts.
        let mut eff = vec![0u32; P::State::COUNT];
        for ps in nbrs.present_states() {
            let contributes = if ps.clock == i {
                ps.cur
            } else if ps.clock == ahead {
                ps.prev
            } else {
                continue;
            };
            let capped = nbrs.count_capped(ps, t_bound);
            let synth = if capped < t_bound {
                capped
            } else {
                let residue = nbrs.count_mod(ps, l_bound);
                t_bound + (residue + l_bound - t_bound % l_bound) % l_bound
            };
            eff[contributes.index()] += synth;
        }
        let inner_view: NeighborView<'_, P::State> = NeighborView::over(&eff);
        let new_cur = self.0.transition(own.cur, &inner_view, coin);
        AlphaState {
            cur: new_cur,
            prev: own.cur,
            clock: (i + 1) % 3,
        }
    }
}

/// Builds an α-wrapped network from a synchronous protocol and its
/// per-node initializer.
pub fn alpha_network<P: Protocol>(
    g: &Graph,
    protocol: P,
    mut init: impl FnMut(NodeId) -> P::State,
) -> Network<Alpha<P>> {
    Network::new(g, Alpha(protocol), |v| AlphaState::init(init(v)))
}

/// The α synchronizer keeps no global structure — each node compares
/// clocks with whoever happens to still be its neighbour — so, like the
/// diffusions it wraps, its critical set is empty: faults merely shrink
/// the neighbourhood being waited on.
impl<P: Protocol> SensitiveProtocol for Alpha<P> {
    fn algorithm_name() -> &'static str {
        "alpha-synchronizer"
    }

    fn declared_class() -> SensitivityClass {
        SensitivityClass::Zero
    }
}

/// The checked semantic contract for `Alpha<TwoColoring>` (the shipped
/// lint instantiation). The synchronizer is *designed* for asynchrony but
/// not order-independent in the strong sense: clock skew is bounded, not
/// absent, so intermediate configurations genuinely depend on the
/// interleaving and the simulation never quiesces (clocks tick forever) —
/// hence no confluence claim. 0-sensitive like the diffusions it wraps.
pub const CONTRACT: crate::contract::SemanticContract = crate::contract::SemanticContract {
    name: "alpha-synchronizer",
    order_independent: false,
    semilattice: false,
    scheduling: crate::contract::Scheduling::Any,
    sensitivity: SensitivityClass::Zero,
    max_nodes: 3,
    config_budget: 150_000,
};

/// The tree-based β synchronizer baseline.
///
/// Pulses are driven over a BFS spanning tree: pulse `k` completes for a
/// node iff its entire tree path to the root is still alive (convergecast
/// and broadcast both traverse it). No repair is attempted — matching the
/// introduction's observation that "a spanning tree-based algorithm ...
/// fails if one of the tree edges dies".
pub struct BetaSynchronizer {
    parent: Vec<u32>,
    root: NodeId,
    pulses: u64,
}

impl BetaSynchronizer {
    /// Builds the spanning tree over the initial topology.
    pub fn new(g: &Graph, root: NodeId) -> Self {
        Self {
            parent: exact::bfs_tree(g, root),
            root,
            pulses: 0,
        }
    }

    /// The critical set: every interior (non-leaf) tree node — Θ(n) of
    /// them on most topologies.
    pub fn critical_set(&self) -> Vec<NodeId> {
        let n = self.parent.len();
        let mut interior = vec![false; n];
        for v in 0..n {
            if self.parent[v] != exact::UNREACHABLE && self.parent[v] != v as u32 {
                interior[self.parent[v] as usize] = true;
            }
        }
        (0..n as NodeId).filter(|&v| interior[v as usize]).collect()
    }

    /// Which alive nodes can still complete pulses, given the current
    /// graph: those whose whole tree path to the root survives.
    pub fn synchronized_nodes(&self, g: &DynGraph) -> Vec<NodeId> {
        let n = self.parent.len();
        let mut ok = vec![None::<bool>; n];
        let mut out = Vec::new();
        for v in 0..n as NodeId {
            if self.path_ok(g, v, &mut ok) {
                out.push(v);
            }
        }
        out
    }

    fn path_ok(&self, g: &DynGraph, v: NodeId, memo: &mut [Option<bool>]) -> bool {
        if let Some(b) = memo[v as usize] {
            return b;
        }
        let result = if !g.is_alive(v) || self.parent[v as usize] == exact::UNREACHABLE {
            false
        } else if v == self.root {
            true
        } else {
            let p = self.parent[v as usize];
            g.has_edge(v, p) && self.path_ok(g, p, memo)
        };
        memo[v as usize] = Some(result);
        result
    }

    /// Attempts one pulse: succeeds (for everyone) iff every alive node is
    /// still synchronized. Returns the set that completed the pulse.
    pub fn pulse(&mut self, g: &DynGraph) -> Vec<NodeId> {
        let sync = self.synchronized_nodes(g);
        self.pulses += 1;
        sync
    }

    /// Pulses attempted so far.
    pub fn pulses(&self) -> u64 {
        self.pulses
    }
}

/// The paper's Θ(n)-sensitive cautionary tale: every interior node of the
/// spanning tree is load-bearing, and the tree is never repaired.
impl Sensitive for BetaSynchronizer {
    fn algorithm(&self) -> &'static str {
        "beta-synchronizer"
    }

    fn sensitivity_class(&self) -> SensitivityClass {
        SensitivityClass::Linear
    }

    fn critical_set(&self) -> Vec<NodeId> {
        BetaSynchronizer::critical_set(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_paths::{labels_as_distances, ShortestPaths, SpState};
    use crate::two_coloring::{outcome, Color, TwoColoring};
    use fssga_engine::{AsyncPolicy, Budget, Policy, Runner};
    use fssga_graph::generators;
    use fssga_graph::rng::Xoshiro256;

    #[test]
    fn alpha_state_roundtrip() {
        for i in 0..AlphaState::<Color>::COUNT {
            assert_eq!(AlphaState::<Color>::from_index(i).index(), i);
        }
    }

    /// Track per-node clock advances while running an async schedule, and
    /// assert the adjacency skew invariant after every sweep.
    fn run_async_tracking<P: Protocol>(
        g: &Graph,
        protocol: P,
        init: impl Fn(NodeId) -> P::State,
        sweeps: usize,
        seed: u64,
    ) -> (Network<Alpha<P>>, Vec<u64>) {
        let mut net = alpha_network(g, protocol, &init);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let n = g.n();
        let mut advances = vec![0u64; n];
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        for _ in 0..sweeps {
            rng.shuffle(&mut order);
            for &v in &order {
                let before = net.state(v).clock;
                net.activate(v, &mut rng);
                if net.state(v).clock != before {
                    advances[v as usize] += 1;
                }
            }
            // Skew invariant: adjacent total clocks differ by at most 1.
            for (u, v) in g.edges() {
                let du = advances[u as usize] as i64;
                let dv = advances[v as usize] as i64;
                assert!(
                    (du - dv).abs() <= 1,
                    "clock skew violation between {u} and {v}: {du} vs {dv}"
                );
            }
        }
        (net, advances)
    }

    #[test]
    fn clocks_advance_at_least_once_per_sweep() {
        // The paper: "in k units of time each node has advanced the clock
        // of its synchronizer at least k times".
        let g = generators::grid(5, 5);
        let (_, advances) =
            run_async_tracking(&g, TwoColoring, |v| TwoColoring::init(v == 0), 20, 61);
        assert!(
            advances.iter().all(|&a| a >= 20),
            "every node advances >= k times in k sweeps: {advances:?}"
        );
    }

    #[test]
    fn alpha_simulates_synchronous_two_coloring() {
        let mut rng = Xoshiro256::seed_from_u64(62);
        for trial in 0..10 {
            let g = generators::connected_gnp(15, 0.2, &mut rng);
            // Synchronous ground truth.
            let mut sync_net = Network::new(&g, TwoColoring, |v| TwoColoring::init(v == 0));
            Runner::new(&mut sync_net)
                .budget(Budget::Fixpoint(1000))
                .run()
                .fixpoint
                .unwrap();
            let truth = outcome(sync_net.states());
            // Async simulation.
            let (net, advances) =
                run_async_tracking(&g, TwoColoring, |v| TwoColoring::init(v == 0), 60, trial);
            let cur: Vec<Color> = net.states().iter().map(|s| s.cur).collect();
            assert_eq!(outcome(&cur), truth, "trial {trial}");
            assert!(advances.iter().all(|&a| a >= 60));
        }
    }

    #[test]
    fn alpha_simulation_is_round_exact() {
        // Stronger than outcome equality: after its k-th advance, a
        // node's `cur` equals the synchronous execution's state at round
        // k. Verify on a deterministic protocol by replaying rounds.
        let g = generators::path(8);
        let init = |v: NodeId| ShortestPaths::<16>::init(v == 0);
        // Synchronous trace.
        let mut sync_net = Network::new(&g, ShortestPaths::<16>, init);
        let mut trace: Vec<Vec<SpState<16>>> = vec![sync_net.states().to_vec()];
        let mut rng = Xoshiro256::seed_from_u64(63);
        for _ in 0..30 {
            sync_net.sync_step(&mut rng);
            trace.push(sync_net.states().to_vec());
        }
        // Async alpha run with advance tracking.
        let mut net = alpha_network(&g, ShortestPaths::<16>, init);
        let mut advances = vec![0usize; g.n()];
        let mut order: Vec<NodeId> = (0..g.n() as NodeId).collect();
        for sweep in 0..30 {
            if sweep % 2 == 1 {
                order.reverse(); // stress different orders
            }
            for &v in &order {
                let before = net.state(v).clock;
                net.activate(v, &mut rng);
                if net.state(v).clock != before {
                    advances[v as usize] += 1;
                    let k = advances[v as usize];
                    assert_eq!(
                        net.state(v).cur,
                        trace[k][v as usize],
                        "node {v} after advance {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn alpha_shortest_paths_converges_asynchronously() {
        let mut rng = Xoshiro256::seed_from_u64(64);
        let g = generators::connected_gnp(25, 0.12, &mut rng);
        let mut net = alpha_network(&g, ShortestPaths::<64>, |v| {
            ShortestPaths::<64>::init(v == 0)
        });
        Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::UniformRandom))
            .budget(Budget::Steps(200 * g.n()))
            .rng(&mut rng)
            .run();
        let labels: Vec<SpState<64>> = net.states().iter().map(|s| s.cur).collect();
        assert_eq!(labels_as_distances(&labels), exact::bfs_distances(&g, &[0]));
    }

    #[test]
    fn beta_critical_set_is_large() {
        let g = generators::path(20);
        let beta = BetaSynchronizer::new(&g, 0);
        // On a path rooted at an end, every non-leaf is interior: 19... 18
        // interior nodes (all but the far leaf and... root is interior too
        // since it has a child).
        let crit = beta.critical_set();
        assert!(
            crit.len() >= g.n() - 2,
            "Θ(n) critical nodes: {}",
            crit.len()
        );
    }

    #[test]
    fn beta_halts_below_a_dead_tree_node() {
        let g = generators::path(10);
        let mut beta = BetaSynchronizer::new(&g, 0);
        let mut dyn_g = DynGraph::from_graph(&g);
        assert_eq!(beta.pulse(&dyn_g).len(), 10);
        dyn_g.remove_node(4);
        let sync = beta.pulse(&dyn_g);
        assert_eq!(sync, vec![0, 1, 2, 3], "everything past the corpse halts");
    }

    #[test]
    fn beta_vs_alpha_fault_survival() {
        // The E13 contrast in miniature: kill one interior node; alpha
        // keeps every alive node advancing (in its component), beta only
        // keeps the root-side fragment.
        let g = generators::path(12);
        let mut beta = BetaSynchronizer::new(&g, 0);
        let mut dyn_g = DynGraph::from_graph(&g);
        dyn_g.remove_node(6);
        let beta_alive = beta.pulse(&dyn_g).len();
        assert_eq!(beta_alive, 6, "beta: only nodes 0..=5 survive");

        let mut net = alpha_network(&g, TwoColoring, |v| TwoColoring::init(v == 0));
        net.remove_node(6);
        let mut rng = Xoshiro256::seed_from_u64(65);
        let mut advances = vec![0u64; g.n()];
        let mut order: Vec<NodeId> = (0..g.n() as NodeId).collect();
        for _ in 0..10 {
            rng.shuffle(&mut order);
            for &v in &order {
                let before = net.state(v).clock;
                net.activate(v, &mut rng);
                if net.state(v).clock != before {
                    advances[v as usize] += 1;
                }
            }
        }
        let alpha_alive = (0..g.n()).filter(|&v| v != 6 && advances[v] >= 5).count();
        assert_eq!(alpha_alive, 11, "alpha: every alive node keeps advancing");
    }
}
