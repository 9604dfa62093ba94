//! The kernel's support-fold arm on rows that churn repair has permuted.
//!
//! Census and shortest paths declare a `SupportFold`, so the compiled
//! kernel's direct plan folds each gathered neighbour row in the order it
//! lies in the CSR arena, skipping the sort + run-length encoding every
//! other direct-plan protocol pays. In-place repair permutes rows — a
//! removal swap-removes within the row, an arrival appends — so after
//! surgery the arena order is no longer ascending. The fold must not
//! care: these tests permute rows on purpose (and grow one hub row past
//! the length where the view path switches to a dense tally), then
//! require the kernel to stay in lockstep with the interpreter every
//! round.

use fssga::engine::rng::Xoshiro256;
use fssga::engine::{KernelPlan, Network, Protocol};
use fssga::graph::{generators, Graph, NodeId};
use fssga::protocols::census::{Census, FmSketch};
use fssga::protocols::shortest_paths::{ShortestPaths, SpState};
use fssga::protocols::synchronizer::Alpha;

/// Builds the same network twice — interpreter and kernel — and applies
/// identical surgery to each: for every third node, cut and re-add the
/// edge to its smallest neighbour (which swaps the row's last target to
/// the front and appends that neighbour), then attach a hub node to the
/// first 140 nodes.
fn permuted<P: Protocol>(
    g: &Graph,
    protocol: impl Fn() -> P,
    init: impl Fn(NodeId) -> P::State,
    hub: P::State,
) -> [Network<P>; 2] {
    let mut nets = [
        Network::new(g, protocol(), &init),
        Network::new_compiled(g, protocol(), &init),
    ];
    for net in &mut nets {
        for v in (0..g.n() as NodeId).step_by(3) {
            let first = *g.neighbors(v).iter().min().expect("torus degree 4");
            assert!(net.remove_edge(v, first));
            assert!(net.add_edge(v, first));
        }
        let h = net.add_node(hub);
        for v in 0..140 {
            assert!(net.add_edge(h, v));
        }
    }
    let k = nets[1].kernel().expect("compiled");
    assert_eq!(
        k.plan(),
        KernelPlan::Direct,
        "the fold lives in the direct plan"
    );
    let unsorted = (0..g.n() as NodeId)
        .filter(|&v| k.row(v).windows(2).any(|w| w[0] > w[1]))
        .count();
    assert!(unsorted >= g.n() / 4, "only {unsorted} rows permuted");
    assert_eq!(k.row(g.n() as NodeId).len(), 140, "hub row");
    nets
}

/// Steps both networks with the same seeds until the interpreter
/// quiesces, asserting equal change counts and states every round.
fn lockstep<P: Protocol>(name: &str, [mut interp, mut kernel]: [Network<P>; 2]) {
    let mut rng = Xoshiro256::seed_from_u64(0xF01D);
    for round in 0..200 {
        let seed = rng.next_u64();
        let ci = interp.sync_step_seeded(seed);
        let ck = kernel.sync_step_kernel_seeded(seed);
        assert_eq!(ci, ck, "{name}: change counts at round {round}");
        assert_eq!(interp.states(), kernel.states(), "{name}: round {round}");
        if ci == 0 && round > 0 {
            return;
        }
    }
    panic!("{name}: no fixpoint within 200 rounds");
}

#[test]
fn census_fold_matches_interpreter_on_permuted_rows() {
    let g = generators::torus(20, 20);
    let mut rng = Xoshiro256::seed_from_u64(1301);
    let sketches: Vec<FmSketch<8>> = (0..g.n())
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    let nets = permuted(
        &g,
        || Census::<8>,
        |v| sketches[v as usize],
        FmSketch::<8>(1 << 7),
    );
    lockstep("census", nets);
}

#[test]
fn shortest_paths_fold_matches_interpreter_on_permuted_rows() {
    let g = generators::torus(20, 20);
    let nets = permuted(
        &g,
        || ShortestPaths::<32>,
        |v| ShortestPaths::<32>::init(v == 0 || v == 217),
        SpState::Label(32),
    );
    lockstep("shortest-paths", nets);
}

#[test]
fn fold_forwards_by_reference_but_not_through_wrappers() {
    assert!(<Census<8> as Protocol>::FOLD.is_some());
    assert!(<&Census<8> as Protocol>::FOLD.is_some());
    assert!(<&ShortestPaths<32> as Protocol>::FOLD.is_some());
    // The α synchronizer's product states are not folds of themselves.
    assert!(<Alpha<Census<8>> as Protocol>::FOLD.is_none());
    assert!(<Alpha<ShortestPaths<32>> as Protocol>::FOLD.is_none());
}
