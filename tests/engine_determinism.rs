//! Tier-1 engine determinism suite: the compiled kernel must be
//! bit-identical to the interpreter, round by round.
//!
//! This is the promoted form of the old proptest-only
//! `parallel_equals_sequential` property — it runs in every offline
//! tier-1 build, with no optional features, over a fixed grid of seeds
//! and graph sizes.

use fssga::engine::{Budget, Engine, NeighborView, Network, Protocol, Runner, StateSpace};
use fssga::graph::rng::Xoshiro256;
use fssga::graph::{generators, NodeId};
use fssga::protocols::bfs::{Bfs, BfsState};
use fssga::protocols::census::{Census, FmSketch};
use fssga::protocols::election::{ElectState, Election};
use fssga::protocols::firing_squad::{FiringSquad, FsspState};
use fssga::protocols::greedy_tourist::{TourLabel, TouristBfs};
use fssga::protocols::random_walk::{RandomWalk, WalkState};
use fssga::protocols::shortest_paths::ShortestPaths;
use fssga::protocols::synchronizer::alpha_network;
use fssga::protocols::traversal::{TravState, Traversal};
use fssga::protocols::two_coloring::TwoColoring;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum S4 {
    A,
    B,
    C,
    D,
}
fssga::engine::impl_state_space!(S4 { A, B, C, D });

/// A protocol whose transition hashes the visible mod/thresh statistics —
/// a worst case for determinism testing (every count and coin matters).
#[derive(Copy, Clone)]
struct Mixer;
impl Protocol for Mixer {
    type State = S4;
    const RANDOMNESS: u32 = 4;
    fn transition(&self, own: S4, nbrs: &NeighborView<'_, S4>, coin: u32) -> S4 {
        let mut acc = own.index() as u32 + coin;
        for (i, s) in [S4::A, S4::B, S4::C, S4::D].into_iter().enumerate() {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(nbrs.count_mod(s, 5) + 7 * nbrs.count_capped(s, 3) + i as u32);
        }
        S4::from_index((acc % 4) as usize)
    }
}

/// Steps an interpreter network and a kernel network in lockstep, one
/// [`Runner`] round at a time from equally seeded generators, asserting
/// equal states every round.
fn assert_lockstep<P, F>(protocol: P, init: F, n: usize, p: f64, gseed: u64, rounds: u32)
where
    P: Protocol + Copy,
    F: Fn(u32) -> P::State + Copy,
{
    let g = generators::connected_gnp(n, p, &mut Xoshiro256::seed_from_u64(gseed));
    let mut interp_net = Network::new(&g, protocol, init);
    let mut kernel_net = Network::new(&g, protocol, init);
    let mut r1 = Xoshiro256::seed_from_u64(gseed ^ 0xABCD);
    let mut r2 = Xoshiro256::seed_from_u64(gseed ^ 0xABCD);
    for round in 0..rounds {
        interp_net.sync_step(&mut r1);
        Runner::new(&mut kernel_net)
            .engine(Engine::Kernel)
            .budget(Budget::Rounds(1))
            .rng(&mut r2)
            .run();
        assert_eq!(
            interp_net.states(),
            kernel_net.states(),
            "n={n} gseed={gseed} round={round}"
        );
    }
}

/// Grid of seeds × sizes on the count-hashing Mixer.
#[test]
fn parallel_equals_sequential_mixer() {
    let init = |v: u32| S4::from_index((v as usize * 13 + 5) % 4);
    for (gseed, n) in [
        (1u64, 300usize),
        (2, 333),
        (3, 366),
        (5, 400),
        (8, 433),
        (13, 466),
        (21, 499),
    ] {
        assert_lockstep(Mixer, init, n, 0.02, gseed, 4);
    }
}

/// Runs `rounds` synchronous rounds of identically-built networks through
/// three entry points — the default [`Runner`], a forced
/// [`Engine::Kernel`] run, and a forced [`Engine::Interpreter`] run — and
/// asserts all three report the same change count and end in the same
/// states.
fn changes_parity<P: Protocol>(
    build: &dyn Fn() -> Network<P>,
    rounds: usize,
    seed: u64,
    ctx: &str,
) {
    let mut seq = build();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let sequential = Runner::new(&mut seq)
        .budget(Budget::Rounds(rounds))
        .rng(&mut rng)
        .run()
        .changes;

    let mut kern = build();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let kernel = Runner::new(&mut kern)
        .engine(Engine::Kernel)
        .budget(Budget::Rounds(rounds))
        .rng(&mut rng)
        .run()
        .changes;

    let mut interp = build();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let interpreted = Runner::new(&mut interp)
        .engine(Engine::Interpreter)
        .budget(Budget::Rounds(rounds))
        .rng(&mut rng)
        .run()
        .changes;

    assert_eq!(sequential, kernel, "{ctx}: default vs kernel changes");
    assert_eq!(
        sequential, interpreted,
        "{ctx}: default vs interpreter changes"
    );
    assert_eq!(seq.states(), kern.states(), "{ctx}: kernel states diverged");
    assert_eq!(
        seq.states(),
        interp.states(),
        "{ctx}: interpreter states diverged"
    );
}

/// `RunReport::changes` parity across the default runner, the kernel,
/// and the interpreter, for every protocol in the workspace.
#[test]
fn change_counts_agree_across_entry_points() {
    let g = generators::connected_gnp(300, 0.02, &mut Xoshiro256::seed_from_u64(0xD15C));
    let n = g.n();
    let last = (n - 1) as NodeId;
    let mut rng = Xoshiro256::seed_from_u64(7);
    let sketches: Vec<FmSketch<8>> = (0..n).map(|_| FmSketch::random_init(&mut rng)).collect();
    let rounds = 8;

    changes_parity(
        &|| Network::new(&g, TwoColoring, |v| TwoColoring::init(v == 0)),
        rounds,
        1,
        "two-coloring",
    );
    changes_parity(
        &|| Network::new(&g, Census::<8>, |v| sketches[v as usize]),
        rounds,
        2,
        "census",
    );
    changes_parity(
        &|| {
            Network::new(&g, ShortestPaths::<32>, |v| {
                ShortestPaths::<32>::init(v == 0)
            })
        },
        rounds,
        3,
        "shortest-paths",
    );
    changes_parity(
        &|| Network::new(&g, Bfs, |v| BfsState::init(v == 0, v == last)),
        rounds,
        4,
        "bfs",
    );
    changes_parity(
        &|| {
            Network::new(&g, TouristBfs, |v| {
                if v % 7 == 0 {
                    TourLabel::Target
                } else {
                    TourLabel::Star
                }
            })
        },
        rounds,
        5,
        "greedy-tourist",
    );
    changes_parity(
        &|| {
            Network::new(&g, RandomWalk, |v| {
                if v == 0 {
                    WalkState::Flip
                } else {
                    WalkState::Blank
                }
            })
        },
        rounds,
        6,
        "random-walk",
    );
    changes_parity(
        &|| Network::new(&g, Election, |_| ElectState::init()),
        rounds,
        7,
        "election",
    );
    changes_parity(
        &|| Network::new(&g, FiringSquad, |v| FsspState::init(v == 0)),
        rounds,
        8,
        "firing-squad",
    );
    changes_parity(
        &|| Network::new(&g, Traversal, |v| TravState::init(v == 0)),
        rounds,
        9,
        "traversal",
    );
    changes_parity(
        &|| {
            alpha_network(&g, ShortestPaths::<16>, |v| {
                ShortestPaths::<16>::init(v == 0)
            })
        },
        rounds,
        10,
        "alpha-synchronizer",
    );
}

/// Denser graphs on the randomized-coin path: a prime node count and
/// five graph seeds.
#[test]
fn parallel_equals_sequential_ragged_chunks() {
    let init = |v: u32| S4::from_index(v as usize % 4);
    for salt in [2u64, 3, 5, 7, 11] {
        assert_lockstep(Mixer, init, 257, 0.06, 0xC0FFEE ^ salt, 5);
    }
}
