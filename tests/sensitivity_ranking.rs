//! Tier-1 certification of the paper's Section 2 sensitivity ranking.
//!
//! For each algorithm the empirical estimator sweeps lone node kills
//! (one per deterministic campaign) across several instants and counts
//! how many distinct kills break the run at any single instant — an
//! empirical lower bound on `max_t |χ(σ_t)|`. The verdicts are then
//! cross-checked against each algorithm's *declared* [`Sensitive`]
//! critical set: every observed breakage must name a declared critical
//! node, and the declared class must bound the observed count. Together
//! these reproduce the paper's ranking:
//!
//! * census, shortest paths, α synchronizer — 0-sensitive;
//! * greedy tourist, bridge walk — 1-sensitive;
//! * random walk — 2-sensitive (the walker, plus the lone `Tails`
//!   neighbour during a hand-over);
//! * β synchronizer, leader election — Θ(n)-sensitive.

use fssga::engine::faults::{FaultEvent, FaultKind};
use fssga::engine::sensitivity::{
    reasonably_correct, sweep_single_faults, Sensitive, SensitivityClass, SensitivityReport,
    Verdict,
};
use fssga::engine::{AsyncPolicy, Budget, Campaign, Network, Policy, Protocol, RunPolicy, Runner};
use fssga::graph::rng::Xoshiro256;
use fssga::graph::{exact, generators, DynGraph, Graph, NodeId};
use fssga::protocols::bridges::BridgeWalk;
use fssga::protocols::census::{Census, FmSketch};
use fssga::protocols::election::ElectionHarness;
use fssga::protocols::greedy_tourist::GreedyTourist;
use fssga::protocols::random_walk::WalkHarness;
use fssga::protocols::shortest_paths::{labels_as_distances, ShortestPaths};
use fssga::protocols::synchronizer::{alpha_network, BetaSynchronizer};
use fssga::protocols::traversal::TStatus;
use fssga::protocols::two_coloring::TwoColoring;

fn all_node_kills(n: usize) -> Vec<FaultKind> {
    (0..n as NodeId).map(FaultKind::Node).collect()
}

/// The lone node kills that leave `g` connected — the benign faults of
/// Section 2's definition.
fn benign_node_kills(g: &Graph) -> Vec<FaultKind> {
    (0..g.n() as NodeId)
        .filter(|&v| {
            let mut d = DynGraph::from_graph(g);
            d.remove_node(v);
            d.is_connected()
        })
        .map(FaultKind::Node)
        .collect()
}

/// `h` after `t` fault-free synchronous rounds from `seed`, and the
/// generator as it stands after them.
fn after<H, P: Protocol>(
    mut h: H,
    net: fn(&mut H) -> &mut Network<P>,
    seed: u64,
    t: u64,
) -> (H, Xoshiro256) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for _ in 0..t {
        net(&mut h).sync_step(&mut rng);
    }
    (h, rng)
}

fn election_after(g: &Graph, seed: u64, t: u64) -> (ElectionHarness, Xoshiro256) {
    after(
        ElectionHarness::new(g),
        ElectionHarness::network_mut,
        seed,
        t,
    )
}

fn walk_after(g: &Graph, seed: u64, t: u64) -> (WalkHarness, Xoshiro256) {
    after(WalkHarness::new(g, 0), WalkHarness::network_mut, seed, t)
}

/// Sweeps every benign lone kill at every round of a fault-free walk of
/// `moves` moves on `g` (hand-overs last one round, so every instant
/// counts). A probe is reasonably correct if exactly one live walker
/// remains every round and it makes `moves` more moves within four times
/// the fault-free round count.
fn walk_sweep(g: &Graph, seed: u64, moves: usize) -> SensitivityReport {
    let (mut h, mut rng) = walk_after(g, seed, 0);
    let fault_free = h.run(moves, 1_000_000, &mut rng);
    assert_eq!(fault_free.rounds_per_move.len(), moves);
    let rounds: u64 = fault_free.rounds_per_move.iter().map(|&r| r as u64).sum();
    let times: Vec<u64> = (0..rounds).collect();
    sweep_single_faults(&benign_node_kills(g), &times, |schedule| {
        let FaultKind::Node(v) = schedule[0].kind else {
            unreachable!("node kills only")
        };
        let (mut h, mut rng) = walk_after(g, seed, schedule[0].time);
        let net = h.network_mut();
        net.remove_node(v);
        let mut position = None;
        let mut moved = 0;
        for _ in 0..4 * rounds {
            net.sync_step(&mut rng);
            let walkers: Vec<NodeId> = net
                .graph()
                .alive_nodes()
                .filter(|&w| net.state(w).is_walker())
                .collect();
            let [walker] = walkers[..] else {
                return Verdict::Incorrect;
            };
            if position.is_some_and(|p| p != walker) {
                moved += 1;
                if moved == moves {
                    return Verdict::ReasonablyCorrect;
                }
            }
            position = Some(walker);
        }
        Verdict::Incorrect
    })
}

/// Sweeps every benign lone kill at seven instants of a fault-free
/// election on `g`. A probe is reasonably correct if the survivors elect
/// a live leader within four times the fault-free round count.
fn election_sweep(g: &Graph, seed: u64) -> SensitivityReport {
    let (mut h, mut rng) = election_after(g, seed, 0);
    let fault_free = h.run(2_000_000, &mut rng);
    assert!(
        fault_free.leader.is_some(),
        "fault-free election must elect"
    );
    let rounds = fault_free.rounds;
    let times: Vec<u64> = (1..8).map(|k| k * rounds / 8).collect();
    sweep_single_faults(&benign_node_kills(g), &times, |schedule| {
        let FaultKind::Node(v) = schedule[0].kind else {
            unreachable!("node kills only")
        };
        let (mut h, mut rng) = election_after(g, seed, schedule[0].time);
        h.network_mut().remove_node(v);
        match h.run(4 * rounds, &mut rng).leader {
            Some(leader) if leader != v => Verdict::ReasonablyCorrect,
            _ => Verdict::Incorrect,
        }
    })
}

#[test]
fn census_is_zero_critical() {
    // Petersen is 3-connected: no single kill disconnects it, so every
    // bit that survives keeps diffusing and every lone fault must leave
    // the census reasonably correct — the declared empty critical set.
    let g = generators::petersen();
    let mut rng = Xoshiro256::seed_from_u64(501);
    let sketches: Vec<FmSketch<8>> = (0..g.n())
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    let campaign = Campaign::new(
        &g,
        || Census::<8>,
        |v| sketches[v as usize],
        |net: &Network<Census<8>>| net.graph().is_alive(0).then(|| net.state(0).0),
        |g: &Graph| {
            let d = DynGraph::from_graph(g);
            d.component_of(0)
                .into_iter()
                .fold(0u16, |acc, v| acc | sketches[v as usize].0)
        },
    )
    .horizon(25);

    let mut kinds = all_node_kills(g.n());
    kinds.extend(g.edges().map(|(u, v)| FaultKind::Edge(u, v)));
    let report = sweep_single_faults(&kinds, &[0, 1, 2, 4, 7], |schedule| {
        campaign.run_with_schedule(schedule).verdict
    });

    assert_eq!(
        report.harmful().count(),
        0,
        "census must survive every lone fault: {:?}",
        report.harmful().collect::<Vec<_>>()
    );
    assert_eq!(report.empirical_sensitivity(), 0);
    let declared = Network::new(&g, Census::<8>, |v| sketches[v as usize]);
    assert_eq!(declared.sensitivity_class(), SensitivityClass::Zero);
    assert!(declared.critical_set().is_empty());
    assert!(report.uncovered_by(|_| declared.critical_set()).is_empty());
}

#[test]
fn shortest_paths_are_zero_critical() {
    // Same 3-connected topology, sink at 0. The relaxation re-converges
    // after any lone fault, so the labels of the surviving nodes always
    // match the fault-free distances on the post-fault snapshot.
    let g = generators::petersen();
    let campaign = Campaign::new(
        &g,
        || ShortestPaths::<32>,
        |v| ShortestPaths::<32>::init(v == 0),
        |net: &Network<ShortestPaths<32>>| {
            net.graph().is_alive(0).then(|| {
                let dist = labels_as_distances(net.states());
                net.graph()
                    .alive_nodes()
                    .map(|v| (v, dist[v as usize]))
                    .collect::<Vec<_>>()
            })
        },
        |g: &Graph| {
            // Dead nodes appear as isolated slots in snapshots; on this
            // topology degree > 0 is exactly "alive".
            let dist = exact::bfs_distances(g, &[0]);
            g.nodes()
                .filter(|&v| g.degree(v) > 0)
                .map(|v| (v, dist[v as usize]))
                .collect::<Vec<_>>()
        },
    )
    .horizon(30);

    let report = sweep_single_faults(&all_node_kills(g.n()), &[0, 2, 5], |schedule| {
        campaign.run_with_schedule(schedule).verdict
    });
    assert_eq!(report.harmful().count(), 0);
    let declared = Network::new(&g, ShortestPaths::<32>, |v| {
        ShortestPaths::<32>::init(v == 0)
    });
    assert_eq!(declared.sensitivity_class(), SensitivityClass::Zero);
    assert!(report.uncovered_by(|_| declared.critical_set()).is_empty());
}

/// Replays the fault-free tourist prefix to round budget `t` and returns
/// its declared critical set there (the agent's position).
fn tourist_critical_at(g: &Graph, t: u64) -> Vec<NodeId> {
    let mut tour = GreedyTourist::new(g, 0);
    let mut rng = Xoshiro256::seed_from_u64(502);
    let _ = tour.run(t, &mut rng);
    tour.critical_set()
}

#[test]
fn greedy_tourist_is_at_most_one_critical() {
    // A 2-connected graph: killing any single non-agent node leaves the
    // rest connected, so the tour must still finish; only the agent's own
    // node is load-bearing.
    let mut grng = Xoshiro256::seed_from_u64(77);
    let g = generators::cycle_with_chords(10, 2, &mut grng);
    let times = [0u64, 5, 12];

    let report = sweep_single_faults(&all_node_kills(g.n()), &times, |schedule| {
        let ev = schedule[0];
        let mut tour = GreedyTourist::new(&g, 0);
        let mut rng = Xoshiro256::seed_from_u64(502);
        let _ = tour.run(ev.time, &mut rng);
        match ev.kind {
            FaultKind::Edge(u, v) => {
                tour.network_mut().remove_edge(u, v);
            }
            FaultKind::Node(v) => {
                tour.network_mut().remove_node(v);
            }
            FaultKind::AddNode(_) | FaultKind::AddEdge(_, _) => {
                unreachable!("exhaustive_kinds generates removals only")
            }
        }
        let _ = tour.run(200_000, &mut rng);
        let unvisited_alive = tour
            .network()
            .graph()
            .alive_nodes()
            .any(|v| !tour.visited()[v as usize]);
        if unvisited_alive {
            Verdict::Incorrect
        } else {
            Verdict::ReasonablyCorrect
        }
    });

    assert!(
        report.harmful().count() > 0,
        "killing the agent must break the tour"
    );
    assert!(
        report.empirical_sensitivity() <= 1,
        "at most one critical node per instant: {:?}",
        report.harmful().collect::<Vec<_>>()
    );
    let declared = GreedyTourist::new(&g, 0);
    assert_eq!(declared.sensitivity_class(), SensitivityClass::Constant(1));
    assert!(
        report
            .uncovered_by(|t| tourist_critical_at(&g, t))
            .is_empty(),
        "every harmful kill must name the declared agent position"
    );
}

#[test]
fn bridge_walk_is_at_most_one_critical() {
    // K6 stays bridgeless and connected under any single kill; the only
    // way to break the walk is to kill the node carrying the agent.
    let g = generators::complete(6);
    let times = [0u64, 30];
    let verdict_of = |schedule: &[FaultEvent]| {
        let ev = schedule[0];
        let mut walk = BridgeWalk::new(&g, 0);
        let mut rng = Xoshiro256::seed_from_u64(503);
        walk.run(ev.time, &mut rng);
        match ev.kind {
            FaultKind::Edge(u, v) => {
                walk.graph_mut().remove_edge(u, v);
            }
            FaultKind::Node(v) => {
                walk.graph_mut().remove_node(v);
            }
            FaultKind::AddNode(_) | FaultKind::AddEdge(_, _) => {
                unreachable!("exhaustive_kinds generates removals only")
            }
        }
        walk.run(30_000, &mut rng);
        let snapshot = walk.graph_mut().snapshot();
        let mut claimed: Vec<_> = walk
            .candidate_bridges()
            .into_iter()
            .filter(|&(u, v)| snapshot.has_edge(u, v))
            .collect();
        claimed.sort_unstable();
        let mut truth = exact::bridges(&snapshot);
        truth.sort_unstable();
        if claimed == truth {
            Verdict::ReasonablyCorrect
        } else {
            Verdict::Incorrect
        }
    };
    let report = sweep_single_faults(&all_node_kills(g.n()), &times, verdict_of);

    assert!(
        report.harmful().count() > 0,
        "killing the agent must break the walk"
    );
    assert!(report.empirical_sensitivity() <= 1);
    let declared = BridgeWalk::new(&g, 0);
    assert_eq!(declared.sensitivity_class(), SensitivityClass::Constant(1));
    let critical_at = |t: u64| {
        let mut walk = BridgeWalk::new(&g, 0);
        let mut rng = Xoshiro256::seed_from_u64(503);
        walk.run(t, &mut rng);
        walk.critical_set()
    };
    assert!(report.uncovered_by(critical_at).is_empty());
}

#[test]
fn beta_synchronizer_is_linearly_critical() {
    // On a cycle the graph survives any single node kill, but the β
    // synchronizer's one-shot BFS tree does not: killing any interior
    // tree node (n - 2 of the n nodes here) strands its whole subtree,
    // while a fault-free run on the same reduced graph would have rebuilt
    // the tree and synchronized everyone.
    let n = 12usize;
    let g = generators::cycle(n);
    let fault_free = |g: &Graph| {
        let d = DynGraph::from_graph(g);
        let beta = BetaSynchronizer::new(g, 0);
        let mut sync = beta.synchronized_nodes(&d);
        sync.sort_unstable();
        sync
    };
    let report = sweep_single_faults(&all_node_kills(n), &[0], |schedule| {
        let mut d = DynGraph::from_graph(&g);
        let beta = BetaSynchronizer::new(&g, 0);
        let mut snapshots = vec![d.snapshot()];
        for ev in schedule {
            let applied = match ev.kind {
                FaultKind::Edge(u, v) => d.remove_edge(u, v),
                FaultKind::Node(v) => d.remove_node(v),
                FaultKind::AddNode(_) | FaultKind::AddEdge(_, _) => {
                    unreachable!("exhaustive_kinds generates removals only")
                }
            };
            if applied {
                snapshots.push(d.snapshot());
            }
        }
        let mut sync = beta.synchronized_nodes(&d);
        sync.sort_unstable();
        if reasonably_correct(&snapshots, &sync, fault_free) {
            Verdict::ReasonablyCorrect
        } else {
            Verdict::Incorrect
        }
    });

    let harmful = report.harmful_nodes_at(0);
    assert!(
        harmful.len() >= n - 2,
        "every interior tree node must be critical, got {harmful:?}"
    );
    let declared = BetaSynchronizer::new(&g, 0);
    assert_eq!(declared.sensitivity_class(), SensitivityClass::Linear);
    assert!(
        harmful.len() <= declared.sensitivity_class().bound(n),
        "Linear admits at most n"
    );
    assert!(
        report.uncovered_by(|_| declared.critical_set()).is_empty(),
        "declared interior set must cover every observed breakage"
    );
}

#[test]
fn election_critical_set_covers_every_breaking_kill() {
    // Beyond the candidates, the Milgram agent's hand, its arm and the
    // hand's tournament participants are critical. Each of the last two
    // terms is load-bearing: the sweep finds breaking kills that only it
    // covers.
    let (mut arm_only, mut participant_only) = (0, 0);
    for gseed in 5000u64..5008 {
        let g = generators::connected_gnp(12, 0.35, &mut Xoshiro256::seed_from_u64(gseed));
        let seed = gseed ^ 0xE1EC;
        let report = election_sweep(&g, seed);
        let critical_at = |t: u64| election_after(&g, seed, t).0.critical_set();
        assert_eq!(
            report.uncovered_by(critical_at),
            vec![],
            "graph seed {gseed}: breaking kills outside the declared critical set"
        );
        let candidates_and_hand = |t: u64| {
            let (mut h, _) = election_after(&g, seed, t);
            let net = h.network_mut();
            (0..g.n() as NodeId)
                .filter(|&v| {
                    let s = net.state(v);
                    s.remain || s.leader || s.trav.is_hand()
                })
                .collect()
        };
        for (t, v) in report.uncovered_by(candidates_and_hand) {
            match election_after(&g, seed, t)
                .0
                .network_mut()
                .state(v)
                .trav
                .status
            {
                TStatus::Arm => arm_only += 1,
                TStatus::Blank(_) => participant_only += 1,
                other => panic!("graph seed {gseed}: kill of {v} at {t} in {other:?}"),
            }
        }
    }
    assert!(arm_only > 0, "no breaking kill needs the arm term");
    assert!(
        participant_only > 0,
        "no breaking kill needs the participant term"
    );
    assert_eq!(
        ElectionHarness::new(&generators::cycle(5)).sensitivity_class(),
        SensitivityClass::Linear
    );
}

#[test]
fn random_walk_critical_set_covers_every_breaking_kill() {
    for gseed in 600u64..604 {
        let g = generators::cycle_with_chords(10, 2, &mut Xoshiro256::seed_from_u64(gseed));
        let seed = gseed ^ 0x3A1C;
        let report = walk_sweep(&g, seed, 12);
        assert!(
            report.harmful().count() > 0,
            "killing the walker must break the walk"
        );
        let critical_at = |t: u64| walk_after(&g, seed, t).0.critical_set();
        assert_eq!(
            report.uncovered_by(critical_at),
            vec![],
            "graph seed {gseed}: breaking kills outside the declared critical set"
        );
        assert!(report.empirical_sensitivity() <= 2);
    }
}

#[test]
fn alpha_synchronizer_is_zero_critical() {
    // The α synchronizer holds no global structure: after any lone kill
    // the survivors' clocks must keep advancing (a dead neighbour is just
    // a smaller neighbourhood, never a permanent wait).
    let n = 8usize;
    let g = generators::cycle(n);
    let report = sweep_single_faults(&all_node_kills(n), &[0, 4], |schedule| {
        let ev = schedule[0];
        let mut net = alpha_network(&g, TwoColoring, |v| TwoColoring::init(v == 0));
        let mut rng = Xoshiro256::seed_from_u64(504);
        Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::RoundRobin))
            .budget(Budget::Steps(ev.time as usize * n))
            .rng(&mut rng)
            .run();
        match ev.kind {
            FaultKind::Edge(u, v) => {
                net.remove_edge(u, v);
            }
            FaultKind::Node(v) => {
                net.remove_node(v);
            }
            FaultKind::AddNode(_) | FaultKind::AddEdge(_, _) => {
                unreachable!("exhaustive_kinds generates removals only")
            }
        }
        // Ten post-fault sweeps; a node advances at most one clock tick
        // per sweep, so sweep-to-sweep clock changes witness progress.
        let alive: Vec<NodeId> = net.graph().alive_nodes().collect();
        let mut progressed = vec![false; n];
        for _ in 0..10 {
            let before: Vec<u8> = (0..n as NodeId).map(|v| net.state(v).clock).collect();
            Runner::new(&mut net)
                .policy(Policy::Async(AsyncPolicy::RoundRobin))
                .budget(Budget::Steps(alive.len()))
                .rng(&mut rng)
                .run();
            for &v in &alive {
                if net.state(v).clock != before[v as usize] {
                    progressed[v as usize] = true;
                }
            }
        }
        let stuck = alive
            .iter()
            .any(|&v| net.graph().degree(v) > 0 && !progressed[v as usize]);
        if stuck {
            Verdict::Incorrect
        } else {
            Verdict::ReasonablyCorrect
        }
    });

    assert_eq!(
        report.harmful().count(),
        0,
        "no lone fault may stall the α synchronizer: {:?}",
        report.harmful().collect::<Vec<_>>()
    );
    let declared = alpha_network(&g, TwoColoring, |v| TwoColoring::init(v == 0));
    assert_eq!(declared.sensitivity_class(), SensitivityClass::Zero);
    assert!(report.uncovered_by(|_| declared.critical_set()).is_empty());
}

#[test]
fn ranking_is_strictly_ordered() {
    // The headline of Section 2, as one assertion chain: census (0) <
    // tourist/bridges (1) < β synchronizer (Θ(n)); on a 12-node instance
    // the β bound must already exceed the constant classes.
    let n = 12;
    assert!(SensitivityClass::Zero.bound(n) < SensitivityClass::Constant(1).bound(n));
    assert!(SensitivityClass::Constant(1).bound(n) < SensitivityClass::Linear.bound(n));
    // And the declared classes of the implementations are the paper's.
    let g = generators::cycle(n);
    let mut rng = Xoshiro256::seed_from_u64(505);
    let census = Network::new(&g, Census::<8>, |_| FmSketch::random_init(&mut rng));
    assert_eq!(census.sensitivity_class().bound(n), 0);
    assert_eq!(GreedyTourist::new(&g, 0).sensitivity_class().bound(n), 1);
    assert_eq!(BridgeWalk::new(&g, 0).sensitivity_class().bound(n), 1);
    assert_eq!(BetaSynchronizer::new(&g, 0).sensitivity_class().bound(n), n);

    // Campaign-based policy cross-check: the same census campaign is
    // fault-tolerant under every scheduling policy, not just sync.
    let sketches: Vec<FmSketch<8>> = (0..n).map(|_| FmSketch::random_init(&mut rng)).collect();
    for policy in [
        RunPolicy::Sync,
        RunPolicy::Async(AsyncPolicy::RoundRobin),
        RunPolicy::Async(AsyncPolicy::RandomPermutation),
    ] {
        let campaign = Campaign::new(
            &g,
            || Census::<8>,
            |v| sketches[v as usize],
            |net: &Network<Census<8>>| net.graph().is_alive(0).then(|| net.state(0).0),
            |g: &Graph| {
                let d = DynGraph::from_graph(g);
                d.component_of(0)
                    .into_iter()
                    .fold(0u16, |acc, v| acc | sketches[v as usize].0)
            },
        )
        .horizon(60)
        .policy(policy);
        let out = campaign.run_with_schedule(&[FaultEvent {
            time: 3,
            kind: FaultKind::Node(6),
        }]);
        assert_eq!(out.verdict, Verdict::ReasonablyCorrect, "{policy:?}");
    }
}
