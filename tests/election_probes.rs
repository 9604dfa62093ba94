//! Probes around the §5.2 open problems: how the election behaves under
//! mid-run faults and non-uniform starts. The paper leaves self-
//! stabilizing FSSGA election open; these tests document the observed
//! behaviour of our implementation at the boundary (loose assertions:
//! liveness of the machinery, not claims the paper doesn't make).

use fssga::engine::Sensitive;
use fssga::graph::generators;
use fssga::graph::rng::Xoshiro256;
use fssga::protocols::election::{ElectState, ElectionHarness};
use fssga::protocols::traversal::TStatus;

#[test]
fn election_survives_noncandidate_faults() {
    // Kill two nodes mid-election, each outside the declared critical set
    // at its kill and never disconnecting — Section 2's benign faults:
    // the rest still elects a unique leader.
    let mut elected = 0;
    let trials = 6;
    for i in 0..trials {
        let mut rng = Xoshiro256::seed_from_u64(5000 + i);
        let g = generators::connected_gnp(16, 0.3, &mut rng);
        let mut h = ElectionHarness::new(&g);
        // Run a bit, then fault.
        {
            let net = h.network_mut();
            for _ in 0..40 {
                net.sync_step(&mut rng);
            }
        }
        let mut killed = 0;
        for _ in 0..40 {
            if killed >= 2 {
                break;
            }
            let v = rng.gen_index(16) as u32;
            let critical = h.critical_set();
            let net = h.network_mut();
            if !critical.contains(&v) && net.graph().is_alive(v) {
                let mut probe = net.graph().clone();
                probe.remove_node(v);
                if probe.is_connected() {
                    net.remove_node(v);
                    killed += 1;
                }
            }
        }
        let run = h.run(2_000_000, &mut rng);
        if run.leader.is_some() {
            elected += 1;
        }
    }
    assert_eq!(
        elected, trials,
        "elections under non-critical faults: {elected}/{trials}"
    );
}

#[test]
fn killing_every_candidate_stalls_without_crashing() {
    // The boundary case the paper's model admits: if every remaining
    // candidate dies, no leader can ever emerge (remain never returns),
    // but the network must stay live (no panic, phases keep advancing or
    // quiesce).
    let mut rng = Xoshiro256::seed_from_u64(6001);
    let g = generators::complete(8);
    let mut h = ElectionHarness::new(&g);
    for _ in 0..30 {
        h.network_mut().sync_step(&mut rng);
    }
    let candidates: Vec<u32> = (0..8u32)
        .filter(|&v| h.network_mut().state(v).remain)
        .collect();
    assert!(!candidates.is_empty());
    for v in candidates {
        h.network_mut().remove_node(v);
    }
    let run = h.run(20_000, &mut rng);
    assert!(run.leader.is_none(), "no candidate can win from the grave");
}

#[test]
fn killing_an_arm_node_stalls_without_crashing() {
    // An arm node links the Milgram agent back to its candidate. Cut that
    // path (without disconnecting the graph) at the wrong moment and the
    // agent never returns, so the candidate never declares; the network
    // must stay live. Replays the run to each round in turn and kills
    // each non-candidate arm node there until one kill stalls it.
    let g = generators::connected_gnp(16, 0.3, &mut Xoshiro256::seed_from_u64(5000));
    let after = |t: u64| {
        let mut h = ElectionHarness::new(&g);
        let mut rng = Xoshiro256::seed_from_u64(5001);
        for _ in 0..t {
            h.network_mut().sync_step(&mut rng);
        }
        (h, rng)
    };
    let stalled = (0..400).any(|t| {
        let (mut h, _) = after(t);
        let net = h.network_mut();
        let arms: Vec<u32> = (0..16u32)
            .filter(|&v| {
                let s = net.state(v);
                let mut probe = net.graph().clone();
                probe.remove_node(v);
                s.trav.status == TStatus::Arm && !s.remain && probe.is_connected()
            })
            .collect();
        arms.into_iter().any(|v| {
            let (mut h, mut rng) = after(t);
            h.network_mut().remove_node(v);
            h.run(20_000, &mut rng).leader.is_none()
        })
    });
    assert!(stalled, "no arm-node kill stalled the election");
}

#[test]
fn arbitrary_start_states_do_not_wedge_the_machinery() {
    // Self-stabilization probe (open problem in the paper): from random
    // garbage states the algorithm is NOT guaranteed to elect — but the
    // automaton must not crash, and phases must keep moving while any
    // conflict exists. We assert liveness only.
    use fssga::engine::StateSpace;
    let mut rng = Xoshiro256::seed_from_u64(6002);
    let g = generators::grid(4, 4);
    for trial in 0..5 {
        let mut h = ElectionHarness::new(&g);
        {
            let net = h.network_mut();
            for v in 0..16u32 {
                let idx = rng.gen_index(ElectState::COUNT);
                net.set_state(v, ElectState::from_index(idx));
            }
        }
        let run = h.run(50_000, &mut rng);
        // Either it recovered and elected, or it is still churning: both
        // are fine; wedging with multiple "leaders" forever is not
        // something we can exclude in general, so just record.
        let stats = h.stats();
        assert!(
            run.leader.is_some() || stats.remaining <= 16,
            "trial {trial}: machinery stayed live"
        );
    }
}
