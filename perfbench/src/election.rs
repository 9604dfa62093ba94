//! `election-gnp`: `ElectionHarness::run` to a unique leader on a fixed
//! batch of seeded `connected_gnp(64, 0.15)` graphs.
//!
//! Election is probabilistic, so it always takes the interpreter and
//! `NeighborView` path and never enters the kernel: this workload is the
//! bypass for every kernel optimisation, and the interpreter's own cost
//! per activation is what it measures.

use std::time::Instant;

use fssga_engine::{Protocol, StateSpace};
use fssga_graph::generators::connected_gnp;
use fssga_graph::rng::Xoshiro256;
use fssga_graph::{Graph, NodeId};
use fssga_protocols::election::{Election, ElectionHarness};
use fssga_serve::fingerprint;
use fssga_serve::json;

use crate::trace::{RoundTally, Spans};
use crate::{interp_bytes, med, overhead, repeat, Report, Run};

const N: usize = 64;
const P: f64 = 0.15;
/// Graphs in the batch; elections cycle through it.
const BATCH: usize = 16;
const SETUP_REPS: usize = 5;
/// Round cap per election; reaching it without a leader is a failure.
const MAX_ROUNDS: u64 = 1_000_000;

/// The coin stream of election `i` of the batch.
fn coins(seed: u64, i: usize) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The deterministic outcome of one election.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    rounds: u64,
    leader: NodeId,
    fingerprint: u64,
}

/// Oracle: exactly one node is both `leader` and `remain`, and it is the
/// leader the harness named.
fn check(h: &mut ElectionHarness, rounds: u64, leader: Option<NodeId>) -> Result<Outcome, String> {
    let net = h.network_mut();
    let leader = leader.ok_or(format!("no leader within {rounds} rounds"))?;
    let both: Vec<NodeId> = (0..net.n() as NodeId)
        .filter(|&v| net.state(v).leader && net.state(v).remain)
        .collect();
    if both != [leader] {
        return Err(format!(
            "leader {leader}, but leader-and-remain nodes are {both:?}"
        ));
    }
    Ok(Outcome {
        rounds,
        leader,
        fingerprint: fingerprint(net.states().iter().map(|s| s.index())),
    })
}

pub fn run(run: &Run, traced: bool) -> Report {
    let mut r = Report::default();
    let mut spans = Spans::new();
    let mut graphs: Vec<Graph> = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let root = spans.open("setup", None, 0);
        let mut rng = Xoshiro256::seed_from_u64(run.seed);
        graphs.clear();
        for _ in 0..BATCH {
            let s = spans.open("generators::connected_gnp", Some(root), 0);
            graphs.push(connected_gnp(N, P, &mut rng));
            spans.close(s);
            let s = spans.open("ElectionHarness::new", Some(root), 0);
            std::hint::black_box(ElectionHarness::new(graphs.last().expect("pushed")));
            spans.close(s);
        }
        spans.close(root);
        r.setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut expect: Vec<Option<Outcome>> = vec![None; BATCH];
    let finish = |r: &mut Report, slot: &mut Option<Outcome>, got: Result<Outcome, String>| {
        r.attempted += 1;
        match got {
            Err(e) => r.fail(format!("election: {e}")),
            Ok(o) => r.same(slot, "election outcome", o),
        }
    };

    // Untraced: whole batch passes until the window is spent (one pass
    // in a traced run, as the baseline for the traced pass).
    let mut untraced_s = Vec::new();
    let window = if traced { 0.0 } else { run.seconds };
    let passes = repeat(window, |_| {
        for (i, g) in graphs.iter().enumerate() {
            let mut h = ElectionHarness::new(g);
            let mut rng = coins(run.seed, i);
            let t = Instant::now();
            let e = h.run(MAX_ROUNDS, &mut rng);
            untraced_s.push(t.elapsed().as_secs_f64());
            finish(&mut r, &mut expect[i], check(&mut h, e.rounds, e.leader));
        }
    });
    let rounds: u64 = expect.iter().flatten().map(|o| o.rounds).sum();
    r.meta.push(("n", json::nu(N as u64)));
    r.meta.push(("batch", json::nu(BATCH as u64)));
    let largest = graphs
        .iter()
        .map(|g| interp_bytes::<Election>(g.n(), g.m()));
    r.working_set(largest.max().unwrap_or(0));
    r.meta.push(("batch_passes", json::nu(passes as u64)));
    r.meta.push(("rounds_per_batch", json::nu(rounds)));
    r.meta.push((
        "fingerprint",
        json::s(format!(
            "{:016x}",
            fingerprint(expect.iter().flatten().map(|o| o.fingerprint as usize))
        )),
    ));
    if !traced {
        r.latency_ms = untraced_s.iter().map(|s| s * 1e3).collect();
        r.items = untraced_s.len() as f64;
        r.busy_s = untraced_s.iter().sum();
        return r;
    }

    // Traced: the harness loop replayed from outside, the interpreter
    // round and the harness's per-round stats in separate spans. The
    // replay keeps the harness's per-round phase bookkeeping too, so the
    // time outside `sync_step` is what `ElectionHarness::run` spends.
    let mut tally = RoundTally::default();
    let mut traced_s = Vec::new();
    for (i, g) in graphs.iter().enumerate() {
        let job = i as u64 + 1;
        let mut h = ElectionHarness::new(g);
        let mut rng = coins(run.seed, i);
        let op = spans.open("election", None, job);
        let mut rounds = 0u64;
        let mut phase_advances = 0u64;
        let leader = loop {
            if rounds >= MAX_ROUNDS {
                break None;
            }
            let net = h.network_mut();
            let before: Vec<u8> = net.states().iter().map(|s| s.phase).collect();
            let round_seed = if Election::RANDOMNESS > 1 {
                rng.next_u64()
            } else {
                0
            };
            let s = spans.open("Network::sync_step", Some(op), job);
            net.sync_step_seeded_traced(round_seed, &mut tally);
            spans.close(s);
            rounds += 1;
            phase_advances += before
                .iter()
                .zip(net.states())
                .filter(|(&b, s)| b != s.phase)
                .count() as u64;
            let s = spans.open("ElectionHarness::stats", Some(op), job);
            let st = h.stats();
            spans.close(s);
            if st.remaining == 1
                && st.leaders.len() == 1
                && h.network_mut().state(st.leaders[0]).remain
            {
                break Some(st.leaders[0]);
            }
        };
        std::hint::black_box(phase_advances);
        spans.close(op);
        traced_s.push(spans.list[op].dur_ns() as f64 / 1e9);
        finish(&mut r, &mut expect[i], check(&mut h, rounds, leader));
    }
    let step_us: Vec<f64> = spans
        .durations_s("Network::sync_step")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let step_s: f64 = step_us.iter().sum::<f64>() / 1e6;
    let total_s: f64 = traced_s.iter().sum();
    let l = &mut r.layers;
    l.insert(
        "graph.generate_s",
        med(&spans.durations_s("generators::connected_gnp")),
    );
    l.insert(
        "network.new_s",
        med(&spans.durations_s("ElectionHarness::new")),
    );
    l.insert(
        "interp.ns_per_activation",
        step_s * 1e9 / tally.run.activations.max(1) as f64,
    );
    l.insert("interp.round_p50_us", med(&step_us));
    l.insert(
        "election.rounds_per_election",
        tally.run.rounds as f64 / BATCH as f64,
    );
    l.insert("election.harness_share", 1.0 - step_s / total_s);
    l.insert("trace.overhead_ratio", overhead(&traced_s, &untraced_s));
    r.spans = Some(spans);
    r
}
