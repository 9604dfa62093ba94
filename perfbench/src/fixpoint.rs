//! `torus-census` and `torus-sssp`: `Runner::run` to fixpoint on
//! `torus(1000, 1000)` (n = 10⁶).
//!
//! Census keeps a wide dirty frontier for hundreds of rounds, so kernel
//! schedule, eval and commit dominate it. Shortest-paths moves a thin
//! wavefront, so per-round fixed costs dominate it: a scheduling change
//! that helps census but costs thin frontiers shows up here.

use std::time::Instant;

use fssga_engine::{Budget, Network, Protocol, Runner, StateSpace};
use fssga_graph::exact::bfs_distances;
use fssga_graph::generators::torus;
use fssga_graph::rng::Xoshiro256;
use fssga_graph::{Graph, NodeId};
use fssga_protocols::census::{Census, FmSketch};
use fssga_protocols::shortest_paths::{ShortestPaths, SpState};
use fssga_serve::fingerprint;
use fssga_serve::json;

use crate::stats::tail;
use crate::trace::{RoundTally, Spans};
use crate::{kernel_bytes, med, overhead, repeat, Report, Run};

/// Torus side: n = `SIDE`² = 10⁶.
const SIDE: usize = 1000;
/// Set-ups per run (generation + `Network::new` + kernel build).
const SETUP_REPS: usize = 3;
/// Shortest-paths label cap.
const CAP: usize = 256;

/// Checks a run's final states on its graph.
type Oracle<S> = Box<dyn Fn(&Graph, &[S]) -> Result<(), String>>;

/// A fixpoint workload: protocol, initial states and output oracle.
struct Case<P: Protocol> {
    protocol: fn() -> P,
    init: Box<dyn Fn(NodeId) -> P::State>,
    oracle: Oracle<P::State>,
    /// Round budget; reaching it without a fixpoint is a failure.
    budget: usize,
}

/// Census with FM sketches drawn from the seed. Oracle: every final
/// sketch is the OR of all initial sketches (the torus is connected).
pub fn census(run: &Run, traced: bool) -> Report {
    let mut rng = Xoshiro256::seed_from_u64(run.seed);
    let sketches: Vec<FmSketch<16>> = (0..SIDE * SIDE)
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    let all = sketches.iter().fold(FmSketch::empty(), |a, &b| a.union(b));
    let init = move |v: NodeId| sketches[v as usize];
    measure(
        run,
        traced,
        Case {
            protocol: || Census::<16>,
            init: Box::new(init),
            oracle: Box::new(
                move |_, states| match states.iter().position(|&s| s != all) {
                    None => Ok(()),
                    Some(v) => Err(format!(
                        "census: node {v} holds {:?}, OR is {all:?}",
                        states[v]
                    )),
                },
            ),
            budget: 10 * SIDE * SIDE,
        },
    )
}

/// Shortest-paths to node 0. Oracle: every label equals the exact BFS
/// distance capped at 256.
/// Its inputs do not depend on the seed.
pub fn sssp(run: &Run, traced: bool) -> Report {
    let oracle = |g: &Graph, states: &[SpState<CAP>]| {
        let dist = bfs_distances(g, &[0]);
        for (v, (s, d)) in states.iter().zip(dist).enumerate() {
            let want = d.min(CAP as u32);
            if u32::from(s.label()) != want {
                return Err(format!(
                    "sssp: node {v} label {} != min(bfs, {CAP}) = {want}",
                    s.label()
                ));
            }
        }
        Ok(())
    };
    measure(
        run,
        traced,
        Case {
            protocol: || ShortestPaths::<CAP>,
            init: Box::new(|v| ShortestPaths::<CAP>::init(v == 0)),
            oracle: Box::new(oracle),
            budget: 8 * CAP,
        },
    )
}

/// The deterministic outcome of one fixpoint run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    rounds: u64,
    activations: u64,
    fingerprint: u64,
}

fn measure<P: Protocol>(run: &Run, traced: bool, case: Case<P>) -> Report {
    assert_eq!(P::RANDOMNESS, 1, "fixpoint workloads are deterministic");
    let mut r = Report::default();
    let mut spans = Spans::new();

    // Set-up, timed as a whole; the traced run also splits it by layer.
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let root = spans.open("setup", None, 0);
        let s = spans.open("generators::torus", Some(root), 0);
        let graph = torus(SIDE, SIDE);
        spans.close(s);
        let s = spans.open("Network::new", Some(root), 0);
        let mut net = Network::new(&graph, (case.protocol)(), &case.init);
        spans.close(s);
        let s = spans.open("Network::ensure_kernel", Some(root), 0);
        net.ensure_kernel();
        spans.close(s);
        spans.close(root);
        r.setup_s.push(t.elapsed().as_secs_f64());
        built = Some((graph, net));
    }
    let (g, mut net) = built.expect("at least one set-up");
    // Every timed run starts from the initial states on the built kernel
    // (`set_state` makes the next kernel round re-evaluate every node,
    // as on a fresh kernel), so runs repeat without re-allocating 10⁶
    // nodes and the kernel build stays in `setup_s`.
    let reset = |net: &mut Network<P>| {
        for v in 0..net.n() as NodeId {
            net.set_state(v, (case.init)(v));
        }
    };

    let mut expect = None;
    let mut check = |r: &mut Report, net: &Network<P>, out: Outcome| {
        r.attempted += 1;
        if let Err(e) = (case.oracle)(&g, net.states()) {
            r.fail(e);
        } else {
            r.same(&mut expect, "fixpoint outcome", out);
        }
    };
    let outcome = |net: &Network<P>, rounds: u64, activations: u64| Outcome {
        rounds,
        activations,
        fingerprint: fingerprint(net.states().iter().map(|s| s.index())),
    };

    // Untraced runs: the end-to-end numbers, or the traced run's baseline.
    let mut untraced_s = Vec::new();
    let ops = repeat(run.window(traced), |_| {
        reset(&mut net);
        let t = Instant::now();
        let rep = Runner::new(&mut net)
            .budget(Budget::Fixpoint(case.budget))
            .run();
        let dt = t.elapsed().as_secs_f64();
        untraced_s.push(dt);
        match rep.fixpoint {
            Some(_) => check(
                &mut r,
                &net,
                outcome(&net, rep.rounds as u64, rep.activations),
            ),
            None => {
                r.attempted += 1;
                r.fail(format!("no fixpoint within {} rounds", case.budget));
            }
        }
    });
    let k = net.kernel().expect("kernel built");
    let (bits, plan) = (u64::from(k.packed_width_bits()), format!("{:?}", k.plan()));
    r.meta.push(("n", json::nu(g.n() as u64)));
    r.meta.push(("m", json::nu(g.m() as u64)));
    r.meta.push(("kernel_plan", json::s(plan)));
    r.meta.push(("packed_bits", json::nu(bits)));
    r.working_set(kernel_bytes(&net));

    if !traced {
        r.latency_ms = untraced_s.iter().map(|s| s * 1e3).collect();
        r.items = ops as f64;
        r.busy_s = untraced_s.iter().sum();
        record_outcome(&mut r, expect);
        return r;
    }

    // Traced runs: the same fixpoints stepped one kernel round at a time
    // under a counting tracer, one span per round.
    let mut traced_s = Vec::new();
    let mut tally = RoundTally::default();
    for job in 1..=ops as u64 {
        reset(&mut net);
        let before = tally.run;
        let op = spans.open("fixpoint", None, job);
        let mut rounds = 0u64;
        loop {
            let s = spans.open("Network::sync_step_kernel_seeded_traced", Some(op), job);
            let changed = net.sync_step_kernel_seeded_traced(0, &mut tally);
            spans.close(s);
            rounds += 1;
            if changed == 0 || rounds >= case.budget as u64 {
                break;
            }
        }
        spans.close(op);
        traced_s.push(spans.list[op].dur_ns() as f64 / 1e9);
        check(
            &mut r,
            &net,
            outcome(&net, rounds, tally.run.activations - before.activations),
        );
    }
    let per_op = |x: u64| x as f64 / ops as f64;
    let t = tally.run;
    let round_us: Vec<f64> = spans
        .durations_s("Network::sync_step_kernel_seeded_traced")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let step_ns: f64 = round_us.iter().sum::<f64>() * 1e3;
    let l = &mut r.layers;
    l.insert(
        "graph.generate_s",
        med(&spans.durations_s("generators::torus")),
    );
    l.insert("network.new_s", med(&spans.durations_s("Network::new")));
    l.insert(
        "kernel.build_s",
        med(&spans.durations_s("Network::ensure_kernel")),
    );
    l.insert("kernel.round_p50_us", med(&round_us));
    l.insert(
        "kernel.round_tail_us",
        tail(&round_us).map_or(0.0, |t| t.value),
    );
    l.insert(
        "kernel.ns_per_activation",
        step_ns / t.activations.max(1) as f64,
    );
    l.insert("kernel.activations", per_op(t.activations));
    l.insert("kernel.rounds", per_op(t.rounds));
    l.insert(
        "kernel.useful_ratio",
        t.changes as f64 / t.activations.max(1) as f64,
    );
    l.insert(
        "kernel.skip_ratio",
        1.0 - t.activations as f64 / t.eligible.max(1) as f64,
    );
    l.insert("kernel.neighbor_reads", per_op(t.neighbor_reads));
    l.insert(
        "kernel.gather_bytes_computed",
        per_op(t.neighbor_reads) * bits as f64 / 8.0,
    );
    l.insert("trace.overhead_ratio", overhead(&traced_s, &untraced_s));
    r.meta.push(("traced_runs", json::nu(ops as u64)));
    r.meta.push((
        "round_tail_percentile",
        json::n(tail(&round_us).map_or(0.0, |t| t.percentile)),
    ));
    r.spans = Some(spans);
    record_outcome(&mut r, expect);
    r
}

/// The deterministic counts every attempt of the run agreed on.
fn record_outcome(r: &mut Report, o: Option<Outcome>) {
    if let Some(o) = o {
        r.meta.push(("rounds", json::nu(o.rounds)));
        r.meta.push(("activations", json::nu(o.activations)));
        r.meta
            .push(("fingerprint", json::s(format!("{:016x}", o.fingerprint))));
    }
}
