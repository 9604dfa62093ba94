//! `churn-stream`: census converged on `torus(224, 224)`, then a
//! `ChurnStream` of ~10⁶ arrivals and departures (10 per round over
//! 100 000 rounds, default biases) through `run_churn_traced`; a run
//! cycles through [`STREAMS`] such streams.
//!
//! Here the kernel is written to rather than read: in-place CSR arrival
//! and departure repair, arena grow and compact, and dirty marking, each
//! with tiny per-round work. A gain for fixpoint reads that costs
//! topology writes shows up here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fssga_engine::{
    run_churn_traced, Budget, ChurnConfig, ChurnReport, ChurnStream, Engine, FaultKind, Network,
    NullTracer, Runner, StateSpace,
};
use fssga_graph::generators::torus;
use fssga_graph::{DynGraph, NodeId};
use fssga_protocols::census::{Census, FmSketch};
use fssga_serve::json::{self, Json};
use fssga_serve::{census_sketch, fingerprint};

use crate::stats::tail;
use crate::trace::{RoundTally, Spans};
use crate::{kernel_bytes, med, overhead, repeat, Report, Run};

const SIDE: usize = 224;
const SETUP_REPS: usize = 3;
/// Streams per run, each from its own seed derived from the workload's.
const STREAMS: usize = 4;
const RATE: f64 = 10.0;
const HORIZON: u64 = 100_000;

type Net = Network<Census<16>>;

/// The deterministic outcome of one pass over the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Outcome {
    rounds: u64,
    arrivals: u64,
    departures: u64,
    skipped: u64,
    activations: u64,
    recoveries: Vec<u64>,
    fingerprint: u64,
}

impl Outcome {
    fn events(&self) -> u64 {
        self.arrivals + self.departures
    }
}

fn outcome(net: &Net, rep: &ChurnReport) -> Outcome {
    Outcome {
        rounds: rep.rounds,
        arrivals: rep.arrivals,
        departures: rep.departures,
        skipped: rep.skipped,
        activations: rep.activations,
        recoveries: rep.recoveries.clone(),
        fingerprint: fingerprint(net.states().iter().map(|s| s.index())),
    }
}

/// Oracle: after the stream the kernel runs to quiescence, then one
/// interpreter round changes no node, and the CSR arena is well formed.
fn oracle(net: &mut Net) -> Result<(), String> {
    let rep = Runner::new(net)
        .engine(Engine::Kernel)
        .budget(Budget::Fixpoint(10 * SIDE * SIDE))
        .run();
    if rep.fixpoint.is_none() {
        return Err("churn: no quiescence after the stream".into());
    }
    let arena = catch_unwind(AssertUnwindSafe(|| {
        net.kernel().expect("kernel built").validate_arena()
    }));
    if arena.is_err() {
        return Err("churn: validate_arena failed".into());
    }
    match net.sync_step_seeded(0) {
        0 => Ok(()),
        k => Err(format!(
            "churn: {k} nodes changed in an interpreter round after quiescence"
        )),
    }
}

/// Seed of stream `k`: its events and every node's initial sketch
/// (arrivals included) derive from it.
fn stream_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Initial census sketches for stream seed `seed`.
fn sketches(seed: u64) -> impl Fn(NodeId) -> FmSketch<16> + Copy {
    move |v| census_sketch(seed, v)
}

pub fn run(run: &Run, traced: bool) -> Report {
    let init = sketches(run.seed);
    let mut r = Report::default();
    let mut spans = Spans::new();

    let mut g = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let root = spans.open("setup", None, 0);
        let s = spans.open("generators::torus", Some(root), 0);
        let graph = torus(SIDE, SIDE);
        spans.close(s);
        let s = spans.open("Network::new", Some(root), 0);
        let mut net = Network::new(&graph, Census::<16>, init);
        spans.close(s);
        let s = spans.open("Network::ensure_kernel", Some(root), 0);
        net.ensure_kernel();
        spans.close(s);
        spans.close(root);
        r.setup_s.push(t.elapsed().as_secs_f64());
        g = Some(graph);
    }
    let g = g.expect("at least one set-up");
    // The streams are inputs, generated once and outside `setup_s`.
    // Repair work depends on the seed (which sketch bits the initial
    // nodes already hold decides how far an arrival's bits travel), so a
    // run cycles through several seeds.
    let streams: Vec<ChurnStream> = (0..STREAMS)
        .map(|k| {
            let s = spans.open("ChurnStream::generate", None, 0);
            let cfg = ChurnConfig {
                seed: stream_seed(run.seed, k),
                horizon: HORIZON,
                rate: RATE,
                ..ChurnConfig::default()
            };
            let stream = ChurnStream::generate(&DynGraph::from_graph(&g), &cfg);
            spans.close(s);
            stream
        })
        .collect();
    // A converged network on the initial topology for stream `k`: churn
    // measures repair, not initial convergence.
    let converged = |k: usize| {
        let mut net = Network::new(&g, Census::<16>, sketches(stream_seed(run.seed, k)));
        Runner::new(&mut net)
            .engine(Engine::Kernel)
            .budget(Budget::Fixpoint(10 * g.n()))
            .run()
            .fixpoint
            .expect("census converges on a connected torus");
        net
    };
    let mut expect: Vec<Option<Outcome>> = vec![None; STREAMS];
    let finish = |r: &mut Report, slot: &mut Option<Outcome>, net: &mut Net, out: Outcome| {
        r.attempted += 1;
        match oracle(net) {
            Err(e) => r.fail(e),
            Ok(()) => r.same(slot, "churn outcome", out),
        }
    };

    let mut untraced_s = Vec::new();
    let mut applied_events = 0;
    repeat(run.window(traced), |i| {
        let k = i % STREAMS;
        let mut net = converged(k);
        let init = sketches(stream_seed(run.seed, k));
        let t = Instant::now();
        let rep = run_churn_traced(&mut net, &streams[k], init, &mut NullTracer);
        untraced_s.push(t.elapsed().as_secs_f64());
        applied_events += rep.events();
        let out = outcome(&net, &rep);
        finish(&mut r, &mut expect[k], &mut net, out);
    });
    r.meta.push(("n", json::nu(g.n() as u64)));
    r.meta.push(("streams", json::nu(STREAMS as u64)));
    r.working_set(kernel_bytes(&converged(0)));

    if !traced {
        r.latency_ms = untraced_s.iter().map(|s| s * 1e3).collect();
        r.items = applied_events as f64;
        r.busy_s = untraced_s.iter().sum();
        record(&mut r, &expect);
        return r;
    }

    // One traced pass over the first stream: the harness loop replayed
    // from outside, event application and the round step in separate
    // spans.
    let stream = &streams[0];
    let init = sketches(stream_seed(run.seed, 0));
    let mut net = converged(0);
    let mut tally = RoundTally::default();
    let events = stream.events();
    let (mut cursor, mut burst) = (0usize, None);
    let mut rep = ChurnReport::default();
    let before = net.metrics.activations;
    let pass = spans.open("churn_pass", None, 1);
    for round in 0..stream.horizon() {
        let s = spans.open("churn::apply_events", Some(pass), 1);
        let mut applied = 0u64;
        while cursor < events.len() && events[cursor].time <= round {
            let e = events[cursor];
            cursor += 1;
            let (ok, arrival) = match e.kind {
                FaultKind::Edge(u, v) => (net.remove_edge(u, v), false),
                FaultKind::Node(v) => (net.remove_node(v), false),
                FaultKind::AddNode(v) => {
                    let fresh = v as usize == net.n();
                    if fresh {
                        net.add_node(init(v));
                    }
                    (fresh, true)
                }
                FaultKind::AddEdge(u, v) => (net.add_edge(u, v), true),
            };
            match (ok, arrival) {
                (false, _) => rep.skipped += 1,
                (true, true) => rep.arrivals += 1,
                (true, false) => rep.departures += 1,
            }
            applied += u64::from(ok);
        }
        spans.close(s);
        if applied > 0 && burst.is_none() {
            burst = Some(round);
        }
        let s = spans.open("Network::sync_step_kernel_seeded_traced", Some(pass), 1);
        let changed = net.sync_step_kernel_seeded_traced(0, &mut tally);
        spans.close(s);
        let quiescent = changed == 0 && net.kernel().is_none_or(|k| k.dirty_count() == 0);
        if let (Some(opened), true) = (burst, quiescent) {
            rep.recoveries.push(round - opened + 1);
            burst = None;
        }
        rep.rounds += 1;
    }
    spans.close(pass);
    rep.activations = net.metrics.activations - before;
    let traced_s = spans.list[pass].dur_ns() as f64 / 1e9;
    let (arena, dead, bits) = {
        let k = net.kernel().expect("kernel built");
        (
            k.arena_len(),
            k.dead_space(),
            f64::from(k.packed_width_bits()),
        )
    };
    let out = outcome(&net, &rep);
    finish(&mut r, &mut expect[0], &mut net, out.clone());

    let t = tally.run;
    let ev = out.events().max(1) as f64;
    let step_us: Vec<f64> = spans
        .durations_s("Network::sync_step_kernel_seeded_traced")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let apply_ns: f64 = spans.durations_s("churn::apply_events").iter().sum::<f64>() * 1e9;
    let step_ns = step_us.iter().sum::<f64>() * 1e3;
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
    l.insert("kernel.round_p50_us", med(&step_us));
    l.insert(
        "kernel.round_tail_us",
        tail(&step_us).map_or(0.0, |t| t.value),
    );
    l.insert(
        "kernel.ns_per_activation",
        step_ns / t.activations.max(1) as f64,
    );
    l.insert("kernel.activations", t.activations as f64);
    l.insert("kernel.rounds", t.rounds as f64);
    l.insert(
        "kernel.useful_ratio",
        t.changes as f64 / t.activations.max(1) as f64,
    );
    l.insert(
        "kernel.skip_ratio",
        1.0 - t.activations as f64 / t.eligible.max(1) as f64,
    );
    l.insert("kernel.neighbor_reads", t.neighbor_reads as f64);
    l.insert(
        "kernel.gather_bytes_computed",
        t.neighbor_reads as f64 * bits / 8.0,
    );
    l.insert("kernel.arena_len_final", arena as f64);
    l.insert("kernel.dead_space_final", dead as f64);
    l.insert("churn.apply_ns_per_event", apply_ns / ev);
    l.insert(
        "churn.step_us_per_round",
        step_ns / 1e3 / t.rounds.max(1) as f64,
    );
    l.insert("churn.activations_per_event", t.activations as f64 / ev);
    l.insert("churn.skipped_events", out.skipped as f64);
    l.insert(
        "churn.recovery_p50_rounds",
        rep.recovery_quantile(0.5) as f64,
    );
    l.insert(
        "churn.recovery_p99_rounds",
        rep.recovery_quantile(0.99) as f64,
    );
    let stream0: Vec<f64> = untraced_s.iter().copied().step_by(STREAMS).collect();
    l.insert("trace.overhead_ratio", overhead(&[traced_s], &stream0));
    r.spans = Some(spans);
    record(&mut r, &expect);
    r
}

/// The deterministic counts every pass over each stream agreed on.
fn record(r: &mut Report, per_stream: &[Option<Outcome>]) {
    let field = |f: &dyn Fn(&Outcome) -> Json| {
        Json::Arr(
            per_stream
                .iter()
                .map(|o| o.as_ref().map_or(Json::Null, f))
                .collect(),
        )
    };
    r.meta.push(("rounds", field(&|o| json::nu(o.rounds))));
    r.meta.push(("events", field(&|o| json::nu(o.events()))));
    r.meta.push(("arrivals", field(&|o| json::nu(o.arrivals))));
    r.meta
        .push(("departures", field(&|o| json::nu(o.departures))));
    r.meta.push(("skipped", field(&|o| json::nu(o.skipped))));
    r.meta
        .push(("activations", field(&|o| json::nu(o.activations))));
    r.meta.push((
        "recoveries",
        field(&|o| json::nu(o.recoveries.len() as u64)),
    ));
    r.meta.push((
        "fingerprint",
        field(&|o| json::s(format!("{:016x}", o.fingerprint))),
    ));
}
