//! `serve-mix`: an in-process `fssga-serve` (default `ServeConfig`,
//! ephemeral port) driven over TCP by a closed loop of [`CLIENTS`]
//! clients, one connection per job.
//!
//! Each client submits round-robin: census `torus(32, 32)`,
//! shortest-paths `torus(32, 32)`, kparity `cycle(1024)` and a churn
//! census `torus(32, 32)`, streaming on, seeded from the workload seed.
//! The jobs are small, so the service's fixed per-job costs (accept,
//! admission, thread spawn, per-job graph and kernel build, frame
//! encoding) show next to compute: this workload is the bypass for every
//! kernel-round optimisation.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use fssga_engine::{Network, Protocol};
use fssga_graph::{Graph, NodeId};
use fssga_protocols::census::Census;
use fssga_protocols::parity::{KParity, ParityState};
use fssga_protocols::shortest_paths::ShortestPaths;
use fssga_serve::json::{self, Json};
use fssga_serve::{
    census_sketch, execute, read_frame, serve, write_frame, JobCancel, JobSpec, Limits, Proto,
    ServeConfig, ServerHandle,
};

use crate::stats::tail;
use crate::trace::Spans;
use crate::{kernel_bytes, med, overhead, Report, Run};

/// Closed-loop clients: one per core of the recording host (`nproc`).
pub const CLIENTS: usize = 2;
/// Server boots per run, for the set-up median.
const BOOTS: usize = 31;
/// In-process `execute` calls per spec, for `serve.execute_ms_p50`.
const EXECUTE_REPS: usize = 10;
/// A reply slower than this is a failed attempt.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The job mix, in submission order, for job seed `seed`.
fn specs(seed: u64) -> Vec<String> {
    let torus = r#"{"gen":"torus","rows":32,"cols":32}"#;
    vec![
        format!(r#"{{"t":"job","proto":"census","graph":{torus},"seed":{seed}}}"#),
        format!(r#"{{"t":"job","proto":"shortest-paths","graph":{torus},"seed":{seed}}}"#),
        format!(
            r#"{{"t":"job","proto":"kparity","graph":{{"gen":"cycle","n":1024}},"seed":{seed}}}"#
        ),
        format!(
            r#"{{"t":"job","kind":"churn","proto":"census","graph":{torus},"rounds":64,"seed":{seed}}}"#
        ),
    ]
}

fn parse_spec(text: &str) -> JobSpec {
    let v = Json::parse(text).expect("mix specs are valid JSON");
    JobSpec::parse(&v, &Limits::default()).expect("mix specs are admissible")
}

/// One submission as the client saw it.
struct Attempt {
    spec: usize,
    submit: Instant,
    accepted: Option<Instant>,
    first: Option<Instant>,
    done: Option<Instant>,
    queue: u64,
    frames: u64,
    bytes: u64,
    fingerprint: String,
    /// Why the attempt failed; `Some("overloaded")` for a shed.
    error: Option<String>,
}

/// Submits `spec` on a fresh connection and reads its stream to the end.
fn submit(addr: SocketAddr, spec: usize, text: &str) -> Attempt {
    let mut a = Attempt {
        spec,
        submit: Instant::now(),
        accepted: None,
        first: None,
        done: None,
        queue: 0,
        frames: 0,
        bytes: 0,
        fingerprint: String::new(),
        error: None,
    };
    if let Err(e) = converse(addr, text, &mut a) {
        a.error.get_or_insert(e);
    }
    a
}

fn converse(addr: SocketAddr, text: &str, a: &mut Attempt) -> Result<(), String> {
    let io = |e: io::Error| format!("io: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    write_frame(&mut stream, text).map_err(io)?;
    loop {
        let frame = read_frame(&mut stream)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("server closed the connection mid-job")?;
        let now = Instant::now();
        a.bytes += frame.len() as u64 + 4;
        let v = Json::parse(&frame).map_err(|e| format!("bad frame: {e}"))?;
        let kind = v.get("t").and_then(Json::as_str).unwrap_or("");
        if a.accepted.is_some() {
            a.frames += 1;
            a.first.get_or_insert(now);
        }
        match kind {
            "accepted" => {
                a.accepted = Some(now);
                a.queue = v.get("queue").and_then(Json::as_u64).unwrap_or(0);
            }
            "done" => {
                a.done = Some(now);
                a.fingerprint = v
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .ok_or("done frame without a fingerprint")?
                    .to_owned();
                return Ok(());
            }
            "error" => {
                let code = v.get("code").and_then(Json::as_str).unwrap_or("?");
                a.error = Some(if code == "overloaded" {
                    code.to_owned()
                } else {
                    format!("error frame: {frame}")
                });
                return Ok(());
            }
            _ if a.accepted.is_some() => {}
            _ => return Err(format!("unexpected frame before accepted: {frame}")),
        }
    }
}

/// Runs the closed loop for `window` seconds; returns every attempt and
/// the loop's wall time.
fn closed_loop(addr: SocketAddr, specs: &[String], window: f64) -> (Vec<Attempt>, f64) {
    let t0 = Instant::now();
    let mut attempts: Vec<Attempt> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut next = c;
                    while t0.elapsed().as_secs_f64() < window {
                        let spec = next % specs.len();
                        let a = submit(addr, spec, &specs[spec]);
                        // A shed is retried: the retry is a new attempt
                        // of the same job.
                        if a.error.as_deref() != Some("overloaded") {
                            next += 1;
                        }
                        out.push(a);
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    // Submission order, so the tail's slices are slices of time.
    attempts.sort_by_key(|a| a.submit);
    (attempts, wall)
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Checks every attempt: counts failures, matches fingerprints and the
/// per-spec frame counts.
fn check(r: &mut Report, attempts: &[Attempt], expect: &[String], frames: &mut [Option<u64>]) {
    for a in attempts {
        r.attempted += 1;
        match &a.error {
            Some(code) if code == "overloaded" => r.failed += 1,
            Some(e) => r.fail(format!("job (spec {}): {e}", a.spec)),
            None if a.fingerprint != expect[a.spec] => r.fail(format!(
                "spec {}: served fingerprint {} != in-process {}",
                a.spec, a.fingerprint, expect[a.spec]
            )),
            None => r.same(&mut frames[a.spec], "frames per job", a.frames),
        }
    }
}

/// Job latency: submit to `done`; a failed attempt misses every limit.
fn latency_ms(a: &Attempt) -> f64 {
    match (a.error.is_none(), a.done) {
        (true, Some(done)) => ms(a.submit, done),
        _ => f64::INFINITY,
    }
}

/// Network and kernel build of one served job, timed from outside on
/// the job's own graph and initial states; returns the kernel's bytes.
fn build_costs<P: Protocol>(
    spans: &mut Spans,
    parent: usize,
    g: &Graph,
    protocol: P,
    init: impl FnMut(NodeId) -> P::State,
) -> u64 {
    let s = spans.open("Network::new", Some(parent), 0);
    let mut net = Network::new(g, protocol, init);
    spans.close(s);
    let s = spans.open("Network::ensure_kernel", Some(parent), 0);
    net.ensure_kernel();
    spans.close(s);
    kernel_bytes(&net)
}

pub fn run(run: &Run, traced: bool) -> Report {
    let mut r = Report::default();
    let mut spans = Spans::new();
    // JSON numbers are exact only below 2^53.
    let job_seed = run.seed & ((1 << 52) - 1);
    let specs = specs(job_seed);
    let parsed: Vec<JobSpec> = specs.iter().map(|s| parse_spec(s)).collect();
    // The oracle: the same specs through the service's executor,
    // in-process. Timed too, as the compute share of a served job.
    let mut expect = Vec::new();
    let mut execute_ms = Vec::new();
    let reps = if traced { EXECUTE_REPS } else { 1 };
    for spec in &parsed {
        let mut fp = None;
        for _ in 0..reps {
            let (tx, rx) = sync_channel(1 << 16);
            let t = Instant::now();
            let done = execute(0, spec, &JobCancel::new(), &tx);
            execute_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop((tx, rx));
            let done = done.map_err(|e| e.to_jsonl(0));
            let got = done.and_then(|d| {
                Json::parse(&d)
                    .ok()
                    .and_then(|v| {
                        v.get("fingerprint")
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                    })
                    .ok_or(d)
            });
            match got {
                Ok(f) => fp = Some(f),
                Err(e) => r.errors.push(format!("in-process execute failed: {e}")),
            }
        }
        expect.push(fp.unwrap_or_default());
    }

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let mut server: Option<ServerHandle> = None;
    for _ in 0..BOOTS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let s = spans.open("serve", None, 0);
        let booted = serve(cfg.clone());
        spans.close(s);
        r.setup_s.push(t.elapsed().as_secs_f64());
        match booted {
            Ok(h) => server = Some(h),
            Err(e) => {
                r.fail(format!("server boot: {e}"));
                return r;
            }
        }
    }
    let server = server.expect("booted");
    let addr = server.addr();

    let window = run.window(traced);
    let (untraced, wall) = closed_loop(addr, &specs, window);
    let (traced_attempts, _) = if traced {
        closed_loop(addr, &specs, window)
    } else {
        (Vec::new(), 0.0)
    };
    server.shutdown();

    let mut frames = vec![None; specs.len()];
    check(&mut r, &untraced, &expect, &mut frames);
    check(&mut r, &traced_attempts, &expect, &mut frames);
    let sheds = untraced
        .iter()
        .chain(&traced_attempts)
        .filter(|a| a.error.as_deref() == Some("overloaded"))
        .count();
    r.meta.push(("clients", json::nu(CLIENTS as u64)));
    r.meta.push(("workers", json::nu(cfg.workers as u64)));
    r.meta.push(("queue_cap", json::nu(cfg.queue_cap as u64)));
    r.meta.push(("job_seed", json::nu(job_seed)));
    r.meta.push(("sheds", json::nu(sheds as u64)));
    r.meta.push((
        "frames_per_spec",
        Json::Arr(frames.iter().map(|f| json::nu(f.unwrap_or(0))).collect()),
    ));
    r.meta.push((
        "fingerprints",
        Json::Arr(expect.iter().map(|f| json::s(f.as_str())).collect()),
    ));
    // Each job's own set-up, repeated from outside: its layer costs and
    // its working set.
    let mut largest = 0;
    for spec in &parsed {
        let root = spans.open("job_setup", None, 0);
        let s = spans.open("GraphSpec::build", Some(root), 0);
        let g = spec.graph.build(spec.seed);
        spans.close(s);
        let seed = spec.seed;
        let bytes = match spec.proto {
            Proto::Census => build_costs(&mut spans, root, &g, Census::<16>, |v| {
                census_sketch(seed, v)
            }),
            Proto::ShortestPaths => build_costs(&mut spans, root, &g, ShortestPaths::<256>, |v| {
                ShortestPaths::<256>::init(v == 0)
            }),
            Proto::KParity => build_costs(&mut spans, root, &g, KParity::<16>, |v| {
                ParityState::init(v == 0)
            }),
            Proto::KUnison => unreachable!("not in the mix"),
        };
        spans.close(root);
        largest = largest.max(bytes);
    }
    r.working_set(largest);

    if !traced {
        r.latency_ms = untraced.iter().map(latency_ms).collect();
        r.items = untraced.iter().filter(|a| a.error.is_none()).count() as f64;
        r.busy_s = wall;
        return r;
    }

    // Traced run: client-side timestamps become one span per job with
    // admit / start / stream children.
    let mut job = 0;
    for a in &traced_attempts {
        job += 1;
        let (Some(acc), Some(first), Some(done)) = (a.accepted, a.first, a.done) else {
            continue;
        };
        let root = spans.record("job", None, job, a.submit, done);
        spans.record("serve::admit", Some(root), job, a.submit, acc);
        spans.record("serve::start", Some(root), job, acc, first);
        spans.record("serve::stream", Some(root), job, first, done);
    }
    let ok: Vec<&Attempt> = traced_attempts
        .iter()
        .filter(|a| a.error.is_none())
        .collect();
    let pick = |f: &dyn Fn(&Attempt) -> Option<f64>| -> Vec<f64> {
        ok.iter().filter_map(|a| f(a)).collect()
    };
    let admit = pick(&|a| Some(ms(a.submit, a.accepted?)));
    let start = pick(&|a| Some(ms(a.accepted?, a.first?)));
    let stream = pick(&|a| Some(ms(a.first?, a.done?)));
    let job_ms: Vec<f64> = traced_attempts.iter().map(latency_ms).collect();
    let untraced_ms: Vec<f64> = untraced.iter().map(latency_ms).collect();
    let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let per_spec = frames.iter().map(|f| f.unwrap_or(0) as f64).collect();
    let l = &mut r.layers;
    l.insert(
        "graph.generate_s",
        med(&spans.durations_s("GraphSpec::build")),
    );
    l.insert("network.new_s", med(&spans.durations_s("Network::new")));
    l.insert(
        "kernel.build_s",
        med(&spans.durations_s("Network::ensure_kernel")),
    );
    l.insert("serve.admit_ms_p50", med(&admit));
    l.insert("serve.admit_ms_tail", tail(&admit).map_or(0.0, |t| t.value));
    l.insert("serve.start_ms_p50", med(&start));
    l.insert("serve.stream_ms_p50", med(&stream));
    l.insert("serve.execute_ms_p50", med(&execute_ms));
    l.insert("serve.overhead_ms_p50", med(&job_ms) - med(&execute_ms));
    l.insert(
        "serve.queue_depth_mean",
        mean(ok.iter().map(|a| a.queue as f64).collect()),
    );
    l.insert("serve.frames_per_job", mean(per_spec));
    l.insert(
        "serve.bytes_per_job",
        mean(ok.iter().map(|a| a.bytes as f64).collect()),
    );
    l.insert("trace.overhead_ratio", overhead(&job_ms, &untraced_ms));
    r.spans = Some(spans);
    r
}
