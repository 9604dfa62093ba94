//! The `fssga-serve` binary: bind, serve, drain on request.
//!
//! ```text
//! fssga-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!             [--max-nodes N] [--max-rounds N] [--max-wall-ms MS]
//!             [--read-timeout-ms MS]
//!             [--allow-shutdown] [--for-ms MS]
//! ```
//!
//! Runs until either a client sends a `shutdown` frame (honoured only
//! with `--allow-shutdown`) or the optional `--for-ms` deadline
//! passes; both paths end in the ordered graceful shutdown documented
//! in [`fssga_serve::server`]. Without either, the process serves
//! until killed.

use std::time::{Duration, Instant};

use fssga_serve::{serve, ServeConfig};

fn usage() -> ! {
    eprintln!(
        "usage: fssga-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]\n\
         \x20                  [--max-nodes N] [--max-rounds N] [--max-wall-ms MS]\n\
         \x20                  [--read-timeout-ms MS]\n\
         \x20                  [--allow-shutdown] [--for-ms MS]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServeConfig::default();
    let mut for_ms: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        let parse = |text: String, what: &str| -> u64 {
            text.parse().unwrap_or_else(|_| {
                eprintln!("{what} must be an integer, got {text:?}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("an address"),
            "--workers" => cfg.workers = parse(value("a count"), "--workers") as usize,
            "--queue-cap" => cfg.queue_cap = parse(value("a count"), "--queue-cap") as usize,
            "--max-nodes" => cfg.limits.max_nodes = parse(value("a count"), "--max-nodes") as usize,
            "--max-rounds" => {
                cfg.limits.max_rounds = parse(value("a count"), "--max-rounds") as usize
            }
            "--max-wall-ms" => cfg.limits.max_wall_ms = parse(value("millis"), "--max-wall-ms"),
            "--read-timeout-ms" => {
                cfg.read_timeout_ms = parse(value("millis"), "--read-timeout-ms")
            }
            "--allow-shutdown" => cfg.allow_shutdown = true,
            "--for-ms" => for_ms = Some(parse(value("millis"), "--for-ms")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    let handle = match serve(cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("fssga-serve: cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    println!(
        "fssga-serve listening on {} (workers {}, queue {}, caps: {} nodes / {} rounds / {} ms, shutdown frames {})",
        handle.addr(),
        cfg.workers,
        cfg.queue_cap,
        cfg.limits.max_nodes,
        cfg.limits.max_rounds,
        cfg.limits.max_wall_ms,
        if cfg.allow_shutdown { "allowed" } else { "forbidden" },
    );

    let started = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if handle.shutdown_requested() {
            println!("fssga-serve: shutdown requested by client; draining");
            break;
        }
        if let Some(ms) = for_ms {
            if started.elapsed() >= Duration::from_millis(ms) {
                println!("fssga-serve: --for-ms deadline reached; draining");
                break;
            }
        }
    }
    handle.shutdown();
    println!("fssga-serve: drained and stopped");
}
