//! `fssga-chaos --churn-replay` bounds its work: the horizon comes from
//! the input file, so a stream asking for more rounds than the replay
//! bound is rejected up front instead of running (practically) forever.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn churn_replay_rejects_an_unbounded_horizon_promptly() {
    let dir = std::env::temp_dir().join(format!("fssga-chaos-bound-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("unbounded.txt");
    let text = format!(
        "churn-stream v1\nseed 7\nhorizon {}\nevent 3 node 5\n",
        u64::MAX
    );
    std::fs::write(&path, text).expect("write stream");

    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_fssga-chaos"))
        .arg("--churn-replay")
        .arg(&path)
        .output()
        .expect("run fssga-chaos");
    let elapsed = start.elapsed();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");

    assert_eq!(out.status.code(), Some(1), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("above the replay bound"),
        "stderr names the bound: {stderr}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "rejection took {elapsed:?}"
    );
}
