//! Run metadata: what hardware and build a result was measured on.

use fssga_serve::json::{self, Json};

/// Size in bytes of the data/unified cache at `level` on CPU 0, from
/// sysfs (`None` where the kernel does not report it).
pub fn cache_bytes(level: u32) -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for idx in 0..8 {
        let read = |f: &str| std::fs::read_to_string(format!("{base}/index{idx}/{f}")).ok();
        let Some(lv) = read("level") else { break };
        if lv.trim() != level.to_string() || read("type").is_some_and(|t| t.trim() == "Instruction")
        {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(k) => (k, 1024),
            None => match size.strip_suffix('M') {
                Some(m) => (m, 1024 * 1024),
                None => (size, 1),
            },
        };
        return num.parse::<u64>().ok().map(|x| x * mult);
    }
    None
}

/// Peak resident set size of this process so far, in MB (`VmHWM`,
/// which the kernel reports in KiB).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// The commit being measured: `$GIT_COMMIT` if set, else the checkout's
/// `.git/HEAD` resolved one level, else `"unknown"` (a plain source
/// checkout has no git metadata).
pub fn git_commit() -> String {
    if let Ok(c) = std::env::var("GIT_COMMIT") {
        return c;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

/// Host and build facts shared by every result.
pub fn host() -> Vec<(&'static str, Json)> {
    let opt = |x: Option<u64>| x.map_or(Json::Null, json::nu);
    vec![
        (
            "nproc",
            json::nu(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("l2_bytes", opt(cache_bytes(2))),
        ("l3_bytes", opt(cache_bytes(3))),
        ("git_commit", json::s(git_commit())),
        (
            "build_profile",
            json::s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ]
}
