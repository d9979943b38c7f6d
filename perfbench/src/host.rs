//! Host and memory facts printed with every run.

use std::fs;

/// The machine a run measured.
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Hardware threads per core.
    pub threads_per_core: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// Last-level cache size in MiB (0 when unknown).
    pub llc_mib: f64,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probe the running host.
    pub fn probe() -> Host {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.split(':').next().map(str::trim) == Some(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        };
        let siblings: Option<usize> = field("siblings").and_then(|v| v.parse().ok());
        let cores: Option<usize> = field("cpu cores").and_then(|v| v.parse().ok());
        let threads_per_core = match (siblings, cores) {
            (Some(s), Some(c)) if c > 0 => s / c,
            _ => 1,
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads_per_core,
            cpu_model: field("model name").unwrap_or_else(|| "unknown".into()),
            llc_mib: llc_mib(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Size of the highest-level cache of CPU 0, in MiB.
fn llc_mib() -> f64 {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best = (0u32, 0.0f64);
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let p = entry.path();
        let level = fs::read_to_string(p.join("level"))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        let size = fs::read_to_string(p.join("size")).ok().and_then(|s| {
            let s = s.trim();
            let (num, mult) = match s.strip_suffix('K') {
                Some(n) => (n, 1.0 / 1024.0),
                None => match s.strip_suffix('M') {
                    Some(n) => (n, 1.0),
                    None => (s, 1.0 / (1024.0 * 1024.0)),
                },
            };
            num.parse::<f64>().ok().map(|v| v * mult)
        });
        if let (Some(l), Some(sz)) = (level, size) {
            if l > best.0 {
                best = (l, sz);
            }
        }
    }
    best.1
}

/// HEAD commit read from `.git` in the working directory (no `git`
/// process, no search above the checkout).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(c) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(c.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
