//! End-to-end and per-layer benchmark of the JSweep solver.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hex-g1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times whole solves and tickets and prints the end-to-end
//! metrics; `--trace 1` drives solves through the layers' public API
//! with a span around every call and prints the per-layer split. Every
//! output is checked; the last line of standard output is a JSON
//! summary, and any failed check makes the exit code non-zero. See
//! `perfbench/README.md` for the workloads and metrics.

mod host;
mod inputs;
mod kernel;
mod report;
mod solve;
mod spans;
mod stats;
mod workloads;

use report::{END_TO_END, PER_LAYER};
use solve::{RANKS, WORKERS_PER_RANK};
use spans::Tracer;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Args;

/// Where runs leave their span files and socket rendezvous directories
/// (relative to the working directory).
const OUT_DIR: &str = ".perfbench_out";

const WORKLOADS: [&str; 3] = ["hex-g1", "tet-g16-socket", "session-dd-g4"];

fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        Args {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(Duration::from_secs(10)),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The socket transport rendezvouses in the temporary directory;
    // keep it inside the working directory. Set before any thread
    // starts.
    let tmp = Path::new(OUT_DIR).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &tmp);

    let host = host::Host::probe();
    println!(
        "host: nproc={} threads_per_core={} cpu=\"{}\" llc={} MiB rustc=\"{}\" commit={}",
        host.nproc, host.threads_per_core, host.cpu_model, host.llc_mib, host.rustc, host.commit
    );
    let extra_threads = match workload.as_str() {
        "session-dd-g4" => " + 1 session driver + 2 client threads",
        _ => "",
    };
    println!(
        "config: workload={workload} seed={} seconds={} trace={} ranks x workers = {RANKS} x {WORKERS_PER_RANK}, runtime threads = {} ({RANKS} masters + {} workers){extra_threads}",
        args.seed,
        args.seconds.as_secs_f64(),
        args.trace as u8,
        RANKS * (1 + WORKERS_PER_RANK),
        RANKS * WORKERS_PER_RANK,
    );

    let mut tracer = Tracer::new();
    let mut report = match workload.as_str() {
        "hex-g1" => workloads::run_solve(&workloads::HEX_G1, &args, &mut tracer),
        "tet-g16-socket" => workloads::run_solve(&workloads::TET_G16_SOCKET, &args, &mut tracer),
        _ => workloads::run_session(&args, &mut tracer),
    };

    let rss = host::peak_rss_mib();
    let verdict = if rss < host.llc_mib {
        "the whole process fits in the last-level cache, so no result here is a memory-bound case"
    } else {
        "the process outgrows the last-level cache"
    };
    report.line(format!(
        "memory: peak RSS {rss:.1} MiB, last-level cache {} MiB: {verdict}",
        host.llc_mib
    ));
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("spans-{workload}-seed{}.jsonl", args.seed));
        let written = std::fs::File::create(&path)
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tracer.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            })
            .map(|_| {
                format!(
                    "spans: {} written to {}",
                    tracer.spans().len(),
                    path.display()
                )
            });
        match written {
            Ok(line) => report.line(line),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    if args.trace {
        report.metric("trace.spans", tracer.spans().len() as f64);
        report.print(&PER_LAYER);
    } else {
        report.print(&END_TO_END);
    }
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
