//! Telemetry overhead benchmark: what span recording costs a real
//! solve.
//!
//! Three variants of the same 8³-cell, 2-rank fine-path solve:
//!
//! - **detached** — the default [`TelemetryHandle`]: every hook
//!   checks an empty handle and records nowhere. This is what every
//!   solve pays by default, and the baseline here.
//! - **disarmed** — a [`Telemetry`] attached but never armed: every
//!   hook pays one relaxed atomic load and nothing else.
//! - **armed** — recording live: every claim/compute/pack/route span
//!   lands in a lock-free lane ring and epoch boundaries feed the
//!   metrics registry.
//!
//! Each round times all three once, in rotating order; an overhead is
//! the median over rounds of the variant's wall time over the same
//! round's detached time, reported with its quartiles. `*_seconds` in
//! the JSON are best-of-rounds wall times.
//!
//! The acceptance bars (full mode only): median disarmed overhead
//! under 1% and median armed overhead under 5%, and
//! bit-identical flux across all three variants — recording must
//! never change physics. The hooks are always compiled in, so there is
//! no hook-free build to compare against.
//!
//! A machine-readable baseline is written to `BENCH_telemetry.json` at
//! the workspace root (the CI `obs` job checks presence after the
//! `--test` smoke pass).

use jsweep_bench::setups::{replay_scenario, ReplayScenario};
use jsweep_core::telemetry::{obs::Telemetry, TelemetryHandle};
use jsweep_transport::{solve_parallel, SnSolution};
use std::sync::Arc;
use std::time::Instant;

const N: usize = 8;
const RANKS: usize = 2;
/// Enough iterations that sweep compute dominates the one-off
/// universe launch: thread spawn/join jitter is several percent of
/// a short solve and would drown the effect being measured.
const ITERATIONS: usize = 160;
const DISARMED_BAR_PCT: f64 = 1.0;
const ARMED_BAR_PCT: f64 = 5.0;

fn solve_with(sc: &ReplayScenario, telemetry: TelemetryHandle) -> SnSolution {
    let mut config = sc.config.clone();
    // Fine path every iteration: the hot hooks (claim, compute,
    // pack, route) all fire, so this is the worst case for
    // recording overhead.
    config.coarsen = false;
    config.telemetry = telemetry;
    solve_parallel(
        sc.mesh.clone(),
        sc.problem.clone(),
        &sc.quad,
        sc.materials.clone(),
        &config,
    )
}

/// Wall seconds of every timed solve, per variant (0 = detached,
/// 1 = disarmed, 2 = armed), indexed by round.
struct Numbers {
    samples: [Vec<f64>; 3],
    events_recorded: u64,
    events_dropped: u64,
}

impl Numbers {
    fn best(&self, variant: usize) -> f64 {
        self.samples[variant]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Overhead of `variant` over the detached baseline, in percent, as
    /// `(q1, median, q3)` of the per-round paired ratios. Pairing the
    /// solves of one round cancels host drift that a best-of across
    /// rounds would pick up; the quartiles show how well the host
    /// resolves the difference.
    fn overhead_pct(&self, variant: usize) -> (f64, f64, f64) {
        let mut pct: Vec<f64> = self.samples[variant]
            .iter()
            .zip(&self.samples[0])
            .map(|(v, d)| (v / d - 1.0) * 100.0)
            .collect();
        pct.sort_by(f64::total_cmp);
        let q = |f: f64| pct[((pct.len() - 1) as f64 * f).round() as usize];
        (q(0.25), q(0.5), q(0.75))
    }
}

/// Time every variant once per round. The variant order rotates
/// every round: clock boost and thermal drift systematically favor
/// whichever solve runs first after a lull, so a fixed order would
/// bias the comparison far more than the effect being measured.
fn measure(runs: usize) -> Numbers {
    let sc = replay_scenario(N, 4, RANKS, ITERATIONS, 16);
    let golden = solve_with(&sc, TelemetryHandle::default());
    let mut samples: [Vec<f64>; 3] = Default::default();
    let mut events_recorded = 0;
    let mut events_dropped = 0;
    for round in 0..runs {
        for k in 0..3 {
            let variant = (round + k) % 3;
            let telemetry = Arc::new(Telemetry::new());
            let handle = match variant {
                0 => TelemetryHandle::default(),
                1 => TelemetryHandle::attach(telemetry.clone()),
                _ => {
                    telemetry.arm();
                    TelemetryHandle::attach(telemetry.clone())
                }
            };
            let t = Instant::now();
            let sol = solve_with(&sc, handle);
            samples[variant].push(t.elapsed().as_secs_f64());
            assert_eq!(sol.phi, golden.phi, "variant {variant}: flux mismatch");
            if variant == 2 {
                let lanes = telemetry.snapshot();
                events_recorded = lanes.iter().map(|l| l.events.len() as u64).sum();
                events_dropped = lanes.iter().map(|l| l.dropped).sum();
                assert!(events_recorded > 0, "armed run recorded nothing");
            }
        }
    }
    Numbers {
        samples,
        events_recorded,
        events_dropped,
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    // Oversubscribed boxes (CI runs this on a single core) need many
    // rounds before the paired median settles past scheduler noise.
    let runs = if test_mode { 1 } else { 30 };
    let n = measure(runs);
    let disarmed = n.overhead_pct(1);
    let armed = n.overhead_pct(2);

    println!(
        "telemetry ({}^3 cells, {} ranks, {} iterations, {} rounds): best detached {:.3} ms | disarmed {:+.2}% (IQR {:+.2}..{:+.2}) | armed {:+.2}% (IQR {:+.2}..{:+.2}) | {} events ({} dropped)",
        N,
        RANKS,
        ITERATIONS,
        runs,
        n.best(0) * 1e3,
        disarmed.1,
        disarmed.0,
        disarmed.2,
        armed.1,
        armed.0,
        armed.2,
        n.events_recorded,
        n.events_dropped,
    );

    // Only enforced in full mode; a single smoke sample on a loaded
    // CI core would flake.
    if !test_mode {
        assert!(
            disarmed.1 < DISARMED_BAR_PCT,
            "disarmed telemetry overhead {:.2}% exceeds the {DISARMED_BAR_PCT}% bar",
            disarmed.1
        );
        assert!(
            armed.1 < ARMED_BAR_PCT,
            "armed telemetry overhead {:.2}% exceeds the {ARMED_BAR_PCT}% bar",
            armed.1
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"telemetry\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"config\": {{\n",
            "    \"cells\": {cells},\n",
            "    \"ranks\": {ranks},\n",
            "    \"workers_per_rank\": 2,\n",
            "    \"iterations\": {iters},\n",
            "    \"grain\": 16,\n",
            "    \"rounds\": {rounds},\n",
            "    \"host_cores\": {cores}\n",
            "  }},\n",
            "  \"detached_seconds\": {det:.6},\n",
            "  \"disarmed_seconds\": {dis:.6},\n",
            "  \"armed_seconds\": {arm:.6},\n",
            "  \"overhead_estimator\": \"median of per-round paired ratios over detached\",\n",
            "  \"disarmed_overhead_pct\": {disp:.3},\n",
            "  \"disarmed_overhead_iqr_pct\": [{disq1:.3}, {disq3:.3}],\n",
            "  \"armed_overhead_pct\": {armp:.3},\n",
            "  \"armed_overhead_iqr_pct\": [{armq1:.3}, {armq3:.3}],\n",
            "  \"disarmed_overhead_bar_pct\": {disbar:.1},\n",
            "  \"armed_overhead_bar_pct\": {bar:.1},\n",
            "  \"events_recorded\": {ev},\n",
            "  \"events_dropped\": {drop},\n",
            "  \"phi_bit_identical\": true\n",
            "}}\n"
        ),
        mode = if test_mode { "test" } else { "full" },
        cells = N * N * N,
        ranks = RANKS,
        iters = ITERATIONS,
        rounds = runs,
        cores = std::thread::available_parallelism().map_or(0, |c| c.get()),
        det = n.best(0),
        dis = n.best(1),
        arm = n.best(2),
        disp = disarmed.1,
        disq1 = disarmed.0,
        disq3 = disarmed.2,
        armp = armed.1,
        armq1 = armed.0,
        armq3 = armed.2,
        disbar = DISARMED_BAR_PCT,
        bar = ARMED_BAR_PCT,
        ev = n.events_recorded,
        drop = n.events_dropped,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_telemetry.json");
    if test_mode && out.exists() {
        // Smoke numbers are not a baseline: keep the committed
        // full-mode file, only prove the bench still runs.
        println!("test mode: committed baseline left in place");
    } else {
        std::fs::write(&out, json).expect("write BENCH_telemetry.json");
        println!("baseline written to {}", out.display());
    }
}
