//! Solve-level measurement shared by every workload: set-up, the
//! serial oracle, untraced `solve_parallel` samples, and the traced
//! solve that drives one solve through the layers' public API with a
//! bench-side span around every call.

use crate::report::Report;
use crate::spans::{self_time, Tracer};
use crate::stats::{bit_identical, median, within_rel};
use jsweep_core::stats::{Category, CATEGORIES};
use jsweep_core::{fabric_for, EpochTuning, RunStats, RuntimeConfig, Universe};
use jsweep_graph::SweepProblem;
use jsweep_mesh::SweepTopology;
use jsweep_quadrature::QuadratureSet;
use jsweep_transport::program::{FluxBins, SweepFactory, SweepSetup};
use jsweep_transport::replay::{build_plan, collect_traces, new_trace_bins};
use jsweep_transport::solver::{REPLAY_CLAIM_BATCH, REPLAY_REPORT_FLUSH_STREAMS};
use jsweep_transport::{
    solve_parallel, solve_serial, CoarsePlan, MaterialSet, SnConfig, SnSolution, SweepEpoch,
    SweepMode,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Relative bound of the parallel solve against the serial oracle, the
/// bound `tests/end_to_end.rs` holds the solver to.
pub const SERIAL_REL_TOL: f64 = 1e-11;

/// Ranks of every workload; with one worker per rank the runtime's
/// worker threads match the two cores the benchmark was sized for.
pub const RANKS: usize = 2;
/// Worker threads per rank.
pub const WORKERS_PER_RANK: usize = 1;

/// A built problem: mesh plus decomposition and sweep DAGs.
pub struct Case<T> {
    /// The mesh.
    pub mesh: Arc<T>,
    /// Decomposition, DAGs and priorities.
    pub problem: Arc<SweepProblem>,
}

/// Builds a workload's problem, wrapping each layer's call in a span
/// (`mesh.build`, `mesh.decompose`, `graph.problem_build`).
pub type SetupFn<T> = fn(&mut Tracer, &QuadratureSet) -> Case<T>;

/// Run `setup` `reps` times, each inside a `setup` span; returns the
/// last problem built and the set-up seconds of every repetition.
pub fn repeat_setup<T>(
    tracer: &mut Tracer,
    quad: &QuadratureSet,
    reps: usize,
    setup: SetupFn<T>,
) -> (Case<T>, Vec<f64>) {
    let mut times = Vec::new();
    let mut case = None;
    for _ in 0..reps {
        // Drop the previous problem first, so every repetition builds
        // into the same amount of free memory.
        drop(case.take());
        let t0 = Instant::now();
        let id = tracer.begin("setup");
        case = Some(setup(tracer, quad));
        tracer.end(id);
        times.push(t0.elapsed().as_secs_f64());
    }
    (case.expect("at least one set-up"), times)
}

/// Durations of every span named `name` (of solve `solve`, if given).
pub fn durations(tracer: &Tracer, name: &str, solve: Option<u64>) -> Vec<f64> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && solve.is_none_or(|id| s.solve == id))
        .map(|s| s.duration())
        .collect()
}

/// Median set-up time per layer, from the set-up spans.
pub fn setup_layer_metrics(tracer: &Tracer, report: &mut Report) {
    for (span, metric) in [
        ("mesh.build", "mesh.build_s"),
        ("mesh.decompose", "mesh.decompose_s"),
        ("graph.problem_build", "graph.problem_build_s"),
    ] {
        report.metric(metric, median(&durations(tracer, span, Some(0))));
    }
}

/// Serial oracle: runs `solve_serial` `reps` times; returns its flux
/// and the median wall seconds.
pub fn serial<T: SweepTopology>(
    case: &Case<T>,
    quad: &QuadratureSet,
    materials: &MaterialSet,
    config: &SnConfig,
    reps: usize,
) -> (Vec<f64>, f64) {
    let mut times = Vec::new();
    let mut phi = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        phi = solve_serial(case.mesh.as_ref(), quad, materials, config).phi;
        times.push(t0.elapsed().as_secs_f64());
    }
    (phi, median(&times))
}

/// One untraced `solve_parallel` call: wall seconds and its result (a
/// panic is caught and returned as `Err`).
pub fn untraced<T: SweepTopology + Send + Sync + 'static>(
    case: &Case<T>,
    quad: &QuadratureSet,
    materials: &Arc<MaterialSet>,
    config: &SnConfig,
) -> (f64, std::thread::Result<SnSolution>) {
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| {
        solve_parallel(
            case.mesh.clone(),
            case.problem.clone(),
            quad,
            materials.clone(),
            config,
        )
    }));
    (t0.elapsed().as_secs_f64(), r)
}

/// Checks a solve's output: the configured iteration count, the serial
/// oracle within [`SERIAL_REL_TOL`], and bit-identity with `reference`.
pub fn check_solution(
    report: &mut Report,
    what: &str,
    result: &std::thread::Result<SnSolution>,
    iterations: usize,
    serial_phi: &[f64],
    reference: &[f64],
) {
    let verdict = match result {
        Err(_) => Err("panicked".to_string()),
        Ok(s) if s.iterations != iterations => {
            Err(format!("ran {} of {iterations} iterations", s.iterations))
        }
        Ok(s) if !within_rel(&s.phi, serial_phi, SERIAL_REL_TOL) => {
            Err("phi differs from solve_serial beyond 1e-11".into())
        }
        Ok(s) if !bit_identical(&s.phi, reference) => {
            Err("phi not bit-identical to the run's first sample".into())
        }
        Ok(_) => Ok(()),
    };
    report.check(verdict.is_ok(), || {
        format!("{what}: {}", verdict.unwrap_err())
    });
}

/// Driver-side seconds of an untraced solve: its wall time minus the
/// epochs' wall time and the plan compile.
pub fn driver_seconds(wall: f64, sol: &SnSolution) -> f64 {
    wall - sol.stats.iter().map(|s| s.wall_seconds).sum::<f64>() - sol.coarse_build_seconds
}

/// Bench-side copy of the solver's private emission density
/// `(σ_s φ + Q)/4π` (same operation order, so the flux stays
/// bit-identical to `solve_parallel`).
fn emission_density(materials: &MaterialSet, phi: &[f64]) -> Vec<f64> {
    let groups = materials.num_groups();
    let n = materials.num_cells();
    let mut q = vec![0.0; n * groups];
    let inv_4pi = 1.0 / (4.0 * std::f64::consts::PI);
    for c in 0..n {
        let m = materials.material(c);
        for g in 0..groups {
            q[c * groups + g] = (m.sigma_s[g] * phi[c * groups + g] + m.source[g]) * inv_4pi;
        }
    }
    q
}

/// Bench-side copy of the solver's private relative L2 change between
/// iterates.
fn relative_change(new: &[f64], old: &[f64]) -> f64 {
    let mut diff = 0.0;
    let mut norm = 0.0;
    for (a, b) in new.iter().zip(old) {
        diff += (a - b) * (a - b);
        norm += a * a;
    }
    if norm == 0.0 {
        0.0
    } else {
        (diff / norm).sqrt()
    }
}

/// What a traced solve returns besides its spans.
pub struct Traced {
    /// Final scalar flux.
    pub phi: Vec<f64>,
    /// Rank-aggregated stats of every epoch.
    pub stats: Vec<RunStats>,
    /// Memory of the compiled replay plan.
    pub plan_bytes: usize,
    /// Flux accumulators allocated fresh over the solve.
    pub fresh_allocations: u64,
}

/// One solve driven through the public layer API, the way
/// `solve_parallel` runs it on a resident universe: launch on the
/// first iteration; per iteration the emission, one epoch (recording
/// on iteration 1, replaying the compiled plan after it), the
/// angle-ordered fold and the residual; the plan compile after the
/// recording epoch; shutdown at the end. Every call is a span under
/// `solver.solve` / `solver.iteration`.
///
/// Panics like `solve_parallel` when an epoch faults.
pub fn traced_solve<T: SweepTopology + Send + Sync + 'static>(
    t: &mut Tracer,
    case: &Case<T>,
    quad: &QuadratureSet,
    materials: &Arc<MaterialSet>,
    config: &SnConfig,
) -> Traced {
    let (mesh, problem) = (&case.mesh, &case.problem);
    let n = mesh.num_cells();
    let groups = materials.num_groups();
    let base = RuntimeConfig {
        num_workers: config.workers_per_rank,
        termination: config.termination,
        ..Default::default()
    };
    let flux_bins = Arc::new(FluxBins::new(problem.num_patches()));
    let root = t.begin("solver.solve");
    let mut universe: Option<Universe> = None;
    let mut plan: Option<Arc<CoarsePlan>> = None;
    let mut phi = vec![0.0; n * groups];
    let mut stats = Vec::new();
    for it in 0..config.max_iterations {
        let iteration = t.begin("solver.iteration");
        let emission = Arc::new(t.span("solver.emission", || emission_density(materials, &phi)));
        let (mode, bins) = match &plan {
            Some(p) => (SweepMode::Coarse { plan: p.clone() }, None),
            None => {
                let b = Arc::new(new_trace_bins(problem.num_tasks()));
                let trace_bins = Some(b.clone());
                (SweepMode::Fine { trace_bins }, Some(b))
            }
        };
        let u = match &mut universe {
            Some(u) => u,
            None => universe.insert(t.span("core.launch", || {
                let factory = Arc::new(SweepFactory::new(SweepSetup {
                    mesh: mesh.clone(),
                    problem: problem.clone(),
                    quadrature: quad.clone(),
                    materials: materials.clone(),
                    emission: emission.clone(),
                    kernel: config.kernel,
                    grain: config.grain,
                    flux_bins: flux_bins.clone(),
                    mode: mode.clone(),
                }));
                Universe::launch_with_fabric(
                    problem.patches.num_ranks(),
                    factory,
                    base.clone(),
                    fabric_for(config.transport),
                )
            })),
        };
        let (span, tuning) = match mode {
            SweepMode::Fine { .. } => (
                "core.epoch_record",
                EpochTuning {
                    report_flush_streams: Some(base.report_flush_streams),
                    claim_batch: Some(base.claim_batch),
                    ..Default::default()
                },
            ),
            SweepMode::Coarse { .. } => (
                "core.epoch_replay",
                EpochTuning {
                    report_flush_streams: Some(REPLAY_REPORT_FLUSH_STREAMS),
                    claim_batch: Some(REPLAY_CLAIM_BATCH),
                    ..Default::default()
                },
            ),
        };
        let input = Arc::new(SweepEpoch {
            emission,
            mode,
            materials: Some(materials.clone()),
        });
        let rank_stats = t
            .span(span, || u.run_epoch_tuned(input, tuning))
            .unwrap_or_else(|f| panic!("sweep epoch faulted: {f}"));
        stats.push(RunStats::aggregate(&rank_stats));
        let phi_new = t.span("program.fold", || flux_bins.fold(problem, n, groups));
        let residual = t.span("solver.residual", || relative_change(&phi_new, &phi));
        phi = phi_new;
        let done = residual < config.tolerance || it + 1 >= config.max_iterations;
        if let (Some(b), false) = (bins, done) {
            plan = Some(t.span("replay.compile", || {
                let traces = collect_traces(problem, &b);
                Arc::new(build_plan(problem, &traces, mesh.as_ref()))
            }));
        }
        t.end(iteration);
        if done {
            break;
        }
    }
    if let Some(mut u) = universe {
        t.span("core.shutdown", || u.shutdown());
    }
    t.end(root);
    Traced {
        phi,
        stats,
        plan_bytes: plan.map_or(0, |p| p.memory_bytes()),
        fresh_allocations: flux_bins.fresh_allocations(),
    }
}

/// Spans a traced solve attributes to a layer, with the metric that
/// reports their per-solve sum; everything else inside `solver.solve`
/// is unattributed. Replay epochs are reported per epoch instead
/// (`core.epoch_replay_p50_s`).
const LAYER_SPANS: [(&str, Option<&str>); 8] = [
    ("core.launch", Some("core.launch_s")),
    ("core.shutdown", Some("core.shutdown_s")),
    ("core.epoch_record", Some("core.epoch_record_s")),
    ("core.epoch_replay", None),
    ("replay.compile", Some("replay.compile_s")),
    ("program.fold", Some("program.fold_s")),
    ("solver.emission", Some("solver.emission_s")),
    ("solver.residual", Some("solver.residual_s")),
];

/// Per-solve figures of one traced solve, read from its spans.
pub struct SolveSplit {
    /// Wall seconds of the `solver.solve` span.
    pub wall: f64,
    /// Self time of `solver.solve` and every `solver.iteration`.
    pub unattributed: f64,
    /// Σ of the layer spans plus `unattributed`, minus `wall`.
    pub residue: f64,
    /// From the solve's start to its first epoch.
    pub before_first_epoch: f64,
}

/// Split traced solve `solve` into its layers.
pub fn split(tracer: &Tracer, solve: u64) -> SolveSplit {
    let spans = tracer.spans();
    let of_solve = || {
        spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.solve == solve)
    };
    let (_, root) = of_solve()
        .find(|(_, s)| s.name == "solver.solve")
        .expect("traced solve has a root span");
    let unattributed: f64 = of_solve()
        .filter(|(_, s)| s.name == "solver.solve" || s.name == "solver.iteration")
        .map(|(i, _)| self_time(spans, i))
        .sum();
    let layers: f64 = of_solve()
        .filter(|(_, s)| LAYER_SPANS.iter().any(|(name, _)| *name == s.name))
        .map(|(_, s)| s.duration())
        .sum();
    let first_epoch = of_solve()
        .filter(|(_, s)| s.name.starts_with("core.epoch_"))
        .map(|(_, s)| s.start)
        .fold(f64::INFINITY, f64::min);
    SolveSplit {
        wall: root.duration(),
        unattributed,
        residue: layers + unattributed - root.duration(),
        before_first_epoch: first_epoch - root.start,
    }
}

/// Per-unit sums of runtime stats (one unit = one solve or one ticket),
/// reported as medians across units.
pub fn runtime_metrics(units: &[Vec<RunStats>], unit_name: &str, report: &mut Report) {
    let per_unit = |f: &dyn Fn(&RunStats) -> f64| -> f64 {
        median(
            &units
                .iter()
                .map(|epochs| epochs.iter().map(f).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let total = per_unit(&|s| CATEGORIES.iter().map(|&c| s.category_seconds(c)).sum());
    let mut line = format!("thread-seconds per {unit_name}, median {total:.6} s:");
    for cat in CATEGORIES {
        let v = per_unit(&|s| s.category_seconds(cat));
        line += &format!(" {} {:.1}%;", cat.name(), 100.0 * v / total);
        report.metric(category_metric(cat), v);
    }
    report.line(line);
    report.metric(
        "core.drain_s",
        per_unit(&|s| s.worker_drain_seconds.iter().sum()),
    );
    let calls = per_unit(&|s| s.compute_calls as f64);
    let work = per_unit(&|s| s.work_done as f64);
    report.metric("core.compute_calls", calls);
    report.metric("core.work_done", work);
    report.metric("core.work_per_call", work / calls.max(1.0));
    let streams = per_unit(&|s| s.streams_sent as f64);
    let frames = per_unit(&|s| s.frames_sent as f64);
    report.metric("comm.streams_sent", streams);
    report.metric("comm.frames_sent", frames);
    report.metric("comm.bytes_sent", per_unit(&|s| s.bytes_sent as f64));
    report.metric("comm.streams_per_frame", streams / frames.max(1.0));
}

fn category_metric(cat: Category) -> &'static str {
    match cat {
        Category::Kernel => "core.kernel_s",
        Category::GraphOp => "core.graph_op_s",
        Category::Input => "core.input_s",
        Category::Output => "core.output_s",
        Category::Pack => "core.pack_s",
        Category::Unpack => "core.unpack_s",
        Category::Comm => "core.comm_s",
        Category::Route => "core.route_s",
        Category::Idle => "core.idle_s",
        Category::Other => "core.other_s",
    }
}

/// Results of [`solo_layers`].
pub struct SoloLayers {
    /// Per traced solve: rank-aggregated stats of its epochs.
    pub traced_stats: Vec<Vec<RunStats>>,
    /// Per traced solve: its layer split.
    pub splits: Vec<SolveSplit>,
    /// Per untraced solve: driver seconds.
    pub driver: Vec<f64>,
}

/// Alternate untraced `solve_parallel` calls and traced solves until
/// `deadline` (at least `min_pairs` pairs), checking every output, and
/// report the solo per-layer metrics.
#[allow(clippy::too_many_arguments)]
pub fn solo_layers<T: SweepTopology + Send + Sync + 'static>(
    tracer: &mut Tracer,
    report: &mut Report,
    case: &Case<T>,
    quad: &QuadratureSet,
    materials: &Arc<MaterialSet>,
    config: &SnConfig,
    serial_phi: &[f64],
    reference: &[f64],
    deadline: Instant,
    min_pairs: u64,
) -> SoloLayers {
    let mut out = SoloLayers {
        traced_stats: Vec::new(),
        splits: Vec::new(),
        driver: Vec::new(),
    };
    let mut untraced_walls = Vec::new();
    let (mut plan_bytes, mut fresh, mut epochs, mut ok_ids) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut solve = 0u64;
    while solve < min_pairs || Instant::now() < deadline {
        let (wall, r) = untraced(case, quad, materials, config);
        check_solution(
            report,
            "untraced solve",
            &r,
            config.max_iterations,
            serial_phi,
            reference,
        );
        if let Ok(sol) = &r {
            untraced_walls.push(wall);
            out.driver.push(driver_seconds(wall, sol));
        }
        solve += 1;
        tracer.set_solve(solve);
        let traced = catch_unwind(AssertUnwindSafe(|| {
            traced_solve(tracer, case, quad, materials, config)
        }));
        let Ok(tr) = traced else {
            tracer.close_open();
            report.check(false, || "traced solve panicked".into());
            continue;
        };
        report.check(bit_identical(&tr.phi, reference), || {
            "traced solve: phi not bit-identical to solve_parallel".into()
        });
        let s = split(tracer, solve);
        report.check(s.residue.abs() < 1e-9, || {
            format!("traced solve: layer spans miss the wall by {} s", s.residue)
        });
        plan_bytes.push(tr.plan_bytes as f64);
        fresh.push(tr.fresh_allocations as f64);
        epochs.push(tr.stats.len() as f64);
        ok_ids.push(solve);
        out.traced_stats.push(tr.stats);
        out.splits.push(s);
    }
    tracer.set_solve(0);
    let per_solve = |name: &str| -> f64 {
        median(
            &ok_ids
                .iter()
                .map(|&id| durations(tracer, name, Some(id)).iter().sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let traced_wall = median(&out.splits.iter().map(|s| s.wall).collect::<Vec<_>>());
    let mut split_line = format!(
        "traced split, median per solve over {} solves of {} epochs (share of the {traced_wall:.6} s traced wall):",
        out.splits.len(),
        median(&epochs),
    );
    for (span, metric) in LAYER_SPANS {
        let v = per_solve(span);
        split_line += &format!(" {span} {v:.6} s ({:.1}%);", 100.0 * v / traced_wall);
        if let Some(m) = metric {
            report.metric(m, v);
        }
    }
    let unattributed = median(
        &out.splits
            .iter()
            .map(|s| s.unattributed)
            .collect::<Vec<_>>(),
    );
    split_line += &format!(
        " unattributed {unattributed:.6} s ({:.2}%)",
        100.0 * unattributed / traced_wall
    );
    report.line(split_line);
    let replay: Vec<f64> = ok_ids
        .iter()
        .flat_map(|&id| durations(tracer, "core.epoch_replay", Some(id)))
        .collect();
    report.metric("core.epoch_replay_p50_s", median(&replay));
    report.metric("replay.plan_bytes", median(&plan_bytes));
    report.metric("program.fresh_allocations", median(&fresh));
    report.metric("solver.driver_s", median(&out.driver));
    report.metric("solver.unattributed_s", unattributed);
    let untraced_wall = median(&untraced_walls);
    report.metric("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    report.line(format!(
        "untraced solves: n={} median wall {untraced_wall:.6} s, driver-side {:.6} s (wall - epoch walls - plan compile)",
        untraced_walls.len(),
        median(&out.driver),
    ));
    out
}
