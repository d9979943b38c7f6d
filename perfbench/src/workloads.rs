//! The three workloads. See `perfbench/README.md` for why each exists.

use crate::host::peak_rss_mib;
use crate::inputs::{self, Rng};
use crate::kernel;
use crate::report::Report;
use crate::solve::{
    check_solution, repeat_setup, runtime_metrics, serial, setup_layer_metrics, solo_layers,
    untraced, Case, SetupFn, RANKS, WORKERS_PER_RANK,
};
use crate::spans::Tracer;
use crate::stats::{bit_identical, median, percentile, supported_tail, within_rel};
use jsweep_core::RunStats;
use jsweep_graph::{ProblemOptions, SweepProblem};
use jsweep_mesh::{partition, tetgen, StructuredMesh, SweepTopology, TetMesh};
use jsweep_quadrature::QuadratureSet;
use jsweep_transport::{
    solve_parallel_cached, EvictionPolicy, Fifo, KernelKind, MaterialSet, PlanCache,
    SessionOptions, SnConfig, SolveRequest, SolverSession, TransportKind,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up runs this often before anything else; `setup_s` is the
/// median of all set-up repetitions of a run.
const SETUP_REPS: usize = 5;
/// Solve workloads repeat set-up this often after each timed solve.
const SETUP_PER_SAMPLE: usize = 2;
/// Solve workloads time one serial solve after this many timed solves.
const SOLVES_PER_SERIAL: usize = 2;
/// Solve workloads take their ticket rate over runs of this many
/// consecutive timed solves.
const SOLVES_PER_RATE: usize = 8;
/// Serial-oracle repetitions before timing starts.
const SERIAL_REPS: usize = 3;
/// Shortest block of serial samples between session ticket segments.
const SERIAL_BLOCK_SECONDS: f64 = 0.15;
/// Fewest timed samples a run takes, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;

/// Command-line options of one run.
pub struct Args {
    /// Workload seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// A workload whose sample is one `solve_parallel` call.
pub struct SolveWorkload<T> {
    groups: usize,
    iterations: usize,
    grain: usize,
    transport: TransportKind,
    setup: SetupFn<T>,
}

/// `hex-g1`: 16³ hexes in 4³-cell patches, shared octant DAGs, S4,
/// one group, 20 iterations, thread transport.
pub const HEX_G1: SolveWorkload<StructuredMesh> = SolveWorkload {
    groups: 1,
    iterations: 20,
    grain: 16,
    transport: TransportKind::Thread,
    setup: setup_hex,
};

/// `tet-g16-socket`: the 2160-tet reactor in ~250-cell patches, S4,
/// 16 groups, 10 iterations, UNIX-socket transport.
pub const TET_G16_SOCKET: SolveWorkload<TetMesh> = SolveWorkload {
    groups: 16,
    iterations: 10,
    grain: 64,
    transport: TransportKind::Socket,
    setup: setup_tet,
};

fn setup_hex(t: &mut Tracer, quad: &QuadratureSet) -> Case<StructuredMesh> {
    structured(t, quad, 16, true)
}

fn setup_session(t: &mut Tracer, quad: &QuadratureSet) -> Case<StructuredMesh> {
    structured(t, quad, SESSION_EDGE, false)
}

fn structured(
    t: &mut Tracer,
    quad: &QuadratureSet,
    cells: usize,
    share_octant_dags: bool,
) -> Case<StructuredMesh> {
    let mesh = t.span("mesh.build", || StructuredMesh::unit(cells, cells, cells));
    let ps = t.span("mesh.decompose", || {
        partition::decompose_structured(&mesh, (4, 4, 4), RANKS)
    });
    let opts = ProblemOptions {
        share_octant_dags,
        ..Default::default()
    };
    let problem = t.span("graph.problem_build", || {
        SweepProblem::build(&mesh, ps, quad, &opts)
    });
    Case {
        mesh: Arc::new(mesh),
        problem: Arc::new(problem),
    }
}

fn setup_tet(t: &mut Tracer, quad: &QuadratureSet) -> Case<TetMesh> {
    let mesh = t.span("mesh.build", || tetgen::reactor(10, 1.0, 1.0, 4));
    let ps = t.span("mesh.decompose", || {
        partition::decompose_unstructured(&mesh, 250, RANKS)
    });
    let problem = t.span("graph.problem_build", || {
        SweepProblem::build(&mesh, ps, quad, &ProblemOptions::default())
    });
    Case {
        mesh: Arc::new(mesh),
        problem: Arc::new(problem),
    }
}

/// Lines describing a timing distribution: sample count, median, and
/// the highest percentile with enough samples beyond it.
fn describe(report: &mut Report, what: &str, xs: &[f64]) {
    let tail = match supported_tail(xs.len()) {
        Some(p) => format!("p{p} {:.6} s", percentile(xs, p)),
        None => "no percentile has 10 samples beyond it".into(),
    };
    report.line(format!(
        "{what}: n={} p50 {:.6} s; highest supported tail: {tail}",
        xs.len(),
        median(xs)
    ));
}

/// Print `ticket_p90_s` with the samples beyond it.
fn ticket_p90(report: &mut Report, latencies: &[f64]) {
    let n = latencies.len();
    let beyond = n - (n * 9).div_ceil(10);
    let how = format!("n={n}, {beyond} samples beyond it");
    report.ungated("ticket_p90_s", percentile(latencies, 90.0), "s", &how);
}

/// Time the set-up, the serial oracle and `solve_parallel` samples of
/// one solve workload; with `args.trace`, measure the per-layer split
/// instead.
pub fn run_solve<T: SweepTopology + Send + Sync + 'static>(
    w: &SolveWorkload<T>,
    args: &Args,
    tracer: &mut Tracer,
) -> Report {
    let mut report = Report::default();
    let quad = QuadratureSet::sn(4);
    let (case, mut setup_times) = repeat_setup(tracer, &quad, SETUP_REPS, w.setup);
    let materials = Arc::new(inputs::materials(
        &mut Rng::new(args.seed, 0),
        case.mesh.num_cells(),
        w.groups,
    ));
    // A negative tolerance never converges: every solve runs exactly
    // `iterations` iterations.
    let config = SnConfig {
        grain: w.grain,
        max_iterations: w.iterations,
        tolerance: -1.0,
        kernel: KernelKind::Step,
        workers_per_rank: WORKERS_PER_RANK,
        transport: w.transport,
        ..Default::default()
    };
    report.line(format!(
        "problem: {} cells, {} patches, {} angles, G={}, {} iterations, grain {}, {:?} transport",
        case.mesh.num_cells(),
        case.problem.num_patches(),
        quad.len(),
        w.groups,
        w.iterations,
        w.grain,
        w.transport
    ));
    let (serial_phi, serial_s) = serial(&case, &quad, &materials, &config, SERIAL_REPS);
    // Untimed warm-up: lazy set-up and first-touch allocations happen
    // here, not in a timed sample.
    let (_, warm) = untraced(&case, &quad, &materials, &config);
    let reference = match &warm {
        Ok(s) => s.phi.clone(),
        Err(_) => serial_phi.clone(),
    };
    check_solution(
        &mut report,
        "warm-up solve",
        &warm,
        w.iterations,
        &serial_phi,
        &reference,
    );
    // Peak of set-up, the serial oracle and one whole solve. Later
    // solves only add allocator fragmentation that differs run to run.
    let peak_rss = peak_rss_mib();
    let deadline = Instant::now() + args.seconds;

    if args.trace {
        setup_layer_metrics(tracer, &mut report);
        let solo = solo_layers(
            tracer,
            &mut report,
            &case,
            &quad,
            &materials,
            &config,
            &serial_phi,
            &reference,
            deadline,
            MIN_SAMPLES as u64,
        );
        runtime_metrics(&solo.traced_stats, "solve", &mut report);
        // A solo solve is its caller's one ticket: it waits for launch
        // and the first emission, not for a queue.
        let before: Vec<f64> = solo.splits.iter().map(|s| s.before_first_epoch).collect();
        let service: Vec<f64> = solo
            .splits
            .iter()
            .map(|s| s.wall - s.before_first_epoch)
            .collect();
        report.metric("session.queue_wait_p50_s", median(&before));
        report.metric("session.service_p50_s", median(&service));
        report.metric("session.epochs_per_ticket", w.iterations as f64);
        report.metric("session.driver_per_ticket_s", median(&solo.driver));
        report.metric("replay.cache_hit_ratio", 0.0);
        report.line("replay.cache_hit_ratio: solve_parallel keeps no plan cache; every solve compiles its plan");
        kernel_metrics(&mut report, &case, &quad, &materials, KernelKind::Step);
        report.metric("serial.solve_s", serial_s);
        report.metric("trace.samples", solo.splits.len() as f64);
        return report;
    }

    // Set-up and serial samples are interleaved with the timed solves,
    // so every figure of the run samples the same stretches of host
    // contention. Each serial solve is compared with the solves just
    // before it, so a slow stretch slows both sides of a ratio.
    let mut walls = Vec::new();
    let mut serial_times = vec![serial_s];
    let mut ratios = Vec::new();
    while walls.len() < MIN_SAMPLES || Instant::now() < deadline {
        let (wall, r) = untraced(&case, &quad, &materials, &config);
        check_solution(
            &mut report,
            "timed solve",
            &r,
            w.iterations,
            &serial_phi,
            &reference,
        );
        walls.push(wall);
        setup_times.extend(repeat_setup(tracer, &quad, SETUP_PER_SAMPLE, w.setup).1);
        if walls.len() % SOLVES_PER_SERIAL == 0 {
            let (phi, s) = serial(&case, &quad, &materials, &config, 1);
            report.check(bit_identical(&phi, &serial_phi), || {
                "solve_serial is not reproducible".into()
            });
            serial_times.push(s);
            ratios.push(s / median(&walls[walls.len() - SOLVES_PER_SERIAL..]));
        }
    }
    describe(&mut report, "solve wall", &walls);
    describe(&mut report, "serial wall", &serial_times);
    describe(&mut report, "setup", &setup_times);
    let p50 = median(&walls);
    report.metric("setup_s", median(&setup_times));
    report.metric("solve_p50_s", p50);
    let how = format!(
        "median of {} ratios, each a serial solve over the median of the {SOLVES_PER_SERIAL} timed solves before it",
        ratios.len()
    );
    report.ungated("speedup_vs_serial", median(&ratios), "ratio", &how);
    // One closed-loop client calling solve_parallel: each call is a
    // ticket with no queue in front of it. Its rate is taken over runs
    // of consecutive solves (time inside solve_parallel only), and the
    // median run is reported, so one slow stretch does not set it.
    report.metric("ticket_p50_s", p50);
    ticket_p90(&mut report, &walls);
    let rates: Vec<f64> = walls
        .chunks(SOLVES_PER_RATE)
        .map(|c| c.len() as f64 / c.iter().sum::<f64>())
        .collect();
    let how = format!("median over runs of {SOLVES_PER_RATE} solves");
    report.ungated("tickets_per_s", median(&rates), "1/s", &how);
    report.metric("peak_rss_mib", peak_rss);
    report
}

fn kernel_metrics<T: SweepTopology>(
    report: &mut Report,
    case: &Case<T>,
    quad: &QuadratureSet,
    materials: &MaterialSet,
    kind: KernelKind,
) {
    let k = kernel::measure(case.mesh.as_ref(), quad, materials, kind);
    report.check(k.identical, || {
        "kernel: blocked and scalar paths disagree".into()
    });
    report.metric("kernel.blocked_ns", k.blocked_ns);
    report.metric("kernel.scalar_ns", k.scalar_ns);
    report.metric("kernel.bytes_per_cag", k.bytes_per_cag);
    report.line(format!(
        "kernel ({kind:?}, G={}): blocked {:.3} ns, scalar {:.3} ns per cell-angle-group; {:.0} B per cell-angle-group computed from buffer sizes, not measured",
        materials.num_groups(),
        k.blocked_ns,
        k.scalar_ns,
        k.bytes_per_cag
    ));
}

/// `session-dd-g4` shape.
const SESSION_EDGE: usize = 12;
const SESSION_CELLS: usize = SESSION_EDGE * SESSION_EDGE * SESSION_EDGE;
const SESSION_GROUPS: usize = 4;
const SESSION_ITERATIONS: usize = 4;
const SESSION_VARIANTS: usize = 8;
const SESSION_CLIENTS: usize = 2;
/// Session set-ups per run (launch plus a plan-compiling ticket).
const SESSION_SETUP_REPS: usize = 7;
/// The ticket window is cut into this many segments, with serial solves
/// between them.
const SESSION_SEGMENTS: usize = 10;

/// What one timed ticket produced.
struct Ticket {
    latency: f64,
    queue_wait: f64,
    iterations: usize,
    epochs: Vec<RunStats>,
    coarse_build: f64,
}

/// Run closed-loop clients against `session` until `deadline`; returns
/// the resolved tickets, their failures, and the elapsed seconds.
fn ticket_loop(
    session: &SolverSession<StructuredMesh>,
    variants: &[Arc<MaterialSet>],
    references: &[Vec<f64>],
    seed: u64,
    deadline: Instant,
) -> (Vec<Ticket>, Vec<String>, f64) {
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Ticket>, Vec<String>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..SESSION_CLIENTS)
            .map(|c| {
                let campaign = session.campaign();
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 100 + c as u64);
                    let (mut done, mut failures) = (Vec::new(), Vec::new());
                    while done.len() + failures.len() < MIN_SAMPLES || Instant::now() < deadline {
                        let v = rng.below(variants.len());
                        let sent = Instant::now();
                        let r = campaign.submit(request(&variants[v])).wait();
                        let latency = sent.elapsed().as_secs_f64();
                        match r {
                            Ok(o) if bit_identical(&o.solution.phi, &references[v]) => {
                                done.push(Ticket {
                                    latency,
                                    queue_wait: o.queue_wait_seconds,
                                    iterations: o.solution.iterations,
                                    epochs: o.solution.stats,
                                    coarse_build: o.solution.coarse_build_seconds,
                                })
                            }
                            Ok(_) => failures.push(format!(
                                "ticket (variant {v}): phi not bit-identical to its solo reference"
                            )),
                            Err(e) => failures.push(format!("ticket (variant {v}): {e}")),
                        }
                    }
                    (done, failures)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let (mut tickets, mut failures) = (Vec::new(), Vec::new());
    for (t, f) in per_client {
        tickets.extend(t);
        failures.extend(f);
    }
    (tickets, failures, elapsed)
}

/// Serial solves of `materials` for at least [`SERIAL_BLOCK_SECONDS`]
/// and [`SERIAL_REPS`] repetitions; returns their wall seconds.
fn serial_block(
    case: &Case<StructuredMesh>,
    quad: &QuadratureSet,
    materials: &MaterialSet,
    config: &SnConfig,
) -> Vec<f64> {
    let t0 = Instant::now();
    let mut times = Vec::new();
    while times.len() < SERIAL_REPS || t0.elapsed().as_secs_f64() < SERIAL_BLOCK_SECONDS {
        times.push(serial(case, quad, materials, config, 1).1);
    }
    times
}

fn request(materials: &Arc<MaterialSet>) -> SolveRequest {
    SolveRequest {
        max_iterations: Some(SESSION_ITERATIONS),
        tolerance: Some(-1.0),
        ..SolveRequest::new(materials.clone())
    }
}

/// `session-dd-g4`: a resident `SolverSession` serving 4-iteration
/// diamond-difference solves with seed-chosen scattering variants to
/// two closed-loop clients.
pub fn run_session(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let quad = QuadratureSet::sn(4);
    let variants: Vec<Arc<MaterialSet>> = inputs::scattering_variants(
        &mut Rng::new(args.seed, 0),
        SESSION_CELLS,
        SESSION_GROUPS,
        SESSION_VARIANTS,
    )
    .into_iter()
    .map(Arc::new)
    .collect();
    let config = SnConfig {
        grain: 16,
        max_iterations: SESSION_ITERATIONS,
        tolerance: -1.0,
        kernel: KernelKind::DiamondDifference,
        workers_per_rank: WORKERS_PER_RANK,
        ..Default::default()
    };

    let options = || SessionOptions {
        solver: config.clone(),
        admission: Box::new(Fifo),
        eviction: EvictionPolicy::Manual,
        ..Default::default()
    };
    let mut setup_times = Vec::new();
    // Set-up: problem, session launch, and the warm-up ticket that
    // compiles the shared plan, so every timed ticket replays it.
    let mut set_up = |tracer: &mut Tracer| {
        let t0 = Instant::now();
        let id = tracer.begin("setup");
        let case = setup_session(tracer, &quad);
        let session = tracer.span("session.launch", || {
            SolverSession::launch(
                case.mesh.clone(),
                case.problem.clone(),
                quad.clone(),
                options(),
            )
        });
        let warm = tracer.span("session.warmup_ticket", || {
            session.campaign().submit(request(&variants[0])).wait()
        });
        tracer.end(id);
        setup_times.push(t0.elapsed().as_secs_f64());
        (case, session, warm)
    };
    let (case, mut session, warm) = set_up(tracer);
    // Peak of one set-up, warm-up ticket included. Later set-ups and
    // tickets only add allocator fragmentation that differs run to run.
    let peak_rss = peak_rss_mib();
    let mut warm_ups = vec![warm];
    for _ in 1..SESSION_SETUP_REPS {
        session.shutdown();
        let (_, next, warm) = set_up(tracer);
        session = next;
        warm_ups.push(warm);
    }
    report.line(format!(
        "problem: {} cells, {} patches, {} angles, G={SESSION_GROUPS}, {SESSION_ITERATIONS} iterations per ticket, grain 16, diamond difference, {SESSION_VARIANTS} scattering variants, {SESSION_CLIENTS} closed-loop clients, Fifo admission",
        case.mesh.num_cells(),
        case.problem.num_patches(),
        quad.len(),
    ));

    // Oracles: per variant, solve_serial and a solo cached parallel
    // solve; tickets must match the latter bit for bit. Every set-up
    // rebuilds the same mesh, so one set of references serves them all.
    let cache = PlanCache::new();
    let (mut references, mut serial_phis) = (Vec::new(), Vec::new());
    for (v, m) in variants.iter().enumerate() {
        let (serial_phi, _) = serial(&case, &quad, m, &config, 1);
        let solo = solve_parallel_cached(
            case.mesh.clone(),
            case.problem.clone(),
            &quad,
            m.clone(),
            &config,
            &cache,
        );
        report.check(within_rel(&solo.phi, &serial_phi, 1e-11), || {
            format!("solo reference (variant {v}) differs from solve_serial beyond 1e-11")
        });
        references.push(solo.phi);
        serial_phis.push(serial_phi);
    }
    for warm in &warm_ups {
        report.check(
            matches!(warm, Ok(o) if bit_identical(&o.solution.phi, &references[0])),
            || "warm-up ticket: phi not bit-identical to its solo reference".into(),
        );
    }

    // The ticket window runs in segments with a block of serial solves
    // before each and after the last, so both sides of the speed-up
    // sample the same stretches of host contention.
    let window = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let cache = session.plan_cache();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let (mut tickets, mut failures, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut blocks = vec![serial_block(&case, &quad, &variants[0], &config)];
    let mut segment_service = Vec::new();
    for segment in 0..SESSION_SEGMENTS {
        let deadline = Instant::now() + window / SESSION_SEGMENTS as u32;
        let seed = args.seed ^ ((segment as u64) << 32);
        let (t, f, e) = ticket_loop(&session, &variants, &references, seed, deadline);
        blocks.push(serial_block(&case, &quad, &variants[0], &config));
        let service: Vec<f64> = t.iter().map(|t| t.latency - t.queue_wait).collect();
        segment_service.push((!service.is_empty()).then(|| median(&service)));
        rates.push(t.len() as f64 / e);
        tickets.extend(t);
        failures.extend(f);
    }
    let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
    session.shutdown();
    // One ratio per segment: the serial median of the blocks around it
    // over its median ticket service.
    let ratios: Vec<f64> = segment_service
        .iter()
        .enumerate()
        .filter_map(|(i, svc)| {
            let around = [blocks[i].as_slice(), &blocks[i + 1]].concat();
            svc.map(|svc| median(&around) / svc)
        })
        .collect();
    let serial_times = blocks.concat();
    let serial_s = median(&serial_times);
    for t in &tickets {
        report.check(t.iterations == SESSION_ITERATIONS, || {
            format!("ticket ran {} iterations", t.iterations)
        });
    }
    for f in failures {
        report.check(false, || f);
    }
    let latency: Vec<f64> = tickets.iter().map(|t| t.latency).collect();
    let queue: Vec<f64> = tickets.iter().map(|t| t.queue_wait).collect();
    let service: Vec<f64> = tickets.iter().map(|t| t.latency - t.queue_wait).collect();
    describe(&mut report, "ticket latency", &latency);
    describe(&mut report, "ticket queue wait", &queue);
    describe(&mut report, "ticket service", &service);
    report.line(format!(
        "plan cache over the timed tickets: {hits} hits, {misses} misses"
    ));

    if args.trace {
        setup_layer_metrics(tracer, &mut report);
        let epochs: Vec<Vec<RunStats>> = tickets.iter().map(|t| t.epochs.clone()).collect();
        runtime_metrics(&epochs, "ticket", &mut report);
        report.metric("session.queue_wait_p50_s", median(&queue));
        report.metric("session.service_p50_s", median(&service));
        report.metric(
            "session.epochs_per_ticket",
            median(&epochs.iter().map(|e| e.len() as f64).collect::<Vec<_>>()),
        );
        let driver: Vec<f64> = tickets
            .iter()
            .map(|t| {
                t.latency
                    - t.queue_wait
                    - t.epochs.iter().map(|s| s.wall_seconds).sum::<f64>()
                    - t.coarse_build
            })
            .collect();
        report.metric("session.driver_per_ticket_s", median(&driver));
        report.metric(
            "replay.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        // The solo split runs the ticket's problem (variant 0) as an
        // uncached solve: iteration 1 records, the rest replay.
        let solo = solo_layers(
            tracer,
            &mut report,
            &case,
            &quad,
            &variants[0],
            &config,
            &serial_phis[0],
            &references[0],
            Instant::now() + (args.seconds - window),
            MIN_SAMPLES as u64,
        );
        kernel_metrics(
            &mut report,
            &case,
            &quad,
            &variants[0],
            KernelKind::DiamondDifference,
        );
        report.metric("serial.solve_s", serial_s);
        report.metric("trace.samples", (tickets.len() + solo.splits.len()) as f64);
        return report;
    }

    describe(&mut report, "setup", &setup_times);
    let service_p50 = median(&service);
    report.metric("setup_s", median(&setup_times));
    report.metric("solve_p50_s", service_p50);
    describe(&mut report, "serial wall", &serial_times);
    let how = format!(
        "median over {} window segments of the serial median around the segment over the segment's median service",
        ratios.len()
    );
    report.ungated("speedup_vs_serial", median(&ratios), "ratio", &how);
    report.line("solve_p50_s: ticket service, from the ticket's first epoch to its resolve");
    report.metric("ticket_p50_s", median(&latency));
    ticket_p90(&mut report, &latency);
    let how = format!("median over {SESSION_SEGMENTS} window segments");
    report.ungated("tickets_per_s", median(&rates), "1/s", &how);
    report.metric("peak_rss_mib", peak_rss);
    report
}
