//! SPMD solves: one [`solve_parallel_spmd`] call per rank.
//!
//! The in-process tests run every rank on a thread over the thread
//! backend's endpoints. The multi-process test runs true SPMD over the
//! UNIX-socket transport: the parent test re-executes this test binary four times (one child
//! process per rank, selected with `--exact spmd_worker_entry`); each
//! child rendezvouses through [`SocketUniverse::connect`], runs
//! [`solve_parallel_spmd`] on its rank, and writes its converged scalar
//! flux to disk. The parent then compares every child's flux
//! byte-for-byte against an in-process thread-backend
//! [`solve_parallel`] run — the cross-transport, cross-process
//! determinism pin of `docs/transport.md`.

use jsweep::comm::socket::SocketUniverse;
use jsweep::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const ENV_RANK: &str = "JSWEEP_SPMD_RANK";
const ENV_DIR: &str = "JSWEEP_SPMD_DIR";
const ENV_N: &str = "JSWEEP_SPMD_N";
const RANKS: usize = 4;

/// The shared problem: 16³ cells, 4×4×4 patches over 4 ranks, S2.
/// Parent and children must build byte-identical worlds from this.
fn build_world() -> (Arc<StructuredMesh>, Arc<SweepProblem>, QuadratureSet) {
    let mesh = Arc::new(StructuredMesh::unit(16, 16, 16));
    let quad = QuadratureSet::sn(2);
    let patches = decompose_structured(&mesh, (4, 4, 4), RANKS);
    let problem = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    (mesh, problem, quad)
}

fn spmd_materials() -> Arc<MaterialSet> {
    Arc::new(MaterialSet::homogeneous(
        16 * 16 * 16,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ))
}

/// Fixed-iteration config so parent and children make identical
/// convergence decisions. Fine-DAG path only: `solve_parallel_spmd`
/// has no coarse replay, so the golden disables it too (the in-process
/// test below covers the default `coarsen: true`).
fn spmd_config() -> SnConfig {
    SnConfig {
        grain: 16,
        max_iterations: 3,
        tolerance: 1e-14,
        workers_per_rank: 2,
        coarsen: false,
        ..Default::default()
    }
}

fn phi_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("phi-{rank}.bin"))
}

/// Child-process entry point: a no-op under a normal `cargo test` run,
/// a full SPMD rank when launched by the parent with the rendezvous
/// environment set.
#[test]
fn spmd_worker_entry() {
    let Ok(rank) = std::env::var(ENV_RANK) else {
        return;
    };
    let rank: usize = rank.parse().expect("rank env");
    let dir = PathBuf::from(std::env::var(ENV_DIR).expect("rendezvous dir env"));
    let n: usize = std::env::var(ENV_N)
        .expect("world size env")
        .parse()
        .unwrap();

    let comm = SocketUniverse::connect(&dir, rank, n, Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("rank {rank}: rendezvous failed: {e}"));
    let (mesh, problem, quad) = build_world();
    let solution =
        solve_parallel_spmd(mesh, problem, &quad, spmd_materials(), &spmd_config(), comm);

    let mut bytes = Vec::with_capacity(solution.phi.len() * 8);
    for v in &solution.phi {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(phi_path(&dir, rank), bytes).expect("write flux");
}

/// Four ranks as four OS processes over UNIX sockets must produce a
/// scalar flux bit-identical to the single-process thread-backend
/// solve.
#[test]
fn four_process_socket_solve_matches_thread_backend() {
    // In-process golden over the default thread fabric.
    let (mesh, problem, quad) = build_world();
    let golden = solve_parallel(mesh, problem, &quad, spmd_materials(), &spmd_config());
    assert_eq!(golden.iterations, 3);

    let dir = std::env::temp_dir().join(format!("jsweep-spmd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let exe = std::env::current_exe().expect("test binary path");
    let children: Vec<_> = (0..RANKS)
        .map(|rank| {
            std::process::Command::new(&exe)
                .arg("--exact")
                .arg("spmd_worker_entry")
                .env(ENV_RANK, rank.to_string())
                .env(ENV_DIR, &dir)
                .env(ENV_N, RANKS.to_string())
                .spawn()
                .expect("spawn rank process")
        })
        .collect();
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("join rank process");
        assert!(status.success(), "rank {rank} process failed: {status}");
    }

    // Every rank converged on the same global flux, and it matches the
    // thread-backend golden byte for byte.
    let mut golden_bytes = Vec::with_capacity(golden.phi.len() * 8);
    for v in &golden.phi {
        golden_bytes.extend_from_slice(&v.to_le_bytes());
    }
    for rank in 0..RANKS {
        let got = std::fs::read(phi_path(&dir, rank)).expect("rank flux written");
        assert_eq!(
            got, golden_bytes,
            "rank {rank}: socket-process flux diverges from thread-backend golden"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two ranks on threads, `coarsen` left at its default: every rank
/// returns the global flux bit-identical to the single-process solve
/// (which records and replays), while the SPMD ranks themselves stay
/// on the fine path — no recording, no plan, no cache.
#[test]
fn in_process_spmd_ranks_match_solve_parallel_on_the_fine_path() {
    let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
    let quad = QuadratureSet::sn(2);
    let problem = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        decompose_structured(&mesh, (4, 4, 4), 2),
        &quad,
        &ProblemOptions::default(),
    ));
    let mats = Arc::new(MaterialSet::homogeneous(
        512,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ));
    let config = SnConfig {
        grain: 16,
        max_iterations: 4,
        tolerance: -1.0,
        ..Default::default()
    };
    assert!(config.coarsen);
    let golden = solve_parallel(mesh.clone(), problem.clone(), &quad, mats.clone(), &config);
    assert_eq!(golden.iterations, 4);
    let ranks: Vec<_> = jsweep::comm::Universe::endpoints(2)
        .into_iter()
        .map(|comm| {
            let (mesh, problem, quad, mats, config) = (
                mesh.clone(),
                problem.clone(),
                quad.clone(),
                mats.clone(),
                config.clone(),
            );
            std::thread::spawn(move || {
                solve_parallel_spmd(mesh, problem, &quad, mats, &config, comm)
            })
        })
        .collect();
    for (rank, handle) in ranks.into_iter().enumerate() {
        let sol = handle.join().expect("SPMD rank thread");
        assert_eq!(sol.iterations, 4, "rank {rank}");
        assert_eq!(
            sol.phi, golden.phi,
            "rank {rank}: SPMD flux diverges from solve_parallel"
        );
        assert!(!sol.plan_from_cache, "rank {rank}: SPMD never replays");
        assert_eq!(
            sol.coarse_build_seconds, 0.0,
            "rank {rank}: SPMD compiles no replay plan"
        );
    }
}

/// The mesh-generation guard `solve_parallel` applies holds for SPMD
/// ranks too: a problem built on another mesh is rejected up front.
#[test]
#[should_panic(expected = "mesh topology changed")]
fn spmd_rejects_a_problem_built_on_another_mesh() {
    let built_on = Arc::new(StructuredMesh::unit(4, 4, 4));
    let solved_on = Arc::new(StructuredMesh::unit(4, 4, 4));
    let quad = QuadratureSet::sn(2);
    let problem = Arc::new(SweepProblem::build(
        built_on.as_ref(),
        decompose_structured(&built_on, (2, 2, 2), 1),
        &quad,
        &ProblemOptions::default(),
    ));
    let mats = Arc::new(MaterialSet::homogeneous(
        64,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ));
    let comm = jsweep::comm::Universe::endpoints(1).pop().unwrap();
    solve_parallel_spmd(solved_on, problem, &quad, mats, &spmd_config(), comm);
}
