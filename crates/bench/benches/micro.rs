//! Criterion microbenchmarks of the hot components: subgraph
//! construction, the Listing-1 scheduling core, priority computation,
//! coarsened-graph construction, the transport kernel, the stream
//! codec and Hilbert keys.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use jsweep_graph::priority::vertex_priorities;
use jsweep_graph::{PriorityStrategy, ReciprocalFaces, Subgraph, SweepState};
use jsweep_mesh::{partition, PatchId, PatchSet, StructuredMesh, SweepTopology};
use jsweep_quadrature::AngleId;
use std::collections::HashSet;
use std::hint::black_box;

fn bench_subgraph_build(c: &mut Criterion) {
    let mesh = StructuredMesh::unit(32, 32, 32);
    let ps = partition::decompose_structured(&mesh, (8, 8, 8), 2);
    let faces = ReciprocalFaces::new(&mesh);
    c.bench_function("subgraph_build_32cube", |b| {
        b.iter(|| {
            Subgraph::build(
                &mesh,
                &faces,
                &ps,
                black_box(PatchId(0)),
                AngleId(0),
                [1.0, 1.0, 1.0],
                &HashSet::new(),
            )
        })
    });
}

fn bench_sweep_state(c: &mut Criterion) {
    let mesh = StructuredMesh::unit(16, 16, 16);
    let ps = PatchSet::single(mesh.num_cells());
    let sub = Subgraph::build(
        &mesh,
        &ReciprocalFaces::new(&mesh),
        &ps,
        PatchId(0),
        AngleId(0),
        [1.0, 0.7, 0.3],
        &HashSet::new(),
    );
    let prio = std::sync::Arc::new(vertex_priorities(&sub, PriorityStrategy::Slbd));
    c.bench_function("sweep_state_full_drain_4k", |b| {
        b.iter_batched(
            || SweepState::new(&sub, prio.clone()),
            |mut st| {
                while !st.is_complete() {
                    black_box(st.pop_cluster(&sub, 64, |_, _| {}));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_priorities(c: &mut Criterion) {
    let mesh = StructuredMesh::unit(24, 24, 24);
    let ps = PatchSet::single(mesh.num_cells());
    let sub = Subgraph::build(
        &mesh,
        &ReciprocalFaces::new(&mesh),
        &ps,
        PatchId(0),
        AngleId(0),
        [1.0, 1.0, 1.0],
        &HashSet::new(),
    );
    for s in [
        PriorityStrategy::Bfs,
        PriorityStrategy::Ldcp,
        PriorityStrategy::Slbd,
    ] {
        c.bench_function(&format!("vertex_priorities_{}_14k", s.name()), |b| {
            b.iter(|| black_box(vertex_priorities(&sub, s)))
        });
    }
}

fn bench_kernel(c: &mut Criterion) {
    use jsweep_transport::kernel::{solve_cell, KernelKind};
    let mesh = StructuredMesh::unit(4, 4, 4);
    let incoming = vec![0.4; 6];
    let mut out = vec![0.0; 6];
    let mut psi = vec![0.0];
    c.bench_function("kernel_dd_single_cell", |b| {
        b.iter(|| {
            solve_cell(
                &mesh,
                black_box(21),
                [0.5, 0.6, 0.62],
                KernelKind::DiamondDifference,
                &[1.0],
                &[0.3],
                &incoming,
                &mut out,
                &mut psi,
            );
            black_box(psi[0])
        })
    });
    c.bench_function("kernel_step_single_cell", |b| {
        b.iter(|| {
            solve_cell(
                &mesh,
                black_box(21),
                [0.5, 0.6, 0.62],
                KernelKind::Step,
                &[1.0],
                &[0.3],
                &incoming,
                &mut out,
                &mut psi,
            );
            black_box(psi[0])
        })
    });
}

fn bench_pack(c: &mut Criterion) {
    use jsweep_comm::pack::{Reader, Writer};
    c.bench_function("pack_unpack_64_items", |b| {
        b.iter(|| {
            let mut w = Writer::with_capacity(64 * 24);
            for i in 0..64u32 {
                w.put_u32(i);
                w.put_u32(i + 1);
                w.put_f64(i as f64 * 0.5);
            }
            let mut r = Reader::new(w.finish());
            let mut acc = 0.0;
            for _ in 0..64 {
                r.get_u32();
                r.get_u32();
                acc += r.get_f64();
            }
            black_box(acc)
        })
    });
}

fn bench_hilbert(c: &mut Criterion) {
    use jsweep_mesh::sfc::hilbert3;
    c.bench_function("hilbert3_key", |b| {
        b.iter(|| black_box(hilbert3(black_box(123), black_box(456), black_box(789), 10)))
    });
}

fn bench_des_small(c: &mut Criterion) {
    use jsweep_des::{simulate, MachineModel, ProblemOptions, SimOptions, SweepProblem};
    use jsweep_quadrature::QuadratureSet;
    let mesh = StructuredMesh::unit(12, 12, 12);
    let ps = partition::decompose_structured(&mesh, (4, 4, 4), 2);
    let quad = QuadratureSet::sn(2);
    let prob = SweepProblem::build(
        &mesh,
        ps,
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    );
    let machine = MachineModel::cluster(2, 3);
    c.bench_function("des_sweep_12cube_s2", |b| {
        b.iter(|| black_box(simulate(&prob, &machine, &SimOptions::default())))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_subgraph_build, bench_sweep_state, bench_priorities, bench_kernel,
              bench_pack, bench_hilbert, bench_des_small
}
criterion_main!(benches);
