//! Cell-kernel timing over a workload's own cells, directions, groups
//! and kernel: the blocked path (`CellGeom` hoisted per cell, then
//! `solve_cell_block_geom` per group block, chunked like a sweep
//! cluster) against the scalar `solve_cell` oracle.

use jsweep_mesh::SweepTopology;
use jsweep_quadrature::QuadratureSet;
use jsweep_transport::kernel::{
    solve_cell, solve_cell_block_geom, CellGeom, KernelKind, GROUP_BLOCK, KERNEL_MAX_FACES,
};
use jsweep_transport::MaterialSet;
use std::hint::black_box;
use std::time::Instant;

/// Cells per blocked chunk: a typical cluster size, so group blocks
/// re-stream a cache-resident cell list as the solver's clusters do.
const CHUNK: usize = 32;

/// Result of one kernel measurement.
pub struct KernelTiming {
    /// Blocked path, ns per cell·angle·group.
    pub blocked_ns: f64,
    /// Scalar path, ns per cell·angle·group.
    pub scalar_ns: f64,
    /// Bytes one cell·angle·group reads and writes, computed from the
    /// buffer sizes (not measured; cache misses are not counted).
    pub bytes_per_cag: f64,
    /// Both paths accumulated bit-identical flux.
    pub identical: bool,
}

struct Inputs<'a, T: ?Sized> {
    mesh: &'a T,
    quad: &'a QuadratureSet,
    materials: &'a MaterialSet,
    kind: KernelKind,
    q: Vec<f64>,
    flux: Vec<f64>,
    mf: usize,
}

fn pass_scalar<T: SweepTopology + ?Sized>(x: &Inputs<T>, phi: &mut [f64]) {
    let groups = x.materials.num_groups();
    let mut out = vec![0.0; x.mf * groups];
    let mut psi = vec![0.0; groups];
    for (_, o) in x.quad.iter() {
        for c in 0..x.mesh.num_cells() {
            let nf = x.mesh.num_faces(c);
            let base = c * x.mf * groups;
            solve_cell(
                x.mesh,
                c,
                o.dir,
                x.kind,
                &x.materials.material(c).sigma_t,
                &x.q[c * groups..(c + 1) * groups],
                &x.flux[base..base + nf * groups],
                &mut out[..nf * groups],
                &mut psi,
            );
            for (p, &v) in phi[c * groups..(c + 1) * groups].iter_mut().zip(&psi) {
                *p += o.weight * v;
            }
        }
    }
}

fn pass_blocked<T: SweepTopology + ?Sized>(x: &Inputs<T>, phi: &mut [f64]) {
    let groups = x.materials.num_groups();
    let n = x.mesh.num_cells();
    let mut geoms: Vec<CellGeom> = Vec::with_capacity(CHUNK);
    let mut out = [0.0f64; KERNEL_MAX_FACES * GROUP_BLOCK];
    let mut psi = [0.0f64; GROUP_BLOCK];
    for (_, o) in x.quad.iter() {
        let mut start = 0;
        while start < n {
            let end = (start + CHUNK).min(n);
            geoms.clear();
            geoms.extend((start..end).map(|c| CellGeom::new(x.mesh, c, o.dir)));
            let mut g0 = 0;
            while g0 < groups {
                let b = GROUP_BLOCK.min(groups - g0);
                for (i, geom) in geoms.iter().enumerate() {
                    let c = start + i;
                    let sigma_t = &x.materials.material(c).sigma_t;
                    solve_cell_block_geom(
                        geom,
                        x.kind,
                        &sigma_t[g0..g0 + b],
                        &x.q[c * groups + g0..c * groups + g0 + b],
                        &x.flux[c * x.mf * groups + g0..],
                        groups,
                        &mut out,
                        GROUP_BLOCK,
                        &mut psi[..b],
                    );
                    let pbase = c * groups + g0;
                    for (p, &v) in phi[pbase..pbase + b].iter_mut().zip(&psi[..b]) {
                        *p += o.weight * v;
                    }
                }
                g0 += b;
            }
            start = end;
        }
    }
}

/// Median seconds of one pass, over at least `min_passes` passes and
/// at least `min_seconds` of passes.
fn time_passes(min_passes: usize, min_seconds: f64, mut pass: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < min_passes || t0.elapsed().as_secs_f64() < min_seconds {
        let t = Instant::now();
        pass();
        times.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&times)
}

/// Time both kernel paths over every cell and direction of the
/// workload, with its materials and group count.
pub fn measure<T: SweepTopology + ?Sized>(
    mesh: &T,
    quad: &QuadratureSet,
    materials: &MaterialSet,
    kind: KernelKind,
) -> KernelTiming {
    let n = mesh.num_cells();
    let groups = materials.num_groups();
    let mf = (0..n).map(|c| mesh.num_faces(c)).max().unwrap_or(0);
    let inv_4pi = 1.0 / (4.0 * std::f64::consts::PI);
    let q = (0..n * groups)
        .map(|i| materials.material(i / groups).source[i % groups] * inv_4pi)
        .collect();
    // Deterministic incoming face fluxes in the program's
    // `(cell * max_faces + face) * groups + g` layout.
    let flux = (0..n * mf * groups)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 1000) as f64 * 1e-3)
        .collect();
    let x = Inputs {
        mesh,
        quad,
        materials,
        kind,
        q,
        flux,
        mf,
    };
    let mut phi_s = vec![0.0; n * groups];
    let mut phi_b = vec![0.0; n * groups];
    pass_scalar(&x, &mut phi_s);
    pass_blocked(&x, &mut phi_b);
    let identical = crate::stats::bit_identical(&phi_s, &phi_b);
    let scalar = time_passes(5, 0.15, || {
        pass_scalar(black_box(&x), black_box(&mut phi_s))
    });
    let blocked = time_passes(5, 0.15, || {
        pass_blocked(black_box(&x), black_box(&mut phi_b))
    });
    let cags = (n * quad.len() * groups) as f64;
    let mean_faces = (0..n).map(|c| mesh.num_faces(c)).sum::<usize>() as f64 / n as f64;
    KernelTiming {
        blocked_ns: blocked / cags * 1e9,
        scalar_ns: scalar / cags * 1e9,
        // Per cell·angle·group: read every face's incoming flux, σ_t
        // and q; write every face's outgoing flux and ψ; read-modify-
        // write φ. Eight bytes each.
        bytes_per_cag: 8.0 * (2.0 * mean_faces + 5.0),
        identical,
    }
}
