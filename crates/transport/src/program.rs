//! `SweepPatchProgram` — paper Listing 1, with real physics attached.
//!
//! A program is one `(patch, angle)` sweep task. Its local context is
//! the scheduling state plus the physics state: incoming face-flux
//! storage for every local cell and the per-angle scalar-flux
//! contribution. The scheduling state comes in two flavours, selected
//! per source iteration by [`SweepMode`]:
//!
//! * **Fine** ([`jsweep_graph::SweepState`]: per-vertex counters +
//!   ready priority queue) — the DAG-driven first iteration, which can
//!   record a [`ClusterTrace`] of the clusters its `compute()` calls
//!   form;
//! * **Coarse** ([`jsweep_graph::coarse::CoarseSweepState`] over a
//!   [`ReplayTask`]) — the §V-E replay used from the second iteration
//!   on: `compute()` pops one whole coarse vertex, executes its
//!   recorded vertex list in order, and emits exactly one stream per
//!   outgoing coarse edge, with no per-vertex bookkeeping.
//!
//! Both modes share one stream payload format (see `jsweep_comm::pack`):
//! `u32 cluster`, `u32 item_count`, `item_count × u32 dst_slot`, then
//! `item_count × groups × f64` face-flux values. `dst_slot` is the
//! consumer's face-flux slot (`local_cell * max_faces + face`), read
//! from the subgraph edge ([`jsweep_graph::RemoteEdge::slot`], resolved
//! once per problem), so the receiver writes it straight into
//! `face_flux` with no adjacency lookup. Only the in-degree step
//! differs: a fine stream (one per target patch per compute call,
//! cluster `u32::MAX`) decrements vertex `dst_slot / max_faces` once
//! per item; a replay stream (one per coarse edge) decrements its
//! target coarse vertex once. Replay pre-packs the constant prefix per
//! coarse edge at plan-compile time
//! ([`crate::replay::ReplayEmit::skeleton`]), so its packing is one
//! memcpy plus the flux writes.
//!
//! Under a persistent universe (`jsweep_core::Universe`) the programs
//! stay resident for the whole solve: each source iteration is one
//! epoch, and [`SweepProgram`]'s `reset` re-arms the scheduling state
//! ([`SweepState`]/[`CoarseSweepState`] reset in place), zeroes
//! `face_flux` in place, and swaps in the epoch's emission density and
//! [`SweepMode`] — no per-iteration reallocation of the big buffers.

use crate::kernel::{solve_cell_block_geom, CellGeom, KernelKind, GROUP_BLOCK, KERNEL_MAX_FACES};
use crate::replay::{CoarsePlan, ReplayTask, TraceBins};
use crate::xs::MaterialSet;
use bytes::Bytes;
use jsweep_comm::pack::{Reader, Writer};
use jsweep_core::{
    ComputeCtx, EpochInput, PatchProgram, ProgramFactory, ProgramId, Stream, TaskTag,
};
use jsweep_graph::coarse::{ClusterTrace, CoarseSweepState};
use jsweep_graph::{Subgraph, SweepProblem, SweepState};
use jsweep_mesh::{PatchId, SweepTopology};
use jsweep_quadrature::QuadratureSet;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One patch's bin: the epoch-in-flight deposits plus the free list of
/// recycled accumulator buffers.
#[derive(Default)]
struct PatchBin {
    /// `(angle, w_a · ψ̄ per local cell × group)` contributions of the
    /// epoch in flight.
    deposits: Vec<(u32, Vec<f64>)>,
    /// Recycled buffers awaiting [`FluxBins::acquire`].
    free: Vec<Vec<f64>>,
}

/// Per-patch collection bins for scalar-flux contributions, with a
/// buffer pool that makes resident epochs allocation-free.
///
/// Each `(patch, angle)` program deposits `w_a · ψ̄` for its local
/// cells; the solver folds the bins in angle order after the sweep so
/// the floating-point result is independent of scheduling order.
/// Folding (and scrubbing) *recycles* every deposited buffer into the
/// patch's free list, and programs re-arm their `phi_part` accumulator
/// through [`FluxBins::acquire`] — so from the second epoch of a
/// resident universe on, the flux round-trip allocates nothing.
/// [`FluxBins::fresh_allocations`] counts pool misses, pinned by a
/// regression test so the round-trip cannot silently re-allocate.
pub struct FluxBins {
    bins: Vec<Mutex<PatchBin>>,
    fresh: AtomicU64,
}

impl FluxBins {
    /// Empty bins (and empty pools) for `num_patches` patches.
    pub fn new(num_patches: usize) -> FluxBins {
        FluxBins {
            bins: (0..num_patches)
                .map(|_| Mutex::new(PatchBin::default()))
                .collect(),
            fresh: AtomicU64::new(0),
        }
    }

    /// Number of patches covered.
    pub fn num_patches(&self) -> usize {
        self.bins.len()
    }

    /// Deposit one finished `(patch, angle)` contribution.
    pub fn deposit(&self, patch: usize, angle: u32, part: Vec<f64>) {
        self.bins[patch].lock().deposits.push((angle, part));
    }

    /// Take a zeroed accumulator of `len` for `patch`, reusing a
    /// recycled buffer when one with sufficient capacity is pooled.
    /// Undersized pool entries (the group count changed across a
    /// relaunch) are dropped; a pool miss allocates fresh and bumps
    /// [`FluxBins::fresh_allocations`].
    pub fn acquire(&self, patch: usize, len: usize) -> Vec<f64> {
        let recycled = {
            let mut bin = self.bins[patch].lock();
            loop {
                match bin.free.pop() {
                    Some(b) if b.capacity() >= len => break Some(b),
                    Some(_) => continue,
                    None => break None,
                }
            }
        };
        match recycled {
            Some(mut b) => {
                b.clear();
                b.resize(len, 0.0);
                b
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        }
    }

    /// Fold (and drain) the deposits into `φ_new`, in angle order per
    /// patch so the floating-point result is independent of scheduling
    /// order. Every drained buffer is recycled into its patch's pool,
    /// ready for the next epoch's [`FluxBins::acquire`].
    pub fn fold(&self, problem: &SweepProblem, n: usize, groups: usize) -> Vec<f64> {
        let mut phi_new = vec![0.0; n * groups];
        for p in problem.patches.patches() {
            let mut bin = self.bins[p.index()].lock();
            let bin = &mut *bin;
            bin.deposits.sort_by_key(|(angle, _)| *angle);
            let cells = problem.patches.cells(p);
            for (_, part) in bin.deposits.iter() {
                assert_eq!(part.len(), cells.len() * groups);
                for (li, &cell) in cells.iter().enumerate() {
                    for g in 0..groups {
                        phi_new[cell as usize * groups + g] += part[li * groups + g];
                    }
                }
            }
            bin.free
                .extend(bin.deposits.drain(..).map(|(_, part)| part));
        }
        phi_new
    }

    /// Drop all pending deposits, recycling their buffers. Used to
    /// scrub partial contributions after a faulted epoch — the buffers
    /// themselves stay reusable.
    pub fn clear(&self) {
        for bin in &self.bins {
            let mut bin = bin.lock();
            let bin = &mut *bin;
            bin.free
                .extend(bin.deposits.drain(..).map(|(_, part)| part));
        }
    }

    /// Accumulator buffers allocated fresh (pool misses) since
    /// construction. Steady state for a resident universe is one per
    /// `(patch, angle)` program, all paid on the first epoch.
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }
}

/// Which scheduling mode the sweep programs of one iteration run in.
#[derive(Clone)]
pub enum SweepMode {
    /// Per-vertex DAG-driven sweep. With `trace_bins` set, every task
    /// records its [`ClusterTrace`] and deposits it on completion —
    /// the recording pass of §V-E.
    Fine {
        /// Trace sink, indexed by [`SweepProblem::tid`].
        trace_bins: Option<Arc<TraceBins>>,
    },
    /// Coarse-graph replay of a previously compiled [`CoarsePlan`].
    Coarse {
        /// The plan built from the recording iteration's traces.
        plan: Arc<CoarsePlan>,
    },
}

/// Per-epoch input of a resident sweep universe: what changes between
/// source iterations. Handed to `jsweep_core::Universe::run_epoch`;
/// every resident [`SweepProgram`] downcasts it in its
/// [`PatchProgram::reset`].
pub struct SweepEpoch {
    /// This iteration's emission density `(σ_s φ + Q)/4π` per
    /// `cell * groups + g`.
    pub emission: Arc<Vec<f64>>,
    /// This iteration's scheduling mode (fine/record vs replay).
    pub mode: SweepMode,
    /// Material perturbation: `Some` swaps the resident programs'
    /// cross sections for this epoch (same mesh, same group count —
    /// the buffer shapes are fixed at program creation). `None` keeps
    /// the materials the programs already hold. This is what lets one
    /// resident session universe serve solve requests with different
    /// material sets without a relaunch.
    pub materials: Option<Arc<MaterialSet>>,
}

/// The cluster word of a fine stream, which names no coarse vertex.
const FINE_CLUSTER: u32 = u32::MAX;

/// Write a sweep stream's prefix: `u32 cluster`, `u32 item_count`, then
/// the consumer slot of every item. Fine streams write it per stream,
/// replay plans once per coarse edge ([`crate::replay::ReplayEmit`]).
pub(crate) fn put_stream_head(
    w: &mut Writer,
    cluster: u32,
    slots: impl ExactSizeIterator<Item = u32>,
) {
    w.put_u32(cluster);
    w.put_u32(slots.len() as u32);
    for slot in slots {
        w.put_u32(slot);
    }
}

/// Everything the sweep programs of one source iteration share.
pub struct SweepSetup<T: SweepTopology + Send + Sync + 'static> {
    /// The mesh.
    pub mesh: Arc<T>,
    /// Compiled subgraphs + priorities.
    pub problem: Arc<SweepProblem>,
    /// Quadrature set (directions + weights).
    pub quadrature: QuadratureSet,
    /// Materials.
    pub materials: Arc<MaterialSet>,
    /// Emission density `(σ_s φ + Q)/4π` per `cell * groups + g`.
    pub emission: Arc<Vec<f64>>,
    /// Cell kernel.
    pub kernel: KernelKind,
    /// Vertex clustering grain `N`.
    pub grain: usize,
    /// Scalar-flux bins, indexed by patch.
    pub flux_bins: Arc<FluxBins>,
    /// Scheduling mode of this iteration (fine/record vs replay).
    pub mode: SweepMode,
}

/// The factory handed to the JSweep runtime: one program per
/// `(patch, angle)`.
pub struct SweepFactory<T: SweepTopology + Send + Sync + 'static> {
    setup: SweepSetup<T>,
}

impl<T: SweepTopology + Send + Sync + 'static> SweepFactory<T> {
    /// Wrap a setup.
    pub fn new(setup: SweepSetup<T>) -> SweepFactory<T> {
        assert!(setup.grain > 0);
        assert_eq!(setup.materials.num_cells(), setup.mesh.num_cells());
        SweepFactory { setup }
    }
}

/// Per-program scheduling state: the fine/coarse counterpart of the
/// shared [`SweepMode`].
enum Sched {
    /// DAG-driven execution; `trace` is `Some` while recording.
    Fine {
        state: SweepState,
        trace: Option<(ClusterTrace, Arc<TraceBins>)>,
    },
    /// Coarse replay over the compiled task. `vertices_left` tracks the
    /// remaining workload in vertex units (the unit counting
    /// termination accounts in), not clusters.
    Coarse {
        state: CoarseSweepState,
        task: Arc<ReplayTask>,
        vertices_left: u64,
    },
}

/// The patch-program of one `(patch, angle)` sweep task.
pub struct SweepProgram<T: SweepTopology + Send + Sync + 'static> {
    id: ProgramId,
    setup_mesh: Arc<T>,
    problem: Arc<SweepProblem>,
    materials: Arc<MaterialSet>,
    emission: Arc<Vec<f64>>,
    flux_bins: Arc<FluxBins>,
    kernel: KernelKind,
    grain: usize,
    groups: usize,
    weight: f64,
    dir: [f64; 3],
    max_faces: usize,
    /// Scheduling state (fine counters + ready queue, or coarse replay).
    sched: Sched,
    /// Incoming face flux per `local_cell * max_faces * groups`
    /// (zeroed in place at epoch resets — never reallocated).
    face_flux: Vec<f64>,
    /// Scalar-flux accumulation per `local_cell * groups` (w_a · ψ̄).
    /// Handed to the flux bin on completion (the one buffer that is
    /// given away per epoch by design).
    phi_part: Vec<f64>,
    /// Outgoing remote face-flux staging per
    /// `fine_remote_edge * groups`, addressed by the subgraph's remote
    /// CSR in both scheduling modes: the group-block kernel passes
    /// write block sub-slices here, and both modes pack their stream
    /// flux blocks from it.
    remote_vals: Vec<f64>,
    /// Fine-path scratch: a cluster's `(consumer patch, remote-CSR
    /// index)` pairs, grouped into one stream per patch (reused across
    /// compute calls).
    emit_scratch: Vec<(PatchId, u32)>,
    /// Ingest scratch: the slot block of the stream being consumed
    /// (reused across inputs).
    slot_scratch: Vec<u32>,
    /// Per-cluster hoisted cell geometry (phase 0 of
    /// [`SweepProgram::kernel_cluster`]; reused across calls).
    geom_scratch: Vec<CellGeom>,
}

impl<T: SweepTopology + Send + Sync + 'static> SweepProgram<T> {
    /// Run the numerical kernel over `cluster` (in order): solve every
    /// cell, accumulate the angular-weighted scalar flux, write local
    /// downwind face fluxes in place and stage remote ones in
    /// `remote_vals` (CSR-addressed, packed into streams by both
    /// modes). Identical physics in both scheduling modes — which is
    /// what makes the coarse replay bit-identical to the fine path.
    ///
    /// Cache-blocked: phase 0 hoists per-cell geometry ([`CellGeom`])
    /// once; phase 1 then streams the cell list once per
    /// [`GROUP_BLOCK`]-wide group block, so each pass touches
    /// contiguous block sub-slices of `face_flux` / `phi_part` /
    /// `remote_vals` and the innermost group loops autovectorize (see
    /// [`crate::kernel`]). Outgoing blocks go straight to the slots the
    /// subgraph's edges name (cycle-broken edges are not stored, so the
    /// consumer keeps its vacuum face). Every pass walks the cluster in
    /// its (topological) order, which preserves in-cluster
    /// upwind/downwind dependencies per block exactly as the scalar
    /// path did per group.
    fn kernel_cluster(&mut self, sub: &Subgraph, cluster: &[u32]) {
        let mesh = self.setup_mesh.clone();
        let materials = self.materials.clone();
        let emission = self.emission.clone();
        let groups = self.groups;
        let mf = self.max_faces;

        // Phase 0 — hoist geometry once per cluster instead of once per
        // (cell, group): the structured mesh's per-call FaceInfo
        // arithmetic drops out of the group loop entirely.
        let mut geoms = std::mem::take(&mut self.geom_scratch);
        geoms.clear();
        geoms.extend(
            cluster
                .iter()
                .map(|&v| CellGeom::new(mesh.as_ref(), sub.cells[v as usize] as usize, self.dir)),
        );

        // Phase 1 — group-block passes over the cluster's cell list.
        let mut vals = std::mem::take(&mut self.remote_vals);
        let mut g0 = 0;
        while g0 < groups {
            let b = GROUP_BLOCK.min(groups - g0);
            for (i, &v) in cluster.iter().enumerate() {
                let cell = sub.cells[v as usize] as usize;
                let geom = &geoms[i];
                let mat = materials.material(cell);
                // Outgoing block scratch lives on the stack
                // (GROUP_BLOCK-strided even for the tail block); the
                // incoming view reads `face_flux` directly — earlier
                // cells of this pass have already written this cell's
                // upwind slots for the block's groups.
                let mut out = [0.0f64; KERNEL_MAX_FACES * GROUP_BLOCK];
                let mut psi = [0.0f64; GROUP_BLOCK];
                let in_base = (v as usize * mf) * groups + g0;
                let q_base = cell * groups + g0;
                solve_cell_block_geom(
                    geom,
                    self.kernel,
                    &mat.sigma_t[g0..g0 + b],
                    &emission[q_base..q_base + b],
                    &self.face_flux[in_base..],
                    groups,
                    &mut out,
                    GROUP_BLOCK,
                    &mut psi,
                );
                // Accumulate the angular-weighted cell flux.
                let phi_base = v as usize * groups + g0;
                let phi = &mut self.phi_part[phi_base..phi_base + b];
                for (p, &x) in phi.iter_mut().zip(psi.iter()) {
                    *p += self.weight * x;
                }
                // Route the outgoing face-flux blocks along the edges.
                let block = |f: u8| &out[f as usize * GROUP_BLOCK..][..b];
                for e in sub.int_range(v) {
                    let s = sub.int_slot[e] as usize * groups + g0;
                    self.face_flux[s..s + b].copy_from_slice(block(sub.int_face[e]));
                }
                for k in sub.rem_range(v) {
                    let s = k * groups + g0;
                    vals[s..s + b].copy_from_slice(block(sub.rem_dst[k].face));
                }
            }
            g0 += b;
        }
        self.remote_vals = vals;
        self.geom_scratch = geoms;
    }

    /// Pack one sweep stream to `(patch, this angle)`: `w` already holds
    /// the prefix (see [`put_stream_head`]); append the flux block of
    /// `edges` (remote-CSR indices) from the staging. Both modes pack
    /// through here.
    fn pack_stream(
        &self,
        mut w: Writer,
        patch: PatchId,
        edges: impl Iterator<Item = usize>,
    ) -> Stream {
        for k in edges {
            for g in 0..self.groups {
                w.put_f64(self.remote_vals[k * self.groups + g]);
            }
        }
        Stream {
            src: self.id,
            dst: ProgramId::new(patch, self.id.task),
            payload: w.finish(),
        }
    }

    /// Fine-mode `compute()`: pop a cluster of ready vertices
    /// (recording it when tracing), run the kernel, emit one stream per
    /// target patch (clustering aggregates messages, §V-C benefit 2).
    fn compute_fine(&mut self, ctx: &mut ComputeCtx, sub: &Subgraph) {
        let Sched::Fine { state, trace } = &mut self.sched else {
            unreachable!("compute_fine on a coarse program");
        };
        // DAG bookkeeping: pop a cluster of ready vertices.
        let cluster = state.pop_cluster(sub, self.grain, |_, _| {});
        if cluster.is_empty() {
            return;
        }
        if let Some((t, _)) = trace {
            t.record(cluster.clone());
        }
        ctx.work_done = cluster.len() as u64;

        let mut edges = std::mem::take(&mut self.emit_scratch);
        let streams = ctx.kernel(|| {
            self.kernel_cluster(sub, &cluster);
            // One stream per target patch, in patch order, its items in
            // (vertex, remote-CSR) order: the stable sort keeps the CSR
            // (face) order within each patch.
            edges.clear();
            for &v in &cluster {
                edges.extend(sub.rem_range(v).map(|k| (sub.rem_dst[k].patch, k as u32)));
            }
            edges.sort_by_key(|&(patch, _)| patch);
            edges
                .chunk_by(|a, b| a.0 == b.0)
                .map(|run| {
                    let mut w = Writer::with_capacity(8 + run.len() * (4 + 8 * self.groups));
                    let slots = run.iter().map(|&(_, k)| sub.rem_dst[k as usize].slot);
                    put_stream_head(&mut w, FINE_CLUSTER, slots);
                    self.pack_stream(w, run[0].0, run.iter().map(|&(_, k)| k as usize))
                })
                .collect::<Vec<_>>()
        });
        self.emit_scratch = edges;
        for stream in streams {
            ctx.send(stream);
        }

        // On completion, deposit the scalar-flux contribution and, when
        // recording, the cluster trace.
        let Sched::Fine { state, trace } = &mut self.sched else {
            unreachable!();
        };
        if state.is_complete() {
            if let Some((t, bins)) = trace.take() {
                let tid = self
                    .problem
                    .tid(self.id.patch.index(), self.id.task.0 as usize);
                *bins[tid].lock() = Some(t);
            }
            self.deposit_flux();
        }
    }

    /// Coarse-mode `compute()` (§V-E replay): pop one whole coarse
    /// vertex, execute its recorded vertex list in order, and emit
    /// exactly one stream per outgoing coarse edge — no per-vertex
    /// in-degree bookkeeping, no priority recomputation.
    fn compute_coarse(&mut self, ctx: &mut ComputeCtx, sub: &Subgraph) {
        let (task, cv) = {
            let Sched::Coarse {
                state,
                task,
                vertices_left,
            } = &mut self.sched
            else {
                unreachable!("compute_coarse on a fine program");
            };
            let Some(cv) = state.pop(&task.coarse) else {
                return;
            };
            *vertices_left -= task.coarse.clusters[cv as usize].len() as u64;
            (task.clone(), cv)
        };
        let cluster = &task.coarse.clusters[cv as usize];
        // ClusterTrace::record drops empty clusters, so a compiled
        // coarse vertex is never empty; executing one would emit its
        // coarse edges without computing anything.
        assert!(
            !cluster.is_empty(),
            "coarse replay scheduled an empty compute cluster (trace contract violated)"
        );
        ctx.work_done = cluster.len() as u64;

        // Serialization happens inside the kernel closure, exactly as
        // the fine path packs its streams there — keeping the
        // Kernel/GraphOp split comparable between the two modes.
        let streams = ctx.kernel(|| {
            self.kernel_cluster(sub, cluster);
            // One stream per outgoing coarse edge: the pre-packed
            // skeleton (one memcpy), then the flux block.
            task.emits[cv as usize]
                .iter()
                .map(|emit| {
                    let cap = emit.skeleton.len() + emit.items.len() * 8 * self.groups;
                    let mut w = Writer::with_capacity(cap);
                    w.put_bytes(&emit.skeleton);
                    let edges = emit.items.iter().map(|item| item.rem_idx as usize);
                    self.pack_stream(w, emit.patch, edges)
                })
                .collect::<Vec<_>>()
        });
        for stream in streams {
            ctx.send(stream);
        }

        let Sched::Coarse { state, .. } = &self.sched else {
            unreachable!();
        };
        if state.is_complete() {
            self.deposit_flux();
        }
    }

    /// Deposit the finished scalar-flux contribution into the patch
    /// bin. The buffer comes back through [`FluxBins::acquire`] at the
    /// next epoch's reset — the flux round-trip.
    fn deposit_flux(&mut self) {
        let part = std::mem::take(&mut self.phi_part);
        self.flux_bins
            .deposit(self.id.patch.index(), self.id.task.0, part);
    }
}

impl<T: SweepTopology + Send + Sync + 'static> PatchProgram for SweepProgram<T> {
    fn init(&mut self) {
        // State is built in `create`; nothing further. Boundary faces
        // already hold the vacuum condition (zeros).
    }

    fn input(&mut self, _src: ProgramId, payload: Bytes) {
        // The slot block, then the flux block written slot by slot —
        // plain indexed writes, no adjacency lookup — then the mode's
        // in-degree step.
        let mut r = Reader::new(payload);
        let cluster = r.get_u32();
        let n = r.get_u32() as usize;
        self.slot_scratch.clear();
        self.slot_scratch.extend((0..n).map(|_| r.get_u32()));
        for &slot in &self.slot_scratch {
            let s = slot as usize * self.groups;
            for x in &mut self.face_flux[s..s + self.groups] {
                *x = r.get_f64();
            }
        }
        match &mut self.sched {
            Sched::Fine { state, .. } => {
                for &slot in &self.slot_scratch {
                    state.receive(slot / self.max_faces as u32);
                }
            }
            Sched::Coarse { state, .. } => state.receive(cluster),
        }
    }

    fn compute(&mut self, ctx: &mut ComputeCtx) {
        let (p, a) = (self.id.patch.index(), self.id.task.0 as usize);
        let subs_arc = self.problem.subs[a].clone();
        let sub = &subs_arc[p];
        if matches!(self.sched, Sched::Coarse { .. }) {
            self.compute_coarse(ctx, sub);
        } else {
            self.compute_fine(ctx, sub);
        }
    }

    fn vote_to_halt(&self) -> bool {
        match &self.sched {
            Sched::Fine { state, .. } => !state.has_ready(),
            Sched::Coarse { state, .. } => !state.has_ready(),
        }
    }

    fn remaining_work(&self) -> u64 {
        match &self.sched {
            Sched::Fine { state, .. } => state.remaining(),
            Sched::Coarse { vertices_left, .. } => *vertices_left,
        }
    }

    /// Re-arm this resident program for the next source iteration
    /// (persistent-universe epoch): swap in the epoch's emission
    /// density and scheduling mode, reset the scheduling state in
    /// place (same-mode epochs reuse the existing
    /// [`SweepState`]/[`CoarseSweepState`] allocations; a mode switch
    /// builds the new state once), zero `face_flux` in place and
    /// restore the flux accumulator. The big buffers are never
    /// reallocated across same-mode epochs.
    fn reset(&mut self, epoch: &EpochInput) {
        let e = epoch
            .downcast_ref::<SweepEpoch>()
            .expect("SweepProgram reset with a non-SweepEpoch input");
        assert_eq!(
            e.emission.len(),
            self.setup_mesh.num_cells() * self.groups,
            "epoch emission density has the wrong shape"
        );
        self.emission = e.emission.clone();
        if let Some(m) = &e.materials {
            assert_eq!(
                m.num_cells(),
                self.setup_mesh.num_cells(),
                "epoch materials must cover the resident mesh"
            );
            assert_eq!(
                m.num_groups(),
                self.groups,
                "epoch materials cannot change the group count of a resident program"
            );
            self.materials = m.clone();
        }
        let problem = self.problem.clone();
        let (p, a) = (self.id.patch.index(), self.id.task.0 as usize);
        let sub = &problem.subs[a][p];
        match (&mut self.sched, &e.mode) {
            (Sched::Fine { state, trace }, SweepMode::Fine { trace_bins }) => {
                state.reset(sub);
                *trace = trace_bins
                    .as_ref()
                    .filter(|_| problem.canonical_angle(a) == a)
                    .map(|bins| (ClusterTrace::default(), bins.clone()));
            }
            (
                Sched::Coarse {
                    state,
                    task,
                    vertices_left,
                },
                SweepMode::Coarse { plan },
            ) if Arc::ptr_eq(task, &plan.tasks[a][p]) => {
                // Same compiled task: pure in-place re-arm.
                state.reset(&task.coarse);
                *vertices_left = task.coarse.num_vertices() as u64;
            }
            (sched, SweepMode::Coarse { plan }) => {
                // Fine → coarse transition (or a recompiled plan):
                // adopt the new task; later epochs reset it in place.
                let task = plan.tasks[a][p].clone();
                *sched = Sched::Coarse {
                    state: CoarseSweepState::new(&task.coarse),
                    vertices_left: task.coarse.num_vertices() as u64,
                    task,
                };
            }
            (sched, SweepMode::Fine { trace_bins }) => {
                // Coarse → fine transition (coarsening disabled
                // mid-solve): rebuild the fine state.
                let prio = problem.vprio[a][p].clone();
                *sched = Sched::Fine {
                    state: SweepState::new(sub, prio),
                    trace: trace_bins
                        .as_ref()
                        .filter(|_| problem.canonical_angle(a) == a)
                        .map(|bins| (ClusterTrace::default(), bins.clone())),
                };
            }
        }
        // Buffer hygiene: incoming face flux back to the vacuum
        // boundary condition in place; the flux accumulator (handed to
        // the bin last epoch) re-acquired from the pool — the buffer
        // some program of this patch deposited last epoch, so resident
        // epochs allocate nothing; remote staging sized to the
        // subgraph's remote CSR (values are written before read within
        // each compute, so no zeroing needed beyond sizing).
        self.face_flux.iter_mut().for_each(|x| *x = 0.0);
        let n = sub.num_vertices();
        if self.phi_part.capacity() < n * self.groups {
            // Deposited (or never shaped): round-trip via the pool.
            self.phi_part = self
                .flux_bins
                .acquire(self.id.patch.index(), n * self.groups);
        } else {
            // Never deposited (e.g. the last epoch faulted before this
            // program completed): re-zero in place.
            self.phi_part.clear();
            self.phi_part.resize(n * self.groups, 0.0);
        }
        self.remote_vals
            .resize(sub.rem_dst.len() * self.groups, 0.0);
    }
}

impl<T: SweepTopology + Send + Sync + 'static> ProgramFactory for SweepFactory<T> {
    type Program = SweepProgram<T>;

    fn create(&self, id: ProgramId) -> SweepProgram<T> {
        let s = &self.setup;
        let (p, a) = (id.patch.index(), id.task.0 as usize);
        let sub = &s.problem.subs[a][p];
        let groups = s.materials.num_groups();
        let mf = s.problem.max_faces;
        let n = sub.num_vertices();
        let sched = match &s.mode {
            SweepMode::Fine { trace_bins } => Sched::Fine {
                state: SweepState::new(sub, s.problem.vprio[a][p].clone()),
                // Only canonical angles record: octant members
                // share the canonical DAG, so one trace per
                // octant serves every member at replay time.
                trace: trace_bins
                    .as_ref()
                    .filter(|_| s.problem.canonical_angle(a) == a)
                    .map(|bins| (ClusterTrace::default(), bins.clone())),
            },
            SweepMode::Coarse { plan } => {
                let task = plan.tasks[a][p].clone();
                Sched::Coarse {
                    state: CoarseSweepState::new(&task.coarse),
                    vertices_left: task.coarse.num_vertices() as u64,
                    task,
                }
            }
        };
        SweepProgram {
            id,
            setup_mesh: s.mesh.clone(),
            problem: s.problem.clone(),
            materials: s.materials.clone(),
            emission: s.emission.clone(),
            flux_bins: s.flux_bins.clone(),
            kernel: s.kernel,
            grain: s.grain,
            groups,
            weight: s
                .quadrature
                .ordinate(jsweep_quadrature::AngleId(id.task.0))
                .weight,
            dir: s
                .quadrature
                .direction(jsweep_quadrature::AngleId(id.task.0)),
            max_faces: mf,
            sched,
            face_flux: vec![0.0; n * mf * groups],
            phi_part: s.flux_bins.acquire(id.patch.index(), n * groups),
            remote_vals: vec![0.0; sub.rem_dst.len() * groups],
            emit_scratch: Vec::new(),
            slot_scratch: Vec::new(),
            geom_scratch: Vec::new(),
        }
    }

    fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
        let s = &self.setup;
        let mut ids = Vec::new();
        for p in s.problem.patches.patches_on_rank(rank) {
            for a in 0..s.problem.num_angles {
                ids.push(ProgramId::new(p, TaskTag(a as u32)));
            }
        }
        ids
    }

    fn rank_of(&self, id: ProgramId) -> usize {
        self.setup.problem.patches.rank_of(id.patch)
    }

    fn priority(&self, id: ProgramId) -> i64 {
        self.setup.problem.pprio[id.task.0 as usize][id.patch.index()]
    }

    fn initial_workload(&self, id: ProgramId) -> u64 {
        let (p, a) = (id.patch.index(), id.task.0 as usize);
        self.setup.problem.subs[a][p].num_vertices() as u64
    }
}
