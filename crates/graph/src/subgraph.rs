//! Construction of the per-(patch, angle) induced subgraph `G_{p,t}`.
//!
//! Vertices are the patch's local cells (for one sweep direction); an
//! edge `(u, v)` means `v` consumes `u`'s outgoing face flux. Edges
//! internal to the patch are stored as a CSR list over local indices;
//! edges leaving the patch are stored as [`RemoteEdge`]s addressed by
//! `(target patch, target global cell)` — at run time they become
//! stream items. The in-degree counter of a vertex counts *all* upwind
//! interior faces, local and remote alike, exactly matching what the
//! Listing-1 `init`/`input`/`compute` functions decrement.
//!
//! Every edge also carries its route: the source face the flux leaves
//! through and the consumer's face-flux slot
//! (`local_index(dst) * max_faces + face of dst toward src`), resolved
//! once per mesh through [`ReciprocalFaces`]. The transport writes and
//! ships these slots as they are; nothing downstream scans faces.

use jsweep_mesh::{PatchId, PatchSet, SweepTopology};
use jsweep_quadrature::AngleId;
use std::collections::HashSet;

/// The reciprocal-face table of a mesh: for every interior face
/// `(cell, f)`, the face of the neighbour that touches `cell` back.
/// Built once per mesh (by [`crate::SweepProblem::build`]) and shared
/// by the subgraphs of every angle, so a downwind edge becomes its
/// consumer slot without a per-edge face scan.
pub struct ReciprocalFaces {
    max_faces: usize,
    /// `back[cell * max_faces + f]`; `u8::MAX` on boundary faces.
    back: Vec<u8>,
}

impl ReciprocalFaces {
    /// Resolve every interior face of `mesh` once.
    pub fn new<T: SweepTopology + ?Sized>(mesh: &T) -> ReciprocalFaces {
        let n = mesh.num_cells();
        let max_faces = (0..n).map(|c| mesh.num_faces(c)).max().unwrap_or(0);
        assert!(max_faces < u8::MAX as usize, "cell with {max_faces} faces");
        let mut back = vec![u8::MAX; n * max_faces];
        for c in 0..n {
            for f in 0..mesh.num_faces(c) {
                if let Some(nb) = mesh.face(c, f).neighbor.cell() {
                    let g = jsweep_mesh::face_toward(mesh, nb, c)
                        .expect("interior face without a reciprocal face");
                    back[c * max_faces + f] = g as u8;
                }
            }
        }
        ReciprocalFaces { max_faces, back }
    }

    /// Face slots per cell: the largest face count of any mesh cell.
    pub fn max_faces(&self) -> usize {
        self.max_faces
    }

    /// Consumer slot of the edge leaving `cell` through face `f` into
    /// interior neighbour `nb`.
    fn slot(&self, patches: &PatchSet, cell: usize, f: usize, nb: usize) -> u32 {
        let g = self.back[cell * self.max_faces + f] as usize;
        (patches.local_index(nb) * self.max_faces + g) as u32
    }
}

/// A downwind dependency crossing the patch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteEdge {
    /// Patch owning the consumer cell.
    pub patch: PatchId,
    /// Consumer cell (global id).
    pub cell: u32,
    /// Consumer face-flux slot on the consumer patch.
    pub slot: u32,
    /// Source face the flux leaves through.
    pub face: u8,
}

/// The induced subgraph of one `(patch, angle)` sweep task.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The patch this subgraph belongs to.
    pub patch: PatchId,
    /// The sweep angle (task tag).
    pub angle: AngleId,
    /// Global cell id of each local vertex.
    pub cells: Vec<u32>,
    /// Number of upwind interior faces per local vertex (local + remote).
    pub in_degree: Vec<u32>,
    /// CSR offsets of internal downwind edges.
    pub int_off: Vec<u32>,
    /// Internal downwind targets (local vertex indices).
    pub int_dst: Vec<u32>,
    /// Source face of each internal edge (parallel to `int_dst`).
    pub int_face: Vec<u8>,
    /// Consumer face-flux slot of each internal edge (parallel to
    /// `int_dst`).
    pub int_slot: Vec<u32>,
    /// CSR offsets of remote downwind edges.
    pub rem_off: Vec<u32>,
    /// Remote downwind targets.
    pub rem_dst: Vec<RemoteEdge>,
}

impl Subgraph {
    /// Build `G_{p,t}` for patch `p` and direction `dir`. Each vertex's
    /// edges are stored in face order.
    ///
    /// `broken` lists `(src_cell, dst_cell)` global pairs removed by the
    /// cycle breaker; pass an empty set for ordinary meshes.
    pub fn build<T: SweepTopology + ?Sized>(
        mesh: &T,
        faces: &ReciprocalFaces,
        patches: &PatchSet,
        patch: PatchId,
        angle: AngleId,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) -> Subgraph {
        let cells: Vec<u32> = patches.cells(patch).to_vec();
        let n = cells.len();
        let mut in_degree = vec![0u32; n];
        let mut int_off = Vec::with_capacity(n + 1);
        let mut rem_off = Vec::with_capacity(n + 1);
        int_off.push(0u32);
        rem_off.push(0u32);
        // Sized for half of all faces downwind and trimmed at the end:
        // growing three edge arrays from empty costs more reallocations
        // than the rest of the build.
        let cap = n * faces.max_faces() / 2;
        let mut int_dst = Vec::with_capacity(cap);
        let mut int_face = Vec::with_capacity(cap);
        let mut int_slot = Vec::with_capacity(cap);
        let mut rem_dst = Vec::new();

        for (li, &cell) in cells.iter().enumerate() {
            let c = cell as usize;
            for f in 0..mesh.num_faces(c) {
                let face = mesh.face(c, f);
                let flow = face.flow(dir);
                let Some(nb) = face.neighbor.cell() else {
                    continue;
                };
                if flow < 0.0 {
                    // Upwind interior face feeds this vertex — unless the
                    // cycle breaker removed the (nb -> c) edge.
                    if !broken.contains(&(nb as u32, cell)) {
                        in_degree[li] += 1;
                    }
                } else if flow > 0.0 {
                    if broken.contains(&(cell, nb as u32)) {
                        continue;
                    }
                    let slot = faces.slot(patches, c, f, nb);
                    let nb_patch = patches.patch_of(nb);
                    if nb_patch == patch {
                        int_dst.push(patches.local_index(nb) as u32);
                        int_face.push(f as u8);
                        int_slot.push(slot);
                    } else {
                        rem_dst.push(RemoteEdge {
                            patch: nb_patch,
                            cell: nb as u32,
                            slot,
                            face: f as u8,
                        });
                    }
                }
                // flow == 0: the face is parallel to the direction; no
                // dependency either way.
            }
            int_off.push(int_dst.len() as u32);
            rem_off.push(rem_dst.len() as u32);
        }
        int_dst.shrink_to_fit();
        int_face.shrink_to_fit();
        int_slot.shrink_to_fit();

        Subgraph {
            patch,
            angle,
            cells,
            in_degree,
            int_off,
            int_dst,
            int_face,
            int_slot,
            rem_off,
            rem_dst,
        }
    }

    /// Number of local vertices.
    pub fn num_vertices(&self) -> usize {
        self.cells.len()
    }

    /// Index range into `int_dst`/`int_face`/`int_slot` for local
    /// vertex `v`'s internal edges.
    #[inline]
    pub fn int_range(&self, v: u32) -> std::ops::Range<usize> {
        self.int_off[v as usize] as usize..self.int_off[v as usize + 1] as usize
    }

    /// Internal downwind targets of local vertex `v`.
    #[inline]
    pub fn internal_succ(&self, v: u32) -> &[u32] {
        &self.int_dst[self.int_range(v)]
    }

    /// Index range into `rem_dst` for local vertex `v`'s remote edges.
    #[inline]
    pub fn rem_range(&self, v: u32) -> std::ops::Range<usize> {
        self.rem_off[v as usize] as usize..self.rem_off[v as usize + 1] as usize
    }

    /// Remote downwind targets of local vertex `v`.
    #[inline]
    pub fn remote_succ(&self, v: u32) -> &[RemoteEdge] {
        &self.rem_dst[self.rem_range(v)]
    }

    /// Local vertices with at least one remote downwind edge (the patch
    /// "exit" vertices SLBD steers towards).
    pub fn exit_vertices(&self) -> Vec<u32> {
        (0..self.num_vertices() as u32)
            .filter(|&v| !self.remote_succ(v).is_empty())
            .collect()
    }

    /// Total internal + remote edges.
    pub fn num_edges(&self) -> usize {
        self.int_dst.len() + self.rem_dst.len()
    }

    /// The internal-edge graph as a generic CSR (for priority sweeps).
    pub fn internal_csr(&self) -> crate::dag::Csr {
        crate::dag::Csr {
            off: self.int_off.clone(),
            dst: self.int_dst.clone(),
        }
    }

    /// In-degree counting only internal edges (sources of the *local*
    /// DAG, used by priority computations that ignore remote inputs).
    pub fn internal_in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices()];
        for &d in &self.int_dst {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Build the subgraphs of *all* patches for one direction.
    pub fn build_all<T: SweepTopology + ?Sized>(
        mesh: &T,
        faces: &ReciprocalFaces,
        patches: &PatchSet,
        angle: AngleId,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) -> Vec<Subgraph> {
        patches
            .patches()
            .map(|p| Subgraph::build(mesh, faces, patches, p, angle, dir, broken))
            .collect()
    }
}

/// Sanity invariant used by tests and property checks: summed over all
/// patches of one direction, every internal+remote edge is matched by
/// exactly one unit of in-degree on its target.
pub fn check_edge_degree_balance(subs: &[Subgraph]) -> Result<(), String> {
    use std::collections::HashMap;
    // (patch index, local vertex) -> expected in-degree from edges.
    let mut incoming: HashMap<(u32, u32), u32> = HashMap::new();
    let mut local_of_cell: HashMap<u32, (u32, u32)> = HashMap::new();
    for sub in subs {
        for (li, &cell) in sub.cells.iter().enumerate() {
            local_of_cell.insert(cell, (sub.patch.0, li as u32));
        }
    }
    for sub in subs {
        for v in 0..sub.num_vertices() as u32 {
            for &d in sub.internal_succ(v) {
                *incoming.entry((sub.patch.0, d)).or_default() += 1;
            }
            for re in sub.remote_succ(v) {
                let &(p, lv) = local_of_cell
                    .get(&re.cell)
                    .ok_or_else(|| format!("remote edge to unknown cell {}", re.cell))?;
                if p != re.patch.0 {
                    return Err(format!(
                        "remote edge patch mismatch: cell {} is in patch {p}, edge says {}",
                        re.cell, re.patch.0
                    ));
                }
                *incoming.entry((p, lv)).or_default() += 1;
            }
        }
    }
    for sub in subs {
        for v in 0..sub.num_vertices() as u32 {
            let expect = incoming.get(&(sub.patch.0, v)).copied().unwrap_or(0);
            if expect != sub.in_degree[v as usize] {
                return Err(format!(
                    "patch {} vertex {v}: in_degree {} but {} incoming edges",
                    sub.patch.0, sub.in_degree[v as usize], expect
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_mesh::{partition, StructuredMesh};
    use jsweep_quadrature::QuadratureSet;

    fn setup() -> (StructuredMesh, PatchSet) {
        let m = StructuredMesh::unit(4, 4, 4);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        (m, ps)
    }

    #[test]
    fn corner_sources_have_zero_in_degree() {
        let m = StructuredMesh::unit(3, 3, 3);
        let ps = PatchSet::single(m.num_cells());
        let sub = Subgraph::build(
            &m,
            &ReciprocalFaces::new(&m),
            &ps,
            PatchId(0),
            AngleId(0),
            [1.0, 1.0, 1.0],
            &HashSet::new(),
        );
        // Only the (0,0,0) cell has no upwind interior faces.
        let sources: Vec<u32> = (0..sub.num_vertices() as u32)
            .filter(|&v| sub.in_degree[v as usize] == 0)
            .collect();
        assert_eq!(sources.len(), 1);
        assert_eq!(sub.cells[sources[0] as usize], m.cell_id(0, 0, 0) as u32);
    }

    #[test]
    fn single_patch_has_no_remote_edges() {
        let m = StructuredMesh::unit(3, 3, 3);
        let ps = PatchSet::single(m.num_cells());
        let sub = Subgraph::build(
            &m,
            &ReciprocalFaces::new(&m),
            &ps,
            PatchId(0),
            AngleId(0),
            [1.0, 0.5, 0.25],
            &HashSet::new(),
        );
        assert!(sub.rem_dst.is_empty());
        assert_eq!(
            sub.int_dst.len(),
            sub.in_degree.iter().map(|&d| d as usize).sum::<usize>()
        );
    }

    #[test]
    fn edge_degree_balance_across_patches() {
        let (m, ps) = setup();
        let q = QuadratureSet::sn(2);
        for (a, o) in q.iter() {
            let subs = Subgraph::build_all(
                &m,
                &ReciprocalFaces::new(&m),
                &ps,
                a,
                o.dir,
                &HashSet::new(),
            );
            check_edge_degree_balance(&subs).unwrap();
        }
    }

    #[test]
    fn opposite_directions_swap_degrees() {
        let (m, ps) = setup();
        let subs_fwd = Subgraph::build_all(
            &m,
            &ReciprocalFaces::new(&m),
            &ps,
            AngleId(0),
            [1.0, 1.0, 1.0],
            &HashSet::new(),
        );
        let subs_bwd = Subgraph::build_all(
            &m,
            &ReciprocalFaces::new(&m),
            &ps,
            AngleId(1),
            [-1.0, -1.0, -1.0],
            &HashSet::new(),
        );
        let total_edges_fwd: usize = subs_fwd.iter().map(|s| s.num_edges()).sum();
        let total_edges_bwd: usize = subs_bwd.iter().map(|s| s.num_edges()).sum();
        assert_eq!(total_edges_fwd, total_edges_bwd);
    }

    #[test]
    fn exit_vertices_touch_patch_boundary() {
        let (m, ps) = setup();
        let subs = Subgraph::build_all(
            &m,
            &ReciprocalFaces::new(&m),
            &ps,
            AngleId(0),
            [1.0, 1.0, 1.0],
            &HashSet::new(),
        );
        for sub in &subs {
            for v in sub.exit_vertices() {
                assert!(!sub.remote_succ(v).is_empty());
            }
        }
        // The overall last patch in the sweep direction has no exits on
        // its far corner; at least one patch must have exits.
        assert!(subs.iter().any(|s| !s.exit_vertices().is_empty()));
    }

    #[test]
    fn broken_edges_are_skipped_on_both_sides() {
        let m = StructuredMesh::unit(2, 1, 1);
        let ps = PatchSet::single(2);
        let mut broken = HashSet::new();
        broken.insert((0u32, 1u32));
        let sub = Subgraph::build(
            &m,
            &ReciprocalFaces::new(&m),
            &ps,
            PatchId(0),
            AngleId(0),
            [1.0, 0.0, 0.0],
            &broken,
        );
        assert_eq!(sub.in_degree, vec![0, 0]);
        assert!(sub.int_dst.is_empty());
    }

    #[test]
    fn internal_csr_matches_edges() {
        let (m, ps) = setup();
        let sub = Subgraph::build(
            &m,
            &ReciprocalFaces::new(&m),
            &ps,
            PatchId(0),
            AngleId(0),
            [1.0, 1.0, 1.0],
            &HashSet::new(),
        );
        let csr = sub.internal_csr();
        assert_eq!(csr.num_edges(), sub.int_dst.len());
        assert!(crate::dag::is_acyclic(&csr));
    }

    #[test]
    fn tet_subgraphs_balance() {
        let m = jsweep_mesh::tetgen::ball(3, 1.0);
        let ps = partition::decompose_unstructured(&m, 40, 2);
        let q = QuadratureSet::sn(2);
        for (a, o) in q.iter().take(3) {
            let subs = Subgraph::build_all(
                &m,
                &ReciprocalFaces::new(&m),
                &ps,
                a,
                o.dir,
                &HashSet::new(),
            );
            check_edge_degree_balance(&subs).unwrap();
            for sub in &subs {
                assert!(crate::dag::is_acyclic(&sub.internal_csr()));
            }
        }
    }
}
