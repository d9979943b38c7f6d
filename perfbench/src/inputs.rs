//! Seeded input generation. The seed picks material values, the
//! per-cell material map and the session's ticket mix; the solver only
//! ever sees the generated `MaterialSet`s.

use jsweep_transport::{Material, MaterialSet};

/// splitmix64: small, seedable, and the same stream on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an independent `stream` id.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Two materials with seed-chosen per-group data. Every cross section
/// and source is bounded away from zero, so the flux stays far from
/// subnormal numbers whatever the seed.
fn random_materials(rng: &mut Rng, groups: usize) -> Vec<Material> {
    (0..2)
        .map(|_| {
            let sigma_t: Vec<f64> = (0..groups).map(|_| rng.uniform(0.5, 1.5)).collect();
            let sigma_s = sigma_t.iter().map(|&t| t * rng.uniform(0.3, 0.9)).collect();
            let source = (0..groups).map(|_| rng.uniform(0.5, 2.0)).collect();
            Material {
                sigma_t,
                sigma_s,
                source,
            }
        })
        .collect()
}

/// A seed-chosen material per cell.
fn random_assignment(rng: &mut Rng, num_cells: usize) -> Vec<u16> {
    (0..num_cells).map(|_| rng.below(2) as u16).collect()
}

/// Seed-chosen materials and material map.
pub fn materials(rng: &mut Rng, num_cells: usize, groups: usize) -> MaterialSet {
    let mats = random_materials(rng, groups);
    MaterialSet::new(mats, random_assignment(rng, num_cells))
}

/// `count` seed-chosen material sets that differ only in their
/// scattering cross sections: one material map and one set of σ_t and
/// sources, with a seed-chosen scattering ratio σ_s/σ_t per variant
/// and material.
pub fn scattering_variants(
    rng: &mut Rng,
    num_cells: usize,
    groups: usize,
    count: usize,
) -> Vec<MaterialSet> {
    let base = random_materials(rng, groups);
    let assign = random_assignment(rng, num_cells);
    (0..count)
        .map(|_| {
            let mats = base
                .iter()
                .map(|m| {
                    let ratio = rng.uniform(0.3, 0.95);
                    Material {
                        sigma_s: m.sigma_t.iter().map(|&t| t * ratio).collect(),
                        ..m.clone()
                    }
                })
                .collect();
            MaterialSet::new(mats, assign.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = materials(&mut Rng::new(5, 0), 100, 3);
        let b = materials(&mut Rng::new(5, 0), 100, 3);
        let c = materials(&mut Rng::new(6, 0), 100, 3);
        for cell in 0..100 {
            assert_eq!(a.material(cell), b.material(cell));
        }
        assert!((0..100).any(|cell| a.material(cell) != c.material(cell)));
    }

    #[test]
    fn variants_change_only_scattering() {
        let vs = scattering_variants(&mut Rng::new(9, 1), 64, 4, 8);
        assert_eq!(vs.len(), 8);
        for v in &vs {
            for cell in 0..64 {
                let (m, b) = (v.material(cell), vs[0].material(cell));
                assert_eq!(m.sigma_t, b.sigma_t);
                assert_eq!(m.source, b.source);
                assert!(m.sigma_s.iter().zip(&m.sigma_t).all(|(s, t)| s < t));
            }
        }
        assert!((0..64).any(|c| vs[0].material(c).sigma_s != vs[1].material(c).sigma_s));
    }
}
