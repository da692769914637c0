//! Generic workload generators: Gaussian mixtures on grids and Zipf
//! histograms on ordered domains.

use crate::sample_normal;
use bf_domain::{Dataset, Domain, GridDomain};
use rand::Rng;

/// One component of a grid mixture: a center (in cell coordinates), a
/// per-axis standard deviation (in cells) and a relative weight.
#[derive(Debug, Clone)]
pub(crate) struct MixtureComponent {
    /// Center in cell coordinates.
    pub center: Vec<f64>,
    /// Standard deviation per axis, in cells.
    pub sigma: Vec<f64>,
    /// Relative (unnormalized) weight.
    pub weight: f64,
}

/// Samples `n` grid cells from a mixture of axis-aligned Gaussians plus a
/// `background` fraction of uniform cells, clamped to the grid.
pub(crate) fn gaussian_mixture_grid(
    grid: &GridDomain,
    components: &[MixtureComponent],
    background: f64,
    n: usize,
    rng: &mut impl Rng,
) -> Dataset {
    assert!(!components.is_empty(), "need at least one component");
    assert!((0.0..=1.0).contains(&background));
    let total_weight: f64 = components.iter().map(|c| c.weight).sum();
    assert!(total_weight > 0.0);
    let dims = grid.dims().to_vec();
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let coords: Vec<usize> = if rng.random::<f64>() < background {
            dims.iter().map(|&d| rng.random_range(0..d)).collect()
        } else {
            // Pick a component by weight.
            let mut pick = rng.random::<f64>() * total_weight;
            let mut chosen = &components[components.len() - 1];
            for c in components {
                if pick < c.weight {
                    chosen = c;
                    break;
                }
                pick -= c.weight;
            }
            chosen
                .center
                .iter()
                .zip(&chosen.sigma)
                .zip(&dims)
                .map(|((&mu, &s), &d)| {
                    let v = mu + s * sample_normal(rng);
                    (v.round().max(0.0) as usize).min(d - 1)
                })
                .collect()
        };
        rows.push(grid.index_of(&coords).expect("clamped coordinates"));
    }
    Dataset::from_rows(grid.domain().clone(), rows).expect("valid rows")
}

/// Builds a dataset over an ordered domain whose histogram has mass at
/// `support_size` random positions with Zipf(`exponent`) weights — the
/// sparse, spiky shape (`p ≪ |T|`) that real ordinal attributes such as
/// capital-loss exhibit.
pub fn zipf_histogram_dataset(
    domain_size: usize,
    support_size: usize,
    exponent: f64,
    n: usize,
    rng: &mut impl Rng,
) -> Dataset {
    assert!(support_size >= 1 && support_size <= domain_size);
    assert!(exponent > 0.0);
    // Distinct random support positions.
    let mut positions = Vec::with_capacity(support_size);
    let mut used = vec![false; domain_size];
    while positions.len() < support_size {
        let p = rng.random_range(0..domain_size);
        if !used[p] {
            used[p] = true;
            positions.push(p);
        }
    }
    // Zipf weights over ranks.
    let weights: Vec<f64> = (1..=support_size)
        .map(|r| 1.0 / (r as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut pick = rng.random::<f64>() * total;
        let mut idx = support_size - 1;
        for (i, &w) in weights.iter().enumerate() {
            if pick < w {
                idx = i;
                break;
            }
            pick -= w;
        }
        rows.push(positions[idx]);
    }
    let domain = Domain::line(domain_size).expect("non-empty domain");
    Dataset::from_rows(domain, rows).expect("valid rows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn mixture_respects_grid_bounds() {
        let grid = GridDomain::new(vec![20, 30]).unwrap();
        let comps = vec![
            MixtureComponent {
                center: vec![5.0, 5.0],
                sigma: vec![2.0, 2.0],
                weight: 1.0,
            },
            MixtureComponent {
                center: vec![18.0, 28.0],
                sigma: vec![3.0, 3.0],
                weight: 2.0,
            },
        ];
        let mut rng = seeded_rng(5);
        let ds = gaussian_mixture_grid(&grid, &comps, 0.1, 5000, &mut rng);
        assert_eq!(ds.len(), 5000);
        // All rows valid by construction; check clustering: the heavier
        // component near (18,28) should dominate the far corner.
        let h = ds.histogram();
        let near_first = h.count(grid.index_of(&[5, 5]).unwrap());
        let far_corner = h.count(grid.index_of(&[0, 29]).unwrap());
        assert!(near_first > far_corner);
    }

    #[test]
    fn zipf_dataset_is_sparse_and_spiky() {
        let mut rng = seeded_rng(6);
        let ds = zipf_histogram_dataset(1000, 40, 1.3, 20_000, &mut rng);
        let h = ds.histogram();
        assert_eq!(ds.len(), 20_000);
        assert!(h.support_size() <= 40);
        assert!(h.support_size() >= 30); // nearly all spikes hit
                                         // Top spike holds a large share (zipf head).
        let max = h.counts().iter().cloned().fold(0.0, f64::max);
        assert!(max > 20_000.0 / 40.0 * 2.0);
    }

    #[test]
    fn generators_deterministic_under_seed() {
        let grid = GridDomain::new(vec![10, 10]).unwrap();
        let comps = vec![MixtureComponent {
            center: vec![5.0, 5.0],
            sigma: vec![1.0, 1.0],
            weight: 1.0,
        }];
        let a = gaussian_mixture_grid(&grid, &comps, 0.0, 100, &mut seeded_rng(9));
        let b = gaussian_mixture_grid(&grid, &comps, 0.0, 100, &mut seeded_rng(9));
        assert_eq!(a, b);
    }
}
