//! The twitter-like location dataset (Section 6.1, Figures 1a/1d/1f, 2c).
//!
//! The paper's dataset: 193,563 tweets inside the bounding box
//! 50N/125W – 30N/110W (western USA), latitude/longitude rounded to 0.05°,
//! giving a 400×300 grid over ≈ 2222×1442 km (≈ 5.55 km per cell).
//!
//! Our stand-in places Gaussian hot-spots at the approximate grid
//! positions of the region's large metros (Seattle, Portland, the Bay
//! Area, Los Angeles, San Diego, Las Vegas, Phoenix, Salt Lake City) with
//! population-proportional weights plus a uniform rural background —
//! preserving the multi-modal spatial clustering that the k-means and
//! range-query experiments exercise.

use crate::generators::{gaussian_mixture_grid, MixtureComponent};
use bf_domain::{Dataset, GridDomain};
use rand::Rng;

/// Number of tweets in the paper's dataset.
pub const TWITTER_N: usize = 193_563;

/// Grid width (latitude bins at 0.05° over 20°).
pub const TWITTER_DIM_LAT: usize = 400;

/// Grid height (longitude bins at 0.05° over 15°).
pub(crate) const TWITTER_DIM_LON: usize = 300;

/// Physical size of one cell in km (0.05° of latitude).
pub const TWITTER_CELL_KM: f64 = 5.55;

/// The 400×300 grid with ≈5.55 km cells.
pub fn twitter_grid() -> GridDomain {
    GridDomain::with_cell_widths(
        vec![TWITTER_DIM_LAT, TWITTER_DIM_LON],
        vec![TWITTER_CELL_KM, TWITTER_CELL_KM],
    )
    .expect("static dimensions are valid")
}

/// Metro hot-spots: (lat-cell, lon-cell, sigma-cells, weight).
pub(crate) fn metros() -> Vec<MixtureComponent> {
    let spots: [(f64, f64, f64, f64); 8] = [
        (355.0, 60.0, 6.0, 9.0),   // Seattle
        (310.0, 75.0, 5.0, 5.0),   // Portland
        (150.0, 50.0, 9.0, 14.0),  // Bay Area
        (65.0, 130.0, 10.0, 20.0), // Los Angeles
        (35.0, 145.0, 6.0, 6.0),   // San Diego
        (120.0, 195.0, 5.0, 5.0),  // Las Vegas
        (30.0, 220.0, 7.0, 8.0),   // Phoenix
        (215.0, 220.0, 5.0, 4.0),  // Salt Lake City
    ];
    spots
        .into_iter()
        .map(|(lat, lon, sigma, weight)| MixtureComponent {
            center: vec![lat, lon],
            sigma: vec![sigma, sigma],
            weight,
        })
        .collect()
}

/// Generates a twitter-like dataset of arbitrary size (for quick runs and
/// tests).
pub fn twitter_like_sized(n: usize, rng: &mut impl Rng) -> Dataset {
    gaussian_mixture_grid(&twitter_grid(), &metros(), 0.18, n, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use bf_domain::PointSet;

    #[test]
    fn grid_shape() {
        let g = twitter_grid();
        assert_eq!(g.size(), 120_000);
        // Physical extent ≈ 2222 × 1665 km.
        assert!((g.dims()[0] as f64 * TWITTER_CELL_KM - 2220.0).abs() < 10.0);
    }

    #[test]
    fn dataset_is_clustered() {
        let mut rng = seeded_rng(11);
        let ds = twitter_like_sized(30_000, &mut rng);
        assert_eq!(ds.len(), 30_000);
        let h = ds.histogram();
        // Mass near LA far exceeds the uniform level.
        let g = twitter_grid();
        let mut la_mass = 0.0;
        for lat in 55..75 {
            for lon in 120..140 {
                la_mass += h.count(g.index_of(&[lat, lon]).unwrap());
            }
        }
        let uniform_expectation = 30_000.0 * (20.0 * 20.0) / 120_000.0;
        assert!(
            la_mass > uniform_expectation * 5.0,
            "LA mass {la_mass} vs uniform {uniform_expectation}"
        );
    }

    #[test]
    fn converts_to_km_points() {
        let mut rng = seeded_rng(12);
        let ds = twitter_like_sized(1000, &mut rng);
        let ps = PointSet::from_grid_dataset(&twitter_grid(), &ds);
        assert_eq!(ps.len(), 1000);
        assert_eq!(ps.dim(), 2);
        // Diameter matches the paper's ~2222 + ~1665 km box.
        let diam = ps.bbox().l1_diameter();
        assert!(diam > 3500.0 && diam < 4200.0, "diameter {diam}");
    }

    #[test]
    fn latitude_projection_spans_domain() {
        // Figure 2(c) projects onto latitude: the marginal histogram over
        // 400 bins must be non-trivial.
        let mut rng = seeded_rng(13);
        let ds = twitter_like_sized(20_000, &mut rng);
        let g = twitter_grid();
        let mut lat_hist = vec![0.0f64; TWITTER_DIM_LAT];
        for &row in ds.rows() {
            lat_hist[g.coords(row)[0]] += 1.0;
        }
        let nonzero = lat_hist.iter().filter(|&&c| c > 0.0).count();
        assert!(nonzero > 100, "only {nonzero} latitude bins populated");
    }
}
