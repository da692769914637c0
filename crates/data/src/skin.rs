//! The skin-segmentation-like RGB dataset (Section 6.1, Figures 1b/1d/1e).
//!
//! The paper uses the UCI Skin Segmentation dataset: 245,057 rows of
//! B/G/R values (each 0–255) sampled from face images of skin and
//! non-skin regions. Structurally: a tight, elongated skin-tone manifold
//! (roughly R > G > B with strong correlation) plus a broad non-skin
//! cloud covering the color cube — about 21% skin.
//!
//! Our stand-in samples the same structure directly in the 256³ cube and
//! is returned as a continuous [`PointSet`] (what k-means consumes) with
//! the exact domain bounding box `[0, 255]³`.

use crate::sample_normal;
use bf_domain::{BoundingBox, PointSet};
use rand::Rng;

/// Number of rows in the paper's dataset.
pub const SKIN_N: usize = 245_057;

/// Fraction of skin-class rows in the UCI data (50,859 / 245,057).
pub(crate) const SKIN_CLASS_FRACTION: f64 = 0.2075;

/// Generates a skin-like dataset of arbitrary size.
pub fn skin_like_sized(n: usize, rng: &mut impl Rng) -> PointSet {
    let bbox = BoundingBox::new(vec![0.0, 0.0, 0.0], vec![255.0, 255.0, 255.0]);
    let mut coords = Vec::with_capacity(n * 3);
    for _ in 0..n {
        if rng.random::<f64>() < SKIN_CLASS_FRACTION {
            sample_skin(rng, &mut coords);
        } else {
            sample_non_skin(rng, &mut coords);
        }
    }
    PointSet::from_flat(3, coords, bbox)
}

/// Skin tones: an elongated Gaussian along a brightness axis with
/// R > G > B ordering (B/G/R storage order like the UCI file), pushed
/// onto `out`.
fn sample_skin(rng: &mut impl Rng, out: &mut Vec<f64>) {
    // Brightness parameter t in [0,1]; channel means depend linearly on t.
    let t = (0.5 + 0.22 * sample_normal(rng)).clamp(0.0, 1.0);
    let r = 120.0 + 120.0 * t + 9.0 * sample_normal(rng);
    let g = 70.0 + 110.0 * t + 10.0 * sample_normal(rng);
    let b = 45.0 + 100.0 * t + 12.0 * sample_normal(rng);
    out.extend([b, g, r].map(|v| v.clamp(0.0, 255.0)));
}

/// Non-skin: a broad mixture over the cube (backgrounds, clothing, hair),
/// pushed onto `out`.
fn sample_non_skin(rng: &mut impl Rng, out: &mut Vec<f64>) {
    // Three broad modes: dark, mid-gray, bright, with large variance.
    let (mu, sigma) = match rng.random_range(0..3u32) {
        0 => (60.0, 45.0),
        1 => (130.0, 55.0),
        _ => (200.0, 40.0),
    };
    let base = mu + sigma * sample_normal(rng);
    for _ in 0..3 {
        out.push((base + 55.0 * sample_normal(rng)).clamp(0.0, 255.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn shape_and_bounds() {
        let mut rng = seeded_rng(21);
        let ps = skin_like_sized(20_000, &mut rng);
        assert_eq!(ps.len(), 20_000);
        assert_eq!(ps.dim(), 3);
        for p in ps.iter() {
            assert!(ps.bbox().contains(p));
        }
        assert_eq!(ps.bbox().l1_diameter(), 3.0 * 255.0);
    }

    /// The row-at-a-time generator `skin_like_sized` replaced, verbatim:
    /// one `Vec` per point, copied by `PointSet::new`.
    mod oracle {
        use super::super::SKIN_CLASS_FRACTION;
        use crate::sample_normal;
        use bf_domain::{BoundingBox, PointSet};
        use rand::Rng;

        pub fn skin_like_sized(n: usize, rng: &mut impl Rng) -> PointSet {
            let bbox = BoundingBox::new(vec![0.0, 0.0, 0.0], vec![255.0, 255.0, 255.0]);
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let p = if rng.random::<f64>() < SKIN_CLASS_FRACTION {
                    sample_skin(rng)
                } else {
                    sample_non_skin(rng)
                };
                points.push(p);
            }
            PointSet::new(points, bbox)
        }

        fn sample_skin(rng: &mut impl Rng) -> Vec<f64> {
            let t = (0.5 + 0.22 * sample_normal(rng)).clamp(0.0, 1.0);
            let r = 120.0 + 120.0 * t + 9.0 * sample_normal(rng);
            let g = 70.0 + 110.0 * t + 10.0 * sample_normal(rng);
            let b = 45.0 + 100.0 * t + 12.0 * sample_normal(rng);
            vec![
                b.clamp(0.0, 255.0),
                g.clamp(0.0, 255.0),
                r.clamp(0.0, 255.0),
            ]
        }

        fn sample_non_skin(rng: &mut impl Rng) -> Vec<f64> {
            let (mu, sigma) = match rng.random_range(0..3u32) {
                0 => (60.0, 45.0),
                1 => (130.0, 55.0),
                _ => (200.0, 40.0),
            };
            let base = mu + sigma * sample_normal(rng);
            (0..3)
                .map(|_| (base + 55.0 * sample_normal(rng)).clamp(0.0, 255.0))
                .collect()
        }
    }

    #[test]
    fn row_major_points_equal_point_set_new() {
        let n = 20_000;
        let got = skin_like_sized(n, &mut seeded_rng(24));
        let expected = oracle::skin_like_sized(n, &mut seeded_rng(24));
        assert_eq!((got.len(), got.bbox()), (n, expected.bbox()));
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for i in 0..n {
            assert_eq!(bits(got.point(i)), bits(expected.point(i)), "point {i}");
        }
    }

    #[test]
    fn skin_mode_has_rgb_ordering() {
        // Sampled skin points should mostly satisfy R > G > B.
        let mut rng = seeded_rng(22);
        let mut ordered = 0;
        let n = 5000;
        let mut p = Vec::with_capacity(3);
        for _ in 0..n {
            p.clear();
            sample_skin(&mut rng, &mut p);
            if p[2] > p[1] && p[1] > p[0] {
                ordered += 1;
            }
        }
        assert!(
            ordered as f64 / n as f64 > 0.9,
            "only {ordered}/{n} skin samples ordered"
        );
    }

    #[test]
    fn dataset_is_bimodal_enough_for_clustering() {
        // K-means with 2 clusters separates a tight and a broad mode:
        // check the channel-correlation signature of the skin class exists
        // by verifying a dense region along the R>G>B diagonal.
        let mut rng = seeded_rng(23);
        let ps = skin_like_sized(30_000, &mut rng);
        let skin_like_points = ps
            .iter()
            .filter(|p| p[2] > p[1] + 20.0 && p[1] > p[0] + 5.0)
            .count();
        assert!(
            skin_like_points as f64 > 0.1 * ps.len() as f64,
            "skin manifold underpopulated: {skin_like_points}"
        );
    }
}
