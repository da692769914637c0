//! Figure 2(c): twitter latitude — MSE of random range queries vs ε
//! under the Ordered Hierarchical Mechanism, for physical thresholds
//! θ ∈ {full, 500 km, 50 km, 5 km} on the 400-bin latitude projection.

use bf_bench::range_harness::{RangeExperiment, ThetaSeries};
use bf_bench::{epsilon_sweep, timed, Scale};
use bf_data::seeded_rng;
use bf_data::twitter::{twitter_grid, twitter_like_sized, TWITTER_DIM_LAT, TWITTER_N};
use bf_domain::OrderedDomain;

fn main() {
    let scale = Scale::from_args();
    timed("fig2c", || {
        let n = scale.pick(40_000, TWITTER_N);
        let queries = scale.pick(2_000, 10_000);
        let trials = scale.pick(10, 50);
        let mut rng = seeded_rng(0xF162C);
        let dataset = twitter_like_sized(n, &mut rng);
        let grid = twitter_grid();

        // Project onto latitude (domain size 400, ≈5.55 km per bin).
        let lat = OrderedDomain::with_step_width(TWITTER_DIM_LAT, 5.55).unwrap();
        let mut histogram = vec![0.0f64; TWITTER_DIM_LAT];
        for &row in dataset.rows() {
            histogram[grid.coords(row)[0]] += 1.0;
        }

        let series = vec![
            ThetaSeries::full(),
            ThetaSeries::new("theta=500km", lat.theta_for_physical(500.0)),
            ThetaSeries::new("theta=50km", lat.theta_for_physical(50.0)),
            ThetaSeries::new("theta=5km", lat.theta_for_physical(5.0)),
        ];
        let exp = RangeExperiment {
            queries,
            trials,
            ..RangeExperiment::default()
        };
        let table = exp.run(
            &format!("FIG-2c twitter latitude (n={n}, |T|={TWITTER_DIM_LAT}): range-query MSE vs epsilon"),
            &histogram,
            &series,
            &epsilon_sweep(),
        );
        table.print();
    });
}
