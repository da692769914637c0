//! Isotonic regression via pool-adjacent-violators (PAVA).
//!
//! The Ordered Mechanism boosts the accuracy of noisy cumulative counts by
//! *constrained inference*: projecting the noisy sequence onto the cone of
//! non-decreasing sequences in least squares (Hay et al. \[9\] show the
//! projection is the minimum-L2 consistent estimate and that its error
//! collapses to `O(p log³|T|/ε²)` where `p` is the number of distinct
//! values). PAVA computes the exact projection in `O(|T|)`.
//!
//! # The minorant view, and pooling before branching
//!
//! Plot the cumulative-sum diagram `P_i = (i, S_i)`, `S_i = Σ_{j<i} v_j`,
//! `0 ≤ i ≤ n`. The isotonic fit of cell `i` is the slope, over
//! `[i, i + 1]`, of the diagram's greatest convex minorant, and PAVA is
//! the monotone-chain walk that builds that lower hull — one pop-or-push
//! decision per cell, a coin flip on the noise-dominated input a release
//! produces. [`isotonic_regression`] therefore decides most cells without
//! a branch first:
//!
//! * **Lemma.** A polyline through any subset of the points lies on or
//!   above that subset's lower hull, which lies on or above the minorant
//!   of all of them. A vertex of the minorant is on the minorant, so a
//!   point *strictly above* such a polyline is not a vertex: the
//!   projection pools the cells either side of it, and pooling them
//!   beforehand changes nothing.
//! * The polyline is the lower hull of one **anchor** per `B`-cell
//!   chunk (the point lowest under its chunk's chord), built by the stack
//!   loop itself over anchor-to-anchor blocks. One compare-and-compact
//!   pass keeps the points on or below it — 1–2 % of them under release
//!   noise — and the same stack loop projects the pre-pooled blocks they
//!   delimit.
//!
//! **Worst case.** An already non-decreasing input has every point a
//! vertex: nothing can be pooled, and the pass is paid on top of the
//! full stack walk — 5.4 → 8.3 ns per cell at 65 536 cells, twice the
//! bare stack loop (table at `B`). No release produces such input —
//! the noise scale `θ/ε` is at least 1 on integer counts — so it gets a
//! bound (`regime_table` asserts ≤ 3× the bare loop), not a detector and
//! a second path: one path for every length and every input.

/// Cells per chunk of the pre-pooling pass: one anchor each.
///
/// Measured at 65 536 cells on the shape of a release (sparse Zipf-like
/// counts, cumulated, plus `Lap(scale)`), best of 100 calls, ns per cell,
/// 2.1 GHz Xeon — `regime_table` below prints these rows for the
/// current `B`:
///
/// | input | before the pass | `B = 8` | `B = 16` | `B = 32` |
/// |---|---|---|---|---|
/// | noise scale 8 192 (`engine_batch`) | 10.5 | 3.9 | 3.8 | 3.3 |
/// | noise scale 100 | 10.7 | 4.3 | 4.1 | 3.8 |
/// | noise scale 1 | 11.2 | 7.7 | 8.3 | 9.2 |
/// | already sorted (worst case) | 5.4 | 7.4 | 8.3 | 7.6 |
///
/// A longer chunk costs less per cell and leaves fewer anchors, hence a
/// higher hull and more survivors once the signal outweighs the noise:
/// 32 buys 0.5 ns at release noise and gives back 0.9 at scale 1, 8 the
/// reverse. 16 sits between and loses to the old loop on no noisy row.
const B: usize = 16;

/// Returns the least-squares projection of `values` onto non-decreasing
/// sequences (unit weights).
pub fn isotonic_regression(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    // `S_0 ..= S_n` live in the buffer that becomes the output: the fit
    // is held as blocks by the time the fill overwrites them.
    let mut out = vec![0.0; n + 1];
    let anchors = prefix_sums_and_anchors(values, &mut out);
    let mut fit = Stack::default();
    if out[n].is_finite() {
        let mut last = 0;
        for_each_survivor(values, &out, &anchors, |i| {
            fit.push(Block::between(&out, values, last, i));
            last = i;
        });
    } else {
        // An overflow, an infinity or a NaN reached `S_n`: differences of
        // `S` prove nothing, so every cell is its own block.
        for &v in values {
            fit.push(Block::cell(v, 1.0));
        }
    }
    fit.expand_into(&mut out);
    out.truncate(n);
    out
}

/// Weighted isotonic regression: minimizes `Σ w_i (z_i − v_i)²` subject to
/// `z_1 ≤ z_2 ≤ … ≤ z_n`. `None` weights mean uniform.
///
/// # Panics
///
/// Panics when `weights` is provided with a different length than
/// `values`, or contains non-positive entries.
pub fn isotonic_regression_weighted(values: &[f64], weights: Option<&[f64]>) -> Vec<f64> {
    let Some(w) = weights else {
        return isotonic_regression(values);
    };
    assert_eq!(w.len(), values.len(), "one weight per value");
    assert!(w.iter().all(|&x| x > 0.0), "weights must be positive");
    let mut fit = Stack::default();
    for (&v, &w) in values.iter().zip(w) {
        fit.push(Block::cell(w * v, w));
    }
    let mut out = vec![0.0; values.len()];
    fit.expand_into(&mut out);
    out
}

/// A maximal run of cells pooled to one value, kept as sums so that
/// pooling two blocks is three additions.
struct Block {
    /// `Σ w_i·v_i` over the run.
    sum: f64,
    /// `Σ w_i` over the run (positive).
    weight: f64,
    cells: usize,
}

impl Block {
    fn cell(sum: f64, weight: f64) -> Self {
        Block {
            sum,
            weight,
            cells: 1,
        }
    }

    /// The unit-weight cells `from..to` as one block, summed off the
    /// diagram `s` — except a single cell, which is its own value, so
    /// that input no pass can pool comes back bit for bit.
    fn between(s: &[f64], values: &[f64], from: usize, to: usize) -> Self {
        let cells = to - from;
        Block {
            sum: if cells == 1 {
                values[from]
            } else {
                s[to] - s[from]
            },
            weight: cells as f64,
            cells,
        }
    }
}

/// The PAVA stack: block means non-decreasing from the bottom up.
#[derive(Default)]
struct Stack {
    blocks: Vec<Block>,
}

impl Stack {
    /// Appends a block after the ones already pushed, pooling it with
    /// the top of the stack for as long as the two violate the ordering:
    /// `sum_a/weight_a > sum_b/weight_b`, which for positive weights is
    /// `sum_a·weight_b > sum_b·weight_a`, so the loop never divides. A
    /// NaN compares false and pools, so non-finite input neither panics
    /// nor loops.
    fn push(&mut self, mut top: Block) {
        while let Some(below) = self.blocks.last() {
            if below.sum * top.weight <= top.sum * below.weight {
                break;
            }
            top.sum += below.sum;
            top.weight += below.weight;
            top.cells += below.cells;
            self.blocks.pop();
        }
        self.blocks.push(top);
    }

    /// Writes each block's mean over its cells, from `out[0]` on.
    fn expand_into(&self, out: &mut [f64]) {
        let mut floor = f64::NEG_INFINITY;
        let mut at = 0;
        for block in &self.blocks {
            // One division per surviving block. Two quotients can invert by
            // an ulp where their cross-products did not, and the output must
            // be non-decreasing exactly, hence the floor.
            let mean = block.sum / block.weight;
            floor = if mean < floor { floor } else { mean };
            out[at..at + block.cells].fill(floor);
            at += block.cells;
        }
    }
}

/// Fills `s[i] = S_i` for `0 ≤ i ≤ n` (`s[0]` is already 0) and returns
/// the anchors in increasing order, `P_0` and `P_n` included: per chunk,
/// the running sum and then the point lowest under the chunk's own chord,
/// by compare-and-select. Which point a chunk offers only decides how
/// much the filter drops, never what is safe to drop, so a tie or a NaN
/// here is harmless.
fn prefix_sums_and_anchors(values: &[f64], s: &mut [f64]) -> Vec<usize> {
    let n = values.len();
    let mut anchors = Vec::with_capacity(n / B + 3);
    anchors.push(0);
    let mut sum = 0.0;
    for (c, (chunk, ahead)) in values.chunks(B).zip(s[1..].chunks_mut(B)).enumerate() {
        let base = sum;
        for (slot, &v) in ahead.iter_mut().zip(chunk) {
            sum += v;
            *slot = sum;
        }
        let slope = (sum - base) / chunk.len() as f64;
        // `P_n` is an anchor regardless, so it does not compete.
        let first = c * B + 1;
        let candidates = &ahead[..chunk.len().min(n - first)];
        let (mut best, mut arg) = (f64::INFINITY, 0);
        for (j, &sj) in candidates.iter().enumerate() {
            let depth = sj - base - slope * (j + 1) as f64;
            let lower = depth < best;
            best = if lower { depth } else { best };
            arg = if lower { j } else { arg };
        }
        if !candidates.is_empty() {
            anchors.push(first + arg);
        }
    }
    anchors.push(n);
    anchors
}

/// Calls `keep(i)`, in increasing order, for every point `P_i` with
/// `0 < i ≤ n` on or below the lower hull of the anchors. What it skips
/// is strictly above that hull and, by the module's lemma, not a vertex
/// of the minorant.
fn for_each_survivor(values: &[f64], s: &[f64], anchors: &[usize], mut keep: impl FnMut(usize)) {
    // The hull of the anchors is the fit of the anchor-to-anchor blocks:
    // the block boundaries the stack loop leaves are its vertices.
    let mut hull = Stack::default();
    for pair in anchors.windows(2) {
        hull.push(Block::between(s, values, pair[0], pair[1]));
    }
    let mut lo = 0;
    for segment in &hull.blocks {
        let hi = lo + segment.cells;
        let rise = s[hi] - s[lo];
        let slope = rise / segment.cells as f64;
        // The test below rounds four times on terms no larger than
        // `rise` wherever it is close: a vertex is never lost to that.
        let slack = 4.0 * f64::EPSILON * rise.abs();
        for (t, tile) in s[lo + 1..hi].chunks(B).enumerate() {
            let first = t * B + 1;
            let mut kept = [0; B];
            let mut k = 0;
            for (j, &si) in tile.iter().enumerate() {
                kept[k] = lo + first + j;
                let above = si - s[lo] - slope * (first + j) as f64;
                k += usize::from(above <= slack);
            }
            for &i in &kept[..k] {
                keep(i);
            }
        }
        keep(hi);
        lo = hi;
    }
}

/// Projects onto non-decreasing sequences with a lower bound of zero on
/// the first element (the paper's `s_1 > 0` refinement, which forces all
/// recovered counts non-negative).
pub fn isotonic_regression_nonneg(values: &[f64]) -> Vec<f64> {
    let mut out = isotonic_regression(values);
    for v in &mut out {
        if *v < 0.0 {
            *v = 0.0;
        } else {
            break; // sorted: once non-negative, stays non-negative
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_core::sample_laplace;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn is_sorted(v: &[f64]) -> bool {
        v.windows(2).all(|w| w[0] <= w[1])
    }

    /// The PAVA this module shipped before the block-sum one — three
    /// parallel stacks of block *means*, a division on every pool — kept
    /// as the oracle the new body is compared against.
    fn three_vec_pava(values: &[f64], weights: Option<&[f64]>) -> Vec<f64> {
        let mut means: Vec<f64> = Vec::new();
        let mut wsum: Vec<f64> = Vec::new();
        let mut count: Vec<usize> = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            means.push(v);
            wsum.push(weights.map_or(1.0, |ws| ws[i]));
            count.push(1);
            while means.len() >= 2 {
                let m = means.len();
                if means[m - 2] <= means[m - 1] {
                    break;
                }
                let w_total = wsum[m - 2] + wsum[m - 1];
                means[m - 2] = (means[m - 2] * wsum[m - 2] + means[m - 1] * wsum[m - 1]) / w_total;
                wsum[m - 2] = w_total;
                count[m - 2] += count[m - 1];
                means.pop();
                wsum.pop();
                count.pop();
            }
        }
        let mut out = Vec::with_capacity(values.len());
        for (m, c) in means.iter().zip(&count) {
            out.extend(std::iter::repeat_n(*m, *c));
        }
        out
    }

    fn assert_matches_oracle(values: &[f64], weights: Option<&[f64]>) {
        let new = isotonic_regression_weighted(values, weights);
        let old = three_vec_pava(values, weights);
        assert_eq!(new.len(), old.len());
        for (i, (n, o)) in new.iter().zip(&old).enumerate() {
            assert!(
                (n - o).abs() <= 1e-9 * o.abs().max(1.0),
                "cell {i}: {n} vs oracle {o}"
            );
        }
        assert!(is_sorted(&new));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Against the oracle on up to 2 000 cells of magnitude up to
        /// 10¹², with and without weights, with and without ties: equal
        /// per cell to rounding and non-decreasing with no tolerance. (The
        /// oracle-free invariants — weighted sum, optimality — are
        /// `isotonic_invariants` in the workspace's `tests/property_based.rs`.)
        #[test]
        fn matches_the_three_vec_oracle(
            unit in proptest::collection::vec(-1.0f64..1.0, 0..2001),
            weights in proptest::option::of(proptest::collection::vec(0.001f64..1000.0, 2000)),
            exponent in 0i32..13,
            ties in proptest::bool::ANY,
        ) {
            let magnitude = 10f64.powi(exponent);
            let values: Vec<f64> = unit
                .iter()
                .map(|&u| if ties { (4.0 * u).round() / 4.0 } else { u } * magnitude)
                .collect();
            assert_matches_oracle(&values, weights.as_deref().map(|w| &w[..values.len()]));
        }
    }

    /// The plain stack loop over unit cells — the final stage of
    /// [`isotonic_regression`], called directly, and what the function was
    /// before the pre-pooling pass: the oracle for everything in front of
    /// it. Returns the fit and the stack it came from.
    fn plain_pava(values: &[f64]) -> (Vec<f64>, Stack) {
        let mut fit = Stack::default();
        for &v in values {
            fit.push(Block::cell(v, 1.0));
        }
        let mut out = vec![0.0; values.len()];
        fit.expand_into(&mut out);
        (out, fit)
    }

    /// Zipf-like counts on ≈ 3 % of the cells, cumulated: the trend under
    /// an Ordered release.
    fn sparse_prefixes(n: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut total = 0.0;
        (0..n)
            .map(|_| {
                if rng.random_range(0.0..1.0) < 0.03 {
                    total += (1.0 / rng.random_range(2e-4..1.0f64)).floor();
                }
                total
            })
            .collect()
    }

    /// The input families of the table in `B`'s documentation (and the
    /// degenerate ones around them), by index into [`REGIME_NAMES`].
    fn regime_input(regime: usize, n: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut noisy = |scale: f64| -> Vec<f64> {
            let trend = sparse_prefixes(n, rng);
            trend
                .iter()
                .map(|t| t + sample_laplace(rng, scale))
                .collect()
        };
        match regime {
            0 => noisy(1.0),
            1 => noisy(100.0),
            2 => noisy(4096.0),
            3 => noisy(8192.0),
            4 => (0..n).map(|_| sample_laplace(rng, 1.0)).collect(),
            5 => vec![7.0; n],
            6 => sparse_prefixes(n, rng).into_iter().rev().collect(),
            7 => sparse_prefixes(n, rng),
            // Quarter-integer ties.
            _ => (0..n)
                .map(|_| (4.0 * rng.random_range(-1.0..1.0f64)).round() / 4.0)
                .collect(),
        }
    }

    const REGIME_NAMES: [&str; 9] = [
        "trend + Lap(1)",
        "trend + Lap(100)",
        "trend + Lap(4096)",
        "trend + Lap(8192)",
        "pure noise",
        "constant",
        "reverse-sorted",
        "already sorted",
        "quarter-integer ties",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pre-pooled fit against the plain stack loop, over every
        /// regime, lengths either side of every chunk boundary up to
        /// 70 000 cells and magnitudes up to 10¹²: non-decreasing with no
        /// tolerance, equal per cell to rounding, sum preserved.
        #[test]
        fn pre_pooling_matches_the_plain_stack_loop(
            seed in 0u64..u64::MAX,
            regime in 0usize..REGIME_NAMES.len(),
            length in 0usize..24,
            exponent in 0i32..13,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fixed = [
                0, 1, 2, B - 1, B, B + 1, 2 * B, 4 * B - 1, 4 * B, 4 * B + 1, 1000, 4096, 65_536,
                65_537, 70_000,
            ];
            let n = match fixed.get(length) {
                Some(&n) => n,
                None => rng.random_range(0..70_000usize),
            };
            let magnitude = 10f64.powi(exponent);
            let values: Vec<f64> = regime_input(regime, n, &mut rng)
                .into_iter()
                .map(|v| v * magnitude)
                .collect();
            let fit = isotonic_regression(&values);
            let (oracle, _) = plain_pava(&values);
            prop_assert_eq!(fit.len(), n);
            prop_assert!(is_sorted(&fit), "regime {regime}, n {n}: not sorted");
            for (i, (f, o)) in fit.iter().zip(&oracle).enumerate() {
                prop_assert!(
                    (f - o).abs() <= 1e-9 * o.abs().max(1.0),
                    "regime {regime}, n {n}, cell {i}: {f} vs oracle {o}"
                );
            }
            let (sum, total, size): (f64, f64, f64) = (
                fit.iter().sum(),
                values.iter().sum(),
                values.iter().map(|v| v.abs()).sum(),
            );
            prop_assert!(
                (sum - total).abs() <= 1e-9 * size.max(1.0),
                "regime {regime}, n {n}: sum {sum} vs {total}"
            );
        }
    }

    /// The lemma, structurally: whatever the filter drops is interior to
    /// a block of the oracle's fit — no vertex of the minorant is lost.
    #[test]
    fn the_filter_never_drops_a_vertex() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut dropped = 0;
        for case in 0..10_000 {
            let values = regime_input(case % 5, 512, &mut rng);
            let mut s = vec![0.0; values.len() + 1];
            let anchors = prefix_sums_and_anchors(&values, &mut s);
            let mut survives = vec![false; values.len() + 1];
            for_each_survivor(&values, &s, &anchors, |i| survives[i] = true);
            let (_, oracle) = plain_pava(&values);
            let mut vertex = 0;
            for block in &oracle.blocks {
                vertex += block.cells;
                assert!(survives[vertex], "case {case}: vertex {vertex} dropped");
            }
            dropped += survives[1..].iter().filter(|&&kept| !kept).count();
        }
        // And it does drop: most points, on these inputs.
        assert!(dropped > 10_000 * 512 / 2, "only {dropped} points dropped");
    }

    #[test]
    fn input_no_pass_can_pool_comes_back_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(29);
        for n in [1, B - 1, B, B + 1, 4 * B + 1, 1000, 70_000] {
            let sorted = sparse_prefixes(n, &mut rng);
            assert_eq!(isotonic_regression(&sorted), sorted, "n = {n}");
            let strictly: Vec<f64> = (0..n).map(|i| (i as f64).sqrt() * 3.7 - 100.0).collect();
            assert_eq!(isotonic_regression(&strictly), strictly, "n = {n}");
        }
    }

    /// `cargo test --release -p bf-mechanisms regime_table -- --ignored
    /// --nocapture`: ns per cell at 65 536 cells, this function beside
    /// the plain stack loop, and the minor page faults a call takes. The
    /// one assertion is the module's worst-case bound.
    #[test]
    #[ignore = "a timing table, not a gate: run it by name in a release build"]
    fn regime_table() {
        fn minor_faults() -> u64 {
            let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
            let after_comm = &stat[stat.rfind(')').expect("comm") + 2..];
            // Field 10 (minflt); the slice starts at field 3.
            after_comm
                .split(' ')
                .nth(7)
                .expect("minflt")
                .parse()
                .expect("a count")
        }
        fn ns_per_cell(values: &[f64], f: impl Fn(&[f64]) -> Vec<f64>) -> (f64, f64) {
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                std::hint::black_box(f(values));
            }
            let faults = minor_faults();
            for _ in 0..100 {
                let start = std::time::Instant::now();
                std::hint::black_box(f(std::hint::black_box(values)));
                best = best.min(start.elapsed().as_nanos() as f64);
            }
            let faults = (minor_faults() - faults) as f64 / 100.0;
            (best / values.len() as f64, faults)
        }
        let mut rng = StdRng::seed_from_u64(100);
        println!("| input | plain | pre-pooled | faults/call plain | pre-pooled |");
        println!("|---|---|---|---|---|");
        for (regime, name) in REGIME_NAMES.iter().enumerate() {
            let values = regime_input(regime, 65_536, &mut rng);
            let (plain, plain_faults) = ns_per_cell(&values, |v| plain_pava(v).0);
            let (pooled, pooled_faults) = ns_per_cell(&values, isotonic_regression);
            println!(
                "| {name} | {plain:.1} | {pooled:.1} | {plain_faults:.0} | {pooled_faults:.0} |"
            );
            if *name == "already sorted" {
                assert!(pooled <= 3.0 * plain, "worst case {pooled} vs {plain}");
            }
        }
    }

    #[test]
    fn strictly_decreasing_input_is_one_block() {
        let v: Vec<f64> = (0..100_000).rev().map(|i| i as f64 * 0.5).collect();
        let z = isotonic_regression(&v);
        assert!(z.iter().all(|&x| x == z[0]));
        assert_matches_oracle(&v, None);
    }

    #[test]
    fn constant_runs() {
        let v = [3.0, 3.0, 3.0, 1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 5.0, 4.0];
        assert_eq!(isotonic_regression(&v), three_vec_pava(&v, None));
        let w = [1.0, 2.0, 4.0, 0.5, 0.5, 8.0, 1.0, 1.0, 2.0, 2.0, 4.0];
        assert_matches_oracle(&v, Some(&w));
        assert_eq!(isotonic_regression(&[7.0; 50]), vec![7.0; 50]);
    }

    #[test]
    fn block_means_an_ulp_apart_stay_ordered() {
        // 11v·7 == 7v·11 in f64, so the cross-products see a tie and keep
        // two blocks — whose quotients 11v/11 and 7v/7 then round an ulp
        // apart the wrong way round. Only the floor keeps the output
        // sorted.
        let v = f64::from_bits(0x3fff_3d4e_71b1_e668); // 1.9524673882682695
        assert!((11.0 * v) / 11.0 > (7.0 * v) / 7.0);
        assert_matches_oracle(&[v, v], Some(&[11.0, 7.0]));
        // And the honest neighbours: an ulp up stays, an ulp down pools.
        let up = f64::from_bits(v.to_bits() + 1);
        assert_eq!(isotonic_regression(&[v, up]), vec![v, up]);
        let z = isotonic_regression(&[up, v]);
        assert!(z[0] == z[1] && (v..=up).contains(&z[0]));
    }

    #[test]
    fn non_finite_input_neither_panics_nor_hangs() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut v: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
            v[500] = bad;
            assert_eq!(isotonic_regression(&v).len(), v.len());
            let w = vec![2.0; v.len()];
            assert_eq!(isotonic_regression_weighted(&v, Some(&w)).len(), v.len());
        }
        // A NaN pools everything it touches, as it always has.
        assert!(isotonic_regression(&[1.0, f64::NAN, 2.0])
            .iter()
            .all(|z| z.is_nan()));
        assert_eq!(
            isotonic_regression(&[1.0, f64::INFINITY, 2.0]),
            vec![1.0, f64::INFINITY, f64::INFINITY]
        );
    }

    #[test]
    fn already_sorted_is_identity() {
        let v = vec![1.0, 2.0, 2.0, 5.0];
        assert_eq!(isotonic_regression(&v), v);
    }

    #[test]
    fn simple_violation_pools() {
        let v = vec![3.0, 1.0];
        assert_eq!(isotonic_regression(&v), vec![2.0, 2.0]);
    }

    #[test]
    fn cascade_pooling() {
        let v = vec![4.0, 3.0, 2.0, 1.0];
        assert_eq!(isotonic_regression(&v), vec![2.5, 2.5, 2.5, 2.5]);
    }

    #[test]
    fn output_always_sorted() {
        let v = vec![5.0, -1.0, 3.0, 2.0, 8.0, 0.0];
        let z = isotonic_regression(&v);
        assert!(is_sorted(&z));
        assert_eq!(z.len(), v.len());
    }

    #[test]
    fn projection_preserves_mean() {
        // The L2 projection onto the monotone cone preserves the total sum
        // for uniform weights (block means preserve block sums).
        let v = vec![5.0, -1.0, 3.0, 2.0, 8.0, 0.0];
        let z = isotonic_regression(&v);
        let sv: f64 = v.iter().sum();
        let sz: f64 = z.iter().sum();
        assert!((sv - sz).abs() < 1e-9);
    }

    #[test]
    fn weighted_pooling() {
        // Heavier weight pulls the pooled value toward that element.
        let z = isotonic_regression_weighted(&[3.0, 1.0], Some(&[3.0, 1.0]));
        assert!((z[0] - 2.5).abs() < 1e-12);
        assert_eq!(z[0], z[1]);
    }

    #[test]
    fn nonneg_clamps_prefix() {
        let z = isotonic_regression_nonneg(&[-2.0, -1.0, 3.0]);
        assert_eq!(z, vec![0.0, 0.0, 3.0]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(isotonic_regression(&[]).is_empty());
        assert_eq!(isotonic_regression(&[7.0]), vec![7.0]);
    }

    /// Verify optimality against a brute-force grid search on a small
    /// instance: no monotone sequence on a fine grid beats PAVA's L2 cost.
    #[test]
    fn projection_optimality_spot_check() {
        let v = [2.0, 0.0, 1.0];
        let z = isotonic_regression(&v);
        let cost = |c: &[f64]| -> f64 { c.iter().zip(&v).map(|(a, b)| (a - b) * (a - b)).sum() };
        let zc = cost(&z);
        let grid: Vec<f64> = (0..=40).map(|i| i as f64 * 0.05).collect();
        for &a in &grid {
            for &b in grid.iter().filter(|&&b| b >= a) {
                for &c in grid.iter().filter(|&&c| c >= b) {
                    assert!(zc <= cost(&[a, b, c]) + 1e-9);
                }
            }
        }
    }
}
