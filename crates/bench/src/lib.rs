//! # bf-bench — experiment harness reproducing every figure of the paper
//!
//! One binary per figure/table (see DESIGN.md §4 for the index):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1a` | Fig 1(a): twitter k-means, `G^{L1,θ}` |
//! | `fig1b` | Fig 1(b): skin01 k-means, `G^{L1,θ}` |
//! | `fig1c` | Fig 1(c): synthetic k-means, `G^{L1,θ}` |
//! | `fig1d` | Fig 1(d): skin objective ratio vs dataset size |
//! | `fig1e` | Fig 1(e): `G^attr` on all three datasets |
//! | `fig1f` | Fig 1(f): twitter `G^P` partitions |
//! | `fig2a` | Fig 2(a): OH tree structure illustration |
//! | `fig2b` | Fig 2(b): adult capital-loss range queries |
//! | `fig2c` | Fig 2(c): twitter latitude range queries |
//! | `sec8_policy_graph` | Fig 3 / Examples 8.1–8.3 |
//! | `sec8_sensitivity` | Theorems 8.2/8.4/8.5/8.6 closed forms vs exact |
//! | `thm71_bounds` | Theorem 7.1 error bound check |
//! | `ablation_fanout` | fanout sweep for hierarchical / OH |
//! | `ablation_split` | Eq. 15 split vs fixed splits (+ Eq. 14 predictions) |
//! | `ablation_inference` | constrained inference on/off; wavelet baseline |
//! | `run_all` | runs everything above, writing `results/<name>.txt` |
//!
//! Every binary accepts `--full` to run at the paper's scale (full
//! dataset cardinalities, 50 trials); the default is a reduced but
//! shape-preserving configuration that completes in seconds.

pub mod kmeans_harness;
pub mod range_harness;

use std::time::Instant;

/// Run-scale configuration shared by the experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Paper-scale data sizes and trial counts.
    pub full: bool,
}

impl Scale {
    /// Parses `--full` from the process arguments.
    pub fn from_args() -> Self {
        let full = std::env::args().any(|a| a == "--full");
        Self { full }
    }

    /// Picks between the quick and full values.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }
}

/// The ε sweep used throughout the paper's figures: 0.1, 0.2, …, 1.0.
pub fn epsilon_sweep() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A figure-style series table: an x column (usually ε) and one series
/// per policy, printed as aligned whitespace-separated text that can be
/// piped straight into gnuplot.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    title: String,
    x_label: String,
    series_labels: Vec<String>,
    rows: Vec<(f64, Vec<f64>)>,
}

impl SeriesTable {
    /// Creates an empty table.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        series_labels: Vec<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            series_labels,
            rows: Vec::new(),
        }
    }

    /// Appends a row; `values` must match the number of series.
    pub fn push_row(&mut self, x: f64, values: Vec<f64>) {
        assert_eq!(values.len(), self.series_labels.len());
        self.rows.push((x, values));
    }

    /// The collected rows.
    pub fn rows(&self) -> &[(f64, Vec<f64>)] {
        &self.rows
    }

    /// Renders the table.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!(
            "# {:>8} {}\n",
            self.x_label,
            self.series_labels
                .iter()
                .map(|s| format!("{s:>16}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        for (x, vals) in &self.rows {
            out.push_str(&format!(
                "{x:>10.3} {}\n",
                vals.iter()
                    .map(|v| format!("{v:>16.6}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Times a closure and prints the elapsed wall time — experiment binaries
/// wrap their body in this so output always ends with a timing line.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("[{label}] completed in {:.2?}", start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn table_rendering() {
        let mut t = SeriesTable::new("demo", "eps", vec!["a".into(), "b".into()]);
        t.push_row(0.1, vec![1.0, 2.0]);
        let r = t.render();
        assert!(r.contains("# demo"));
        assert!(r.contains("0.100"));
        assert_eq!(t.rows().len(), 1);
    }

    #[test]
    fn sweep() {
        let e = epsilon_sweep();
        assert_eq!(e.len(), 10);
        assert!((e[0] - 0.1).abs() < 1e-12);
        assert!((e[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_pick() {
        let s = Scale { full: false };
        assert_eq!(s.pick(1, 2), 1);
        assert_eq!(Scale { full: true }.pick(1, 2), 2);
    }
}
