//! In-memory spans recorded by the benchmark around its calls into each
//! layer, the self-time arithmetic over them, and the `trace.json`
//! writer. Nothing here runs unless `--trace 1`.

use std::fmt::Write as _;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call. Spans of one request share `request`; `parent`
/// indexes the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub depth: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span list on one clock.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index, for children to
    /// name as their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        depth: u8,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            request,
            depth,
            start_ns,
            end_ns,
            parent,
        });
        (self.spans.len() - 1) as u32
    }
}

/// Appends spans recorded in another log, re-basing their parent
/// indices onto `into`.
pub fn append(into: &mut Vec<Span>, from: Vec<Span>) {
    let base = into.len() as u32;
    into.extend(from.into_iter().map(|mut s| {
        if s.parent != ROOT {
            s.parent += base;
        }
        s
    }));
}

/// Each span's self time: its duration minus the durations of the spans
/// that name it as parent. Signed, because a child measured on another
/// pass (the ladder) may exceed its parent; that is reported, never
/// clamped.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if s.parent != ROOT {
            own[s.parent as usize] -= s.duration_ns() as i64;
        }
    }
    own
}

/// The ladder's rungs: self time of depth `k` is the median at depth `k`
/// minus the median one depth down (depth 1 keeps its whole median), so
/// the rungs sum back to the deepest median exactly.
pub fn ladder_rungs(medians: &[f64]) -> Vec<f64> {
    medians
        .iter()
        .enumerate()
        .map(|(k, m)| if k == 0 { *m } else { m - medians[k - 1] })
        .collect()
}

/// Writes at most `cap` spans as JSON, saying how many the log held.
pub fn write_trace(path: &std::path::Path, spans: &[Span], cap: usize) -> std::io::Result<()> {
    let mut out = String::with_capacity(96 * spans.len().min(cap) + 128);
    write!(
        out,
        "{{\"recorded\": {}, \"written\": {}, \"spans\": [",
        spans.len(),
        spans.len().min(cap)
    )
    .expect("write to string");
    for (i, s) in spans.iter().take(cap).enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let parent = if s.parent == ROOT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        write!(
            out,
            "{sep}{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"depth\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.name, s.request, s.depth, s.start_ns, s.end_ns
        )
        .expect("write to string");
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "t",
            request: 0,
            depth: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // root 0..100 ── a 10..40 ── a1 15..25
        //             └─ b 50..90
        let spans = [
            span(0, 100, ROOT),
            span(10, 40, 0),
            span(15, 25, 1),
            span(50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // A child longer than its parent goes negative, unclamped.
        let odd = [span(0, 10, ROOT), span(0, 25, 0)];
        assert_eq!(self_times(&odd), vec![-15, 25]);
    }

    #[test]
    fn rungs_telescope_to_the_deepest_median() {
        let medians = [100.0, 130.0, 125.0, 2_000.0, 8_000.0];
        let rungs = ladder_rungs(&medians);
        assert_eq!(rungs, vec![100.0, 30.0, -5.0, 1_875.0, 6_000.0]);
        assert_eq!(rungs.iter().sum::<f64>(), 8_000.0);
    }

    #[test]
    fn append_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.push("x", 1, 0, 0, 5, ROOT);
        let mut b = SpanLog::new(epoch);
        let p = b.push("y", 2, 0, 0, 9, ROOT);
        b.push("z", 2, 1, 1, 4, p);
        append(&mut a.spans, b.spans);
        assert_eq!(a.spans[1].parent, ROOT);
        assert_eq!(a.spans[2].parent, 1);
    }
}
