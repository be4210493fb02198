//! Measurement plumbing shared by the workloads: per-op timing and
//! digests, the layer tracer, order statistics and process statistics.

use std::collections::BTreeMap;
use std::time::Instant;

/// FNV-1a over 64-bit words: a stable, dependency-free digest of the
/// simulator's outputs. Floats are hashed by their exact bit pattern.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in one word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes in a float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Mixes in a byte string and its length.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64);
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything one pass produced: per-op host latency, the digest of
/// every op and pass-level result (in a fixed order), and the failures.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Host nanoseconds per op, in op order.
    pub op_ns: Vec<u64>,
    /// One digest per op, then one per pass-level result, in pass order.
    pub digests: Vec<u64>,
    /// Ops that failed: `(digest index, reason)`.
    pub failures: Vec<(usize, String)>,
}

impl PassLog {
    /// Runs and times one op. `f` returns the op's output digest, or why
    /// the op failed (an unexpected error or a failed output check).
    pub fn op(&mut self, f: impl FnOnce() -> Result<u64, String>) {
        let start = Instant::now();
        let result = f();
        self.op_ns.push(start.elapsed().as_nanos() as u64);
        self.record(result);
    }

    /// Records an untimed pass-level result (a fit, an export).
    pub fn record(&mut self, result: Result<u64, String>) {
        match result {
            Ok(d) => self.digests.push(d),
            Err(e) => {
                self.failures.push((self.digests.len(), e));
                self.digests.push(0);
            }
        }
    }

    /// The digest of the whole pass.
    pub fn pass_digest(&self) -> u64 {
        let mut d = Digest::default();
        for &x in &self.digests {
            d.u64(x);
        }
        d.finish()
    }

    /// Marks every entry whose digest differs from `reference` (the cold
    /// pass) as failed. Entries that already failed are not counted twice.
    pub fn check_against(&mut self, reference: &[u64]) {
        if reference.len() != self.digests.len() {
            self.failures.push((
                0,
                format!(
                    "pass produced {} results, the cold pass {}",
                    self.digests.len(),
                    reference.len()
                ),
            ));
            return;
        }
        for (i, (a, b)) in self.digests.iter().zip(reference).enumerate() {
            if a != b && !self.failures.iter().any(|(j, _)| *j == i) {
                self.failures
                    .push((i, format!("result {i} differs from the cold pass")));
            }
        }
    }
}

/// One recorded layer span: a public call into a crate, timed from the
/// benchmark. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Call name, `<layer>.<function>`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Op index within its pass (`u32::MAX` for pass-level calls).
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Records layer spans and per-layer accumulators when on; costs one
/// branch per call when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    sums: BTreeMap<&'static str, f64>,
}

/// The op id of calls made outside any op.
pub const PASS_LEVEL: u32 = u32::MAX;

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: PASS_LEVEL,
            sums: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id stamped on the following spans.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration in seconds (0 when the tracer is off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.on {
            return (f(self), 0.0);
        }
        let idx = self.spans.len() as u32;
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            op: self.op,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let result = f(self);
        self.open.pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans[idx as usize].end = end;
        (result, (end - start) as f64 * 1e-9)
    }

    /// Adds `v` to the named accumulator (no-op when off).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.sums.entry(name).or_insert(0.0) += v;
        }
    }

    /// The accumulated value of `name` (0 if never added).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time in ns: the span's duration minus the durations of
/// its direct children. Children of one span are sequential calls, so
/// they never overlap and their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.end - s.start;
        }
    }
    own
}

/// Aggregate of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of calls.
    pub count: u64,
    /// Inclusive seconds.
    pub inclusive_s: f64,
    /// Self seconds.
    pub self_s: f64,
}

/// Inclusive time, self time and call count per span name.
pub fn span_totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, o) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.inclusive_s += (s.end - s.start) as f64 * 1e-9;
        t.self_s += o as f64 * 1e-9;
    }
    out
}

/// The nearest-rank `q`-quantile of `samples`, reported only when at
/// least ten samples lie beyond it; otherwise the tail is too thin to
/// say anything and the answer is `None`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Serializes tests that run the engines: observability's recorder is
/// process-global, and `trace_export` switches it on and exports it.
#[cfg(test)]
pub fn engine_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th value, with exactly 10 beyond it.
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        // 99 samples leave only 9 beyond p90.
        assert_eq!(percentile(&xs[..99], 0.9), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&xs, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        assert_eq!(percentile(&many[..999], 0.99), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(20.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            op: 0,
            parent,
        };
        // op [0, 100] holds run [10, 70] (which holds plan [20, 30] and
        // execute [30, 60]) and seq [70, 95].
        let spans = vec![
            span("op", 0, 100, None),
            span("run", 10, 70, Some(0)),
            span("plan", 20, 30, Some(1)),
            span("execute", 30, 60, Some(1)),
            span("seq", 70, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 10, 30, 25]);
        let totals = span_totals(&spans);
        assert_eq!(totals["run"].count, 1);
        assert!((totals["run"].inclusive_s - 60e-9).abs() < 1e-15);
        assert!((totals["run"].self_s - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_spans_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let (v, outer) = t.span("outer", |t| {
            let (x, _) = t.span("inner", |_| 2);
            x + 1
        });
        assert_eq!(v, 3);
        assert!(outer >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Tracer::new(false);
        let (v, d) = off.span("x", |_| 7);
        off.add("n", 1.0);
        assert_eq!((v, d), (7, 0.0));
        assert!(off.spans().is_empty());
        assert_eq!(off.sum("n"), 0.0);
    }

    #[test]
    fn digest_mismatches_fail_the_entry_once() {
        let mut cold = PassLog::default();
        cold.op(|| Ok(1));
        cold.op(|| Ok(2));
        cold.record(Ok(3));
        let mut warm = PassLog::default();
        warm.op(|| Ok(1));
        warm.op(|| Err("boom".into()));
        warm.record(Ok(4));
        warm.check_against(&cold.digests);
        let failed: Vec<usize> = warm.failures.iter().map(|f| f.0).collect();
        assert_eq!(failed, vec![1, 2]);
        assert_ne!(cold.pass_digest(), warm.pass_digest());
    }
}
