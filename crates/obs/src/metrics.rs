//! Metrics: counters, gauges and histograms.
//!
//! Three instrument kinds, all registered by name on first use:
//!
//! * **counters** — monotonically increasing `u64` ([`counter_add`]);
//! * **gauges** — last-written / accumulated `f64` ([`gauge_set`],
//!   [`gauge_add`]);
//! * **histograms** — log₂-bucketed `u64` distributions
//!   ([`histogram_record`]), e.g. queueing delays in microseconds.
//!
//! Instruments are named by `&'static str` literals, so an update
//! carries its name without allocating. Values live in the calling
//! thread's recorder, in plain maps keyed by those names. Every entry
//! point is gated on [`crate::enabled`]: disabled cost is one
//! thread-local load.
//!
//! Inside a [`crate::capture`] scope, counter and histogram updates are
//! summed into the scope's own maps: they commute (wrapping integer
//! adds), so merging the sums gives the bits a sequential run would.
//! Gauge updates do not commute (a set overwrites, float adds do not
//! associate), so the scope logs them and [`crate::merge`] replays them
//! in order.

use std::collections::BTreeMap;
use std::fmt;

/// Number of log₂ buckets: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug)]
struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Histogram {
    fn record(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    fn absorb(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| {
                let (lo, hi) = if i == 0 {
                    (0, 1)
                } else {
                    (1u64 << (i - 1), if i == 64 { u64::MAX } else { 1u64 << i })
                };
                (lo, hi, c)
            })
            .collect();
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets,
        }
    }
}

/// Instrument values: a thread's own, or those summed inside one
/// capture scope (whose gauges stay empty; see [`GaugeOp`]).
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    pub(crate) const fn new() -> Registry {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.wrapping_add(delta);
    }

    fn histogram(&mut self, name: &'static str) -> &mut Histogram {
        self.histograms.entry(name).or_insert_with(|| Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        })
    }

    pub(crate) fn gauge(&mut self, op: GaugeOp) {
        match op {
            GaugeOp::Set(name, value) => {
                self.gauges.insert(name, value);
            }
            GaugeOp::Add(name, delta) => *self.gauges.entry(name).or_insert(0.0) += delta,
        }
    }

    /// Adds a capture scope's counters and histograms into this
    /// registry.
    pub(crate) fn absorb(&mut self, scope: Registry) {
        for (name, delta) in scope.counters {
            self.counter_add(name, delta);
        }
        for (name, h) in &scope.histograms {
            self.histogram(name).absorb(h);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// One gauge update. Inside a [`crate::capture`] scope gauge updates
/// are logged and replayed later, in a caller-chosen order, which is
/// how the parallel sweep runner keeps a last-write-wins [`gauge_set`]
/// and float accumulation in [`gauge_add`] deterministic.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum GaugeOp {
    Set(&'static str, f64),
    Add(&'static str, f64),
}

/// Adds `delta` to the named counter (registering it on first use).
/// No-op unless tracing is enabled.
pub fn counter_add(name: &'static str, delta: u64) {
    if crate::enabled() {
        crate::with_recorder(|r| r.metrics().counter_add(name, delta));
    }
}

/// The current value of one of this thread's counters (0 if never
/// touched).
pub fn counter_value(name: &str) -> u64 {
    crate::with_recorder(|r| r.metrics.counters.get(name).copied().unwrap_or(0))
}

/// Sets the named gauge. No-op unless tracing is enabled.
pub fn gauge_set(name: &'static str, value: f64) {
    if crate::enabled() {
        crate::with_recorder(|r| r.gauge(GaugeOp::Set(name, value)));
    }
}

/// Adds `delta` to the named gauge (an accumulating gauge, used for the
/// overhead-component breakdown). No-op unless tracing is enabled.
pub fn gauge_add(name: &'static str, delta: f64) {
    if crate::enabled() {
        crate::with_recorder(|r| r.gauge(GaugeOp::Add(name, delta)));
    }
}

/// The current value of one of this thread's gauges (0.0 if never
/// touched).
pub fn gauge_value(name: &str) -> f64 {
    crate::with_recorder(|r| r.metrics.gauges.get(name).copied().unwrap_or(0.0))
}

/// Records `value` into the named log₂ histogram. No-op unless tracing
/// is enabled.
pub fn histogram_record(name: &'static str, value: u64) {
    if crate::enabled() {
        crate::with_recorder(|r| r.metrics().histogram(name).record(value));
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Non-empty buckets as `(lower, upper_exclusive, count)`; the zero
    /// bucket is `(0, 1, count)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// All gauges, by name.
    pub gauges: BTreeMap<String, f64>,
    /// All histograms, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter   {name:<40} {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "gauge     {name:<40} {v:.6}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "histogram {name:<40} count={} mean={:.1}",
                h.count,
                h.mean()
            )?;
            for &(lo, hi, c) in &h.buckets {
                writeln!(f, "            [{lo}, {hi})  {c}")?;
            }
        }
        Ok(())
    }
}

/// Captures the current state of every instrument on this thread.
pub fn snapshot() -> MetricsSnapshot {
    crate::with_recorder(|r| {
        let m = &r.metrics;
        MetricsSnapshot {
            counters: m.counters.iter().map(|(&k, &v)| (k.into(), v)).collect(),
            gauges: m.gauges.iter().map(|(&k, &v)| (k.into(), v)).collect(),
            histograms: m
                .histograms
                .iter()
                .map(|(&k, h)| (k.into(), h.snapshot()))
                .collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_stays_empty() {
        crate::set_enabled(false);
        crate::reset();
        counter_add("c", 1);
        gauge_set("g", 1.0);
        histogram_record("h", 1);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        crate::set_enabled(true);
        crate::reset();
        counter_add("tasks", 3);
        counter_add("tasks", 2);
        gauge_set("depth", 4.0);
        gauge_add("overhead", 0.25);
        gauge_add("overhead", 0.5);
        histogram_record("delay", 0);
        histogram_record("delay", 1);
        histogram_record("delay", 900);
        crate::set_enabled(false);

        assert_eq!(counter_value("tasks"), 5);
        assert_eq!(counter_value("missing"), 0);
        assert_eq!(gauge_value("depth"), 4.0);
        assert!((gauge_value("overhead") - 0.75).abs() < 1e-12);

        let snap = snapshot();
        let h = &snap.histograms["delay"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 901);
        // 0 → zero bucket; 1 → [1, 2); 900 → [512, 1024).
        assert_eq!(h.buckets[0], (0, 1, 1));
        assert_eq!(h.buckets[1], (1, 2, 1));
        assert_eq!(h.buckets[2], (512, 1024, 1));
        assert!(format!("{snap}").contains("histogram delay"));
        crate::reset();
    }

    #[test]
    fn reset_clears_all_instruments() {
        crate::set_enabled(true);
        crate::reset();
        counter_add("x", 1);
        crate::set_enabled(false);
        assert_eq!(counter_value("x"), 1);
        crate::reset();
        assert_eq!(counter_value("x"), 0);
        assert!(snapshot().counters.is_empty());
    }
}
