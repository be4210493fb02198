//! The host: its speed, measured with a fixed calibration kernel, and
//! the process's peak memory.
//!
//! On a shared virtual machine the speed of a vCPU drifts by tens of
//! percent over tens of seconds, with other tenants' load. Every
//! end-to-end time is therefore normalized: the benchmark runs a fixed
//! kernel (std only, independent of the simulator) before and after each
//! timed section and scales the section's host time by
//! `REFERENCE_S / kernel time`. The result reads as seconds on a host
//! whose kernel takes [`REFERENCE_S`]; a change to the simulator moves it
//! exactly as it moves raw time, while host drift that slows the kernel
//! and the section alike cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, seconds, on the reference host: the median measured on
/// an otherwise idle 2-vCPU x86-64 VM.
pub const REFERENCE_S: f64 = 0.003;

/// One run of the kernel: sorting, string formatting and hashing over a
/// few hundred kilobytes, the operations the simulator's data path and
/// scheduler spend their time in.
fn kernel(mut x: u64) -> u64 {
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut numbers: Vec<u64> = (0..65_536).map(|_| next()).collect();
    numbers.sort_unstable();
    let mut words: Vec<String> = numbers
        .iter()
        .step_by(16)
        .map(|n| format!("{n:x}"))
        .collect();
    words.sort();
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for &n in numbers.iter().step_by(2) {
        *counts.entry(n % 8191).or_insert(0) += 1;
    }
    numbers[4096] ^ words[7].len() as u64 ^ counts.len() as u64
}

/// The kernel's host time now: the median of three runs, so a single
/// interrupt does not skew it.
pub fn calibrate() -> f64 {
    let mut runs: Vec<f64> = (0..3u64)
        .map(|i| {
            let t = Instant::now();
            black_box(kernel(black_box(0x9e37_79b9_7f4a_7c15 ^ i)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// Times sections of work against the calibration kernel.
#[derive(Debug)]
pub struct HostClock {
    last: f64,
    /// Kernel times measured so far, seconds.
    pub calibrations: Vec<f64>,
}

/// One timed section.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host seconds as measured.
    pub raw_s: f64,
    /// `REFERENCE_S` over the mean kernel time before and after.
    pub factor: f64,
}

impl Timed {
    /// The section's time normalized to the reference host, seconds.
    pub fn seconds(&self) -> f64 {
        self.raw_s * self.factor
    }
}

impl HostClock {
    /// Calibrates once to have a "before" for the first section.
    pub fn new() -> HostClock {
        let first = calibrate();
        HostClock {
            last: first,
            calibrations: vec![first],
        }
    }

    /// Runs and times `f`, calibrating after it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let t = Instant::now();
        let result = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = calibrate();
        let factor = REFERENCE_S / (0.5 * (self.last + after));
        self.last = after;
        self.calibrations.push(after);
        (result, Timed { raw_s, factor })
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_scales_by_the_kernel_time() {
        let t = Timed {
            raw_s: 2.0,
            factor: REFERENCE_S / (2.0 * REFERENCE_S),
        };
        assert!((t.seconds() - 1.0).abs() < 1e-12);
        let mut clock = HostClock::new();
        let (v, timed) = clock.time(|| 5);
        assert_eq!(v, 5);
        assert!(timed.factor.is_finite() && timed.factor > 0.0);
        assert_eq!(clock.calibrations.len(), 2);
    }
}
