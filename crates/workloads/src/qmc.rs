//! Quasi-Monte-Carlo π estimation (Hadoop examples; paper Fig. 4a).
//!
//! Each map task evaluates a slice of a low-discrepancy Halton sequence
//! and counts points inside the unit quarter-circle; the reducer sums the
//! counts and produces the π estimate. There is essentially no serial
//! workload (`η → 1`) and no intermediate data, so the measured speedup
//! matches Gustafson's law — the paper's only purely benign MapReduce
//! case.
//!
//! The mapper evaluates the two Halton coordinates (bases 2 and 3) from
//! compile-time tables instead of [`van_der_corput`]'s chain of float
//! divisions, a chunk of consecutive indices at a time. One table holds
//! `van_der_corput` itself over the low digits (4096 base-2 and 2187
//! base-3 entries). A chunk never crosses a multiple of 4096 or of 2187,
//! so its remaining high digits are the same for every point in it, and
//! their terms are gathered once per chunk into two short lists. One
//! pass over the chunk's table entries, eight points at a time, then
//! adds each list's terms to a point's entries in order and counts the
//! point if it lies inside the circle; no coordinate is stored. The
//! coordinates are bit-identical to `van_der_corput`, not an
//! approximation:
//!
//! * base 2: every partial sum through binary digit 52 is a multiple of
//!   2^-53 below 1, which an `f64` holds exactly, so those adds never
//!   round and their order does not matter. Digits 12 through 52 are
//!   therefore summed into one term; any digit from 53 up is its own
//!   term, least-significant first, as `van_der_corput` adds it;
//! * base 3: each nonzero high digit's term (digit times the weight from
//!   the same `f /= base` chain) is one term, least-significant digit
//!   first, as `van_der_corput` adds it. A zero digit would add `+0.0`
//!   to a non-negative sum, which changes no bit, so it is skipped.

use ipso_mapreduce::{
    InputSplit, JobCostModel, JobSpec, Mapper, OutputScaling, Reducer, ScalingSweep,
};

/// Nominal samples per map task (drives the charged map time).
pub const SAMPLES_PER_TASK: u64 = 2_500_000_000;
/// Halton points actually evaluated per task.
const SAMPLE_POINTS: u64 = 20_000;
/// Nominal "bytes" per sample for cost accounting (the QMC kernel is
/// CPU-bound; one sample costs as much as streaming ~1.6 bytes).
const BYTES_PER_SAMPLE: u64 = 2;

/// The `index`-th element of the van der Corput sequence in `base`: the
/// base-`base` digits of `index` mirrored about the radix point, summed
/// least-significant digit first.
///
/// # Panics
///
/// If `base < 2` (base 1 never terminates, base 0 divides by zero).
pub const fn van_der_corput(mut index: u64, base: u64) -> f64 {
    assert!(base >= 2, "van der Corput base must be at least 2");
    let mut result = 0.0;
    let mut f = 1.0 / base as f64;
    while index > 0 {
        result += f * (index % base) as f64;
        index /= base;
        f /= base as f64;
    }
    result
}

/// Low base-2 digits resolved by one [`LOW_SUMS_2`] lookup.
const LOW_DIGITS_2: u32 = 12;
/// Low base-3 digits resolved by one [`LOW_SUMS_3`] lookup.
const LOW_DIGITS_3: u32 = 7;

/// `w[k] = base^-(k + 1)`, computed by [`van_der_corput`]'s own division
/// chain (`w[0] = 1 / base`, `w[k] = w[k - 1] / base`), so every weight
/// is bit-identical to the factor the loop multiplies digit `k` by.
const fn digit_weights<const DIGITS: usize>(base: u64) -> [f64; DIGITS] {
    let mut weights = [0.0; DIGITS];
    let mut f = 1.0 / base as f64;
    let mut k = 0;
    while k < DIGITS {
        weights[k] = f;
        f /= base as f64;
        k += 1;
    }
    weights
}

/// `sums[i] = van_der_corput(i, base)` for every `i < LEN`.
const fn low_digit_sums<const LEN: usize>(base: u64) -> [f64; LEN] {
    let mut sums = [0.0; LEN];
    let mut i = 0;
    while i < LEN {
        sums[i] = van_der_corput(i as u64, base);
        i += 1;
    }
    sums
}

/// Base-2 digit weights; a `u64` has at most 64 binary digits.
const WEIGHTS_2: [f64; 64] = digit_weights(2);
/// Base-3 digit weights; a `u64` has at most 41 ternary digits.
const WEIGHTS_3: [f64; 41] = digit_weights(3);
/// Partial sums over the low [`LOW_DIGITS_2`] binary digits.
static LOW_SUMS_2: [f64; 1 << LOW_DIGITS_2] = low_digit_sums(2);
/// Partial sums over the low [`LOW_DIGITS_3`] ternary digits.
static LOW_SUMS_3: [f64; 3usize.pow(LOW_DIGITS_3)] = low_digit_sums(3);

/// Base-2 indices per [`LOW_SUMS_2`] block.
const LOW_BLOCK_2: u64 = 1 << LOW_DIGITS_2;
/// Base-3 indices per [`LOW_SUMS_3`] block.
const LOW_BLOCK_3: u64 = 3u64.pow(LOW_DIGITS_3);

/// Binary digits whose partial sums an `f64` holds exactly: through
/// digit 52 each is a multiple of 2^-53 below 1.
const EXACT_DIGITS_2: u32 = 53;
/// Bits 12 through 52 of an index: the digits whose terms
/// [`HighTerms::new`] sums into one.
const EXACT_HIGH_2: u64 = (1 << EXACT_DIGITS_2) - LOW_BLOCK_2;
/// Most base-2 terms of a chunk: the one-term sum, then one per binary
/// digit from [`EXACT_DIGITS_2`] up.
const MAX_TERMS_2: usize = 1 + (u64::BITS - EXACT_DIGITS_2) as usize;
/// Most base-3 terms of a chunk: one per ternary digit above the low
/// ones.
const MAX_TERMS_3: usize = WEIGHTS_3.len() - LOW_DIGITS_3 as usize;

/// Points per block of the one pass over a chunk.
const LANES: usize = 8;
/// The table entry of a lane past a chunk's last point. The terms added
/// to it are non-negative, so its point lies outside the circle.
const OUTSIDE: f64 = 2.0;

/// The terms a chunk's high digits add to each of its points' table
/// entries, in [`van_der_corput`]'s order: least-significant digit
/// first (see the module doc for why the sums are exact).
struct HighTerms {
    /// Base 2: the one-term sum of the digits below [`EXACT_DIGITS_2`],
    /// then each set digit from there up.
    x: [f64; MAX_TERMS_2],
    x_len: usize,
    /// Base 3: each nonzero digit's term.
    y: [f64; MAX_TERMS_3],
    y_len: usize,
}

impl HighTerms {
    /// The terms of every point from index `first` to the next multiple
    /// of 4096 or of 2187.
    fn new(first: u64) -> Self {
        let mut terms = HighTerms {
            x: [0.0; MAX_TERMS_2],
            x_len: 1,
            y: [0.0; MAX_TERMS_3],
            y_len: 0,
        };
        // Base-2 digits are 0 or 1, so each set bit adds its weight.
        let mut bits = first & EXACT_HIGH_2;
        while bits != 0 {
            terms.x[0] += WEIGHTS_2[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        let mut high = first >> EXACT_DIGITS_2;
        while high != 0 {
            terms.x[terms.x_len] = WEIGHTS_2[(EXACT_DIGITS_2 + high.trailing_zeros()) as usize];
            terms.x_len += 1;
            high &= high - 1;
        }

        let mut high = first / LOW_BLOCK_3;
        let mut k = LOW_DIGITS_3 as usize;
        while high > 0 {
            let digit = high % 3;
            if digit != 0 {
                terms.y[terms.y_len] = WEIGHTS_3[k] * digit as f64;
                terms.y_len += 1;
            }
            high /= 3;
            k += 1;
        }
        terms
    }

    /// Turns a block's table entries into its points' coordinates: adds
    /// every term to every lane, in order.
    fn add_to(&self, x: &mut [f64; LANES], y: &mut [f64; LANES]) {
        for (lanes, terms) in [(x, &self.x[..self.x_len]), (y, &self.y[..self.y_len])] {
            for &term in terms {
                for v in lanes.iter_mut() {
                    *v += term;
                }
            }
        }
    }
}

/// Evaluates the Halton points of `slice` (indices `offset + 1` through
/// `offset + count`) in one pass, [`LANES`] consecutive points at a
/// time, passing each block's first index and coordinates to `visit`:
/// `x[j]` is `van_der_corput(first + j, 2)` and `y[j]` is
/// `van_der_corput(first + j, 3)`, bit for bit.
///
/// The slice is cut into chunks that cross no multiple of 4096 or of
/// 2187, so one [`HighTerms`] serves a whole chunk. A chunk's last block
/// may be short; its missing lanes hold [`OUTSIDE`].
fn for_each_block(slice: &QmcSlice, mut visit: impl FnMut(u64, &[f64; LANES], &[f64; LANES])) {
    let end = slice.offset + slice.count;
    let mut i = slice.offset;
    while i < end {
        let first = i + 1;
        let len = (end - i)
            .min(LOW_BLOCK_2 - first % LOW_BLOCK_2)
            .min(LOW_BLOCK_3 - first % LOW_BLOCK_3) as usize;
        let terms = HighTerms::new(first);
        let low_2 = (first % LOW_BLOCK_2) as usize;
        let low_3 = (first % LOW_BLOCK_3) as usize;
        let (blocks_2, tail_2) = LOW_SUMS_2[low_2..low_2 + len].as_chunks::<LANES>();
        let (blocks_3, tail_3) = LOW_SUMS_3[low_3..low_3 + len].as_chunks::<LANES>();
        let mut block_first = first;
        let mut eval = |mut x: [f64; LANES], mut y: [f64; LANES]| {
            terms.add_to(&mut x, &mut y);
            visit(block_first, &x, &y);
            block_first = block_first.wrapping_add(LANES as u64);
        };
        for (&x, &y) in blocks_2.iter().zip(blocks_3) {
            eval(x, y);
        }
        if !tail_2.is_empty() {
            let (mut x, mut y) = ([OUTSIDE; LANES], [OUTSIDE; LANES]);
            x[..tail_2.len()].copy_from_slice(tail_2);
            y[..tail_3.len()].copy_from_slice(tail_3);
            eval(x, y);
        }
        i += len as u64;
    }
}

/// One task's slice of the Halton sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QmcSlice {
    /// First sequence index of the slice.
    pub offset: u64,
    /// Points to evaluate.
    pub count: u64,
}

/// Counts Halton points falling inside the unit quarter circle.
#[derive(Debug, Clone, Copy, Default)]
pub struct QmcMapper;

impl Mapper for QmcMapper {
    type Input = QmcSlice;
    type Key = u32;
    type Value = (u64, u64);

    fn map(&self, slice: &QmcSlice, emit: &mut dyn FnMut(u32, (u64, u64))) {
        // 2D Halton: bases 2 and 3.
        let mut inside = 0u64;
        for_each_block(slice, |_, x, y| {
            inside += x
                .iter()
                .zip(y)
                .filter(|&(x, y)| x * x + y * y <= 1.0)
                .count() as u64;
        });
        emit(0, (inside, slice.count));
    }

    fn output_scaling(&self) -> OutputScaling {
        OutputScaling::Saturating
    }
}

/// Sums partial counts into the π estimate.
#[derive(Debug, Clone, Copy, Default)]
pub struct QmcReducer;

impl Reducer for QmcReducer {
    type Key = u32;
    type Value = (u64, u64);
    type Output = f64;

    fn reduce(&self, _key: u32, values: &[(u64, u64)], emit: &mut dyn FnMut(f64)) {
        let inside: u64 = values.iter().map(|v| v.0).sum();
        let total: u64 = values.iter().map(|v| v.1).sum();
        emit(4.0 * inside as f64 / total as f64);
    }
}

/// Cost calibration: pure compute, ~50 s per map task, negligible serial
/// work (a fraction of a second of reducer setup).
pub fn cost_model() -> JobCostModel {
    JobCostModel {
        map_rate: 100.0e6,
        shuffle_rate: 500.0e6,
        merge_rate: 500.0e6,
        reduce_rate: 500.0e6,
        serial_setup: 0.3,
    }
}

/// The job spec at scale-out degree `n`.
pub fn job_spec(n: u32) -> JobSpec {
    let mut spec = JobSpec::emr("qmc-pi", n);
    spec.cost = cost_model();
    spec
}

/// The `n` fixed-time slices. Each task nominally evaluates
/// [`SAMPLES_PER_TASK`] samples but executes a deterministic
/// 20 000-point slice.
pub fn make_splits(n: u32) -> Vec<InputSplit<QmcSlice>> {
    (0..n)
        .map(|task| {
            let slice = QmcSlice {
                offset: u64::from(task) * SAMPLE_POINTS,
                count: SAMPLE_POINTS,
            };
            InputSplit::new(
                vec![slice],
                SAMPLE_POINTS * BYTES_PER_SAMPLE,
                SAMPLES_PER_TASK * BYTES_PER_SAMPLE,
            )
        })
        .collect()
}

/// Runs the full paper sweep for QMC-Pi.
pub fn sweep(ns: &[u32]) -> ScalingSweep {
    ScalingSweep::run(ns, &QmcMapper, &QmcReducer, job_spec, make_splits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn van_der_corput_known_values() {
        // Base 2: 1 → 0.5, 2 → 0.25, 3 → 0.75.
        assert!((van_der_corput(1, 2) - 0.5).abs() < 1e-12);
        assert!((van_der_corput(2, 2) - 0.25).abs() < 1e-12);
        assert!((van_der_corput(3, 2) - 0.75).abs() < 1e-12);
        // Base 3: 1 → 1/3, 2 → 2/3.
        assert!((van_der_corput(1, 3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((van_der_corput(2, 3) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn van_der_corput_rejects_base_one() {
        van_der_corput(5, 1);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn van_der_corput_rejects_base_zero() {
        van_der_corput(5, 0);
    }

    /// The slice whose points are exactly the indices `first..=last`.
    fn window(first: u64, last: u64) -> QmcSlice {
        QmcSlice {
            offset: first - 1,
            count: last - first + 1,
        }
    }

    /// Asserts that every coordinate the one-pass kernel produces for
    /// `slice` has the bits of `van_der_corput` at its index, that each
    /// block's missing lanes lie outside the circle, and that the blocks
    /// cover the slice's indices in order.
    fn assert_chunk_bits(slice: &QmcSlice) {
        let mut next = slice.offset + 1;
        let mut seen = 0u64;
        for_each_block(slice, |first, x, y| {
            assert_eq!(first, next, "blocks are contiguous");
            let lanes = x.iter().take_while(|&&x| x < OUTSIDE).count();
            for j in 0..lanes {
                let i = first + j as u64;
                let want_x = van_der_corput(i, 2);
                let want_y = van_der_corput(i, 3);
                assert_eq!(x[j].to_bits(), want_x.to_bits(), "base 2, index {i}");
                assert_eq!(y[j].to_bits(), want_y.to_bits(), "base 3, index {i}");
            }
            for j in lanes..LANES {
                assert!(x[j] >= OUTSIDE && y[j] >= OUTSIDE, "lane {j} past {first}");
            }
            seen += lanes as u64;
            next = first.wrapping_add(lanes as u64);
        });
        assert_eq!(seen, slice.count);
    }

    /// The paper sweep's slices at its largest degree: every index any
    /// degree of the sweep evaluates.
    fn paper_sweep_slices() -> Vec<QmcSlice> {
        let max_n = *crate::PAPER_SWEEP.iter().max().unwrap();
        make_splits(max_n)
            .into_iter()
            .map(|split| split.records[0])
            .collect()
    }

    #[test]
    fn chunk_kernel_is_bit_identical_over_the_paper_sweep() {
        let slices = paper_sweep_slices();
        assert_eq!(slices.len(), 200);
        for slice in &slices {
            assert_chunk_bits(slice);
        }
    }

    /// Windows across multiples of 4096, of 2187 and of both, one point,
    /// and a window that is exactly one aligned chunk.
    fn block_boundary_windows() -> Vec<QmcSlice> {
        const BOTH: u64 = LOW_BLOCK_2 * LOW_BLOCK_3;
        let mut windows = Vec::new();
        for m in [1, 2, 3, 1000, 1 << 20, 1 << 40] {
            for block in [LOW_BLOCK_2, LOW_BLOCK_3, BOTH] {
                let edge = m * block;
                windows.push(window(edge - 2000, edge + 2000));
            }
        }
        windows.push(window(BOTH, BOTH));
        windows.push(window(BOTH, BOTH + LOW_BLOCK_3 - 1));
        windows
    }

    /// Windows where the term lists are longest: 2^53, where the first
    /// digit outside the one-term sum sets, and its nearest multiples of
    /// 4096 and 2187; digits 53 and 54 set over a clear digit 52, where
    /// the second add rounds differently if both digits join the
    /// one-term sum; and the top of the index range.
    fn two_53_windows() -> Vec<QmcSlice> {
        const TWO_53: u64 = 1 << 53;
        let below_3 = TWO_53 / LOW_BLOCK_3 * LOW_BLOCK_3;
        let mut windows: Vec<QmcSlice> = [
            TWO_53 - LOW_BLOCK_2,
            TWO_53,
            TWO_53 + LOW_BLOCK_2,
            below_3,
            below_3 + LOW_BLOCK_3,
            3 * TWO_53,
        ]
        .into_iter()
        .map(|edge| window(edge - 3000, edge + 3000))
        .collect();
        windows.push(window(u64::MAX - 30_000, u64::MAX));
        windows
    }

    #[test]
    fn chunk_kernel_is_bit_identical_across_block_boundaries() {
        for slice in &block_boundary_windows() {
            assert_chunk_bits(slice);
        }
    }

    #[test]
    fn chunk_kernel_is_bit_identical_at_large_indices() {
        assert_chunk_bits(&window((1u64 << 40) - 50_000, (1u64 << 40) + 49_999));
        assert_chunk_bits(&window(u64::MAX / 2 - 5000, u64::MAX / 2 + 5000));
        for slice in &two_53_windows() {
            assert_chunk_bits(slice);
        }
    }

    /// The mapper's count over `slice` equals the count of
    /// `van_der_corput` points inside the circle.
    fn assert_count_matches_the_oracle(slice: &QmcSlice) {
        let want = (slice.offset + 1..=slice.offset + slice.count)
            .filter(|&i| {
                let (x, y) = (van_der_corput(i, 2), van_der_corput(i, 3));
                x * x + y * y <= 1.0
            })
            .count() as u64;
        let mut got = Vec::new();
        QmcMapper.map(slice, &mut |k, v| got.push((k, v)));
        assert_eq!(got, vec![(0, (want, slice.count))], "{slice:?}");
    }

    #[test]
    fn boundary_and_two_53_counts_match_the_per_point_oracle() {
        for slice in block_boundary_windows().iter().chain(&two_53_windows()) {
            assert_count_matches_the_oracle(slice);
        }
    }

    #[test]
    fn slice_counts_match_the_per_point_oracle() {
        for slice in paper_sweep_slices() {
            assert_count_matches_the_oracle(&slice);
        }
    }

    #[test]
    fn pi_estimate_is_accurate() {
        use ipso_mapreduce::try_run_scale_out;
        let run =
            try_run_scale_out(&job_spec(4), &QmcMapper, &QmcReducer, &make_splits(4)).unwrap();
        assert_eq!(run.output.len(), 1);
        let pi = run.output[0];
        assert!(
            (pi - std::f64::consts::PI).abs() < 0.01,
            "pi estimate = {pi}"
        );
    }

    #[test]
    fn eta_is_near_one() {
        let sweep = sweep(&[1, 2, 4]);
        let m = &sweep.measurements()[0];
        let eta = m.seq_parallel_work / (m.seq_parallel_work + m.seq_serial_work);
        assert!(eta > 0.97, "eta = {eta}");
    }

    #[test]
    fn speedup_matches_gustafson() {
        let sweep = sweep(&[1, 2, 4, 8, 16, 32, 64]);
        let curve = sweep.speedup_curve().unwrap();
        let s64 = curve.points().last().unwrap().speedup;
        // Near-linear: within 15% of perfect scaling.
        assert!(s64 > 0.85 * 64.0, "S(64) = {s64}");
    }
}
