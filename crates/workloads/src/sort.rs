//! Sort (HiBench micro benchmark; paper Figs. 4c, 6, 7).
//!
//! Every input line passes through the single reducer, so the serial
//! merging workload grows in proportion to the external scaling: the
//! paper fits `IN(n) = 0.36·n − 0.11` and the speedup saturates near 5 —
//! the pathological IIIt,1 type that Gustafson's law cannot capture.
//!
//! HiBench's Sort configures a large reducer heap, so unlike
//! [`crate::terasort`] no spill regime appears in the measured range; we
//! model that with an unlimited reducer memory.
//!
//! Lines are shared `Arc<str>`s from [`make_splits`] through map, merge
//! and reduce: the mapper keys each record by a clone of its line's
//! `Arc`, and the reducer emits that key's line once per occurrence,
//! moving the key's own `Arc` out for the last one. No line is copied,
//! and a line that occurs once costs one reference-count bump in all.
//! Volumes are accounted from the line lengths, as for `String`.
//!
//! The key is a [`SortKey`]: the line behind its first 16 bytes as two
//! big-endian, zero-padded integers. They order keys as their lines
//! and decide almost every comparison of the map-side sort and the
//! reduce-side merge without reading the line. One 8-byte word would
//! not: neighbours in sorted dictionary text mostly share their first.
//!
//! Every record passes the single reducer, so [`SortReducer`] overrides
//! [`Reducer::reduce_runs`]: it stably sorts the concatenated runs by
//! the packed prefix as one `u128`, a compare without branches, and
//! reads the lines only where prefixes tie. It then walks equal keys
//! with a running count instead of a group buffer. The map side sorts
//! by the derived order, which measured as fast there.

use std::sync::Arc;

use ipso_cluster::MemoryModel;
use ipso_mapreduce::{InputSplit, JobCostModel, JobSpec, Mapper, Reducer, ScalingSweep, Sizeable};
use ipso_sim::SimRng;

use crate::datagen::random_lines;

/// Nominal HDFS shard per map task.
pub const SHARD_BYTES: u64 = 128 * 1024 * 1024;
/// Sample lines executed per task.
const SAMPLE_LINES: usize = 300;
const WORDS_PER_LINE: usize = 8;

/// Bytes a packed prefix holds.
const PREFIX_BYTES: usize = 16;

/// The first [`PREFIX_BYTES`] bytes of `text` as two big-endian `u64`s,
/// bytes 0–7 and 8–15, zero-padded past the text's end.
///
/// Packed prefixes order texts as their bytes do, up to where the
/// prefixes first differ: there the lesser holds a smaller byte, or
/// padding past a shorter text. Two texts share a packed prefix if they
/// are equal, if they differ only in trailing NUL bytes, or if both are
/// longer than [`PREFIX_BYTES`] with the same prefix.
///
/// A short text is read in two overlapping loads, one from its start and
/// one ending at its end, so no byte is copied through a buffer.
fn pack_prefix(text: &[u8]) -> [u64; 2] {
    let n = text.len();
    let be8 = |bytes: &[u8]| u64::from_be_bytes(bytes.try_into().expect("8 bytes"));
    let be4 = |bytes: &[u8]| u64::from(u32::from_be_bytes(bytes.try_into().expect("4 bytes")));
    if n >= PREFIX_BYTES {
        return [be8(&text[..8]), be8(&text[8..16])];
    }
    if n >= 8 {
        // Bytes n-8..n, shifted up until byte 8 leads.
        let next = be8(&text[n - 8..]).checked_shl(8 * (16 - n) as u32);
        return [be8(&text[..8]), next.unwrap_or(0)];
    }
    let head = match n {
        4.. => be4(&text[..4]) << 32 | be4(&text[n - 4..]) << (8 * (8 - n)),
        1.. => {
            // Bytes 0, n/2 and n-1 cover every byte of a 1–3 byte text.
            let byte = |i: usize| u64::from(text[i]) << (56 - 8 * i);
            byte(0) | byte(n / 2) | byte(n - 1)
        }
        0 => 0,
    };
    [head, 0]
}

/// A line keyed by its first 16 bytes: `head` and `next` hold bytes
/// 0–7 and 8–15, big-endian and zero-padded past the line's end. The
/// derived order (`head`, `next`, then `line`) is the lines' byte order:
/// packed prefixes order lines up to where they first differ, and equal
/// prefixes leave it to the lines.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SortKey {
    head: u64,
    next: u64,
    line: Arc<str>,
}

impl SortKey {
    /// The key of `line`, sharing it.
    fn new(line: Arc<str>) -> SortKey {
        let [head, next] = pack_prefix(line.as_bytes());
        SortKey { head, next, line }
    }

    /// The packed prefix as one integer, `head` leading: one compare of
    /// it orders two keys as `head`, then `next`, do.
    fn prefix(&self) -> u128 {
        u128::from(self.head) << 64 | u128::from(self.next)
    }
}

impl Sizeable for SortKey {
    /// The line's length: the prefix is not data.
    fn size_bytes(&self) -> u64 {
        self.line.len() as u64
    }
}

/// Identity mapper keyed by the full line (the sort key).
#[derive(Debug, Clone, Copy, Default)]
pub struct SortMapper;

impl Mapper for SortMapper {
    type Input = Arc<str>;
    type Key = SortKey;
    type Value = u32;

    fn map(&self, line: &Arc<str>, emit: &mut dyn FnMut(SortKey, u32)) {
        // The value carries a multiplicity of one; duplicate lines stack.
        emit(SortKey::new(Arc::clone(line)), 1);
    }

    /// Keys every line, then stably sorts the pairs once: with no
    /// combiner, that is the default's run.
    fn map_split(&self, lines: &[Arc<str>]) -> Vec<(SortKey, u32)> {
        let mut run: Vec<(SortKey, u32)> = lines
            .iter()
            .map(|line| (SortKey::new(Arc::clone(line)), 1))
            .collect();
        run.sort_by(|a, b| a.0.cmp(&b.0));
        run
    }
}

/// Emits each line once per occurrence, in key order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SortReducer;

impl Reducer for SortReducer {
    type Key = SortKey;
    type Value = u32;
    type Output = Arc<str>;

    /// Emits `count - 1` clones of the line, then the key's own `Arc`.
    fn reduce(&self, key: SortKey, values: &[u32], emit: &mut dyn FnMut(Arc<str>)) {
        emit_line(key, values.iter().sum(), emit);
    }

    /// The default's stable sort and grouping walk, with a cheaper
    /// compare and no group buffer: the concatenated runs are sorted by
    /// packed prefix as one `u128`, the lines read only where prefixes
    /// tie, and each key's multiplicities summed as the walk goes. The
    /// first pair of each key keeps its `Arc`, as the default's group
    /// does.
    fn reduce_runs(&self, runs: Vec<Vec<(SortKey, u32)>>, emit: &mut dyn FnMut(Arc<str>)) {
        let len = runs.iter().map(Vec::len).sum();
        let mut pairs: Vec<(SortKey, u32)> = Vec::with_capacity(len);
        for mut run in runs {
            pairs.append(&mut run);
        }
        pairs.sort_by(|(a, _), (b, _)| {
            a.prefix()
                .cmp(&b.prefix())
                .then_with(|| a.line.cmp(&b.line))
        });
        let mut pairs = pairs.into_iter();
        let Some((mut key, mut count)) = pairs.next() else {
            return;
        };
        for (next, n) in pairs {
            if next == key {
                count += n;
            } else {
                emit_line(std::mem::replace(&mut key, next), count, emit);
                count = n;
            }
        }
        emit_line(key, count, emit);
    }
}

/// Emits `key`'s line `count` times: `count - 1` clones, then the key's
/// own `Arc`.
fn emit_line(key: SortKey, count: u32, emit: &mut dyn FnMut(Arc<str>)) {
    if count == 0 {
        return;
    }
    for _ in 1..count {
        emit(Arc::clone(&key.line));
    }
    emit(key.line);
}

/// Cost calibration reproducing the paper's fitted factors
/// (`η ≈ 0.6`, `IN(n) ≈ 0.43·n + 0.57` after normalization, speedup
/// bound ≈ 4.6): pass-through mapping at 80 MB/s; the reducer pipeline
/// handles a shard's worth of data in ≈ 0.46 s against a 0.6 s setup.
pub fn cost_model() -> JobCostModel {
    JobCostModel {
        map_rate: 80.0e6,
        shuffle_rate: 550.0e6,
        merge_rate: 1100.0e6,
        reduce_rate: 1500.0e6,
        serial_setup: 0.6,
    }
}

/// The job spec at scale-out degree `n`.
pub fn job_spec(n: u32) -> JobSpec {
    let mut spec = JobSpec::emr("sort", n);
    spec.cost = cost_model();
    spec.reducer_memory = MemoryModel::unlimited();
    spec
}

/// The `n` fixed-time splits of dictionary text.
pub fn make_splits(n: u32, seed: u64) -> Vec<InputSplit<Arc<str>>> {
    (0..n)
        .map(|task| {
            let mut rng = SimRng::seed_from(seed ^ (u64::from(task) << 20) ^ 0x5027);
            let lines: Vec<Arc<str>> = random_lines(SAMPLE_LINES, WORDS_PER_LINE, &mut rng)
                .into_iter()
                .map(Arc::from)
                .collect();
            let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
            InputSplit::new(lines, bytes, SHARD_BYTES)
        })
        .collect()
}

/// Runs the full paper sweep for Sort.
pub fn sweep(ns: &[u32]) -> ScalingSweep {
    ScalingSweep::run(ns, &SortMapper, &SortReducer, job_spec, |n| {
        make_splits(n, 2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition: copy into a zeroed buffer, then read two words.
    fn padded(text: &[u8]) -> [u64; 2] {
        let mut prefix = [0u8; PREFIX_BYTES];
        let n = text.len().min(PREFIX_BYTES);
        prefix[..n].copy_from_slice(&text[..n]);
        [&prefix[..8], &prefix[8..]].map(|w| u64::from_be_bytes(w.try_into().unwrap()))
    }

    #[test]
    fn packs_every_length_as_the_padded_definition() {
        let bytes: Vec<u8> = (1..=24u8).map(|b| b.wrapping_mul(37) | 1).collect();
        for n in 0..=bytes.len() {
            assert_eq!(pack_prefix(&bytes[..n]), padded(&bytes[..n]), "length {n}");
            let nul = vec![0u8; n];
            assert_eq!(pack_prefix(&nul), [0, 0], "{n} NULs");
        }
    }

    /// Characters drawn often, so that lines share prefixes: NUL, ASCII
    /// around the padding byte, and two- to four-byte UTF-8.
    const ALPHABET: [char; 10] = [
        '\0',
        '\u{1}',
        ' ',
        'a',
        'b',
        '\u{7F}',
        'é',
        'ÿ',
        '日',
        '\u{10FFFF}',
    ];

    /// A line from `(pick, code)` pairs: a char of [`ALPHABET`] when
    /// `pick` indexes it, any code point otherwise.
    fn line(chars: &[(usize, u32)]) -> String {
        chars
            .iter()
            .map(|&(pick, code)| match ALPHABET.get(pick) {
                Some(&c) => c,
                None => char::from_u32(code % 0x11_0000).unwrap_or('\u{FFFD}'),
            })
            .collect()
    }

    /// Lines at the prefix's edges: empty, NUL-extended, and 8, 16 and
    /// 17 bytes long.
    const EDGES: [&str; 12] = [
        "",
        "\0",
        "a",
        "a\0",
        "a\0b",
        "a\u{1}",
        "abcdefgh",
        "abcdefgh\0",
        "abcdefghijklmnop",
        "abcdefghijklmnop\0",
        "abcdefghijklmnopq",
        "abcdefghijklmnoq",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `SortKey` orders, compares and sizes as its line, for lines
        /// shorter and longer than the 16-byte prefix, with and without
        /// a shared prefix of any length, and against [`EDGES`].
        #[test]
        fn sort_key_order_is_line_order(
            prefix in prop::collection::vec((0usize..12, any::<u32>()), 0..24),
            suffixes in prop::collection::vec(
                prop::collection::vec((0usize..12, any::<u32>()), 0..24),
                1..12,
            ),
        ) {
            let prefix = line(&prefix);
            let lines: Vec<String> = suffixes
                .iter()
                .enumerate()
                .map(|(i, s)| if i % 3 == 0 { line(s) } else { prefix.clone() + &line(s) })
                .chain(EDGES.map(String::from))
                .collect();
            let keys: Vec<SortKey> = lines.iter().map(|l| SortKey::new(Arc::from(l.as_str()))).collect();
            for (a, ka) in lines.iter().zip(&keys) {
                prop_assert_eq!(ka.size_bytes(), a.len() as u64);
                for (b, kb) in lines.iter().zip(&keys) {
                    prop_assert_eq!(ka.cmp(kb), a.as_str().cmp(b.as_str()), "{:?} vs {:?}", a, b);
                    prop_assert_eq!(ka == kb, a == b, "{:?} vs {:?}", a, b);
                }
            }
        }
    }

    /// [`SortReducer`] with only its `reduce`: the trait's default
    /// `reduce_runs` sorts the concatenated runs by the derived order
    /// and reduces each group, moving in its first key.
    struct DefaultRuns;

    impl Reducer for DefaultRuns {
        type Key = SortKey;
        type Value = u32;
        type Output = Arc<str>;

        fn reduce(&self, key: SortKey, values: &[u32], emit: &mut dyn FnMut(Arc<str>)) {
            SortReducer.reduce(key, values, emit);
        }
    }

    /// The lines `reducer` emits from `runs`.
    fn reduced(
        reducer: &impl Reducer<Key = SortKey, Value = u32, Output = Arc<str>>,
        runs: Vec<Vec<(SortKey, u32)>>,
    ) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        reducer.reduce_runs(runs, &mut |line| out.push(line));
        out
    }

    /// Whether `a` and `b` hold the very same `Arc`s, in order.
    fn same_arcs(a: &[Arc<str>], b: &[Arc<str>]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
    }

    #[test]
    fn reduce_runs_of_no_lines_emits_nothing() {
        assert!(reduced(&SortReducer, Vec::new()).is_empty());
        assert!(reduced(&SortReducer, vec![Vec::new(), Vec::new()]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `SortReducer::reduce_runs` emits exactly what the default
        /// emits, the same `Arc`s in the same order, so the merge is
        /// stable and each key's first pair supplies its line. The
        /// lines share 8- and 16-byte prefixes, come from [`EDGES`], and
        /// repeat within and across tasks, each occurrence its own
        /// `Arc`; some runs are empty, and multiplicities run from 0 to 3.
        #[test]
        fn reduce_runs_is_the_default_merge(
            tails in prop::collection::vec(
                prop::collection::vec((0usize..12, any::<u32>()), 0..12),
                1..16,
            ),
            runs in prop::collection::vec(
                prop::collection::vec((any::<usize>(), 0u32..4), 0..48),
                1..6,
            ),
        ) {
            let texts: Vec<String> = tails
                .iter()
                .enumerate()
                .map(|(i, tail)| ["", "abcdefgh", "abcdefghijklmnop"][i % 3].to_string() + &line(tail))
                .chain(EDGES.map(String::from))
                .collect();
            // Each run sorted stably by line, as `map_split` sorts it.
            let runs: Vec<Vec<(SortKey, u32)>> = runs
                .iter()
                .map(|picks| {
                    let mut run: Vec<(SortKey, u32)> = picks
                        .iter()
                        .map(|&(pick, n)| (SortKey::new(Arc::from(texts[pick % texts.len()].as_str())), n))
                        .collect();
                    run.sort_by(|a, b| a.0.line.cmp(&b.0.line));
                    run
                })
                .collect();
            let want = reduced(&DefaultRuns, runs.clone());
            let got = reduced(&SortReducer, runs);
            prop_assert!(same_arcs(&got, &want), "{:?} vs {:?}", got, want);
        }
    }

    #[test]
    fn output_is_a_sorted_permutation_of_the_input() {
        use ipso_mapreduce::try_run_scale_out;
        let splits = make_splits(3, 9);
        let run = try_run_scale_out(&job_spec(3), &SortMapper, &SortReducer, &splits).unwrap();
        let mut expected: Vec<Arc<str>> = splits.into_iter().flat_map(|s| s.records).collect();
        assert!(run.output.windows(2).all(|w| w[0] <= w[1]), "not sorted");
        expected.sort();
        assert_eq!(run.output, expected, "not a permutation");
    }

    #[test]
    fn output_lines_share_the_input_lines() {
        use ipso_mapreduce::{run_sequential, try_run_scale_out};
        let splits = make_splits(3, 9);
        let input: Vec<&Arc<str>> = splits.iter().flat_map(|s| &s.records).collect();
        let par = try_run_scale_out(&job_spec(3), &SortMapper, &SortReducer, &splits).unwrap();
        let seq = run_sequential(&job_spec(3), &SortMapper, &SortReducer, &splits);
        for output in [par.output, seq.output] {
            assert_eq!(output.len(), input.len());
            for line in &output {
                assert!(
                    input.iter().any(|l| Arc::ptr_eq(l, line)),
                    "{line:?} was copied"
                );
            }
        }
    }

    #[test]
    fn intermediate_data_is_proportional_to_input() {
        use ipso_mapreduce::try_run_scale_out;
        let r2 =
            try_run_scale_out(&job_spec(2), &SortMapper, &SortReducer, &make_splits(2, 1)).unwrap();
        let r8 =
            try_run_scale_out(&job_spec(8), &SortMapper, &SortReducer, &make_splits(8, 1)).unwrap();
        let ratio = r8.reduce_input_bytes as f64 / r2.reduce_input_bytes as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn speedup_saturates_well_below_gustafson() {
        let sweep = sweep(&[1, 2, 4, 8, 16, 32, 64, 96]);
        let curve = sweep.speedup_curve().unwrap();
        let s96 = curve.points().last().unwrap().speedup;
        // Paper: Sort caps near 4–5 while Gustafson predicts ≈ 60.
        assert!((2.5..6.5).contains(&s96), "S(96) = {s96}");
        let s32 = curve.points()[5].speedup;
        assert!(s96 < s32 * 1.5, "still growing fast at 96");
    }

    #[test]
    fn internal_scaling_is_linear_with_large_slope() {
        use ipso::estimate::{estimate_factors, FactorShape};
        let sweep = sweep(&[1, 2, 4, 8, 12, 16]);
        let est = estimate_factors(&sweep.measurements()).unwrap();
        assert_eq!(est.internal.shape, FactorShape::Linear);
        let in16 = est.internal.factor.eval(16.0) / est.internal.factor.eval(1.0);
        // Paper's Sort: IN(16) = 0.36·16 − 0.11 ≈ 5.7 (normalised ≈ 23×
        // the n = 1 value is before normalisation; after normalisation to
        // IN(1) = 1 the growth to n = 16 is ≈ 7×). Ours is calibrated to
        // the same regime: substantial, clearly super-constant growth.
        assert!(in16 > 4.0, "IN(16)/IN(1) = {in16}");
    }

    #[test]
    fn eta_matches_calibration() {
        let sweep = sweep(&[1, 2, 4]);
        let m = &sweep.measurements()[0];
        let eta = m.seq_parallel_work / (m.seq_parallel_work + m.seq_serial_work);
        assert!((0.5..0.7).contains(&eta), "eta = {eta}");
    }
}
