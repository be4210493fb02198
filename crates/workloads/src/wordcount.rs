//! WordCount (HiBench micro benchmark; paper Fig. 4b).
//!
//! Random dictionary text is tokenized and counted. The map-side combiner
//! collapses each task's output to at most one entry per dictionary word,
//! so the intermediate data is bounded (~1000 entries) no matter how many
//! shards are processed: the serial portion is dominated by the constant
//! reducer setup and the paper measures `IN(n) ≈ 1` — a benign It/IIt
//! scaling type.
//!
//! Keys are [`Word`]s: a dictionary token is carried as its rank in the
//! sorted dictionary, so the map-side sort and the reduce-side merge
//! compare integers, and emitting a token costs one lookup and no
//! allocation or reference count. Rank order is string order, so output
//! order and byte accounting are those of plain string keys.
//!
//! The mapper combines in-mapper: [`WordCountMapper`]'s
//! [`Mapper::map_split`] splits each line in one pass, 8 bytes a step,
//! looks each token up once in an open-addressing dictionary index,
//! counts dictionary words in a dense per-rank array and other tokens in
//! a sorted map, and emits one `(Word, count)` per distinct token in
//! [`Word`] order. The engine's sort then sees a sorted run and the
//! summing combiner one value per key, so every task's output is the one
//! [`Mapper::map`] per line would give.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

use ipso_mapreduce::{
    InputSplit, JobCostModel, JobSpec, Mapper, OutputScaling, Reducer, ScalingSweep, Sizeable,
};
use ipso_sim::SimRng;

use crate::datagen::dictionary::dictionary_words;
use crate::datagen::{random_lines, DICTIONARY_SIZE};

/// Nominal HDFS shard per map task (the paper's maximal block size).
pub const SHARD_BYTES: u64 = 128 * 1024 * 1024;
/// Lines of sample text actually executed per task.
const SAMPLE_LINES: usize = 250;
/// Words per generated line.
const WORDS_PER_LINE: usize = 8;

/// log2 of the dictionary index's slot count.
const INDEX_BITS: u32 = 12;
/// Slots in the dictionary index: at least four per word, so linear
/// probes stay short.
const INDEX_SLOTS: usize = 1 << INDEX_BITS;
/// An empty index slot.
const VACANT: u16 = u16::MAX;
const _: () = assert!(4 * DICTIONARY_SIZE <= INDEX_SLOTS);

/// The shared dictionary index, built on first use.
static INDEX: LazyLock<DictionaryIndex> = LazyLock::new(DictionaryIndex::build);

/// The sorted dictionary and an open-addressing hash index from a
/// token's text to its rank.
struct DictionaryIndex {
    /// Dictionary words in sorted order: a word's rank is its position.
    words: Vec<&'static str>,
    /// Linear-probing table of ranks, slotted by [`token_slot`];
    /// [`VACANT`] where empty.
    slots: Vec<u16>,
}

impl DictionaryIndex {
    fn build() -> DictionaryIndex {
        let mut words: Vec<&'static str> = dictionary_words().iter().map(String::as_str).collect();
        words.sort_unstable();
        let mut slots = vec![VACANT; INDEX_SLOTS];
        for (rank, word) in words.iter().enumerate() {
            let mut slot = token_slot(word.as_bytes());
            while slots[slot] != VACANT {
                slot = (slot + 1) % INDEX_SLOTS;
            }
            slots[slot] = rank as u16;
        }
        DictionaryIndex { words, slots }
    }

    /// `token`'s rank in the sorted dictionary, if it is a dictionary
    /// word.
    fn rank(&self, token: &str) -> Option<u32> {
        let mut slot = token_slot(token.as_bytes());
        loop {
            let rank = self.slots[slot];
            if rank == VACANT {
                return None;
            }
            if self.words[usize::from(rank)] == token {
                return Some(u32::from(rank));
            }
            slot = (slot + 1) % INDEX_SLOTS;
        }
    }
}

/// The home slot of a token: a multiplicative hash of its length and
/// its first and last (up to) 8 bytes. Tokens that collide are told
/// apart by [`DictionaryIndex::rank`]'s full-text comparison.
fn token_slot(token: &[u8]) -> usize {
    let n = token.len();
    let (head, tail) = if n >= 8 {
        let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        (word(&token[..8]), word(&token[n - 8..]))
    } else {
        let mut head = [0u8; 8];
        head[..n].copy_from_slice(token);
        (u64::from_le_bytes(head), 0)
    };
    let mixed = (head ^ tail.rotate_left(32) ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - INDEX_BITS)) as usize
}

/// Whether `byte` separates tokens: 9–13 and 32, the ASCII characters
/// `char::is_whitespace` accepts (`u8::is_ascii_whitespace` omits 0x0B).
fn is_separator(byte: u8) -> bool {
    matches!(byte, b'\t'..=b'\r' | b' ')
}

/// Calls `f` on each token of an ASCII `line`: the maximal runs of
/// non-[`is_separator`] bytes, which are the tokens of
/// `str::split_whitespace`.
///
/// The line is scanned 8 bytes at a time: one add flags every byte at or
/// below 0x20 (a carry-free test, since ASCII bytes are below 0x80), and
/// only the flagged bytes — the separators and rare control bytes — are
/// tested one by one.
fn for_each_ascii_token<'a>(line: &'a str, f: &mut impl FnMut(&'a str)) {
    let bytes = line.as_bytes();
    let mut start = 0;
    let mut cut_at = |i: usize| {
        if start < i {
            f(&line[start..i]);
        }
        start = i + 1;
    };
    let chunks = bytes.chunks_exact(8);
    let tail = bytes.len() - chunks.remainder().len();
    for (c, chunk) in chunks.enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        let mut flagged = !word.wrapping_add(0x5F5F_5F5F_5F5F_5F5F) & 0x8080_8080_8080_8080;
        while flagged != 0 {
            let i = 8 * c + (flagged.trailing_zeros() / 8) as usize;
            if is_separator(bytes[i]) {
                cut_at(i);
            }
            flagged &= flagged - 1;
        }
    }
    for (i, &byte) in bytes.iter().enumerate().skip(tail) {
        if is_separator(byte) {
            cut_at(i);
        }
    }
    cut_at(bytes.len());
}

/// A WordCount key: a token, ordered and compared as its text.
///
/// A dictionary word holds its rank in the sorted dictionary, which
/// orders dictionary words exactly as their text does; any other token
/// holds its own text. Two dictionary words compare by rank, every other
/// pair by text.
#[derive(Debug, Clone)]
pub struct Word(WordRepr);

#[derive(Debug, Clone)]
enum WordRepr {
    Dictionary { rank: u32, text: &'static str },
    Other(Arc<str>),
}

impl Word {
    /// The key for `token`: its dictionary rank, or a copy of the text
    /// for an out-of-dictionary token.
    pub fn new(token: &str) -> Word {
        match INDEX.rank(token) {
            Some(rank) => Word::ranked(&INDEX, rank),
            None => Word::other(token),
        }
    }

    /// The key of the dictionary word of rank `rank`.
    fn ranked(index: &DictionaryIndex, rank: u32) -> Word {
        let text = index.words[rank as usize];
        Word(WordRepr::Dictionary { rank, text })
    }

    /// The key of an out-of-dictionary token.
    fn other(token: &str) -> Word {
        Word(WordRepr::Other(Arc::from(token)))
    }

    /// The token's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            WordRepr::Dictionary { text, .. } => text,
            WordRepr::Other(text) => text,
        }
    }
}

impl PartialEq for Word {
    fn eq(&self, other: &Word) -> bool {
        match (&self.0, &other.0) {
            (WordRepr::Dictionary { rank: a, .. }, WordRepr::Dictionary { rank: b, .. }) => a == b,
            _ => self.as_str() == other.as_str(),
        }
    }
}

impl Eq for Word {}

impl PartialOrd for Word {
    fn partial_cmp(&self, other: &Word) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Word {
    fn cmp(&self, other: &Word) -> Ordering {
        match (&self.0, &other.0) {
            (WordRepr::Dictionary { rank: a, .. }, WordRepr::Dictionary { rank: b, .. }) => {
                a.cmp(b)
            }
            _ => self.as_str().cmp(other.as_str()),
        }
    }
}

impl Sizeable for Word {
    fn size_bytes(&self) -> u64 {
        self.as_str().len() as u64
    }
}

/// Tokenizing mapper with a summing combiner.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCountMapper;

impl WordCountMapper {
    /// The mapper; the dictionary index is shared process-wide.
    pub fn new() -> WordCountMapper {
        WordCountMapper
    }
}

impl Mapper for WordCountMapper {
    type Input = String;
    type Key = Word;
    type Value = u64;

    fn map(&self, line: &String, emit: &mut dyn FnMut(Word, u64)) {
        for token in line.split_whitespace() {
            emit(Word::new(token), 1);
        }
    }

    /// Counts the whole split, then emits one `(Word, count)` per
    /// distinct token in [`Word`] order: the groups mapping each line
    /// and summing would give. Pure-ASCII lines are split by byte; any
    /// other line falls back to `split_whitespace`.
    fn map_split(&self, lines: &[String], emit: &mut dyn FnMut(Word, u64)) {
        let index = &*INDEX;
        let mut ranked = vec![0u64; index.words.len()];
        let mut others: BTreeMap<&str, u64> = BTreeMap::new();
        let mut count = |token| match index.rank(token) {
            Some(rank) => ranked[rank as usize] += 1,
            None => *others.entry(token).or_insert(0) += 1,
        };
        for line in lines {
            if line.is_ascii() {
                for_each_ascii_token(line, &mut count);
            } else {
                line.split_whitespace().for_each(&mut count);
            }
        }
        // Dictionary words in rank order and other tokens in text order
        // are both sorted by text, and never share a text: merge them.
        let mut others = others.into_iter().peekable();
        for (rank, &n) in (0..).zip(&ranked) {
            if n == 0 {
                continue;
            }
            let word = Word::ranked(index, rank);
            while let Some((token, m)) = others.next_if(|&(token, _)| token < word.as_str()) {
                emit(Word::other(token), m);
            }
            emit(word, n);
        }
        for (token, m) in others {
            emit(Word::other(token), m);
        }
    }

    fn combine(&self, _key: &Word, values: &mut Vec<u64>) {
        let sum = values.iter().sum();
        values.clear();
        values.push(sum);
    }

    fn output_scaling(&self) -> OutputScaling {
        OutputScaling::Saturating
    }
}

/// Count-summing reducer.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCountReducer;

impl Reducer for WordCountReducer {
    type Key = Word;
    type Value = u64;
    type Output = (String, u64);

    fn reduce(&self, key: &Word, values: &[u64], emit: &mut dyn FnMut((String, u64))) {
        emit((key.as_str().to_string(), values.iter().sum()));
    }
}

/// Cost calibration: WordCount is CPU-bound on the map side (JVM
/// tokenization of a 128 MB block takes ~13 s, matching 2019-era Hadoop)
/// with negligible reduce-side data.
pub fn cost_model() -> JobCostModel {
    JobCostModel {
        map_rate: 10.0e6,
        shuffle_rate: 200.0e6,
        merge_rate: 200.0e6,
        reduce_rate: 200.0e6,
        seq_init: 2.0,
        serial_setup: 1.0,
    }
}

/// The job spec at scale-out degree `n`.
pub fn job_spec(n: u32) -> JobSpec {
    let mut spec = JobSpec::emr("wordcount", n);
    spec.cost = cost_model();
    spec
}

/// The `n` fixed-time splits: one 128 MB shard of dictionary text per
/// task, sampled down for execution.
pub fn make_splits(n: u32, seed: u64) -> Vec<InputSplit<String>> {
    (0..n)
        .map(|task| {
            let mut rng = SimRng::seed_from(seed ^ (u64::from(task) << 20) ^ 0x57c0);
            let lines = random_lines(SAMPLE_LINES, WORDS_PER_LINE, &mut rng);
            let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
            InputSplit::new(lines, bytes, SHARD_BYTES)
        })
        .collect()
}

/// Runs the full paper sweep for WordCount.
pub fn sweep(ns: &[u32]) -> ScalingSweep {
    ScalingSweep::run(
        ns,
        &WordCountMapper::new(),
        &WordCountReducer,
        job_spec,
        |n| make_splits(n, 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipso_mapreduce::JobRun;

    #[test]
    fn counts_are_exact() {
        use ipso_mapreduce::run_sequential;
        let splits = make_splits(2, 7);
        let expected: u64 = splits.iter().map(|s| s.records.len() as u64 * 8).sum();
        let run = run_sequential(
            &job_spec(2),
            &WordCountMapper::new(),
            &WordCountReducer,
            &splits,
        );
        let total: u64 = run.output.iter().map(|(_, c)| c).sum();
        assert_eq!(total, expected);
        // Every key is a dictionary word.
        let dict: std::collections::HashSet<String> =
            crate::datagen::unix_dictionary().into_iter().collect();
        assert!(run.output.iter().all(|(w, _)| dict.contains(w)));
    }

    /// Out-of-dictionary tokens: empty, prefixes and extensions of
    /// dictionary words, and text sorting before and after all of them.
    fn mixed_tokens() -> Vec<String> {
        let dict = crate::datagen::unix_dictionary();
        let mut tokens: Vec<String> = ["", "a", "zzzz", "Ber", "n0t-a-w0rd", "é"]
            .iter()
            .map(|t| t.to_string())
            .collect();
        for w in dict.iter().step_by(97) {
            tokens.push(w[..1].to_string());
            tokens.push(format!("{w}s"));
            tokens.push(format!("{w}\u{0}"));
        }
        tokens.retain(|t| !dict.contains(t));
        tokens.extend(dict);
        tokens
    }

    #[test]
    fn word_order_and_size_match_the_text() {
        let tokens = mixed_tokens();
        let words: Vec<Word> = tokens.iter().map(|t| Word::new(t)).collect();
        for (a, wa) in tokens.iter().zip(&words) {
            assert_eq!(wa.as_str(), a);
            assert_eq!(wa.size_bytes(), a.len() as u64);
            for (b, wb) in tokens.iter().zip(&words) {
                assert_eq!(wa.cmp(wb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(wa == wb, a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn dictionary_tokens_are_ranked() {
        let dict = crate::datagen::unix_dictionary();
        let mut sorted = dict.clone();
        sorted.sort();
        for word in &dict {
            let rank = sorted.binary_search(word).unwrap() as u32;
            match Word::new(word).0 {
                WordRepr::Dictionary { rank: r, text } => {
                    assert_eq!(r, rank);
                    assert_eq!(text, word);
                }
                WordRepr::Other(_) => panic!("{word:?} not ranked"),
            }
        }
        assert!(matches!(Word::new("n0t-a-w0rd").0, WordRepr::Other(_)));
    }

    /// WordCount keyed by plain `String`s: the reference for [`Word`].
    struct StringWordCount;

    impl Mapper for StringWordCount {
        type Input = String;
        type Key = String;
        type Value = u64;

        fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
            for token in line.split_whitespace() {
                emit(token.to_string(), 1);
            }
        }

        fn combine(&self, _key: &String, values: &mut Vec<u64>) {
            let sum = values.iter().sum();
            values.clear();
            values.push(sum);
        }

        fn output_scaling(&self) -> OutputScaling {
            OutputScaling::Saturating
        }
    }

    impl Reducer for StringWordCount {
        type Key = String;
        type Value = u64;
        type Output = (String, u64);

        fn reduce(&self, key: &String, values: &[u64], emit: &mut dyn FnMut((String, u64))) {
            emit((key.clone(), values.iter().sum()));
        }
    }

    /// [`WordCountMapper`] without its `map_split`: the engine maps each
    /// line through [`Mapper::map`], the per-record definition.
    struct PerLine(WordCountMapper);

    impl Mapper for PerLine {
        type Input = String;
        type Key = Word;
        type Value = u64;

        fn map(&self, line: &String, emit: &mut dyn FnMut(Word, u64)) {
            self.0.map(line, emit);
        }

        fn combine(&self, key: &Word, values: &mut Vec<u64>) {
            self.0.combine(key, values);
        }

        fn output_scaling(&self) -> OutputScaling {
            self.0.output_scaling()
        }
    }

    /// Both engine modes over `splits`: scale-out, then sequential.
    fn run_both<M, R>(
        mapper: &M,
        reducer: &R,
        splits: &[InputSplit<String>],
    ) -> Vec<JobRun<R::Output>>
    where
        M: Mapper<Input = String> + Sync,
        M::Key: Send,
        M::Value: Send,
        R: Reducer<Key = M::Key, Value = M::Value>,
    {
        use ipso_mapreduce::{run_sequential, try_run_scale_out};
        let spec = job_spec(splits.len() as u32);
        vec![
            try_run_scale_out(&spec, mapper, reducer, splits).unwrap(),
            run_sequential(&spec, mapper, reducer, splits),
        ]
    }

    /// Text over every separator class `split_whitespace` knows, in runs
    /// and at line ends, with dictionary words, out-of-dictionary tokens
    /// (sorting before, between and after them) and non-ASCII tokens;
    /// some lines are empty or separators only, and the last split is
    /// empty.
    fn mixed_text_splits() -> Vec<InputSplit<String>> {
        const ASCII_SEPARATORS: [&str; 6] = [" ", "\t", "\n", "\x0B", "\x0C", "\r"];
        const OTHER_SEPARATORS: [&str; 4] = ["\u{A0}", "\u{3000}", "\u{85}", "\u{2028}"];
        let mut ascii_tokens: Vec<String> = mixed_tokens()
            .into_iter()
            .filter(|t| !t.is_empty() && t.is_ascii())
            .collect();
        // ASCII bytes that are not separators: 0x1C-0x1F (`isspace` in
        // some languages) and 0x7F.
        ascii_tokens.extend(["ber\x1Cal", "\x1F", "an\x7F"].map(String::from));
        let other_tokens: Vec<String> = ["é", "naïve", "ber\u{301}", "日本", "zan\u{200B}"]
            .map(String::from)
            .to_vec();
        let mut rng = SimRng::seed_from(3);
        let separator = |rng: &mut SimRng, ascii: bool| -> String {
            (0..1 + rng.index(3))
                .map(|_| {
                    if ascii || rng.index(3) > 0 {
                        ASCII_SEPARATORS[rng.index(ASCII_SEPARATORS.len())]
                    } else {
                        OTHER_SEPARATORS[rng.index(OTHER_SEPARATORS.len())]
                    }
                })
                .collect()
        };
        let mut splits: Vec<InputSplit<String>> = (0..4)
            .map(|_| {
                let lines: Vec<String> = (0..60)
                    .map(|_| {
                        // Two lines in three are pure ASCII.
                        let ascii = rng.index(3) > 0;
                        let mut line = String::new();
                        if rng.index(4) == 0 {
                            line += &separator(&mut rng, ascii);
                        }
                        for i in 0..rng.index(8) {
                            if i > 0 {
                                line += &separator(&mut rng, ascii);
                            }
                            let tokens = if ascii || rng.index(4) > 0 {
                                &ascii_tokens
                            } else {
                                &other_tokens
                            };
                            line += &tokens[rng.index(tokens.len())];
                        }
                        if rng.index(4) == 0 {
                            line += &separator(&mut rng, ascii);
                        }
                        line
                    })
                    .collect();
                let bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
                InputSplit::new(lines, bytes, SHARD_BYTES)
            })
            .collect();
        splits.push(InputSplit::new(Vec::new(), 0, SHARD_BYTES));
        splits
    }

    #[test]
    fn mixed_text_counts_like_string_keys() {
        let splits = mixed_text_splits();
        let lines = splits.iter().flat_map(|s| &s.records);
        assert!(lines.clone().any(|l| l.is_empty()));
        for sep in ["\x0B", "\x0C", "\r", "\u{A0}", "\u{3000}"] {
            assert!(lines.clone().any(|l| l.contains(sep)), "{sep:?} missing");
        }
        assert!(lines.clone().any(|l| l.is_ascii() && l.contains('\x0B')));
        let counted = run_both(&WordCountMapper, &WordCountReducer, &splits);
        let per_line = run_both(&PerLine(WordCountMapper), &WordCountReducer, &splits);
        let strings = run_both(&StringWordCount, &StringWordCount, &splits);
        let output = &counted[0].output;
        assert!(output.iter().any(|(w, _)| INDEX.rank(w).is_none()));
        assert!(output.iter().any(|(w, _)| !w.is_ascii()));
        assert!(output.iter().any(|(w, _)| INDEX.rank(w).is_some()));
        assert_eq!(counted, per_line);
        assert_eq!(counted, strings);
    }

    #[test]
    fn ascii_tokens_are_split_whitespace_tokens() {
        fn tokens(line: &str) -> Vec<&str> {
            let mut tokens = Vec::new();
            for_each_ascii_token(line, &mut |t| tokens.push(t));
            tokens
        }
        // Every ASCII byte, alone and in pairs, at every offset of lines
        // longer and shorter than one 8-byte step.
        for len in 0..20 {
            let base = "abcdefghijklmnopqrstu"[..len].to_string();
            for b in 0..0x80u8 {
                for at in 0..len {
                    for width in 1..=2.min(len - at) {
                        let mut bytes = base.clone().into_bytes();
                        bytes[at..at + width].fill(b);
                        let line = String::from_utf8(bytes).unwrap();
                        let want: Vec<&str> = line.split_whitespace().collect();
                        assert_eq!(tokens(&line), want, "{line:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn map_split_emits_each_token_once_in_order() {
        for split in mixed_text_splits() {
            let mut pairs = Vec::new();
            WordCountMapper.map_split(&split.records, &mut |w, n| pairs.push((w, n)));
            assert!(pairs.windows(2).all(|p| p[0].0 < p[1].0));
            let tokens: usize = split
                .records
                .iter()
                .map(|l| l.split_whitespace().count())
                .sum();
            assert_eq!(pairs.iter().map(|(_, n)| n).sum::<u64>(), tokens as u64);
        }
    }

    #[test]
    fn intermediate_data_saturates() {
        use ipso_mapreduce::try_run_scale_out;
        let mapper = WordCountMapper::new();
        let r4 = try_run_scale_out(&job_spec(4), &mapper, &WordCountReducer, &make_splits(4, 1))
            .unwrap();
        let r8 = try_run_scale_out(&job_spec(8), &mapper, &WordCountReducer, &make_splits(8, 1))
            .unwrap();
        // Reduce input grows at most linearly in tasks with a tiny
        // per-task bound (1000 dictionary entries).
        assert!(r8.reduce_input_bytes < 2 * r4.reduce_input_bytes + 1024);
        assert!(r8.reduce_input_bytes < 8 * 1000 * 20);
    }

    #[test]
    fn speedup_is_near_gustafson() {
        let sweep = sweep(&[1, 2, 4, 8, 16, 32]);
        let curve = sweep.speedup_curve().unwrap();
        let s32 = curve.points().last().unwrap().speedup;
        let eta = sweep.measurements()[0].seq_parallel_work
            / (sweep.measurements()[0].seq_parallel_work + sweep.measurements()[0].seq_serial_work);
        let gustafson = eta * 32.0 + (1.0 - eta);
        // Close to Gustafson's prediction — the benign case. The gap
        // (straggler E[max] and job-setup excess) matches the slight
        // shortfall visible in the paper's Fig. 4b data points.
        assert!(
            (s32 - gustafson).abs() / gustafson < 0.3,
            "S(32) = {s32}, Gustafson = {gustafson}"
        );
        // And growth stays near-linear.
        let s16 = curve.points()[4].speedup;
        assert!(s32 / s16 > 1.6, "S(32)/S(16) = {}", s32 / s16);
    }

    #[test]
    fn internal_scaling_is_flat() {
        use ipso::estimate::{estimate_factors, FactorShape};
        let sweep = sweep(&[1, 2, 4, 8, 12, 16]);
        let est = estimate_factors(&sweep.measurements()).unwrap();
        // IN(n) ≈ 1 as in the paper (constant, or linear with a tiny
        // slope relative to the intercept).
        match est.internal.shape {
            FactorShape::Constant => {}
            FactorShape::Linear => {
                let at16 = est.internal.factor.eval(16.0) / est.internal.factor.eval(1.0);
                assert!(at16 < 1.6, "IN(16) = {at16}");
            }
            other => panic!("unexpected IN shape {other:?}"),
        }
    }
}
