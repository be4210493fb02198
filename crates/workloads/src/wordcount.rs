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

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock};

use ipso_mapreduce::{
    InputSplit, JobCostModel, JobSpec, Mapper, OutputScaling, Reducer, ScalingSweep, Sizeable,
};
use ipso_sim::SimRng;

use crate::datagen::dictionary::dictionary_words;
use crate::datagen::random_lines;

/// Nominal HDFS shard per map task (the paper's maximal block size).
pub const SHARD_BYTES: u64 = 128 * 1024 * 1024;
/// Lines of sample text actually executed per task.
const SAMPLE_LINES: usize = 250;
/// Words per generated line.
const WORDS_PER_LINE: usize = 8;

/// Each dictionary word's rank in the sorted dictionary, keyed by the
/// shared dictionary's own text.
static RANKS: LazyLock<HashMap<&'static str, u32>> = LazyLock::new(|| {
    let mut sorted: Vec<&'static str> = dictionary_words().iter().map(String::as_str).collect();
    sorted.sort_unstable();
    sorted.into_iter().zip(0..).collect()
});

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
        Word(match RANKS.get_key_value(token) {
            Some((&text, &rank)) => WordRepr::Dictionary { rank, text },
            None => WordRepr::Other(Arc::from(token)),
        })
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
    /// The mapper; the dictionary ranks are shared process-wide.
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

    #[test]
    fn mixed_text_counts_like_string_keys() {
        use ipso_mapreduce::{run_scale_out, run_sequential};
        let tokens: Vec<String> = mixed_tokens()
            .into_iter()
            .filter(|t| !t.is_empty())
            .collect();
        let mut rng = SimRng::seed_from(3);
        let splits: Vec<InputSplit<String>> = (0..4)
            .map(|_| {
                let lines: Vec<String> = (0..60)
                    .map(|_| {
                        (0..6)
                            .map(|_| tokens[rng.index(tokens.len())].as_str())
                            .collect::<Vec<_>>()
                            .join(" ")
                    })
                    .collect();
                let bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
                InputSplit::new(lines, bytes, SHARD_BYTES)
            })
            .collect();
        let spec = job_spec(4);
        let words = run_scale_out(&spec, &WordCountMapper, &WordCountReducer, &splits);
        let strings = run_scale_out(&spec, &StringWordCount, &StringWordCount, &splits);
        assert!(words
            .output
            .iter()
            .any(|(w, _)| !RANKS.contains_key(w.as_str())));
        assert_eq!(words.output, strings.output);
        assert_eq!(words.reduce_input_bytes, strings.reduce_input_bytes);
        assert_eq!(words.trace, strings.trace);
        let words = run_sequential(&spec, &WordCountMapper, &WordCountReducer, &splits);
        let strings = run_sequential(&spec, &StringWordCount, &StringWordCount, &splits);
        assert_eq!(words.output, strings.output);
        assert_eq!(words.reduce_input_bytes, strings.reduce_input_bytes);
    }

    #[test]
    fn intermediate_data_saturates() {
        use ipso_mapreduce::run_scale_out;
        let mapper = WordCountMapper::new();
        let r4 = run_scale_out(&job_spec(4), &mapper, &WordCountReducer, &make_splits(4, 1));
        let r8 = run_scale_out(&job_spec(8), &mapper, &WordCountReducer, &make_splits(8, 1));
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
