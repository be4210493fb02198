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
//! sorted dictionary, so two dictionary words compare as integers, and
//! keying a token costs one lookup and no allocation or reference
//! count. Rank order is string order, so output order and byte
//! accounting are those of plain string keys. The rank is all a
//! dictionary word holds, and its text comes from the index when asked,
//! so a `(Word, count)` pair takes 24 bytes.
//!
//! The mapper combines in-mapper: [`WordCountMapper`]'s
//! [`Mapper::map_split`] counts dictionary words in a dense per-rank
//! array and other tokens in a sorted map, and returns one
//! `(Word, count)` per distinct token in [`Word`] order: the sorted,
//! combined run that [`Mapper::map`] per line, a sort and the summing
//! combiner would give.
//!
//! An ASCII line of 8–128 bytes, as all generated text is, is counted
//! with no per-byte or per-probe branch: the line is loaded once as
//! little-endian words, a SWAR test marks its separators in one 128-bit
//! mask, and the token starts are walked with `trailing_zeros`. Each
//! token of at most 16 bytes is cut from the loaded words, zero-padded,
//! and looked up in a two-level hash-and-displace index: its hash picks one
//! of 256 buckets, the bucket's displacement one of 4,096 slots, and the
//! slot one rank, whose `(text, length)` key a single compare confirms or
//! rejects. The displacements give every dictionary word a slot of its
//! own, and empty slots hold rank 0, so a lookup never probes twice and
//! never reads a word's text. Other lines are split by
//! `split_whitespace` and looked up in the same index.
//!
//! The reducer sums the same way: [`WordCountReducer`]'s
//! [`Reducer::reduce_runs`] adds every task's run into a dense per-rank
//! array and a sorted map, so the reduce side never merges the runs.
//! Text with no out-of-dictionary token, as all generated text is,
//! skips the merge with that map on both sides.

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

/// The longest dictionary word, in bytes: a [`Key`] holds no more.
const MAX_WORD_BYTES: usize = 16;
/// log2 of the index's bucket and slot counts; four slots or more per
/// word let every bucket find a displacement that seats it.
const BUCKET_BITS: u32 = 8;
const SLOT_BITS: u32 = 12;
const _: () = assert!(4 * DICTIONARY_SIZE <= 1 << SLOT_BITS);
/// The line lengths [`DictionaryIndex::count_ascii_line`] takes: 8-byte
/// reads fit in the line, and a bit per byte fits in a `u128`.
const KERNEL_LINES: std::ops::RangeInclusive<usize> = 8..=128;

/// The shared dictionary index, built on first use.
static INDEX: LazyLock<DictionaryIndex> = LazyLock::new(DictionaryIndex::build);

/// A token of at most [`MAX_WORD_BYTES`] bytes: its text as two
/// little-endian, zero-padded words, and its length, which tells a word
/// from the word followed by NUL bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key([u64; 2], usize);

impl Key {
    /// The key of `token`, if it is short enough to be a dictionary word.
    fn of(token: &[u8]) -> Option<Key> {
        let mut text = [0u8; MAX_WORD_BYTES];
        text.get_mut(..token.len())?.copy_from_slice(token);
        let text = u128::from_le_bytes(text);
        Some(Key([text as u64, (text >> 64) as u64], token.len()))
    }

    /// The key's hash.
    fn hash(&self) -> u64 {
        let [lo, hi] = self.0;
        (lo ^ hi.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// The bucket of a key of hash `hash`: its top [`BUCKET_BITS`].
fn bucket(hash: u64) -> usize {
    (hash >> (64 - BUCKET_BITS)) as usize
}

/// The slot of a key of hash `hash` in a bucket of displacement `d`.
fn slot(hash: u64, d: u32) -> usize {
    ((hash ^ u64::from(d)).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> (64 - SLOT_BITS)) as usize
}

/// The sorted dictionary and a collision-free hash-and-displace index
/// from a token's [`Key`] to its rank.
struct DictionaryIndex {
    /// Dictionary words in sorted order: a word's rank is its position.
    words: Vec<&'static str>,
    /// Each word's key, by rank.
    keys: Vec<Key>,
    /// Each bucket's displacement.
    displacements: [u32; 1 << BUCKET_BITS],
    /// The rank seated in each slot; 0 where none is, so that a lookup
    /// there compares against word 0 and misses.
    slots: [u16; 1 << SLOT_BITS],
}

impl DictionaryIndex {
    fn build() -> DictionaryIndex {
        let mut words: Vec<&'static str> = dictionary_words().iter().map(String::as_str).collect();
        words.sort_unstable();
        let keys: Vec<Key> = words
            .iter()
            .map(|w| Key::of(w.as_bytes()).expect("short word"))
            .collect();
        let mut buckets = vec![Vec::new(); 1 << BUCKET_BITS];
        for (rank, key) in keys.iter().enumerate() {
            buckets[bucket(key.hash())].push((rank as u16, key.hash()));
        }
        // Each bucket takes the first displacement that seats all its
        // words in free slots of their own.
        let mut displacements = [0u32; 1 << BUCKET_BITS];
        let mut slots = [None; 1 << SLOT_BITS];
        for (b, members) in buckets.iter().enumerate() {
            let seats =
                |d| -> Vec<usize> { members.iter().map(|&(_, hash)| slot(hash, d)).collect() };
            let free = |seats: &[usize]| {
                (0..seats.len())
                    .all(|i| slots[seats[i]].is_none() && !seats[..i].contains(&seats[i]))
            };
            displacements[b] = (0..1 << 16)
                .find(|&d| free(&seats(d)))
                .expect("a displacement");
            for (&(rank, _), s) in members.iter().zip(seats(displacements[b])) {
                slots[s] = Some(rank);
            }
        }
        DictionaryIndex {
            words,
            keys,
            displacements,
            slots: slots.map(|rank| rank.unwrap_or(0)),
        }
    }

    /// The one slot a lookup of `key` reads.
    fn slot_of(&self, key: &Key) -> usize {
        let hash = key.hash();
        slot(hash, self.displacements[bucket(hash)])
    }

    /// `key`'s rank, if it is a dictionary word's key.
    #[inline]
    fn find(&self, key: &Key) -> Option<usize> {
        let rank = usize::from(self.slots[self.slot_of(key)]);
        (self.keys[rank] == *key).then_some(rank)
    }

    /// `token`'s rank in the sorted dictionary, if it is a dictionary
    /// word.
    fn rank(&self, token: &str) -> Option<u32> {
        let rank = self.find(&Key::of(token.as_bytes())?)?;
        Some(rank as u32)
    }

    /// Counts `line`'s tokens, the tokens of `str::split_whitespace`,
    /// into `ranked` and `others` as [`WordCountMapper::map_split`] does,
    /// if it is an ASCII line of [`KERNEL_LINES`] bytes; returns whether
    /// it was, having counted nothing if not.
    ///
    /// The line is read once, as little-endian words; the last is read
    /// ending at the line's end and shifted down, so no byte past it is
    /// read. Each word's separators (bytes 9–13 and 32, the ASCII
    /// characters `char::is_whitespace` accepts) go into one bit per byte
    /// of a 128-bit mask, which gives every token's first and last byte.
    /// A token of at most [`MAX_WORD_BYTES`] is cut from the words by a
    /// funnel shift and a length mask and looked up with
    /// [`DictionaryIndex::find`]; only a token that is no dictionary word
    /// takes a branch of its own.
    fn count_ascii_line<'a>(
        &self,
        line: &'a str,
        ranked: &mut [u64],
        others: &mut BTreeMap<&'a str, u64>,
    ) -> bool {
        let bytes = line.as_bytes();
        let len = bytes.len();
        if !KERNEL_LINES.contains(&len) {
            return false;
        }
        // Two zero words follow the line's, for the cut of a token that
        // ends in its last word.
        let mut words = [0u64; 128 / 8 + 2];
        let mut high_bits = 0;
        // Each word's separator bits enter the mask at its top, so that
        // every shift in the loop is by a constant.
        let mut separators = 0u128;
        let mut push = |word: u64| {
            high_bits |= word;
            separators = separators >> 8 | u128::from(separator_bits(word)) << 120;
        };
        for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            push(*word);
        }
        // The bytes past the last whole word: the word that ends the
        // line, shifted down past the bytes already read (0 if none).
        let (whole, rest) = (len / 8, len % 8);
        let last = u64::from_le_bytes(bytes[len - 8..].try_into().expect("8 bytes"));
        words[whole] = last >> (8 * (7 - rest)) >> 8;
        if rest > 0 {
            push(words[whole]);
        }
        if high_bits & 0x8080_8080_8080_8080 != 0 {
            return false;
        }
        separators >>= 8 * (16 - len.div_ceil(8));
        // A token's first byte follows a separator or starts the line; its
        // last byte precedes one or ends the line.
        let tokens = !separators & u128::MAX >> (128 - len);
        let mut starts = tokens & (separators << 1 | 1);
        let mut lasts = tokens & (separators >> 1 | 1 << (len - 1));
        while starts != 0 {
            let start = starts.trailing_zeros() as usize;
            let end = lasts.trailing_zeros() as usize + 1;
            starts &= starts - 1;
            lasts &= lasts - 1;
            let n = end - start;
            if n <= MAX_WORD_BYTES {
                let (w, shift) = (start / 8, 8 * (start % 8) as u32);
                let cut = |a: u64, b: u64| a >> shift | (b << 1) << (63 - shift);
                let mask = u128::MAX >> (128 - 8 * n);
                let lo = cut(words[w], words[w + 1]) & mask as u64;
                let key = Key(
                    [lo, cut(words[w + 1], words[w + 2]) & (mask >> 64) as u64],
                    n,
                );
                if let Some(rank) = self.find(&key) {
                    ranked[rank] += 1;
                    continue;
                }
            }
            *others.entry(&line[start..end]).or_insert(0) += 1;
        }
        true
    }
}

/// One bit per byte of an ASCII `word`, set where the byte separates
/// tokens: 9–13 or 32.
///
/// No byte of an ASCII word carries into the next: adding 0x77 sets a
/// byte's top bit if it is at least 9, adding 0x72 if it is at least 14,
/// and adding 0x7F to a byte XOR 0x20 if it is not 32. The top bits are
/// then gathered into one byte by a multiply.
fn separator_bits(word: u64) -> u8 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let tab_to_cr = word.wrapping_add(0x77 * ONES) & !word.wrapping_add(0x72 * ONES);
    let space = !(word ^ (0x20 * ONES)).wrapping_add(0x7F * ONES);
    let top_bits = (tab_to_cr | space) & (0x80 * ONES);
    // Bit 8k of `top_bits >> 7` lands on bit 56 + k.
    ((top_bits >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// A WordCount key: a token, ordered and compared as its text.
///
/// A dictionary word holds only its rank in the sorted dictionary, which
/// orders dictionary words exactly as their text does; any other token
/// holds its own text. Two dictionary words compare by rank, every other
/// pair by text.
#[derive(Debug, Clone)]
pub struct Word(WordRepr);

#[derive(Debug, Clone)]
enum WordRepr {
    Dictionary { rank: u32 },
    Other(Arc<str>),
}

impl Word {
    /// The key for `token`: its dictionary rank, or a copy of the text
    /// for an out-of-dictionary token.
    pub fn new(token: &str) -> Word {
        match INDEX.rank(token) {
            Some(rank) => Word::ranked(rank),
            None => Word::other(token),
        }
    }

    /// The key of the dictionary word of rank `rank`.
    fn ranked(rank: u32) -> Word {
        Word(WordRepr::Dictionary { rank })
    }

    /// The key of an out-of-dictionary token.
    fn other(token: &str) -> Word {
        Word(WordRepr::Other(Arc::from(token)))
    }

    /// The token's text: a dictionary word's from the index.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            WordRepr::Dictionary { rank } => INDEX.words[*rank as usize],
            WordRepr::Other(text) => text,
        }
    }
}

impl PartialEq for Word {
    fn eq(&self, other: &Word) -> bool {
        match (&self.0, &other.0) {
            (WordRepr::Dictionary { rank: a }, WordRepr::Dictionary { rank: b }) => a == b,
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
            (WordRepr::Dictionary { rank: a }, WordRepr::Dictionary { rank: b }) => a.cmp(b),
            _ => self.as_str().cmp(other.as_str()),
        }
    }
}

impl Sizeable for Word {
    fn size_bytes(&self) -> u64 {
        self.as_str().len() as u64
    }
}

/// Calls `f` on each counted token in text order: the dictionary words
/// of `ranked`, as `(rank, count)` in rank order, merged with `others`.
/// Both are sorted by text and never share a text.
fn for_each_in_text_order(
    ranked: impl Iterator<Item = (u32, u64)>,
    others: BTreeMap<&str, u64>,
    mut f: impl FnMut(Word, u64),
) {
    if others.is_empty() {
        for (rank, n) in ranked {
            f(Word::ranked(rank), n);
        }
        return;
    }
    let mut others = others.into_iter().peekable();
    for (rank, n) in ranked {
        let word = Word::ranked(rank);
        while let Some((token, m)) = others.next_if(|&(token, _)| token < word.as_str()) {
            f(Word::other(token), m);
        }
        f(word, n);
    }
    for (token, m) in others {
        f(Word::other(token), m);
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

    /// Counts the whole split, then returns one `(Word, count)` per
    /// distinct token in [`Word`] order: the run mapping each line and
    /// summing gives. ASCII lines of 8–128 bytes are counted without a
    /// per-byte branch, as the module doc describes; any other line is
    /// split by `split_whitespace`.
    fn map_split(&self, lines: &[String]) -> Vec<(Word, u64)> {
        let index = &*INDEX;
        let mut ranked = vec![0u64; index.words.len()];
        let mut others: BTreeMap<&str, u64> = BTreeMap::new();
        for line in lines {
            if index.count_ascii_line(line, &mut ranked, &mut others) {
                continue;
            }
            for token in line.split_whitespace() {
                match index.rank(token) {
                    Some(rank) => ranked[rank as usize] += 1,
                    None => *others.entry(token).or_insert(0) += 1,
                }
            }
        }
        let distinct = ranked.iter().filter(|&&n| n > 0).count() + others.len();
        let mut run = Vec::with_capacity(distinct);
        let ranked = (0..).zip(ranked).filter(|&(_, n)| n > 0);
        for_each_in_text_order(ranked, others, |w, n| run.push((w, n)));
        run
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

    fn reduce(&self, key: Word, values: &[u64], emit: &mut dyn FnMut((String, u64))) {
        emit((key.as_str().to_string(), values.iter().sum()));
    }

    /// Sums the runs without merging them, as `map_split` counts a
    /// split: dictionary words into a dense per-rank array, other tokens
    /// into a sorted map. Then reduces each distinct token's sum in text
    /// order, as per merged group.
    fn reduce_runs(&self, runs: Vec<Vec<(Word, u64)>>, emit: &mut dyn FnMut((String, u64))) {
        let mut ranked: Vec<Option<u64>> = vec![None; INDEX.words.len()];
        let mut others: BTreeMap<&str, u64> = BTreeMap::new();
        for (word, n) in runs.iter().flatten() {
            match &word.0 {
                WordRepr::Dictionary { rank } => {
                    *ranked[*rank as usize].get_or_insert(0) += n;
                }
                WordRepr::Other(text) => *others.entry(text).or_insert(0) += n,
            }
        }
        let ranked = (0..)
            .zip(ranked)
            .filter_map(|(rank, sum)| Some((rank, sum?)));
        for_each_in_text_order(ranked, others, |word, sum| {
            self.reduce(word, &[sum], emit);
        });
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
    use proptest::prelude::*;

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
    fn a_counted_word_takes_24_bytes() {
        assert_eq!(std::mem::size_of::<(Word, u64)>(), 24);
    }

    #[test]
    fn dictionary_tokens_are_ranked() {
        let dict = crate::datagen::unix_dictionary();
        let mut sorted = dict.clone();
        sorted.sort();
        for word in &dict {
            let rank = sorted.binary_search(word).unwrap() as u32;
            let key = Word::new(word);
            assert_eq!(key.as_str(), word);
            match key.0 {
                WordRepr::Dictionary { rank: r } => assert_eq!(r, rank),
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

        fn reduce(&self, key: String, values: &[u64], emit: &mut dyn FnMut((String, u64))) {
            emit((key, values.iter().sum()));
        }
    }

    /// [`WordCountMapper`] without its `map_split`: the trait's default
    /// maps each line through [`Mapper::map`], the per-record
    /// definition, then sorts and combines.
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
        M: Mapper<Input = String>,
        R: Reducer<Key = M::Key, Value = M::Value>,
    {
        use ipso_mapreduce::{run_sequential, try_run_scale_out};
        let spec = job_spec(splits.len() as u32);
        vec![
            try_run_scale_out(&spec, mapper, reducer, splits).unwrap(),
            run_sequential(&spec, mapper, reducer, splits),
        ]
    }

    /// `tasks` splits of text over every separator class
    /// `split_whitespace` knows, in runs and at line ends, with
    /// dictionary words, out-of-dictionary tokens (sorting before,
    /// between and after them) and non-ASCII tokens; some lines are
    /// empty or separators only. One more, empty split follows.
    fn mixed_text_splits(seed: u64, tasks: usize) -> Vec<InputSplit<String>> {
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
        let mut rng = SimRng::seed_from(seed);
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
        let mut splits: Vec<InputSplit<String>> = (0..tasks)
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
        let splits = mixed_text_splits(3, 4);
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
        // `WordCountReducer::reduce_runs` against the default reduce of
        // `StringWordCount`, summing from two to eight runs.
        for (seed, tasks) in [(4, 1), (5, 2), (6, 7)] {
            let splits = mixed_text_splits(seed, tasks);
            let counted = run_both(&WordCountMapper, &WordCountReducer, &splits);
            let strings = run_both(&StringWordCount, &StringWordCount, &splits);
            assert_eq!(counted, strings, "seed {seed}, {tasks} tasks");
        }
    }

    /// The distinct tokens of `lines` with their counts, in text order:
    /// the definition of a split's run, keyed by plain text.
    fn text_counts(lines: &[String]) -> Vec<(String, u64)> {
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for token in lines.iter().flat_map(|line| line.split_whitespace()) {
            *counts.entry(token).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(t, n)| (t.to_string(), n))
            .collect()
    }

    /// `run` keyed by plain text, after checking that exactly its
    /// dictionary words are held by rank.
    fn run_text(run: &[(Word, u64)]) -> Vec<(String, u64)> {
        for (word, _) in run {
            let ranked = matches!(word.0, WordRepr::Dictionary { .. });
            let listed = INDEX.words.binary_search(&word.as_str()).is_ok();
            assert_eq!(ranked, listed, "{:?}", word.as_str());
        }
        run.iter()
            .map(|(w, n)| (w.as_str().to_string(), *n))
            .collect()
    }

    #[test]
    fn ascii_lines_count_as_split_whitespace() {
        // Every ASCII byte, alone and in pairs, at every offset of lines
        // on both sides of the kernel's 8-byte minimum, with tokens on
        // both sides of the 16-byte key.
        for len in 0..=21 {
            let base = "abcdefghijklmnopqrstu"[..len].to_string();
            for b in 0..0x80u8 {
                for at in 0..len {
                    for width in 1..=2.min(len - at) {
                        let mut bytes = base.clone().into_bytes();
                        bytes[at..at + width].fill(b);
                        let lines = [String::from_utf8(bytes).unwrap()];
                        let run = WordCountMapper.map_split(&lines);
                        assert_eq!(run_text(&run), text_counts(&lines), "{:?}", lines[0]);
                    }
                }
            }
        }
    }

    #[test]
    fn separator_bits_mark_split_whitespace_bytes() {
        for b in 0..0x80u8 {
            let sep = u8::from(b == b' ' || (9..=13).contains(&b));
            for at in 0..8 {
                // `b` at byte `at` of a word of 'a's, and of NULs.
                for fill in [b'a', 0] {
                    let mut bytes = [fill; 8];
                    bytes[at] = b;
                    let bits = separator_bits(u64::from_le_bytes(bytes));
                    assert_eq!(bits, sep << at, "{b:#x} at {at} among {fill:#x}");
                }
            }
        }
    }

    #[test]
    fn every_word_has_a_slot_of_its_own() {
        let index = &*INDEX;
        let mut seated = vec![false; index.slots.len()];
        for (rank, word) in index.words.iter().enumerate() {
            let key = Key::of(word.as_bytes()).unwrap();
            let slot = index.slot_of(&key);
            assert_eq!(usize::from(index.slots[slot]), rank, "{word:?}");
            assert!(!std::mem::replace(&mut seated[slot], true), "{word:?}");
            assert_eq!(index.find(&key), Some(rank));
            // Tokens that start with the word's bytes: the word and a
            // NUL, the word NUL-padded to 16 and 17 bytes (its 16-byte
            // key, and one past it), and 16 and 17 bytes of the word
            // and letters.
            let near = [
                format!("{word}\0"),
                format!("{word:\0<16}"),
                format!("{word:\0<17}"),
                format!("{word:z<16}"),
                format!("{word:z<17}"),
            ];
            for token in &near {
                assert_eq!(index.rank(token), None, "{token:?}");
                // And in a line the kernel counts.
                let lines = [format!("\t{token} {word}\r")];
                assert!(KERNEL_LINES.contains(&lines[0].len()));
                let run = WordCountMapper.map_split(&lines);
                assert_eq!(run_text(&run), text_counts(&lines), "{token:?}");
            }
        }
    }

    /// Chars drawn for probe tokens: NUL and ASCII around the padding
    /// byte, dictionary letters, and two- to four-byte UTF-8.
    const PROBE_ALPHABET: [char; 10] = [
        '\0',
        '\u{1}',
        'a',
        'e',
        'n',
        'r',
        '\u{7F}',
        'é',
        '日',
        '\u{10FFFF}',
    ];
    /// Bytes at which [`packed_probe_is_text_equality`] edits a word:
    /// either end of each 8-byte half of a key, the last byte a 12-byte
    /// dictionary word may have, and the first byte past the key.
    const EDIT_AT: [usize; 6] = [0, 7, 8, 11, 15, 16];
    /// Replacement bytes for edited words, and fill up to an edit past
    /// a word's end.
    const EDIT_BYTES: [u8; 6] = [0, 1, b'a', b'n', b'z', 0x7F];

    /// The text of `picks`, cut to at most `max` bytes at a char
    /// boundary.
    fn probe_text(picks: &[(usize, u32)], max: usize) -> String {
        let mut text = String::new();
        for &(pick, code) in picks {
            let c = PROBE_ALPHABET
                .get(pick)
                .copied()
                .unwrap_or_else(|| char::from_u32(code % 0x11_0000).unwrap_or('\u{FFFD}'));
            if text.len() + c.len_utf8() > max {
                break;
            }
            text.push(c);
        }
        text
    }

    /// The six ASCII separators.
    const SEPARATORS: [&str; 6] = [" ", "\t", "\n", "\x0B", "\x0C", "\r"];
    /// Line lengths at the kernel's edges: under its 8-byte minimum, at
    /// it, around a 16-byte key and 64 bytes, and around its 128-byte
    /// maximum.
    const LINE_LENGTHS: [usize; 18] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 63, 64, 65, 127, 128, 129,
    ];
    /// Bytes that fill a line up to its length.
    const FILL: [char; 5] = [' ', '\t', 'a', '\0', '\r'];

    /// Piece `kind` of a test line around dictionary word `word`: a
    /// separator, the word, the word with a NUL after it or inside it,
    /// the word filled out to a 15-, 16- or 17-byte token, or non-ASCII
    /// text.
    fn line_piece(kind: usize, word: &str) -> String {
        match kind {
            0..=5 => SEPARATORS[kind].to_string(),
            6 => format!("{word}\0"),
            7 => format!("{}\0{}", &word[..1], &word[1..]),
            8 => format!("{word:x<15}"),
            9 => format!("{word:\0<16}"),
            10 => format!("{word:x<16}"),
            11 => format!("{word:y<17}"),
            12 => "é".to_string(),
            13 => "\u{A0}".to_string(),
            _ => word.to_string(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The index's `(text, len)` key finds a token exactly when `str`
        /// equality finds it in the dictionary, by [`DictionaryIndex::rank`]
        /// and when counted in a line: for 0–20-byte tokens with
        /// NULs and non-ASCII text, dictionary words with one byte
        /// edited (or set past their end, filled up to it), and tokens
        /// that start with a word, some over 16 bytes.
        #[test]
        fn packed_probe_is_text_equality(
            picks in prop::collection::vec((0usize..12, any::<u32>()), 0..21),
            word in 0usize..DICTIONARY_SIZE,
            edit in (0usize..EDIT_AT.len(), 0usize..EDIT_BYTES.len(), 0usize..EDIT_BYTES.len()),
        ) {
            let mut dict = crate::datagen::unix_dictionary();
            dict.sort();
            let word = &dict[word];
            let (at, byte, fill) = (EDIT_AT[edit.0], EDIT_BYTES[edit.1], EDIT_BYTES[edit.2]);
            let mut edited = word.clone().into_bytes();
            if edited.len() <= at {
                edited.resize(at + 1, fill);
            }
            edited[at] = byte;
            let edited = String::from_utf8(edited).expect("ASCII edit");
            let longer = format!("{word}{}", probe_text(&picks, 20 - word.len()));
            let padded = format!("{word:\0<17}");
            let tokens = [word.clone(), probe_text(&picks, 20), edited, longer, padded];
            for token in &tokens {
                let want = dict.binary_search(token).ok().map(|r| r as u32);
                prop_assert_eq!(INDEX.rank(token), want, "{:?}", token);
                let lines = [format!("{token}        ")];
                let run = WordCountMapper.map_split(&lines);
                prop_assert_eq!(run_text(&run), text_counts(&lines), "{:?}", token);
            }
        }

        /// `map_split` gives the run of per-line `map`, a sort and the
        /// combiner, and the counts of `split_whitespace`'s tokens, for
        /// lines of every [`LINE_LENGTHS`] with separator runs at either
        /// end and inside, NULs in and after words, 15–17-byte tokens and
        /// non-ASCII text.
        #[test]
        fn map_split_is_map_sort_and_combine(
            lines in prop::collection::vec(
                (
                    0usize..LINE_LENGTHS.len(),
                    prop::collection::vec((0usize..20, 0usize..DICTIONARY_SIZE), 0..48),
                    0usize..FILL.len(),
                ),
                1..6,
            ),
        ) {
            let words = dictionary_words();
            let lines: Vec<String> = lines
                .iter()
                .map(|(len, pieces, fill)| {
                    let len = LINE_LENGTHS[*len];
                    let mut line: String =
                        pieces.iter().map(|&(kind, w)| line_piece(kind, &words[w])).collect();
                    while line.len() > len {
                        line.pop();
                    }
                    while line.len() < len {
                        line.push(FILL[*fill]);
                    }
                    line
                })
                .collect();
            let run = WordCountMapper.map_split(&lines);
            prop_assert_eq!(&run, &PerLine(WordCountMapper).map_split(&lines));
            prop_assert_eq!(run_text(&run), text_counts(&lines));
        }
    }

    #[test]
    fn dictionary_text_maps_as_map_sort_and_combine() {
        // Only dictionary words: the runs never merge other tokens in.
        let splits = make_splits(3, 5);
        for split in &splits {
            let fast = WordCountMapper.map_split(&split.records);
            assert!(fast
                .iter()
                .all(|(w, _)| matches!(w.0, WordRepr::Dictionary { .. })));
            assert_eq!(fast, PerLine(WordCountMapper).map_split(&split.records));
        }
        let counted = run_both(&WordCountMapper, &WordCountReducer, &splits);
        let strings = run_both(&StringWordCount, &StringWordCount, &splits);
        assert_eq!(counted, strings);
    }

    #[test]
    fn map_split_returns_each_token_once_in_order() {
        for split in mixed_text_splits(3, 4) {
            let pairs = WordCountMapper.map_split(&split.records);
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
