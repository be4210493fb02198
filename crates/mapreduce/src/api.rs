//! User-facing MapReduce traits.

/// Types whose serialized size the engine can account for. Intermediate
/// data volumes (and therefore shuffle and merge costs) are derived from
/// these sizes.
pub trait Sizeable {
    /// Approximate serialized size in bytes.
    fn size_bytes(&self) -> u64;
}

impl Sizeable for String {
    fn size_bytes(&self) -> u64 {
        self.len() as u64
    }
}

impl Sizeable for &str {
    fn size_bytes(&self) -> u64 {
        self.len() as u64
    }
}

impl Sizeable for u64 {
    fn size_bytes(&self) -> u64 {
        8
    }
}

impl Sizeable for i64 {
    fn size_bytes(&self) -> u64 {
        8
    }
}

impl Sizeable for f64 {
    fn size_bytes(&self) -> u64 {
        8
    }
}

impl Sizeable for u32 {
    fn size_bytes(&self) -> u64 {
        4
    }
}

impl Sizeable for () {
    fn size_bytes(&self) -> u64 {
        0
    }
}

impl Sizeable for Vec<u8> {
    fn size_bytes(&self) -> u64 {
        self.len() as u64
    }
}

impl<const N: usize> Sizeable for [u8; N] {
    fn size_bytes(&self) -> u64 {
        N as u64
    }
}

impl<A: Sizeable, B: Sizeable> Sizeable for (A, B) {
    fn size_bytes(&self) -> u64 {
        self.0.size_bytes() + self.1.size_bytes()
    }
}

/// How a mapper's (post-combine) output volume extrapolates from the
/// executed sample to the nominal shard size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputScaling {
    /// Output grows in proportion to input (Sort, TeraSort: every record
    /// passes through). Nominal intermediate bytes = sample bytes ÷
    /// sample fraction.
    Proportional,
    /// Output saturates at a bounded key space (WordCount after its
    /// combiner: at most one entry per dictionary word; QMC-Pi: one
    /// partial count per task). Nominal intermediate bytes = sample bytes.
    Saturating,
}

/// A map function over one input record.
///
/// # Example
///
/// ```
/// use ipso_mapreduce::{Mapper, OutputScaling};
///
/// struct Tokenize;
///
/// impl Mapper for Tokenize {
///     type Input = String;
///     type Key = String;
///     type Value = u64;
///
///     fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
///         for word in line.split_whitespace() {
///             emit(word.to_string(), 1);
///         }
///     }
///
///     fn combine(&self, _key: &String, values: &mut Vec<u64>) {
///         let sum = values.iter().sum();
///         values.clear();
///         values.push(sum);
///     }
///
///     fn output_scaling(&self) -> OutputScaling {
///         OutputScaling::Saturating
///     }
/// }
/// ```
pub trait Mapper {
    /// Input record type.
    type Input;
    /// Intermediate key.
    type Key: Ord + Clone + Sizeable;
    /// Intermediate value.
    type Value: Clone + Sizeable;

    /// Maps one record, emitting zero or more key/value pairs.
    fn map(&self, input: &Self::Input, emit: &mut dyn FnMut(Self::Key, Self::Value));

    /// Maps a whole split: every record of one map task, in order,
    /// emitting into one buffer. The default maps each record with
    /// [`Mapper::map`].
    ///
    /// The engine calls this once per task, then stably sorts the
    /// emitted pairs by key and runs [`Mapper::combine`] on each key's
    /// group. An override may emit different pairs than mapping each
    /// record would, but after that sort and combine it must give the
    /// same groups: the same keys, and per key the same combined values
    /// in the same order. Emitting already-combined pairs is therefore
    /// valid exactly when the combiner is insensitive to that regrouping
    /// — a summing combiner, as in WordCount, is the typical case. This
    /// is Hadoop's in-mapper combining (`Mapper.run` overridden to keep
    /// state across a split's records).
    ///
    /// # Example
    ///
    /// In-mapper counting for a word count whose combiner sums: count
    /// the split's tokens first and emit one pre-summed pair per distinct
    /// token, in key order, so the engine's sort sees a sorted run and
    /// the combiner sums one value per key.
    ///
    /// ```
    /// use std::collections::BTreeMap;
    ///
    /// use ipso_mapreduce::{Mapper, OutputScaling};
    ///
    /// struct CountWords;
    ///
    /// impl Mapper for CountWords {
    ///     type Input = String;
    ///     type Key = String;
    ///     type Value = u64;
    ///
    ///     fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
    ///         for word in line.split_whitespace() {
    ///             emit(word.to_string(), 1);
    ///         }
    ///     }
    ///
    ///     fn map_split(&self, lines: &[String], emit: &mut dyn FnMut(String, u64)) {
    ///         let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    ///         for word in lines.iter().flat_map(|line| line.split_whitespace()) {
    ///             *counts.entry(word).or_insert(0) += 1;
    ///         }
    ///         for (word, count) in counts {
    ///             emit(word.to_string(), count);
    ///         }
    ///     }
    ///
    ///     fn combine(&self, _key: &String, values: &mut Vec<u64>) {
    ///         let sum = values.iter().sum();
    ///         values.clear();
    ///         values.push(sum);
    ///     }
    ///
    ///     fn output_scaling(&self) -> OutputScaling {
    ///         OutputScaling::Saturating
    ///     }
    /// }
    ///
    /// let lines = vec!["to be or".to_string(), "not to be".to_string()];
    /// let mut pairs = Vec::new();
    /// CountWords.map_split(&lines, &mut |k, v| pairs.push((k, v)));
    /// assert_eq!(pairs[0], ("be".to_string(), 2));
    /// assert_eq!(pairs.len(), 4);
    /// ```
    fn map_split(&self, records: &[Self::Input], emit: &mut dyn FnMut(Self::Key, Self::Value)) {
        for record in records {
            self.map(record, emit);
        }
    }

    /// Optional map-side combiner applied per task and key, rewriting
    /// the group's values in place (so a summing combiner reuses the
    /// group's buffer instead of allocating a fresh one per key). The
    /// default leaves the values unchanged.
    fn combine(&self, _key: &Self::Key, _values: &mut Vec<Self::Value>) {}

    /// How this mapper's output volume extrapolates to nominal shard
    /// sizes. Defaults to [`OutputScaling::Proportional`].
    fn output_scaling(&self) -> OutputScaling {
        OutputScaling::Proportional
    }
}

/// A reduce function over one key group.
pub trait Reducer {
    /// Intermediate key (matches the mapper's).
    type Key: Ord + Clone + Sizeable;
    /// Intermediate value (matches the mapper's).
    type Value: Clone + Sizeable;
    /// Output record.
    type Output;

    /// Reduces all values of one key to zero or more outputs.
    fn reduce(&self, key: &Self::Key, values: &[Self::Value], emit: &mut dyn FnMut(Self::Output));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_sensible() {
        assert_eq!("hello".to_string().size_bytes(), 5);
        assert_eq!(7u64.size_bytes(), 8);
        assert_eq!(1.5f64.size_bytes(), 8);
        assert_eq!(3u32.size_bytes(), 4);
        assert_eq!(().size_bytes(), 0);
        assert_eq!(vec![0u8; 10].size_bytes(), 10);
        assert_eq!([0u8; 10].size_bytes(), 10);
        assert_eq!(("ab".to_string(), 1u64).size_bytes(), 10);
    }

    struct Identity;
    impl Mapper for Identity {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
            emit(*input, 1);
        }
    }

    #[test]
    fn default_combine_is_passthrough() {
        let m = Identity;
        let mut values = vec![1, 2, 3];
        m.combine(&1, &mut values);
        assert_eq!(values, vec![1, 2, 3]);
        assert_eq!(m.output_scaling(), OutputScaling::Proportional);
    }

    #[test]
    fn default_map_split_maps_each_record_in_order() {
        struct Repeat;
        impl Mapper for Repeat {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
                for i in 0..*input {
                    emit(*input, i);
                }
            }
        }
        let records = [3, 0, 1, 3, 2];
        let mut per_record = Vec::new();
        for r in &records {
            Repeat.map(r, &mut |k, v| per_record.push((k, v)));
        }
        let mut split = Vec::new();
        Repeat.map_split(&records, &mut |k, v| split.push((k, v)));
        assert_eq!(split, per_record);
        let mut empty = Vec::new();
        Repeat.map_split(&[], &mut |k, v| empty.push((k, v)));
        assert!(empty.is_empty());
    }

    #[test]
    fn mapper_emits_through_closure() {
        let m = Identity;
        let mut out = Vec::new();
        m.map(&42, &mut |k, v| out.push((k, v)));
        assert_eq!(out, vec![(42, 1)]);
    }
}
