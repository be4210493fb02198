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

    /// Maps a whole split: every record of one map task, in order, and
    /// returns the task's post-combine run, sorted by key. The engine
    /// calls this once per task and takes the run as it is.
    ///
    /// The default maps each record with [`Mapper::map`] into one
    /// buffer, stably sorts it by key, so a key's values stay in
    /// emission order, and runs [`Mapper::combine`] on every key's
    /// group, a single-value group too. The run holds each group's
    /// combined values under its key, groups in key order.
    ///
    /// An override may compute the run another way, but it must return
    /// exactly what the default would: the same pairs in the same order.
    /// A mapper without a combiner can sort its mapped pairs itself,
    /// with a stable sort; one whose combiner sums can count the split
    /// first and return one pre-summed pair per key. The latter is
    /// Hadoop's in-mapper combining (`Mapper.run` overridden to keep
    /// state across a split's records).
    ///
    /// # Example
    ///
    /// In-mapper counting for a word count whose combiner sums: count
    /// the split's tokens, then return one summed pair per distinct
    /// token, in key order, which is the default's sorted, combined run.
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
    ///     fn map_split(&self, lines: &[String]) -> Vec<(String, u64)> {
    ///         let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    ///         for word in lines.iter().flat_map(|line| line.split_whitespace()) {
    ///             *counts.entry(word).or_insert(0) += 1;
    ///         }
    ///         counts
    ///             .into_iter()
    ///             .map(|(word, count)| (word.to_string(), count))
    ///             .collect()
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
    /// let run = CountWords.map_split(&lines);
    /// assert_eq!(run[0], ("be".to_string(), 2));
    /// assert_eq!(run.len(), 4);
    /// ```
    fn map_split(&self, records: &[Self::Input]) -> Vec<(Self::Key, Self::Value)> {
        let mut pairs = Vec::with_capacity(records.len());
        for record in records {
            self.map(record, &mut |k, v| pairs.push((k, v)));
        }
        let mut run = Vec::with_capacity(pairs.len());
        crate::datapath::sort_and_group(pairs, |key, group| {
            self.combine(&key, group);
            // The last value takes the key itself; the others a clone.
            if let Some(last) = group.pop() {
                run.extend(group.drain(..).map(|v| (key.clone(), v)));
                run.push((key, last));
            }
        });
        run
    }

    /// Map-side combiner, run per task on each key's group by the
    /// default [`Mapper::map_split`]. It rewrites the group's values in
    /// place, so a summing combiner reuses the group's buffer instead
    /// of allocating a fresh one per key. The default leaves the values
    /// unchanged.
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

    /// Reduces all values of one key to zero or more outputs. The key
    /// is moved in, so a reducer that emits it, or data it owns, needs
    /// no clone for the last output.
    fn reduce(&self, key: Self::Key, values: &[Self::Value], emit: &mut dyn FnMut(Self::Output));

    /// Reduces a whole partition: every map task's post-combine pairs,
    /// one run per task in task order, each run sorted by key. The
    /// default stably sorts the concatenated runs by key, which merges
    /// the pre-sorted runs and keeps a key's values in task order, then
    /// emission order, and calls [`Reducer::reduce`] once per key in
    /// ascending key order, moving in the group's first key.
    ///
    /// The engine calls this once per job. An override may reduce the
    /// runs another way, but it must emit exactly what the default
    /// would: the same outputs in the same order. This is the
    /// reduce-side counterpart of [`Mapper::map_split`]; a reducer over
    /// a small dense key space can sum the runs straight into per-key
    /// slots instead of materializing their merge.
    ///
    /// # Example
    ///
    /// A count over keys below 16 that sums into 16 slots:
    ///
    /// ```
    /// use ipso_mapreduce::Reducer;
    ///
    /// struct SumSmall;
    ///
    /// impl Reducer for SumSmall {
    ///     type Key = u32;
    ///     type Value = u64;
    ///     type Output = (u32, u64);
    ///
    ///     fn reduce(&self, key: u32, values: &[u64], emit: &mut dyn FnMut((u32, u64))) {
    ///         emit((key, values.iter().sum()));
    ///     }
    ///
    ///     fn reduce_runs(&self, runs: Vec<Vec<(u32, u64)>>, emit: &mut dyn FnMut((u32, u64))) {
    ///         let mut sums = [None; 16];
    ///         for (key, n) in runs.into_iter().flatten() {
    ///             *sums[key as usize].get_or_insert(0) += n;
    ///         }
    ///         for (key, sum) in (0..).zip(sums) {
    ///             if let Some(sum) = sum {
    ///                 emit((key, sum));
    ///             }
    ///         }
    ///     }
    /// }
    ///
    /// let runs = vec![vec![(1, 2), (15, 1)], vec![], vec![(1, 3), (7, 0)]];
    /// let mut out = Vec::new();
    /// SumSmall.reduce_runs(runs, &mut |o| out.push(o));
    /// // What the default, one `reduce` per merged group, emits.
    /// assert_eq!(out, [(1, 5), (7, 0), (15, 1)]);
    /// ```
    fn reduce_runs(
        &self,
        runs: Vec<Vec<(Self::Key, Self::Value)>>,
        emit: &mut dyn FnMut(Self::Output),
    ) {
        let len = runs.iter().map(Vec::len).sum();
        let mut pairs: Vec<(Self::Key, Self::Value)> = Vec::with_capacity(len);
        for mut run in runs {
            pairs.append(&mut run);
        }
        crate::datapath::sort_and_group(pairs, |key, values| self.reduce(key, values, emit));
    }
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
    fn default_map_split_sorts_and_combines_every_group() {
        /// Emits `(r % 5, r)` and, for odd `r`, `(r % 3, r + 100)`. Its
        /// combiner prefixes each group with 1000 plus the group's
        /// length, so a skipped combine shows.
        struct Marked;
        impl Mapper for Marked {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
                emit(input % 5, *input);
                if input % 2 == 1 {
                    emit(input % 3, input + 100);
                }
            }
            fn combine(&self, _key: &u64, values: &mut Vec<u64>) {
                values.insert(0, 1000 + values.len() as u64);
            }
        }
        let records = [9, 3, 14, 0, 7, 5, 4, 12];
        // Stably sorted by key, each key's values stay in emission
        // order: 0 → [109, 103, 0, 5], 1 → [107], 2 → [7, 105, 12],
        // 3 → [3], 4 → [9, 14, 4]. Every group is combined, the
        // single-value groups of keys 1 and 3 too.
        let mut want = Vec::new();
        for (k, values) in [
            (0, vec![1004, 109, 103, 0, 5]),
            (1, vec![1001, 107]),
            (2, vec![1003, 7, 105, 12]),
            (3, vec![1001, 3]),
            (4, vec![1003, 9, 14, 4]),
        ] {
            want.extend(values.into_iter().map(|v| (k, v)));
        }
        assert_eq!(Marked.map_split(&records), want);
        assert!(Marked.map_split(&[]).is_empty());
    }

    #[test]
    fn mapper_emits_through_closure() {
        let m = Identity;
        let mut out = Vec::new();
        m.map(&42, &mut |k, v| out.push((k, v)));
        assert_eq!(out, vec![(42, 1)]);
    }
}
