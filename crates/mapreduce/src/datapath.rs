//! The real data path: map, combine, shuffle-group and reduce over the
//! sample records.
//!
//! This is the framework-specific half of the engine after the unified
//! runtime refactor — everything that touches *records* lives here;
//! everything that touches *time* lives in [`crate::plan`] (lowering to
//! the task-graph IR) and [`ipso_cluster::runtime`] (execution). The data
//! path consumes no randomness and is independent of the timing model,
//! which is what makes outputs identical across scheduler policies and
//! fault settings.
//!
//! Built for throughput:
//!
//! * a task's whole split goes through one [`Mapper::map_split`] call,
//!   which returns the task's post-combine run, sorted by key. The
//!   trait's default maps each record into one flat buffer pre-sized
//!   from the split, stably sorts it by key and streams the combiner
//!   over the sorted groups through one reused scratch buffer. A mapper
//!   can return that run more cheaply: WordCount counts its split
//!   in-mapper and returns one pair per distinct token, in key order;
//!   Sort, which has no combiner, stably sorts its mapped pairs once,
//!   and TeraSort, which has none either, bucket-sorts them stably by
//!   its keys' leading bytes. The engine only checks, in debug builds,
//!   that the run is sorted, and sums its bytes;
//! * the reduce side hands the tasks' runs, in task order, to
//!   [`Reducer::reduce_runs`]. Its default concatenates them and stably
//!   sorts the whole buffer once: the sort detects the pre-sorted runs
//!   and merges them, and stability keeps equal keys in task order, then
//!   emission order, as the seed's grouping appended them. No k-way
//!   merge structure is needed. The grouping walk of the default
//!   `map_split` then moves each group's first key into
//!   [`Reducer::reduce`]. WordCount overrides it to sum the runs by
//!   dictionary rank, TeraSort to bucket-sort all runs at once, and Sort
//!   to sort them by its keys' packed 16-byte prefix, one `u128`
//!   compare, and count each key's pairs without a group buffer.
//!
//! The seed's ordered-map grouping lives on outside the engine, as
//! `ipso_bench::reference`: the engines bench times it as the baseline
//! and the oracle tests check this path against it.

use crate::api::{Mapper, OutputScaling, Reducer, Sizeable};
use crate::split::InputSplit;

/// The per-task result of the (real) map-side computation.
pub(crate) struct MappedTask<K, V> {
    /// Post-combine pairs sorted by key; a key's values in combine order.
    pub(crate) pairs: Vec<(K, V)>,
    /// Nominal post-combine output bytes.
    pub(crate) nominal_out_bytes: u64,
}

/// Runs the map + combine side of one task for real.
pub(crate) fn execute_map_task<M>(
    mapper: &M,
    split: &InputSplit<M::Input>,
) -> MappedTask<M::Key, M::Value>
where
    M: Mapper,
{
    let pairs = mapper.map_split(&split.records);
    debug_assert!(
        pairs.is_sorted_by_key(|(k, _)| k),
        "Mapper::map_split returned a run not sorted by key"
    );
    let sample_out_bytes: u64 = pairs
        .iter()
        .map(|(k, v)| k.size_bytes() + v.size_bytes())
        .sum();
    let nominal_out_bytes = match mapper.output_scaling() {
        OutputScaling::Proportional => (sample_out_bytes as f64 * split.scale_up()).round() as u64,
        OutputScaling::Saturating => sample_out_bytes,
    };
    MappedTask {
        pairs,
        nominal_out_bytes,
    }
}

/// Stably sorts `pairs` by key, then calls `f` on each key's values, in
/// key order, through one reused buffer that `f` may drain.
pub(crate) fn sort_and_group<K: Ord, V>(mut pairs: Vec<(K, V)>, mut f: impl FnMut(K, &mut Vec<V>)) {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut pairs = pairs.into_iter();
    let Some((mut key, first)) = pairs.next() else {
        return;
    };
    let mut group = vec![first];
    for (k, v) in pairs {
        if k != key {
            f(std::mem::replace(&mut key, k), &mut group);
            group.clear();
        }
        group.push(v);
    }
    f(key, &mut group);
}

/// Runs the map + combine side of every task, in task order.
pub(crate) fn execute_map_tasks<M: Mapper>(
    mapper: &M,
    splits: &[InputSplit<M::Input>],
) -> Vec<MappedTask<M::Key, M::Value>> {
    splits
        .iter()
        .map(|split| execute_map_task(mapper, split))
        .collect()
}

/// Runs the reducer for real over all tasks' sorted runs, in task order,
/// through [`Reducer::reduce_runs`]. Returns the outputs and the tasks'
/// summed nominal bytes.
pub(crate) fn execute_reduce<R>(
    reducer: &R,
    tasks: Vec<MappedTask<R::Key, R::Value>>,
) -> (Vec<R::Output>, u64)
where
    R: Reducer,
{
    let mut reduce_input_bytes: u64 = 0;
    let runs = tasks
        .into_iter()
        .map(|t| {
            reduce_input_bytes += t.nominal_out_bytes;
            t.pairs
        })
        .collect();
    let mut output = Vec::new();
    reducer.reduce_runs(runs, &mut |o| output.push(o));
    (output, reduce_input_bytes)
}

#[cfg(test)]
mod tests {
    /// The sortedness check is a `debug_assert!`, so this test needs a
    /// debug build.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not sorted by key")]
    fn an_unsorted_run_trips_the_debug_check() {
        use super::*;

        /// Returns its records as they come, keyed by themselves: a
        /// `map_split` override that breaks the sorted-run contract.
        struct Unsorted;
        impl Mapper for Unsorted {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
                emit(*input, 1);
            }
            fn map_split(&self, records: &[u64]) -> Vec<(u64, u64)> {
                records.iter().map(|&r| (r, 1)).collect()
            }
        }
        execute_map_task(&Unsorted, &InputSplit::new(vec![2, 1, 3], 24, 24));
    }
}
