//! The real data path: map, combine, shuffle-group and reduce over the
//! sample records.
//!
//! This is the framework-specific half of the engine after the unified
//! runtime refactor — everything that touches *records* lives here;
//! everything that touches *time* lives in [`crate::plan`] (lowering to
//! the task-graph IR) and [`ipso_cluster::runtime`] (execution). The data
//! path consumes no randomness and is independent of the timing model,
//! which is what makes outputs identical across thread counts, scheduler
//! policies and fault settings.
//!
//! Built for throughput:
//!
//! * map tasks run as a parallel wave over `spec.engine.threads` host
//!   threads ([`ipso_sim::par::ordered_map_indexed`]), with results
//!   collected in task order so outputs and traces are byte-identical
//!   to the sequential path for any thread count;
//! * a task maps its whole split through one [`Mapper::map_split`] call
//!   into a single flat pair buffer pre-sized from the split, which is
//!   stably sorted by key, with the combiner streamed over the sorted
//!   runs through one reused scratch buffer. A mapper that combines
//!   in-mapper (WordCount counts its split and emits one pair per
//!   distinct token, in key order) hands the sort an already-sorted run,
//!   which the stable sort detects in one linear scan. The task's result
//!   is its post-combine pairs, one sorted `Vec`;
//! * the reduce side hands the tasks' runs, in task order, to
//!   [`Reducer::reduce_runs`]. Its default concatenates them and stably
//!   sorts the whole buffer once: the sort detects the pre-sorted runs
//!   and merges them, and stability keeps equal keys in task order, then
//!   emission order, as the seed's grouping appended them. No k-way
//!   merge structure is needed. The same grouping walk as the map side
//!   then moves each group's first key into [`Reducer::reduce`].
//!
//! The seed's ordered-map grouping lives on outside the engine, as
//! `ipso_bench::reference`: the engines bench times it as the baseline
//! and the oracle tests check this path against it.

use crate::api::{Mapper, OutputScaling, Reducer, Sizeable};
use crate::config::JobSpec;
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
    let mut pairs: Vec<(M::Key, M::Value)> = Vec::with_capacity(split.records.len());
    mapper.map_split(&split.records, &mut |k, v| pairs.push((k, v)));

    // The map-side sort (stable, so order-sensitive reducers see values
    // in emission order), then combine per group through one reused
    // scratch buffer.
    let mut combined: Vec<(M::Key, M::Value)> = Vec::with_capacity(pairs.len());
    let mut sample_out_bytes: u64 = 0;
    sort_and_group(pairs, |key, group| {
        mapper.combine(&key, group);
        for v in group.iter() {
            sample_out_bytes += key.size_bytes() + v.size_bytes();
        }
        // The last value takes the key itself; the others a clone.
        if let Some(last) = group.pop() {
            combined.extend(group.drain(..).map(|v| (key.clone(), v)));
            combined.push((key, last));
        }
    });

    let nominal_out_bytes = match mapper.output_scaling() {
        OutputScaling::Proportional => (sample_out_bytes as f64 * split.scale_up()).round() as u64,
        OutputScaling::Saturating => sample_out_bytes,
    };
    MappedTask {
        pairs: combined,
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

/// Runs the map + combine side of every task, as a parallel wave over
/// the host threads configured in `spec.engine`. Results come back in
/// task order, so downstream accounting is independent of thread count.
pub(crate) fn execute_map_tasks<M>(
    mapper: &M,
    splits: &[InputSplit<M::Input>],
    spec: &JobSpec,
) -> Vec<MappedTask<M::Key, M::Value>>
where
    M: Mapper + Sync,
    M::Input: Sync,
    M::Key: Send,
    M::Value: Send,
{
    ipso_sim::par::ordered_map_indexed(spec.engine.threads, splits.len(), |i| {
        execute_map_task(mapper, &splits[i])
    })
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
