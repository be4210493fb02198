//! The seed's MapReduce grouping, kept verbatim as a reference.
//!
//! `ipso-mapreduce` groups through a sort-merge shuffle: each map task's
//! sorted, combined run from `Mapper::map_split` and one stable sort
//! over all tasks' runs on the reduce side, through
//! `Reducer::reduce_runs`. The seed grouped through ordered maps
//! instead, and that path lives on here, outside the engine. The engines bench times it as the baseline
//! (`btree_seq`), and the oracle tests check that the engine's outputs
//! and intermediate-volume accounting equal its own.
//!
//! It runs the data path only: no timing model, no cluster runtime.

use std::collections::BTreeMap;

use ipso_mapreduce::{InputSplit, Mapper, OutputScaling, Reducer, Sizeable};

/// Runs `mapper` over every split and `reducer` over the merged groups
/// the way the seed engine did.
///
/// Each map task maps its records one by one with [`Mapper::map`] into
/// an unsized buffer, groups them in a `BTreeMap`, and combines every
/// group into a second, rebuilt map. The reduce side merges all tasks'
/// maps into one `BTreeMap`, in task order, and reduces it in key order,
/// one [`Reducer::reduce`] call per group. It never calls
/// [`Mapper::map_split`] or [`Reducer::reduce_runs`], so it checks
/// overrides of those hooks too.
///
/// Returns the reducer's outputs and, per split, the task's nominal
/// post-combine output bytes: sample bytes scaled up by the split's
/// [`InputSplit::scale_up`] for [`OutputScaling::Proportional`] mappers,
/// as is for [`OutputScaling::Saturating`] ones. The engine's
/// `reduce_input_bytes` is their sum.
pub fn run<M, R>(
    mapper: &M,
    reducer: &R,
    splits: &[InputSplit<M::Input>],
) -> (Vec<R::Output>, Vec<u64>)
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    let tasks: Vec<_> = splits.iter().map(|split| map_task(mapper, split)).collect();
    let mut merged: BTreeMap<M::Key, Vec<M::Value>> = BTreeMap::new();
    let mut task_bytes = Vec::with_capacity(tasks.len());
    for (combined, bytes) in tasks {
        task_bytes.push(bytes);
        for (k, mut vs) in combined {
            merged.entry(k).or_default().append(&mut vs);
        }
    }
    let mut output = Vec::new();
    for (k, vs) in merged {
        reducer.reduce(k, &vs, &mut |o| output.push(o));
    }
    (output, task_bytes)
}

/// One map task: the combined groups and their nominal bytes.
fn map_task<M: Mapper>(
    mapper: &M,
    split: &InputSplit<M::Input>,
) -> (BTreeMap<M::Key, Vec<M::Value>>, u64) {
    let mut pairs: Vec<(M::Key, M::Value)> = Vec::new();
    for record in &split.records {
        mapper.map(record, &mut |k, v| pairs.push((k, v)));
    }
    let mut groups: BTreeMap<M::Key, Vec<M::Value>> = BTreeMap::new();
    for (k, v) in pairs {
        groups.entry(k).or_default().push(v);
    }
    let mut combined: BTreeMap<M::Key, Vec<M::Value>> = BTreeMap::new();
    let mut sample_out_bytes: u64 = 0;
    for (k, mut vs) in groups {
        mapper.combine(&k, &mut vs);
        for v in &vs {
            sample_out_bytes += k.size_bytes() + v.size_bytes();
        }
        combined.insert(k, vs);
    }
    let nominal_out_bytes = match mapper.output_scaling() {
        OutputScaling::Proportional => (sample_out_bytes as f64 * split.scale_up()).round() as u64,
        OutputScaling::Saturating => sample_out_bytes,
    };
    (combined, nominal_out_bytes)
}
