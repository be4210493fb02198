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
//!   which the stable sort detects in one linear scan;
//! * the reduce side k-way-merges the already-sorted per-task runs
//!   through a loser tree, which replays one leaf-to-root path per
//!   group; a key that lives in a single run is reduced straight off
//!   that run's value buffer, copy-free.
//!
//! The original double `BTreeMap` grouping survives, faithfully, as
//! [`ShuffleImpl::BTreeGrouping`] so the benchmark regression harness
//! can measure the before/after and tests can assert equivalence.

use std::collections::BTreeMap;

use crate::api::{Mapper, OutputScaling, Reducer};
use crate::config::{JobSpec, ShuffleImpl};
use crate::split::InputSplit;

/// The per-task result of the (real) map-side computation: a run sorted
/// by key, stored flat. Group `i` holds `keys[i]` with the values
/// `values[ends[i - 1]..ends[i]]` — three allocations per task instead
/// of one `Vec` per key group.
pub(crate) struct MappedTask<K, V> {
    /// Group keys in ascending order.
    pub(crate) keys: Vec<K>,
    /// Cumulative group end offsets into `values`, parallel to `keys`.
    pub(crate) ends: Vec<u32>,
    /// All groups' values, concatenated in key order.
    pub(crate) values: Vec<V>,
    /// Nominal post-combine output bytes.
    pub(crate) nominal_out_bytes: u64,
}

/// Runs the map + combine side of one task for real.
pub(crate) fn execute_map_task<M>(
    mapper: &M,
    split: &InputSplit<M::Input>,
    shuffle: ShuffleImpl,
) -> MappedTask<M::Key, M::Value>
where
    M: Mapper,
{
    use crate::api::Sizeable;

    // The reference path keeps the seed's unsized buffer so the
    // regression benchmarks measure the original allocation behaviour.
    let mut pairs: Vec<(M::Key, M::Value)> = match shuffle {
        ShuffleImpl::SortMerge => Vec::with_capacity(split.records.len()),
        ShuffleImpl::BTreeGrouping => Vec::new(),
    };
    mapper.map_split(&split.records, &mut |k, v| pairs.push((k, v)));

    let mut keys: Vec<M::Key> = Vec::new();
    let mut ends: Vec<u32> = Vec::new();
    let mut values: Vec<M::Value> = Vec::new();
    let mut sample_out_bytes: u64 = 0;

    match shuffle {
        ShuffleImpl::SortMerge => {
            // The map-side sort: one stable sort of the flat buffer (so
            // order-sensitive reducers see values in emission order, as
            // the grouping path produced them), then combine streamed
            // over the sorted runs in a single pass through one reused
            // scratch group.
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            values.reserve(pairs.len());
            let mut flush = |key: M::Key, group: &mut Vec<M::Value>| {
                mapper.combine(&key, group);
                for v in group.iter() {
                    sample_out_bytes += key.size_bytes() + v.size_bytes();
                }
                keys.push(key);
                values.append(group);
                ends.push(values.len() as u32);
            };
            let mut pairs = pairs.into_iter();
            if let Some((first_k, first_v)) = pairs.next() {
                let mut key = first_k;
                let mut group = vec![first_v];
                for (k, v) in pairs {
                    if k == key {
                        group.push(v);
                    } else {
                        flush(std::mem::replace(&mut key, k), &mut group);
                        group.push(v);
                    }
                }
                flush(key, &mut group);
            }
        }
        ShuffleImpl::BTreeGrouping => {
            // Reference path, kept faithful to the seed: group through a
            // per-key tree, combine into a second rebuilt tree, then
            // marshal into the run container.
            let mut groups: BTreeMap<M::Key, Vec<M::Value>> = BTreeMap::new();
            for (k, v) in pairs {
                groups.entry(k).or_default().push(v);
            }
            let mut combined: BTreeMap<M::Key, Vec<M::Value>> = BTreeMap::new();
            for (k, mut vs) in groups {
                mapper.combine(&k, &mut vs);
                for v in &vs {
                    sample_out_bytes += k.size_bytes() + v.size_bytes();
                }
                combined.insert(k, vs);
            }
            for (k, vs) in combined {
                keys.push(k);
                values.extend(vs);
                ends.push(values.len() as u32);
            }
        }
    }

    let nominal_out_bytes = match mapper.output_scaling() {
        OutputScaling::Proportional => (sample_out_bytes as f64 * split.scale_up()).round() as u64,
        OutputScaling::Saturating => sample_out_bytes,
    };
    MappedTask {
        keys,
        ends,
        values,
        nominal_out_bytes,
    }
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
        execute_map_task(mapper, &splits[i], spec.shuffle)
    })
}

/// A consumable view of one task's flat run for the k-way merge.
struct RunSource<K, V> {
    keys: std::vec::IntoIter<K>,
    ends: std::vec::IntoIter<u32>,
    values: Vec<V>,
    /// Start offset of the next unconsumed group in `values`.
    pos: usize,
}

/// Whether run `a`'s head merges before run `b`'s: smallest key first,
/// ties broken by task index so values merge in task order exactly as
/// the sequential grouping path appended them. An exhausted run (`None`)
/// sorts after every live one.
fn run_precedes<K: Ord>(heads: &[Option<K>], a: usize, b: usize) -> bool {
    match (&heads[a], &heads[b]) {
        (Some(ka), Some(kb)) => (ka, a) < (kb, b),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a < b,
    }
}

/// A tournament tree of losers over the heads of `k >= 1` runs, in the
/// layout that works for any `k`: run `t` is leaf `k + t`, internal node
/// `i` (`1..k`) has children `2i` and `2i + 1` and holds the run that
/// lost the match there, and slot 0 holds the overall winner.
struct LoserTree {
    nodes: Vec<usize>,
}

impl LoserTree {
    fn new<K: Ord>(heads: &[Option<K>]) -> Self {
        let k = heads.len();
        let mut nodes = vec![0; k];
        // `winners[i]` is the run that wins subtree `i`.
        let mut winners = vec![0; 2 * k];
        for (t, leaf) in winners[k..].iter_mut().enumerate() {
            *leaf = t;
        }
        for i in (1..k).rev() {
            let (a, b) = (winners[2 * i], winners[2 * i + 1]);
            let (win, lose) = if run_precedes(heads, a, b) {
                (a, b)
            } else {
                (b, a)
            };
            winners[i] = win;
            nodes[i] = lose;
        }
        if k > 1 {
            nodes[0] = winners[1];
        }
        Self { nodes }
    }

    /// The run whose head merges next.
    fn winner(&self) -> usize {
        self.nodes[0]
    }

    /// Restores the tree after the winner's head changed: one match per
    /// level on the winner's leaf-to-root path, against the stored losers.
    fn replay<K: Ord>(&mut self, heads: &[Option<K>]) {
        let mut winner = self.nodes[0];
        let mut node = (self.nodes.len() + winner) / 2;
        while node > 0 {
            if run_precedes(heads, self.nodes[node], winner) {
                std::mem::swap(&mut self.nodes[node], &mut winner);
            }
            node /= 2;
        }
        self.nodes[0] = winner;
    }
}

/// Merges all tasks' sorted runs and runs the reducer for real.
pub(crate) fn execute_reduce<R>(
    reducer: &R,
    tasks: Vec<MappedTask<R::Key, R::Value>>,
    shuffle: ShuffleImpl,
) -> (Vec<R::Output>, u64)
where
    R: Reducer,
{
    let mut reduce_input_bytes: u64 = 0;
    let mut output = Vec::new();

    match shuffle {
        ShuffleImpl::SortMerge => {
            // K-way merge over the per-task runs: a loser tree over one
            // head key per task picks the next group, and the new
            // winner's head tells whether the key continues in another
            // run. A key that lives in a single run is reduced directly
            // from that run's value buffer; equal keys across tasks are
            // coalesced into one reused scratch group in task order.
            let mut heads: Vec<Option<R::Key>> = Vec::with_capacity(tasks.len());
            let mut sources: Vec<RunSource<R::Key, R::Value>> = tasks
                .into_iter()
                .map(|t| {
                    reduce_input_bytes += t.nominal_out_bytes;
                    let mut keys = t.keys.into_iter();
                    heads.push(keys.next());
                    RunSource {
                        keys,
                        ends: t.ends.into_iter(),
                        values: t.values,
                        pos: 0,
                    }
                })
                .collect();
            if sources.is_empty() {
                return (output, reduce_input_bytes);
            }
            let mut tree = LoserTree::new(&heads);
            let mut scratch: Vec<R::Value> = Vec::new();
            loop {
                let task = tree.winner();
                // The winner is exhausted only once every run is.
                let Some(key) = heads[task].take() else { break };
                let src = &mut sources[task];
                let start = src.pos;
                let end = src.ends.next().expect("ends parallel to keys") as usize;
                src.pos = end;
                heads[task] = src.keys.next();
                tree.replay(&heads);
                let key_continues = heads[tree.winner()].as_ref() == Some(&key);
                if !key_continues && scratch.is_empty() {
                    // Sole-run key: reduce straight off the run, no copy.
                    reducer.reduce(&key, &sources[task].values[start..end], &mut |o| {
                        output.push(o);
                    });
                } else {
                    scratch.extend_from_slice(&sources[task].values[start..end]);
                    if !key_continues {
                        reducer.reduce(&key, &scratch, &mut |o| output.push(o));
                        scratch.clear();
                    }
                }
            }
        }
        ShuffleImpl::BTreeGrouping => {
            // Reference path, faithful to the seed: rebuild one merged
            // map, then reduce.
            let mut merged: BTreeMap<R::Key, Vec<R::Value>> = BTreeMap::new();
            for t in tasks {
                reduce_input_bytes += t.nominal_out_bytes;
                let mut vals = t.values.into_iter();
                let mut pos: usize = 0;
                for (k, end) in t.keys.into_iter().zip(t.ends) {
                    let end = end as usize;
                    merged
                        .entry(k)
                        .or_default()
                        .extend(vals.by_ref().take(end - pos));
                    pos = end;
                }
            }
            for (k, vs) in &merged {
                reducer.reduce(k, vs, &mut |o| output.push(o));
            }
        }
    }

    (output, reduce_input_bytes)
}
