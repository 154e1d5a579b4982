//! Execution of individual MapReduce jobs over real records, with
//! task-level profiling for the cluster simulator.
//!
//! Each job does three things at once:
//!
//! 1. compute the actual output records (hash joins over the physical
//!    data — results are exact, which the tests rely on);
//! 2. build a [`JobProfile`] with per-task simulated byte/record volumes,
//!    split by actual DFS splits, so the cluster charges realistic waves;
//! 3. optionally collect per-partition output statistics, published
//!    through the coordination service and merged client-side (§5.4).

use std::collections::HashMap;
use std::sync::Arc;

use dyno_cluster::{ClusterConfig, Coord, JobProfile, RuntimeProfile, TaskProfile};
use dyno_data::{encoded_len, Value};
use dyno_obs::Metrics;
use dyno_query::{JoinBlock, Predicate, UdfRegistry};
use dyno_stats::{AttrSpec, TableStatsBuilder};
use dyno_storage::{DfsFile, SimScale};

use crate::dag::JoinStep;
use crate::leaf::apply_leaf_records;

/// One resolved job input: the backing file plus, for block leaves, the
/// leaf expression whose renames/predicates apply during the scan.
#[derive(Clone)]
pub struct InputData {
    /// Backing DFS file.
    pub file: Arc<DfsFile>,
    /// Leaf index in the block, when the input is a leaf.
    pub leaf: Option<usize>,
}

/// The computed result of a job: records, simulator profile, statistics.
pub struct JobData {
    /// Output records (joined/filtered, merged record per match).
    pub output: Vec<Value>,
    /// Scale at which the output should be materialized: the maximum of
    /// the input files' scales (FK-join cardinality follows the scaled
    /// side, so fixed-size dimension tables never inflate).
    pub out_scale: SimScale,
    /// Profile to hand to the cluster simulator.
    pub profile: JobProfile,
    /// Merged output statistics (empty builder when collection is off).
    pub stats: TableStatsBuilder,
    /// Rows of join candidates before post-join predicates (diagnostics).
    pub candidates: u64,
}

/// Error raised when a broadcast build side exceeds task memory — the
/// platform has no spilling, so the job (and query) dies (§2.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastOom {
    /// Offending job.
    pub job: String,
    /// Simulated bytes of the build side(s) at runtime.
    pub build_bytes: u64,
    /// The memory budget they had to fit into.
    pub budget: u64,
    /// Per-build-side breakdown `(leaf name, simulated bytes)`, largest
    /// first — which join input actually blew the budget.
    pub build_sides: Vec<(String, u64)>,
}

impl BroadcastOom {
    /// The largest build side, the usual culprit (`("?", 0)` if the
    /// breakdown is somehow empty).
    pub fn worst_side(&self) -> (&str, u64) {
        self.build_sides
            .first()
            .map(|(n, b)| (n.as_str(), *b))
            .unwrap_or(("?", 0))
    }
}

/// Join key: the tuple of join-attribute values. `None` when any
/// component is null (nulls never join).
pub fn key_of(record: &Value, attrs: &[&str]) -> Option<Vec<Value>> {
    let rec = record.as_record()?;
    let mut key = Vec::with_capacity(attrs.len());
    for a in attrs {
        let v = rec.get(a)?;
        if v.is_null() {
            return None;
        }
        key.push(v.clone());
    }
    Some(key)
}

/// Merge two records into a join output record.
fn merge_records(left: &Value, right: &Value) -> Value {
    match (left, right) {
        (Value::Record(l), Value::Record(r)) => {
            let mut out = l.clone();
            out.merge(r);
            Value::Record(out)
        }
        _ => left.clone(),
    }
}

struct ScanOutcome {
    records: Vec<Value>,
    tasks: Vec<TaskProfile>,
    /// Simulated output bytes of the scan (post-filter).
    out_sim_bytes: u64,
    /// Simulated output records of the scan (post-filter).
    out_sim_records: u64,
    /// The input file's scale.
    scale: SimScale,
}

/// Scan an input split-by-split, filtering leaf predicates, producing one
/// map-task profile per split. `emit_output` controls whether the task
/// profile charges for writing the scan output (true for repartition map
/// tasks, false when the scan feeds an in-job chain probe whose output is
/// charged separately). All simulated volumes use the *input file's own*
/// scale, so fixed-size tables (nation, region) are never inflated.
fn scan_input(
    block: &JoinBlock,
    input: &InputData,
    udfs: &UdfRegistry,
    sort_output: bool,
    emit_output: bool,
) -> ScanOutcome {
    let scale = input.file.scale();
    let mut records = Vec::new();
    let mut tasks = Vec::new();
    let mut out_sim_bytes = 0u64;
    let mut out_sim_records = 0u64;
    for split in input.file.splits() {
        let raw = input.file.split_records(&split);
        let (batch_records, scanned, cpu) = match input.leaf {
            Some(leaf_id) => {
                let b = apply_leaf_records(&block.leaves[leaf_id], raw, udfs);
                (b.records, b.scanned, b.pred_cpu_secs)
            }
            None => (raw.to_vec(), raw.len() as u64, 0.0),
        };
        let pass_bytes: u64 = batch_records.iter().map(|r| encoded_len(r) as u64).sum();
        let sim_pass_bytes = scale.up(pass_bytes);
        out_sim_bytes += sim_pass_bytes;
        out_sim_records += scale.up(batch_records.len() as u64);
        tasks.push(TaskProfile {
            input_bytes: split.sim_bytes,
            output_bytes: if emit_output { sim_pass_bytes } else { 0 },
            records_in: scale.up(scanned),
            extra_cpu_secs: cpu * scale.factor() as f64,
            sort_records: if sort_output {
                scale.up(batch_records.len() as u64)
            } else {
                0
            },
            setup_bytes: 0,
            retries: 0,
        });
        records.extend(batch_records);
    }
    ScanOutcome {
        records,
        tasks,
        out_sim_bytes,
        out_sim_records,
        scale,
    }
}

/// Hash-join `left` and `right` on `step.conds`, applying `post` predicates
/// to every candidate. Returns `(output, candidate_count, post_cpu_secs)`.
fn hash_join(
    left: &[Value],
    right: &[Value],
    step: &JoinStep,
    post: &[&Predicate],
    udfs: &UdfRegistry,
) -> (Vec<Value>, u64, f64) {
    let l_attrs: Vec<&str> = step.conds.iter().map(|(l, _)| l.as_str()).collect();
    let r_attrs: Vec<&str> = step.conds.iter().map(|(_, r)| r.as_str()).collect();
    // Build on the smaller side (implementation detail, not plan choice).
    let (build, probe, build_attrs, probe_attrs, build_is_right) =
        if right.len() <= left.len() {
            (right, left, &r_attrs, &l_attrs, true)
        } else {
            (left, right, &l_attrs, &r_attrs, false)
        };
    let mut table: HashMap<Vec<Value>, Vec<&Value>> = HashMap::with_capacity(build.len());
    for rec in build {
        if let Some(k) = key_of(rec, build_attrs) {
            table.entry(k).or_default().push(rec);
        }
    }
    let per_candidate_cpu: f64 = post.iter().map(|p| p.cpu_cost(udfs)).sum();
    let mut out = Vec::new();
    let mut candidates = 0u64;
    let mut post_cpu = 0.0f64;
    for rec in probe {
        let Some(k) = key_of(rec, probe_attrs) else {
            continue;
        };
        if let Some(matches) = table.get(&k) {
            for m in matches {
                candidates += 1;
                post_cpu += per_candidate_cpu;
                let joined = if build_is_right {
                    merge_records(rec, m)
                } else {
                    merge_records(m, rec)
                };
                if post.iter().all(|p| p.eval(&joined, udfs)) {
                    out.push(joined);
                }
            }
        }
    }
    (out, candidates, post_cpu)
}

/// Plain in-memory equi-join (no profiling, no statistics), semantically
/// identical to the jobs' joins: the materializing reference the
/// size-only true-cardinality oracle is tested against.
pub fn oracle_join(
    left: &[Value],
    right: &[Value],
    step: &JoinStep,
    post: &[&Predicate],
    udfs: &UdfRegistry,
) -> Vec<Value> {
    hash_join(left, right, step, post, udfs).0
}

/// Simulated CPU seconds to push one record through one attribute's
/// statistics collector (KMV insert + min/max). Small, but Figure 4 shows
/// online collection costs 0.1–2.8 % depending on the attribute count, so
/// it must be charged.
pub const STATS_CPU_PER_RECORD_ATTR: f64 = 0.2e-6;

/// Collect output statistics split into `parts` partitions, publishing a
/// per-partition marker through the coordination service and merging the
/// partials client-side — the paper's ZooKeeper flow (§5.4).
fn collect_stats(
    output: &[Value],
    attrs: &[AttrSpec],
    parts: usize,
    coord: &Coord,
    job_name: &str,
) -> TableStatsBuilder {
    let parts = parts.max(1);
    let mut partials: Vec<TableStatsBuilder> = (0..parts)
        .map(|_| TableStatsBuilder::new(attrs.to_vec()))
        .collect();
    for (i, rec) in output.iter().enumerate() {
        partials[i % parts].observe(rec);
    }
    let key = format!("stats/{job_name}");
    for (i, p) in partials.iter().enumerate() {
        coord.publish(&key, format!("task-{i}:rows={}", p.rows()));
    }
    let mut merged = TableStatsBuilder::new(attrs.to_vec());
    for p in &partials {
        merged.merge(p);
    }
    coord.clear_entries(&key);
    merged
}

/// Apply the cluster's failure-injection policy: every Nth map task
/// fails once and re-runs (testing resilience of the time model; results
/// are unaffected because Hadoop re-executes tasks from scratch).
pub fn inject_failures(tasks: &mut [TaskProfile], cfg: &ClusterConfig) {
    if let Some(every) = cfg.task_failure_every {
        let every = every.max(1) as usize;
        for t in tasks.iter_mut().skip(every - 1).step_by(every) {
            t.retries = 1;
        }
    }
}

/// Distribute the statistics-collection CPU cost over the tasks that
/// produce the job's output.
fn charge_stats_cpu(
    tasks: &mut [TaskProfile],
    out_sim_records: u64,
    n_attrs: usize,
    metrics: &Metrics,
) {
    if tasks.is_empty() || n_attrs == 0 {
        return;
    }
    let total = out_sim_records as f64 * n_attrs as f64 * STATS_CPU_PER_RECORD_ATTR;
    metrics.fadd("exec.stats_cpu_secs", total);
    let per_task = total / tasks.len() as f64;
    for t in tasks {
        t.extra_cpu_secs += per_task;
    }
}

fn reduce_count(shuffle_bytes: u64, cfg: &ClusterConfig) -> usize {
    ((shuffle_bytes as f64 / cfg.bytes_per_reducer).ceil() as usize)
        .clamp(1, cfg.reduce_slots())
}

/// Execute a repartition join job. The output's scale is the larger of
/// the inputs' scales (an FK join's cardinality follows its scaled side).
#[allow(clippy::too_many_arguments)]
pub fn run_repartition(
    name: &str,
    block: &JoinBlock,
    left: &InputData,
    right: &InputData,
    step: &JoinStep,
    post: &[&Predicate],
    udfs: &UdfRegistry,
    cfg: &ClusterConfig,
    stat_attrs: &[AttrSpec],
    coord: &Coord,
    metrics: &Metrics,
) -> JobData {
    let l = scan_input(block, left, udfs, true, true);
    let r = scan_input(block, right, udfs, true, true);
    let (output, candidates, post_cpu) = hash_join(&l.records, &r.records, step, post, udfs);
    let out_scale = if l.scale.factor() >= r.scale.factor() {
        l.scale
    } else {
        r.scale
    };

    let shuffle_bytes = l.out_sim_bytes + r.out_sim_bytes;
    metrics.incr("exec.shuffle_bytes", shuffle_bytes);
    metrics.incr("exec.join_candidates", candidates);
    let reducers = reduce_count(shuffle_bytes, cfg);
    let out_actual_bytes: u64 = output.iter().map(|v| encoded_len(v) as u64).sum();
    let out_sim_bytes = out_scale.up(out_actual_bytes);
    let in_records = l.out_sim_records + r.out_sim_records;
    let reduce_tasks: Vec<TaskProfile> = (0..reducers)
        .map(|_| TaskProfile {
            input_bytes: shuffle_bytes / reducers as u64,
            output_bytes: out_sim_bytes / reducers as u64,
            records_in: in_records / reducers as u64,
            extra_cpu_secs: post_cpu * out_scale.factor() as f64 / reducers as f64,
            sort_records: 0,
            setup_bytes: 0,
            retries: 0,
        })
        .collect();

    let mut map_tasks = l.tasks;
    map_tasks.extend(r.tasks);
    inject_failures(&mut map_tasks, cfg);
    let mut reduce_tasks = reduce_tasks;
    charge_stats_cpu(
        &mut reduce_tasks,
        out_scale.up(output.len() as u64),
        stat_attrs.len(),
        metrics,
    );
    let stats = collect_stats(&output, stat_attrs, reducers, coord, name);
    JobData {
        output,
        out_scale,
        profile: JobProfile {
            name: name.to_owned(),
            map_tasks,
            reduce_tasks,
            shuffle_bytes,
            build_bytes: 0,
        },
        stats,
        candidates,
    }
}

/// Execute a broadcast-chain job (one or more broadcast joins, map-only).
#[allow(clippy::too_many_arguments)]
pub fn run_broadcast_chain(
    name: &str,
    block: &JoinBlock,
    probe: &InputData,
    builds: &[(InputData, JoinStep)],
    post_for_step: &[Vec<&Predicate>],
    udfs: &UdfRegistry,
    cfg: &ClusterConfig,
    stat_attrs: &[AttrSpec],
    coord: &Coord,
    metrics: &Metrics,
) -> Result<JobData, BroadcastOom> {
    let mut out_scale = probe.file.scale();
    // Load and filter all build sides (runtime memory check — the
    // estimate said they fit; reality decides).
    let mut build_records: Vec<Vec<Value>> = Vec::with_capacity(builds.len());
    let mut build_tasks: Vec<TaskProfile> = Vec::new();
    let mut build_sides: Vec<(String, u64)> = Vec::with_capacity(builds.len());
    let mut total_build_sim_bytes = 0u64;
    let mut total_build_sim_records = 0u64;
    for (input, _) in builds {
        let s = scan_input(block, input, udfs, false, false);
        if s.scale.factor() > out_scale.factor() {
            out_scale = s.scale;
        }
        let label = match input.leaf {
            Some(leaf_id) => block.leaves[leaf_id].name.clone(),
            None => "intermediate".to_owned(),
        };
        build_sides.push((label, s.out_sim_bytes));
        total_build_sim_bytes += s.out_sim_bytes;
        total_build_sim_records += s.out_sim_records;
        build_tasks.extend(s.tasks);
        build_records.push(s.records);
    }
    let budget = cfg.broadcast_budget_bytes();
    if total_build_sim_bytes > budget {
        // Largest side first: the attribution profiles lead with it.
        build_sides.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        return Err(BroadcastOom {
            job: name.to_owned(),
            build_bytes: total_build_sim_bytes,
            budget,
            build_sides,
        });
    }
    metrics.incr("exec.broadcast_build_bytes", total_build_sim_bytes);
    metrics.incr("exec.broadcast_build_records", total_build_sim_records);

    // Build hash tables once (semantically per-task; we charge per-task
    // setup cost below instead of redoing the work).
    let mut tables: Vec<HashMap<Vec<Value>, Vec<Value>>> = Vec::with_capacity(builds.len());
    for ((_, step), records) in builds.iter().zip(&build_records) {
        let attrs: Vec<&str> = step.conds.iter().map(|(_, r)| r.as_str()).collect();
        let mut table: HashMap<Vec<Value>, Vec<Value>> = HashMap::with_capacity(records.len());
        for rec in records {
            if let Some(k) = key_of(rec, &attrs) {
                table.entry(k).or_default().push(rec.clone());
            }
        }
        tables.push(table);
    }

    // Stream probe splits through the chain; one map task per split.
    let probe_scan_only = InputData {
        file: Arc::clone(&probe.file),
        leaf: probe.leaf,
    };
    let splits = probe.file.splits();
    let n_tasks = splits.len().max(1);
    // Build-side loading amortization: under the Jaql runtime every map
    // JVM loads the broadcast side, and Hadoop's JVM reuse makes that one
    // load per *slot* per job; Hive 0.12 ships it through the
    // DistributedCache — one load per *node* (§6.6, the reason Hive gains
    // more from broadcast-heavy plans: 10 slots share one copy).
    let setup_factor = match cfg.profile {
        RuntimeProfile::Jaql => (cfg.map_slots() as f64 / n_tasks as f64).min(1.0),
        RuntimeProfile::Hive => (cfg.nodes as f64 / n_tasks as f64).min(1.0),
    };
    let setup_bytes = (total_build_sim_bytes as f64 * setup_factor) as u64;
    let build_cpu =
        total_build_sim_records as f64 * cfg.cpu_secs_per_record * setup_factor;

    let mut output = Vec::new();
    let mut candidates = 0u64;
    let mut map_tasks = Vec::new();
    for split in &splits {
        let raw = probe.file.split_records(split);
        let (mut current, scanned, scan_cpu) = match probe_scan_only.leaf {
            Some(leaf_id) => {
                let b = apply_leaf_records(&block.leaves[leaf_id], raw, udfs);
                (b.records, b.scanned, b.pred_cpu_secs)
            }
            None => (raw.to_vec(), raw.len() as u64, 0.0),
        };
        let mut post_cpu = 0.0f64;
        for (i, (_, step)) in builds.iter().enumerate() {
            let attrs: Vec<&str> = step.conds.iter().map(|(l, _)| l.as_str()).collect();
            let post = &post_for_step[i];
            let per_candidate_cpu: f64 = post.iter().map(|p| p.cpu_cost(udfs)).sum();
            let mut next = Vec::new();
            for rec in &current {
                let Some(k) = key_of(rec, &attrs) else {
                    continue;
                };
                if let Some(matches) = tables[i].get(&k) {
                    for m in matches {
                        candidates += 1;
                        post_cpu += per_candidate_cpu;
                        let joined = merge_records(rec, m);
                        if post.iter().all(|p| p.eval(&joined, udfs)) {
                            next.push(joined);
                        }
                    }
                }
            }
            current = next;
        }
        let out_bytes: u64 = current.iter().map(|v| encoded_len(v) as u64).sum();
        let probe_scale = probe.file.scale();
        map_tasks.push(TaskProfile {
            input_bytes: split.sim_bytes,
            output_bytes: out_scale.up(out_bytes),
            records_in: probe_scale.up(scanned),
            extra_cpu_secs: (scan_cpu + post_cpu) * probe_scale.factor() as f64 + build_cpu,
            sort_records: 0,
            setup_bytes,
            retries: 0,
        });
        output.extend(current);
    }
    metrics.incr("exec.join_candidates", candidates);
    charge_stats_cpu(
        &mut map_tasks,
        out_scale.up(output.len() as u64),
        stat_attrs.len(),
        metrics,
    );
    // Build-side scans happen inside the same map-only job's tasks (the
    // framework distributes the files); charge them as extra map tasks.
    map_tasks.extend(build_tasks);
    inject_failures(&mut map_tasks, cfg);

    let stats = collect_stats(&output, stat_attrs, map_tasks.len(), coord, name);
    Ok(JobData {
        output,
        out_scale,
        profile: JobProfile {
            name: name.to_owned(),
            map_tasks,
            reduce_tasks: Vec::new(),
            shuffle_bytes: 0,
            build_bytes: total_build_sim_bytes,
        },
        stats,
        candidates,
    })
}

/// Execute a scan-only (materialization) job over one leaf.
#[allow(clippy::too_many_arguments)]
pub fn run_scan(
    name: &str,
    block: &JoinBlock,
    input: &InputData,
    udfs: &UdfRegistry,
    stat_attrs: &[AttrSpec],
    coord: &Coord,
    metrics: &Metrics,
) -> JobData {
    let s = scan_input(block, input, udfs, false, true);
    let n = s.tasks.len();
    let mut tasks = s.tasks;
    charge_stats_cpu(&mut tasks, s.out_sim_records, stat_attrs.len(), metrics);
    let stats = collect_stats(&s.records, stat_attrs, n, coord, name);
    JobData {
        output: s.records,
        out_scale: s.scale,
        profile: JobProfile {
            name: name.to_owned(),
            map_tasks: tasks,
            reduce_tasks: Vec::new(),
            shuffle_bytes: 0,
            build_bytes: 0,
        },
        stats,
        candidates: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_data::Record;

    fn rec(pairs: &[(&str, i64)]) -> Value {
        let mut r = Record::new();
        for (k, v) in pairs {
            r.set(*k, *v);
        }
        Value::Record(r)
    }

    #[test]
    fn key_of_handles_nulls_and_missing() {
        let r = rec(&[("a", 1), ("b", 2)]);
        assert_eq!(
            key_of(&r, &["a", "b"]),
            Some(vec![Value::Long(1), Value::Long(2)])
        );
        assert_eq!(key_of(&r, &["a", "missing"]), None);
        let mut nr = Record::new();
        nr.set("a", Value::Null);
        assert_eq!(key_of(&Value::Record(nr), &["a"]), None);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let left: Vec<Value> = (0..50).map(|i| rec(&[("l_k", i % 7), ("l_v", i)])).collect();
        let right: Vec<Value> = (0..30).map(|i| rec(&[("r_k", i % 7), ("r_v", i)])).collect();
        let step = JoinStep {
            conds: vec![("l_k".into(), "r_k".into())],
            post_preds: vec![],
        };
        let udfs = UdfRegistry::new();
        let (out, candidates, _) = hash_join(&left, &right, &step, &[], &udfs);
        // nested-loop reference
        let mut expect = 0;
        for l in &left {
            for r in &right {
                let lk = l.as_record().unwrap().get("l_k").unwrap();
                let rk = r.as_record().unwrap().get("r_k").unwrap();
                if lk == rk {
                    expect += 1;
                }
            }
        }
        assert_eq!(out.len(), expect);
        assert_eq!(candidates as usize, expect);
        // merged records carry both sides' fields
        let first = out[0].as_record().unwrap();
        assert!(first.get("l_v").is_some() && first.get("r_v").is_some());
    }

    #[test]
    fn post_predicates_filter_candidates() {
        let left: Vec<Value> = (0..10).map(|i| rec(&[("l_k", i), ("l_v", i)])).collect();
        let right: Vec<Value> = (0..10).map(|i| rec(&[("r_k", i), ("r_v", i)])).collect();
        let step = JoinStep {
            conds: vec![("l_k".into(), "r_k".into())],
            post_preds: vec![0],
        };
        let udfs = UdfRegistry::new();
        let keep = Predicate::cmp("l_v", dyno_query::CmpOp::Lt, 3i64);
        let (out, candidates, _) = hash_join(&left, &right, &step, &[&keep], &udfs);
        assert_eq!(candidates, 10);
        assert_eq!(out.len(), 3);
    }
}
