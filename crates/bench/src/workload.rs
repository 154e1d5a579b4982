//! `repro workload <spec> <sf>` — a multi-query workload driver.
//!
//! Runs a configurable TPC-H query stream against ONE [`Dyno`] instance
//! (shared metastore, shared `Tracer`/`Metrics`), so recurring queries
//! exercise the §4.1 statistics-reuse path exactly as a long-lived DYNO
//! deployment would. The stream is described by a compact spec:
//!
//! ```text
//! q2x3,q8_prime@relopt,q10@simplex2
//! ```
//!
//! Each comma-separated entry is `name[@mode][xN]` — query name, optional
//! execution mode (default DYNOPT), optional repeat count. The expanded
//! instance list is shuffled with a seeded Fisher–Yates, so interleavings
//! are reproducible: the same `(spec, sf, seed)` triple yields a
//! byte-identical [`WorkloadReport::render`] (property-tested).
//!
//! The report folds the shared event log and metrics registry into:
//!
//! * a per-query latency distribution over the fixed decade buckets of
//!   [`Histogram`], plus a merged all-queries histogram;
//! * the cross-query metastore hit-rate *trajectory* — cumulative
//!   hits/misses after every query, showing the store warming up;
//! * a cluster-contention summary derived from job spans (job count,
//!   summed job-seconds, and the peak number of concurrently open jobs
//!   in any single run);
//! * per-OOM memory attributions: for every broadcast-OOM recovery,
//!   which query, which job, which build side, and bytes over budget.
//!
//! With `--concurrent` the same stream instead runs as a population on
//! ONE shared cluster through [`crate::serve::run_serve`], and
//! [`render_concurrent`] renders that run's report.

use dyno_cluster::ClusterConfig;
use dyno_common::{Rng, SeedableRng, StdRng};
use dyno_core::{Mode, Strategy};
use dyno_obs::{descends_from, CriticalPath, Histogram, Obs, OomRecovery, SpanKind};
use dyno_tpch::queries::{self, QueryId};

use crate::error::BenchError;
use crate::experiments::{make_dyno, ExpScale};
use crate::profile::parse_query;
use crate::render::pct;
use crate::serve::ServeReport;

/// One parsed spec entry: a query, the mode to run it under, and how many
/// instances of it enter the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEntry {
    /// Which TPC-H query.
    pub query: QueryId,
    /// Execution mode (default [`Mode::Dynopt`]).
    pub mode: Mode,
    /// Number of instances in the stream (≥ 1).
    pub repeat: u32,
}

/// Parse an execution-mode suffix (`@dynopt`, `@simple`, `@relopt`, …).
fn parse_mode(s: &str) -> Option<Mode> {
    match s.to_ascii_lowercase().as_str() {
        "dynopt" => Some(Mode::Dynopt),
        "simple" | "dynopt_simple" | "dynoptsimple" => Some(Mode::DynoptSimple),
        "relopt" => Some(Mode::RelOpt),
        "beststatic" | "best_static" | "beststaticjaql" => Some(Mode::BestStaticJaql),
        "jaql" | "aswritten" | "as_written" => Some(Mode::JaqlAsWritten),
        _ => None,
    }
}

/// Parse a full workload spec (comma-separated `name[@mode][xN]` entries).
pub fn parse_spec(spec: &str) -> Result<Vec<WorkloadEntry>, BenchError> {
    let mut entries = Vec::new();
    for raw in spec.split(',') {
        let raw = raw.trim();
        if raw.is_empty() {
            return Err(BenchError::BadSpec {
                spec: spec.to_owned(),
                reason: "empty entry (stray comma?)".to_owned(),
            });
        }
        // Trailing repeat count: `...xN`. No query or mode name contains
        // an `x` followed by digits, so this parse is unambiguous.
        let (head, repeat) = match raw.rfind('x') {
            Some(i) if i > 0 && raw.len() > i + 1 && raw[i + 1..].bytes().all(|b| b.is_ascii_digit()) => {
                let n: u32 = raw[i + 1..].parse().map_err(|_| BenchError::BadSpec {
                    spec: raw.to_owned(),
                    reason: "repeat count does not fit in u32".to_owned(),
                })?;
                if n == 0 {
                    return Err(BenchError::BadSpec {
                        spec: raw.to_owned(),
                        reason: "repeat count must be at least 1".to_owned(),
                    });
                }
                (&raw[..i], n)
            }
            _ => (raw, 1),
        };
        let (name, mode) = match head.split_once('@') {
            Some((n, m)) => {
                let mode = parse_mode(m).ok_or_else(|| BenchError::BadSpec {
                    spec: raw.to_owned(),
                    reason: format!(
                        "unknown mode {m:?} (try dynopt, simple, relopt, beststatic, jaql)"
                    ),
                })?;
                (n, mode)
            }
            None => (head, Mode::Dynopt),
        };
        let query = parse_query(name).ok_or_else(|| BenchError::UnknownQuery(name.to_owned()))?;
        entries.push(WorkloadEntry { query, mode, repeat });
    }
    Ok(entries)
}

/// Latency stats for one (query, mode) pair across its runs.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Display label, e.g. `Q8' (DYNOPT)`.
    pub label: String,
    /// Number of runs.
    pub runs: u64,
    /// Summed simulated latency.
    pub total_secs: f64,
    /// Fastest run.
    pub min_secs: f64,
    /// Slowest run.
    pub max_secs: f64,
    /// Summed simulated (re-)optimization time across the runs.
    pub opt_secs: f64,
    /// Plan-cache probes across the runs (0 unless reuse was on).
    pub cache_lookups: u64,
    /// Plan-cache probes served without a search.
    pub cache_hits: u64,
    /// Latency distribution over the fixed decade buckets.
    pub hist: Histogram,
}

/// One point of the cross-query metastore hit-rate trajectory: cumulative
/// counters after the `i`-th query of the stream finished.
#[derive(Debug, Clone)]
pub struct TrajectoryPoint {
    /// Label of the query that just ran.
    pub query: String,
    /// Cumulative `metastore.hits` so far.
    pub hits: u64,
    /// Cumulative `metastore.misses` so far.
    pub misses: u64,
}

impl TrajectoryPoint {
    /// Cumulative hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One broadcast-OOM recovery attributed to the query run that hit it.
#[derive(Debug, Clone)]
pub struct OomAttribution {
    /// 1-based position in the executed stream.
    pub run: usize,
    /// Label of the query whose run recovered.
    pub query: String,
    /// The decoded recovery (job, build side, bytes over budget).
    pub oom: OomRecovery,
}

/// Cluster-contention summary over every job span the stream recorded.
#[derive(Debug, Clone, Default)]
pub struct ContentionSummary {
    /// Total jobs executed across the stream.
    pub jobs: usize,
    /// Summed job wall time (simulated seconds; overlapping jobs count
    /// separately, so this exceeds latency when jobs are co-scheduled).
    pub job_secs: f64,
    /// Peak number of concurrently open jobs in any single run.
    pub max_concurrent: usize,
    /// Label of the run where the peak occurred.
    pub busiest_query: String,
}

/// The folded result of one workload stream.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Scale factor the stream ran at.
    pub sf: u64,
    /// Shuffle seed.
    pub seed: u64,
    /// Executed order (after the seeded shuffle).
    pub order: Vec<String>,
    /// Per-(query, mode) latency stats, in first-execution order.
    pub queries: Vec<QueryStats>,
    /// All per-query histograms merged.
    pub overall: Histogram,
    /// Metastore hit-rate trajectory, one point per executed query.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Broadcast-OOM recoveries attributed to their runs.
    pub ooms: Vec<OomAttribution>,
    /// Contention summary from job spans.
    pub contention: ContentionSummary,
    /// Whether the stream ran with memo + plan-cache reuse enabled.
    pub reuse: bool,
    /// Total plan-cache probes across the stream.
    pub plan_cache_lookups: u64,
    /// Probes answered from the cache (no search ran).
    pub plan_cache_hits: u64,
    /// Stale entries evicted because a leaf's stats version moved.
    pub plan_cache_invalidations: u64,
    /// The whole serial stream as ONE Chrome trace (one span tree per
    /// query run). Pinned as a golden alongside [`WorkloadReport::render`]
    /// — together they are the front-door refactor's correctness oracle.
    pub trace_json: String,
}

/// Parse `spec`, expand it to its instance stream and shuffle that with a
/// generator seeded by `seed`. The generator comes back too, so
/// population arrivals can continue its sequence.
pub(crate) fn shuffled_stream(
    spec: &str,
    seed: u64,
) -> Result<(Vec<(QueryId, Mode)>, StdRng), BenchError> {
    let mut stream: Vec<(QueryId, Mode)> = parse_spec(spec)?
        .iter()
        .flat_map(|e| std::iter::repeat_n((e.query, e.mode), e.repeat as usize))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    rng.shuffle(&mut stream);
    Ok((stream, rng))
}

/// Run the workload described by `spec` at scale factor `sf` on
/// `cluster`, shuffling the expanded instance list with `seed`. Each
/// query runs solo through [`Dyno::run`](dyno_core::Dyno::run). With
/// `reuse` the shared `Dyno` keeps its memo across re-optimization rounds
/// and its plan cache across the whole stream, so repeated queries skip
/// the join search entirely.
pub fn run_workload(
    spec: &str,
    sf: u64,
    seed: u64,
    scale: ExpScale,
    cluster: ClusterConfig,
    reuse: bool,
) -> Result<WorkloadReport, BenchError> {
    let (stream, _) = shuffled_stream(spec, seed)?;

    // ONE Dyno for the whole stream: the metastore and the obs handles
    // are shared, which is the entire point of the exercise.
    let mut d = make_dyno(sf, scale, cluster, Strategy::Unc(1));
    d.obs = Obs::enabled();
    d.opts.reuse_memo = reuse;
    d.opts.reuse_plans = reuse;

    let mut order = Vec::new();
    let mut stats: Vec<QueryStats> = Vec::new();
    let mut overall = Histogram::default();
    let mut trajectory = Vec::new();
    for &(q, mode) in &stream {
        let prepared = queries::prepare(q);
        let name = format!("{} ({})", prepared.spec.name, mode.name());
        let report = d.run(&prepared, mode).map_err(|e| BenchError::QueryFailed {
            query: name.clone(),
            message: e.to_string(),
        })?;
        let secs = report.total_secs;
        overall.observe(secs);
        match stats.iter_mut().find(|s| s.label == name) {
            Some(s) => {
                s.runs += 1;
                s.total_secs += secs;
                s.min_secs = s.min_secs.min(secs);
                s.max_secs = s.max_secs.max(secs);
                s.opt_secs += report.optimize_secs;
                s.cache_lookups += report.plan_cache_lookups;
                s.cache_hits += report.plan_cache_hits;
                s.hist.observe(secs);
            }
            None => {
                let mut hist = Histogram::default();
                hist.observe(secs);
                stats.push(QueryStats {
                    label: name.clone(),
                    runs: 1,
                    total_secs: secs,
                    min_secs: secs,
                    max_secs: secs,
                    opt_secs: report.optimize_secs,
                    cache_lookups: report.plan_cache_lookups,
                    cache_hits: report.plan_cache_hits,
                    hist,
                });
            }
        }
        trajectory.push(TrajectoryPoint {
            query: name.clone(),
            hits: d.obs.metrics.counter("metastore.hits"),
            misses: d.obs.metrics.counter("metastore.misses"),
        });
        order.push(name);
    }

    // Fold the shared event log: each run opened exactly one Query span
    // (in run order, since span ids are allocated monotonically).
    let spans = d.obs.tracer.spans();
    let query_spans: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Query).collect();
    debug_assert_eq!(query_spans.len(), order.len());

    let mut ooms = Vec::new();
    let mut contention = ContentionSummary::default();
    let events = d.obs.tracer.events();
    for (i, qs) in query_spans.iter().enumerate() {
        let run_label = order.get(i).cloned().unwrap_or_else(|| qs.name.clone());
        for e in events.iter().filter(|e| descends_from(&spans, e.span, qs.id)) {
            if let Some(oom) = OomRecovery::from_event(e) {
                ooms.push(OomAttribution {
                    run: i + 1,
                    query: run_label.clone(),
                    oom,
                });
            }
        }
        // Contention: sweep this run's job spans for the peak overlap.
        let jobs: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Job && descends_from(&spans, s.id, qs.id))
            .collect();
        let mut edges: Vec<(f64, i32)> = Vec::new();
        for j in &jobs {
            let end = j.end.unwrap_or(j.start);
            contention.jobs += 1;
            contention.job_secs += end - j.start;
            edges.push((j.start, 1));
            edges.push((end, -1));
        }
        // Close before open at equal times so back-to-back jobs do not
        // count as overlapping.
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut open = 0i32;
        let mut peak = 0i32;
        for (_, delta) in edges {
            open += delta;
            peak = peak.max(open);
        }
        if peak as usize > contention.max_concurrent {
            contention.max_concurrent = peak as usize;
            contention.busiest_query = format!("run#{} {run_label}", i + 1);
        }
    }
    // OOM events interleave across runs in the sweep above only by run
    // index, which already matches stream order.
    ooms.sort_by_key(|o| o.run);

    Ok(WorkloadReport {
        sf,
        seed,
        order,
        queries: stats,
        overall,
        trajectory,
        ooms,
        contention,
        reuse,
        plan_cache_lookups: d.obs.metrics.counter("plan_cache.hit")
            + d.obs.metrics.counter("plan_cache.miss")
            + d.obs.metrics.counter("plan_cache.invalidate"),
        plan_cache_hits: d.obs.metrics.counter("plan_cache.hit"),
        plan_cache_invalidations: d.obs.metrics.counter("plan_cache.invalidate"),
        trace_json: d.obs.tracer.to_chrome_trace(),
    })
}

/// Render the non-empty buckets of a latency histogram, one per line.
fn render_hist(out: &mut String, indent: &str, h: &Histogram) {
    for (i, n) in h.buckets.iter().enumerate() {
        if *n == 0 {
            continue;
        }
        let lo = Histogram::bucket_lo(i);
        if i + 1 < h.buckets.len() {
            out.push_str(&format!("{indent}[{lo}s, {}s): {n}\n", Histogram::bucket_lo(i + 1)));
        } else {
            out.push_str(&format!("{indent}[{lo}s, inf): {n}\n"));
        }
    }
}

impl WorkloadReport {
    /// The machine-parseable plan-cache summary `ci.sh` diffs against
    /// `repro_output.txt` for the `--reuse` smoke check. Only rendered
    /// when reuse was on, so cold reports stay byte-identical.
    pub fn plan_cache_line(&self) -> String {
        let rate = if self.plan_cache_lookups == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / self.plan_cache_lookups as f64
        };
        format!(
            "plan cache: {}/{} hits ({}), {} invalidated",
            self.plan_cache_hits,
            self.plan_cache_lookups,
            pct(rate),
            self.plan_cache_invalidations,
        )
    }

    /// The machine-parseable final line `ci.sh` diffs against
    /// `repro_output.txt`.
    pub fn hit_rate_line(&self) -> String {
        let (hits, misses) = self
            .trajectory
            .last()
            .map(|p| (p.hits, p.misses))
            .unwrap_or((0, 0));
        let total = hits + misses;
        let rate = if total == 0 { 0.0 } else { hits as f64 / total as f64 };
        format!("workload metastore hit-rate: {hits}/{total} ({})", pct(rate))
    }

    /// Render the full deterministic text report.
    pub fn render(&self) -> String {
        let secs = |x: f64| format!("{x:.1}s");
        let mut out = String::new();
        out.push_str(&format!(
            "== workload: {} queries, SF={}, seed={} ==\n",
            self.order.len(),
            self.sf,
            self.seed
        ));
        out.push_str(&format!("order: {}\n", self.order.join(", ")));

        out.push_str("per-query latency:\n");
        for s in &self.queries {
            out.push_str(&format!(
                "  {:<24} runs {:>3}  min {:>9}  max {:>9}  mean {:>9}  {}  opt {:>9}",
                s.label,
                s.runs,
                secs(s.min_secs),
                secs(s.max_secs),
                secs(s.total_secs / s.runs as f64),
                s.hist.percentile_cols(&[0.50, 0.95, 0.99], 9, "  "),
                secs(s.opt_secs),
            ));
            if s.cache_lookups > 0 {
                out.push_str(&format!("  cache {}/{}", s.cache_hits, s.cache_lookups));
            }
            out.push('\n');
            render_hist(&mut out, "    ", &s.hist);
        }
        out.push_str(&format!(
            "overall latency (n={}, total {}, {}):\n",
            self.overall.count,
            secs(self.overall.sum),
            self.overall.percentile_cols(&[0.50, 0.95, 0.99], 0, ", "),
        ));
        render_hist(&mut out, "    ", &self.overall);

        out.push_str("metastore hit-rate trajectory:\n");
        for (i, p) in self.trajectory.iter().enumerate() {
            out.push_str(&format!(
                "  {:>3}. {:<24} hits {:>5}  misses {:>5}  cumulative {}\n",
                i + 1,
                p.query,
                p.hits,
                p.misses,
                pct(p.rate()),
            ));
        }

        out.push_str(&format!(
            "cluster contention: {} jobs, {} job-seconds, peak {} concurrent",
            self.contention.jobs,
            secs(self.contention.job_secs),
            self.contention.max_concurrent,
        ));
        if !self.contention.busiest_query.is_empty() {
            out.push_str(&format!(" ({})", self.contention.busiest_query));
        }
        out.push('\n');

        if self.ooms.is_empty() {
            out.push_str("oom recoveries: none\n");
        } else {
            out.push_str(&format!("oom recoveries: {}\n", self.ooms.len()));
            for o in &self.ooms {
                out.push_str(&format!(
                    "  run#{} {}: {} build side {} at {} bytes (total build {}) exceeded budget {} by {}\n",
                    o.run,
                    o.query,
                    o.oom.job,
                    o.oom.build_side,
                    o.oom.build_side_bytes,
                    o.oom.build_bytes,
                    o.oom.budget,
                    o.oom.over,
                ));
            }
        }

        // The hit-rate line stays LAST — ci.sh and the workload tests
        // key on it — so the reuse summary slots in just above it.
        if self.reuse {
            out.push_str(&self.plan_cache_line());
            out.push('\n');
        }
        out.push_str(&self.hit_rate_line());
        out.push('\n');
        out
    }
}

/// The `repro workload --concurrent` view of a population run from an
/// [`ArrivalSource::Stream`](crate::serve::ArrivalSource::Stream): one
/// row per query with its arrival, latency, waits and critical-path
/// bottleneck, then the stream's overlap, metastore and trace summaries.
/// The last line is the one `ci.sh` diffs against `repro_output.txt`.
pub fn render_concurrent(report: &ServeReport) -> String {
    let secs = |x: f64| format!("{x:.1}s");
    let mut out = String::new();
    out.push_str(&format!(
        "== concurrent workload: {} queries, SF={}, seed={}, sched={}, arrival-mean={}s ==\n",
        report.queries.len(),
        report.sf,
        report.seed,
        report.opts.sched.name(),
        report.opts.arrival_mean,
    ));
    out.push_str(&format!(
        "  {:>2}  {:<24} {:>10} {:>10} {:>12} {:>11} {:>5}  {}\n",
        "#", "query", "arrival", "latency", "queue-delay", "slot-wait", "jobs", "bottleneck"
    ));
    for (i, r) in report.queries.iter().enumerate() {
        out.push_str(&format!(
            "  {:>2}. {:<24} {:>9} {:>10} {:>12} {:>11} {:>5}  {}\n",
            i + 1,
            r.label,
            secs(r.arrival_secs),
            secs(r.latency_secs),
            secs(r.queue_delay_secs),
            secs(r.slot_wait_secs),
            r.jobs,
            // Scans the whole span log, which is why only this view
            // builds per-query critical paths.
            CriticalPath::build(&report.obs.tracer, r.query_span)
                .as_ref()
                .map_or("?", |c| c.bottleneck()),
        ));
    }
    let serial_sum: f64 = report.queries.iter().map(|r| r.latency_secs).sum();
    let speedup = if report.makespan_secs > 0.0 {
        serial_sum / report.makespan_secs
    } else {
        1.0
    };
    out.push_str(&format!(
        "stream makespan {} vs serial sum {} (overlap x{speedup:.2})\n",
        secs(report.makespan_secs),
        secs(serial_sum),
    ));
    let metrics = &report.obs.metrics;
    let hits = metrics.counter("metastore.hits");
    let lookups = hits + metrics.counter("metastore.misses");
    let rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    out.push_str(&format!("metastore: {hits}/{lookups} hits ({})\n", pct(rate)));
    out.push_str(&format!(
        "service admission: {} admitted, {} queued at admission, policy {}\n",
        metrics.counter("service.admitted"),
        report.queued_at_admission,
        report.opts.sched.name(),
    ));
    out.push_str(&format!(
        "chrome trace: {} named pid lanes, {} telemetry counters, balanced (validated)\n",
        report.trace_processes, report.trace_counters
    ));
    let queue: f64 = report.queries.iter().map(|r| r.queue_delay_secs).sum();
    out.push_str(&format!(
        "concurrent makespan: {:.3}s  serial-sum: {serial_sum:.3}s  queue-delay-total: {queue:.3}s",
        report.makespan_secs,
    ));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{run_serve, ArrivalSource, ServeOptions};
    use dyno_cluster::SchedulerPolicy;
    use dyno_common::prop;
    use dyno_obs::validate_chrome_trace;

    fn coarse() -> ExpScale {
        ExpScale { divisor: 200_000 }
    }

    fn serial(spec: &str, seed: u64, reuse: bool) -> WorkloadReport {
        run_workload(spec, 1, seed, coarse(), ClusterConfig::paper(), reuse).unwrap()
    }

    fn concurrent(
        spec: &str,
        sf: u64,
        seed: u64,
        arrival_mean: f64,
        sched: SchedulerPolicy,
    ) -> Result<ServeReport, BenchError> {
        let opts = ServeOptions {
            arrival_mean,
            sched,
            ..ServeOptions::default()
        };
        run_serve(spec, sf, seed, coarse(), ArrivalSource::Stream, opts)
    }

    #[test]
    fn spec_parses_names_modes_and_repeats() {
        let entries = parse_spec("q2x3,q8_prime@relopt,q10@simplex2").unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries[0],
            WorkloadEntry { query: QueryId::Q2, mode: Mode::Dynopt, repeat: 3 }
        );
        assert_eq!(
            entries[1],
            WorkloadEntry { query: QueryId::Q8Prime, mode: Mode::RelOpt, repeat: 1 }
        );
        assert_eq!(
            entries[2],
            WorkloadEntry { query: QueryId::Q10, mode: Mode::DynoptSimple, repeat: 2 }
        );
    }

    #[test]
    fn spec_rejects_garbage_with_typed_errors() {
        assert!(matches!(parse_spec("q99"), Err(BenchError::UnknownQuery(_))));
        assert!(matches!(parse_spec("q2@warp"), Err(BenchError::BadSpec { .. })));
        assert!(matches!(parse_spec("q2x0"), Err(BenchError::BadSpec { .. })));
        assert!(matches!(parse_spec("q2,,q10"), Err(BenchError::BadSpec { .. })));
        assert!(matches!(parse_spec(""), Err(BenchError::BadSpec { .. })));
    }

    #[test]
    fn workload_reports_trajectory_and_contention() {
        let r = serial("q2x2,q10x2", 7, false);
        assert_eq!(r.order.len(), 4);
        assert_eq!(r.trajectory.len(), 4);
        assert_eq!(r.overall.count, 4);
        // Counters are cumulative, so the trajectory is monotone…
        for w in r.trajectory.windows(2) {
            assert!(w[1].hits >= w[0].hits);
            assert!(w[1].misses >= w[0].misses);
        }
        // …and repeats hit the metastore: the second run of each query
        // reuses the first run's pilot statistics.
        let last = r.trajectory.last().unwrap();
        assert!(last.hits > 0, "repeated queries must produce hits");
        assert!(r.contention.jobs > 0);
        assert!(r.contention.max_concurrent >= 1);
        let text = r.render();
        assert!(text.contains("metastore hit-rate trajectory:"));
        assert!(text.lines().last().unwrap().starts_with("workload metastore hit-rate: "));
    }

    #[test]
    fn reuse_workload_hits_plan_cache_and_cuts_optimizer_time() {
        let cold = serial("q2x3,q10", 7, false);
        let warm = serial("q2x3,q10", 7, true);

        // The cold report carries no cache state and renders no cache
        // lines at all — byte-identity for reuse-off runs.
        assert!(!cold.reuse);
        assert_eq!(cold.plan_cache_lookups, 0);
        assert!(!cold.render().contains("plan cache:"));
        assert!(!cold.render().contains("cache "));

        // The warm stream probes once per run; at least one repeat hits.
        assert!(warm.reuse);
        assert_eq!(warm.plan_cache_lookups, 4, "one probe per run");
        assert!(warm.plan_cache_hits >= 1, "q2's repeats must hit");
        let q2 = warm.queries.iter().find(|s| s.label.starts_with("Q2")).unwrap();
        assert_eq!(q2.cache_lookups, 3);
        assert!(q2.cache_hits >= 1);

        // Cache hits skip the search, so charged optimizer time drops
        // strictly; execution itself is untouched (same plans, so the
        // shuffle order and per-run latencies differ only by opt time).
        let cold_opt: f64 = cold.queries.iter().map(|s| s.opt_secs).sum();
        let warm_opt: f64 = warm.queries.iter().map(|s| s.opt_secs).sum();
        assert!(
            warm_opt < cold_opt,
            "reuse must cut optimizer time: warm {warm_opt} vs cold {cold_opt}"
        );
        assert_eq!(cold.order, warm.order, "same seed, same stream");
        for (a, b) in cold.queries.iter().zip(warm.queries.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.runs, b.runs);
        }

        // Render: the reuse summary sits directly above the (still-last)
        // hit-rate line, and the per-query rows grow a cache column.
        let text = warm.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[lines.len() - 2].starts_with("plan cache: "));
        assert!(lines[lines.len() - 1].starts_with("workload metastore hit-rate: "));
        assert!(text.contains(&format!("cache {}/{}", q2.cache_hits, q2.cache_lookups)));
    }

    #[test]
    fn memory_starved_cluster_attributes_oom_recoveries() {
        // Shrink slot memory until Q9's broadcast builds cannot fit; the
        // report must then say WHICH job and WHICH build side overflowed
        // and by how much — not just that a recovery happened.
        let starved = ClusterConfig {
            slot_memory_bytes: 4 * 1024 * 1024,
            ..ClusterConfig::paper()
        };
        let r = run_workload("q9_prime", 100, 0, coarse(), starved, false).unwrap();
        assert!(!r.ooms.is_empty(), "4MB slots must overflow Q9' builds");
        for o in &r.ooms {
            assert_eq!(o.query, "Q9' (DYNOPT)");
            assert!(!o.oom.job.is_empty());
            assert_ne!(o.oom.build_side, "?", "build side must be attributed");
            assert!(o.oom.build_side_bytes > 0);
            assert!(o.oom.build_bytes > o.oom.budget, "it did overflow");
            assert_eq!(o.oom.over, o.oom.build_bytes - o.oom.budget);
        }
        let text = r.render();
        assert!(text.contains("oom recoveries:"));
        assert!(text.contains("exceeded budget"));
    }

    #[test]
    fn workload_render_is_byte_identical_across_identical_seeds() {
        prop::check(
            "workload determinism",
            3,
            |g| g.gen_range(0..1000u64),
            |&seed| {
                let a = serial("q2x2,q10", seed, false).render();
                let b = serial("q2x2,q10", seed, false).render();
                if a != b {
                    return Err("same seed produced different reports".to_owned());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn concurrent_stream_overlaps_and_attributes_waits() {
        let r = concurrent("q2,q7,q10", 1, 7, 5.0, SchedulerPolicy::Fifo).unwrap();
        assert_eq!(r.queries.len(), 3);
        assert_eq!(
            r.trace_processes, 4,
            "one named pid lane per query plus the service lane"
        );
        assert_eq!(
            r.obs.metrics.counter("service.admitted"),
            3,
            "default quota admits everything directly"
        );
        assert_eq!(r.queued_at_admission, 0);
        // With 5s mean gaps and multi-minute queries the stream overlaps:
        // the shared clock beats running the same latencies back to back.
        let serial_sum: f64 = r.queries.iter().map(|q| q.latency_secs).sum();
        assert!(
            r.makespan_secs < serial_sum,
            "makespan {} vs serial sum {serial_sum}",
            r.makespan_secs,
        );
        // Arrivals are the seeded offsets, in stream order.
        assert_eq!(r.queries[0].arrival_secs, 0.0);
        for w in r.queries.windows(2) {
            assert!(w[1].arrival_secs >= w[0].arrival_secs);
        }
        for run in &r.queries {
            assert!(run.jobs > 0, "{} ran no jobs", run.label);
            assert!(run.latency_secs > 0.0);
            assert!(run.queue_delay_secs >= 0.0);
            assert!(run.slot_wait_secs >= 0.0);
            // Tentpole invariant: the critical-path segments of every
            // query sum bitwise to its reported latency.
            let cp = CriticalPath::build(&r.obs.tracer, run.query_span)
                .expect("critical path built");
            assert_eq!(
                cp.total().to_bits(),
                run.latency_secs.to_bits(),
                "critical path of {} must reconcile exactly",
                run.label
            );
            assert!(!cp.bottleneck().is_empty());
        }
        let text = render_concurrent(&r);
        assert!(text.contains("== concurrent workload:"));
        assert!(text.contains("queue-delay"));
        assert!(
            text.lines().last().unwrap().starts_with("concurrent makespan: "),
            "last line is the ci.sh diff line"
        );
        assert!(text.contains("bottleneck"));
        assert!(
            text.contains("service admission: 3 admitted, 0 queued at admission, policy fifo"),
            "admission columns must reach the report"
        );
        // The single exported trace passes validation (checked inside the
        // runner too, but assert the report carries the real JSON).
        let summary = validate_chrome_trace(&r.trace_json).unwrap();
        assert_eq!(
            summary.processes, 5,
            "3 query lanes + the service lane + the cluster telemetry lane"
        );
        assert_eq!(summary.begins, summary.ends);
        assert!(summary.counters > 0, "shared-cluster telemetry merged in");
        assert_eq!(summary.counters, r.trace_counters);
    }

    #[test]
    fn concurrent_all_at_time_zero_contends_hardest() {
        // arrival_mean = 0: every query arrives at t=0 and fights for
        // slots immediately; someone must queue behind someone else.
        // SF100 at the coarse divisor keeps jobs big enough to contend.
        let r = concurrent("q2,q7,q10", 100, 3, 0.0, SchedulerPolicy::Fifo).unwrap();
        assert!(r.queries.iter().all(|x| x.arrival_secs == 0.0));
        assert!(
            r.queries.iter().any(|x| x.queue_delay_secs > 0.0),
            "simultaneous arrivals must produce queueing"
        );
    }

    #[test]
    fn concurrent_fair_scheduling_runs_the_same_stream() {
        let fifo = concurrent("q2,q10x2", 1, 11, 2.0, SchedulerPolicy::Fifo).unwrap();
        let fair = concurrent("q2,q10x2", 1, 11, 2.0, SchedulerPolicy::Fair).unwrap();
        // Same stream, same arrivals — only the slot-grant order differs.
        for (a, b) in fifo.queries.iter().zip(fair.queries.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.arrival_secs.to_bits(), b.arrival_secs.to_bits());
        }
        assert_eq!(fifo.trace_processes, fair.trace_processes);
    }

    /// A stream takes `arrival_mean` and `sched` only: the serve-only
    /// knobs (nodes, sampling, health digests, incidents, quota,
    /// tenants) leave the `--concurrent` and `timeline` views and the
    /// trace untouched.
    #[test]
    fn stream_ignores_serve_only_knobs() {
        let plain = concurrent("q2,q10x2", 1, 11, 2.0, SchedulerPolicy::Fair).unwrap();
        let knobs = ServeOptions {
            arrival_mean: 2.0,
            sched: SchedulerPolicy::Fair,
            tenants: 7,
            slo_mult: 1.5,
            max_in_flight: 1,
            quota_slot_secs: 1.0,
            tenant_skew: 9.0,
            health: true,
            health_interval: 60.0,
            sample_one_in: 2,
            nodes: Some(28),
            replan_after: Some(0.0),
            incidents: true,
            incident_top: 1,
        };
        let loaded = run_serve("q2,q10x2", 1, 11, coarse(), ArrivalSource::Stream, knobs).unwrap();
        assert_eq!(render_concurrent(&loaded), render_concurrent(&plain));
        assert_eq!(
            crate::timeline::render_timeline(&loaded),
            crate::timeline::render_timeline(&plain)
        );
        assert_eq!(loaded.trace_json, plain.trace_json);
        assert!(loaded.health.is_none() && loaded.sampling.is_none());
        assert!(loaded.incidents.is_none() && loaded.replan.is_none());
    }

    /// Satellite: concurrent workload reports (and the single stream
    /// trace) are byte-identical across identical seeds.
    #[test]
    fn concurrent_report_is_byte_identical_across_identical_seeds() {
        prop::check(
            "concurrent workload determinism",
            3,
            |g| {
                (
                    g.gen_range(0..1000u64),
                    if g.gen_bool(0.5) { SchedulerPolicy::Fifo } else { SchedulerPolicy::Fair },
                )
            },
            |&(seed, sched)| {
                let run_once = || {
                    concurrent("q2,q10x2", 1, seed, 5.0, sched)
                        .map_err(|e| e.to_string())
                        .map(|r| (render_concurrent(&r), r.trace_json))
                };
                let (report_a, trace_a) = run_once()?;
                let (report_b, trace_b) = run_once()?;
                if report_a != report_b {
                    return Err("same seed produced different reports".to_owned());
                }
                if trace_a != trace_b {
                    return Err("same seed produced different traces".to_owned());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn different_seeds_can_reorder_the_stream() {
        let orders: Vec<Vec<(QueryId, Mode)>> = (0..6)
            .map(|seed| shuffled_stream("q2x2,q10x2", seed).unwrap().0)
            .collect();
        assert!(
            orders.windows(2).any(|w| w[0] != w[1]),
            "six seeds never changing the order would mean the shuffle is dead"
        );
    }
}
