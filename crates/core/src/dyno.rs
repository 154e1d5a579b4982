//! The end-to-end DYNO system facade.

use std::fmt;

use dyno_cluster::{Cluster, ClusterConfig};
use dyno_data::Value;
use dyno_exec::ExecError;
use dyno_obs::Obs;
use dyno_optimizer::{OptError, Optimizer};
use dyno_query::block::CompileError;
use dyno_query::JoinBlock;
use dyno_stats::Metastore;
use dyno_storage::{Dfs, DfsError};
use dyno_tpch::catalog_for;
use dyno_tpch::queries::PreparedQuery;

use crate::driver::{DriverPoll, QueryDriver};
use crate::dynopt::{AdaptiveReopt, ReoptPolicy, Strategy};
use crate::pilot::PilotConfig;

/// Everything that can go wrong running a query.
#[derive(Debug)]
pub enum DynoError {
    /// Execution failure (missing file, broadcast OOM).
    Exec(ExecError),
    /// Optimizer failure.
    Opt(OptError),
    /// Query compilation failure.
    Compile(CompileError),
    /// A leaf had no statistics — pilot runs did not cover it.
    MissingLeafStats(String),
}

impl fmt::Display for DynoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynoError::Exec(e) => write!(f, "execution: {e}"),
            DynoError::Opt(e) => write!(f, "optimizer: {e}"),
            DynoError::Compile(e) => write!(f, "compile: {e}"),
            DynoError::MissingLeafStats(sig) => {
                write!(f, "no statistics for leaf expression {sig}")
            }
        }
    }
}

impl std::error::Error for DynoError {}

impl From<ExecError> for DynoError {
    fn from(e: ExecError) -> Self {
        DynoError::Exec(e)
    }
}
impl From<OptError> for DynoError {
    fn from(e: OptError) -> Self {
        DynoError::Opt(e)
    }
}
impl From<CompileError> for DynoError {
    fn from(e: CompileError) -> Self {
        DynoError::Compile(e)
    }
}
impl From<DfsError> for DynoError {
    fn from(e: DfsError) -> Self {
        DynoError::Exec(ExecError::Dfs(e))
    }
}

/// Which planner/execution pipeline to run (the four execution-plan
/// variants of §6.1 plus Jaql's as-written default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Pilot runs + cost-based plan + re-optimization at job boundaries.
    Dynopt,
    /// Pilot runs + one optimizer call, no re-optimization.
    DynoptSimple,
    /// Static relational optimizer with full base statistics (DBMS-X).
    RelOpt,
    /// Best hand-written left-deep Jaql plan.
    BestStaticJaql,
    /// Stock Jaql on the FROM order as written.
    JaqlAsWritten,
}

impl Mode {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Dynopt => "DYNOPT",
            Mode::DynoptSimple => "DYNOPT-SIMPLE",
            Mode::RelOpt => "RELOPT",
            Mode::BestStaticJaql => "BESTSTATICJAQL",
            Mode::JaqlAsWritten => "JAQL-DEFAULT",
        }
    }
}

/// Tunables for a DYNO instance.
#[derive(Debug, Clone)]
pub struct DynoOptions {
    /// Cluster to simulate.
    pub cluster: ClusterConfig,
    /// Pilot-run settings.
    pub pilot: PilotConfig,
    /// Execution strategy (§5.3).
    pub strategy: Strategy,
    /// Conditional re-optimization (§5.1): when set, DYNOPT keeps
    /// executing the current plan while observed job-output cardinalities
    /// stay within this relative factor of their estimates, paying for
    /// re-optimization only when an estimate was wrong. `None` reproduces
    /// the paper's evaluated behaviour (re-optimize after every batch).
    pub reopt_threshold: Option<f64>,
    /// Metrics-driven re-optimization: when set, the threshold adapts to
    /// the est-vs-actual cardinality stream (tighten on miss, relax on
    /// hold) instead of staying fixed. Off (`None`) by default; takes
    /// precedence over `reopt_threshold` when both are set.
    pub adaptive_reopt: Option<AdaptiveReopt>,
    /// Carry the optimizer memo across a query's re-optimization rounds:
    /// only groups whose leaves are stats-dirty are re-costed. Off by
    /// default (the paper's from-scratch re-optimization).
    pub reuse_memo: bool,
    /// Serve repeated queries' initial plans from the [`Dyno`]-wide plan
    /// cache, keyed by block signature + leaf statistics versions. Off by
    /// default.
    pub reuse_plans: bool,
    /// The cost-based optimizer.
    pub optimizer: Optimizer,
}

impl DynoOptions {
    /// The re-optimization policy these options select.
    pub fn reopt_policy(&self) -> ReoptPolicy {
        match (self.adaptive_reopt, self.reopt_threshold) {
            (Some(a), _) => ReoptPolicy::Adaptive(a),
            (None, Some(t)) => ReoptPolicy::Static(t),
            (None, None) => ReoptPolicy::Always,
        }
    }
}

impl Default for DynoOptions {
    fn default() -> Self {
        DynoOptions {
            cluster: ClusterConfig::paper(),
            pilot: PilotConfig::default(),
            strategy: Strategy::Unc(1), // the winning strategy in Figure 5
            reopt_threshold: None,
            adaptive_reopt: None,
            reuse_memo: false,
            reuse_plans: false,
            optimizer: Optimizer::new(),
        }
    }
}

/// The report returned for every executed query.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Query name.
    pub query: String,
    /// Mode name.
    pub mode: &'static str,
    /// Final result records (after any group-by / order-by).
    pub result: Vec<Value>,
    /// Physical rows in the final result.
    pub rows: u64,
    /// Total simulated seconds, submission to answer.
    pub total_secs: f64,
    /// Simulated seconds spent in pilot runs.
    pub pilot_secs: f64,
    /// Simulated seconds spent in (re-)optimization.
    pub optimize_secs: f64,
    /// Rendered plan at each optimization point (one-line form).
    pub plans: Vec<String>,
    /// The same plans as multi-line operator trees (Figures 2–3).
    pub plan_trees: Vec<String>,
    /// Re-optimization points hit.
    pub reopts: usize,
    /// Plan cache probes made (0 unless `reuse_plans`; at most 1).
    pub plan_cache_lookups: u64,
    /// Plan cache probes that skipped the search entirely.
    pub plan_cache_hits: u64,
}

impl QueryReport {
    /// Execution time excluding pilot runs and optimizer calls — the
    /// "plan execution" bar of Figure 4.
    pub fn plan_exec_secs(&self) -> f64 {
        self.total_secs - self.pilot_secs - self.optimize_secs
    }
}

/// A DYNO instance over a filesystem. The statistics metastore persists
/// across [`Dyno::run`] calls, so recurring queries reuse pilot-run
/// statistics via expression signatures (§4.1).
pub struct Dyno {
    /// The data.
    pub dfs: Dfs,
    /// Knobs.
    pub opts: DynoOptions,
    /// Cross-run statistics store.
    pub metastore: Metastore,
    /// Cross-query plan cache (consulted only when `opts.reuse_plans`).
    pub plan_cache: dyno_optimizer::PlanCache,
    /// Observability handles (disabled by default — near-free when off).
    /// Swap in [`Obs::enabled`] to record traces/metrics across runs.
    pub obs: Obs,
}

impl Dyno {
    /// A DYNO instance with the given options.
    pub fn new(dfs: Dfs, opts: DynoOptions) -> Self {
        Dyno {
            dfs,
            opts,
            metastore: Metastore::new(),
            plan_cache: dyno_optimizer::PlanCache::new(),
            obs: Obs::disabled(),
        }
    }

    /// Drop all remembered statistics and cached plans (between
    /// experiment repetitions).
    pub fn clear_stats(&self) {
        self.metastore.clear();
        self.plan_cache.clear();
    }

    /// The statistics basis a plan for `q` would be costed under right
    /// now: the query's leaf expression signatures paired with their
    /// current metastore statistics versions, sorted and deduplicated —
    /// the same vector the cross-query plan cache validates entries with.
    /// A service that parked the query in an admission queue re-probes
    /// this at queue exit: any moved version means the statistics the
    /// initial plan would have been costed under at submit time are
    /// stale, so optimization should re-run before execution. Version
    /// probes record no metrics, so capturing a basis never perturbs
    /// hit-rate accounting.
    pub fn stats_basis(&self, q: &PreparedQuery) -> Result<Vec<(String, u64)>, DynoError> {
        let cat = catalog_for(&q.spec);
        let block = JoinBlock::compile(&q.spec, &cat)?;
        let mut basis: Vec<(String, u64)> = block
            .leaves
            .iter()
            .map(|l| {
                let sig = l.signature();
                let v = self.metastore.version(&sig);
                (sig, v)
            })
            .collect();
        basis.sort();
        basis.dedup();
        Ok(basis)
    }

    /// Run a prepared query under the given mode, on a fresh simulated
    /// cluster starting at time zero.
    ///
    /// This is the solo driving loop over [`QueryDriver`]: block on each
    /// set of outstanding jobs, advance the clock through client-side
    /// (re-)optimization windows, and return the report. Concurrent
    /// workloads use the same driver against one shared cluster instead.
    pub fn run(&self, q: &PreparedQuery, mode: Mode) -> Result<QueryReport, DynoError> {
        // Each solo run gets a fresh cluster at time zero; a reused
        // timeline handle must not mix step samples from earlier runs
        // (their clocks restart), so it covers only the latest run —
        // mirroring `QueryProfile`'s last-query-span semantics.
        self.obs.timeline.reset();
        let mut cluster = Cluster::new(self.opts.cluster.clone());
        cluster.set_obs(
            self.obs.tracer.clone(),
            self.obs.metrics.clone(),
            self.obs.timeline.clone(),
        );
        let mut driver = QueryDriver::new(self, q, mode, &mut cluster)?;
        loop {
            match driver.poll(&mut cluster)? {
                DriverPoll::NeedJobs(handles) => cluster.run_until_done(&handles),
                DriverPoll::Reoptimizing { until } => cluster.run_until_time(until),
                DriverPoll::Done(report) => return Ok(report),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_storage::SimScale;
    use dyno_tpch::queries::{self, QueryId};
    use dyno_tpch::TpchGenerator;

    fn dyno() -> Dyno {
        let env = TpchGenerator::new(1, SimScale::divisor(2000)).generate();
        let opts = DynoOptions {
            cluster: ClusterConfig {
                task_jitter: 0.0,
                ..ClusterConfig::paper()
            },
            ..DynoOptions::default()
        };
        Dyno::new(env.dfs, opts)
    }

    #[test]
    fn all_modes_agree_on_q10_answer() {
        let d = dyno();
        let q = queries::prepare(QueryId::Q10);
        let mut reports = Vec::new();
        for mode in [
            Mode::Dynopt,
            Mode::DynoptSimple,
            Mode::RelOpt,
            Mode::BestStaticJaql,
            Mode::JaqlAsWritten,
        ] {
            d.clear_stats();
            reports.push(d.run(&q, mode).unwrap());
        }
        let first = &reports[0];
        assert!(first.rows > 0);
        let best_static = &reports[3];
        assert!(best_static.plans.iter().all(|p| p.contains('⋈')), "{:?}", best_static.plans);
        for r in &reports[1..] {
            assert_eq!(r.rows, first.rows, "{} disagrees", r.mode);
            assert_eq!(r.result, first.result, "{} result differs", r.mode);
        }
    }

    #[test]
    fn report_accounting_is_consistent() {
        let d = dyno();
        let q = queries::prepare(QueryId::Q7);
        let r = d.run(&q, Mode::Dynopt).unwrap();
        assert!(r.pilot_secs > 0.0);
        assert!(r.optimize_secs > 0.0);
        assert!(r.plan_exec_secs() > 0.0);
        assert!(r.total_secs >= r.pilot_secs + r.optimize_secs);
    }

    #[test]
    fn stats_persist_across_runs() {
        let d = dyno();
        let q = queries::prepare(QueryId::Q10);
        let first = d.run(&q, Mode::DynoptSimple).unwrap();
        let second = d.run(&q, Mode::DynoptSimple).unwrap();
        assert!(first.pilot_secs > 0.0);
        assert_eq!(second.pilot_secs, 0.0, "signatures served from metastore");
        assert_eq!(first.rows, second.rows);
    }

    #[test]
    fn restaurant_example_runs_end_to_end() {
        // the restaurant dataset is small; use a fine-grained divisor so
        // physical rows exist to match the selective predicates
        let env = TpchGenerator::new(1, SimScale::divisor(10)).generate();
        let d = Dyno::new(env.dfs, DynoOptions::default());
        let q = queries::prepare(QueryId::Q1Restaurant);
        let r = d.run(&q, Mode::Dynopt).unwrap();
        // correlated zip/state predicates + 2 UDFs still produce rows
        assert!(r.rows > 0, "restaurant query returned nothing");
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use dyno_common::Rng;
    use dyno_obs::QueryProfile;
    use dyno_storage::SimScale;
    use dyno_tpch::queries::{self, QueryId};
    use dyno_tpch::TpchGenerator;

    fn dyno_with_obs() -> Dyno {
        let env = TpchGenerator::new(1, SimScale::divisor(2000)).generate();
        let mut d = Dyno::new(env.dfs, DynoOptions::default());
        d.obs = Obs::enabled();
        d
    }

    /// The tentpole contract: the profile's phase accounting reconciles
    /// *bitwise* with the Figure 4 numbers in the `QueryReport`.
    #[test]
    fn profile_reconciles_exactly_with_report() {
        for mode in [
            Mode::Dynopt,
            Mode::DynoptSimple,
            Mode::RelOpt,
            Mode::BestStaticJaql,
        ] {
            let d = dyno_with_obs();
            let q = queries::prepare(QueryId::Q7);
            let r = d.run(&q, mode).unwrap();
            let p = QueryProfile::build(&d.obs.tracer)
                .unwrap_or_else(|| panic!("no profile under {mode:?}"));
            assert_eq!(p.query, r.query);
            assert_eq!(
                p.total_secs.to_bits(),
                r.total_secs.to_bits(),
                "{mode:?} total"
            );
            assert_eq!(
                p.pilot_secs.to_bits(),
                r.pilot_secs.to_bits(),
                "{mode:?} pilot"
            );
            assert_eq!(
                p.optimize_secs.to_bits(),
                r.optimize_secs.to_bits(),
                "{mode:?} optimize"
            );
            // The execute phase is the bulk of any run.
            if mode != Mode::RelOpt {
                assert!(p.execute_secs > 0.0, "{mode:?} execute");
                assert!(!p.jobs.is_empty(), "{mode:?} jobs");
            }
        }
    }

    /// The critical-path decomposition must sum *bitwise* to the
    /// latency the `QueryReport` states: named segments plus the `other`
    /// residual reconstruct `total_secs` exactly (`f64::to_bits`), in
    /// every execution mode.
    #[test]
    fn critical_path_reconciles_bitwise_with_report_latency() {
        for mode in [
            Mode::Dynopt,
            Mode::DynoptSimple,
            Mode::RelOpt,
            Mode::BestStaticJaql,
        ] {
            let d = dyno_with_obs();
            let q = queries::prepare(QueryId::Q7);
            let r = d.run(&q, mode).unwrap();
            let p = QueryProfile::build(&d.obs.tracer).unwrap();
            let cp = p
                .critical
                .unwrap_or_else(|| panic!("no critical path under {mode:?}"));
            // Solo runs start their query span at t=0, so the span width
            // IS the reported latency, bit for bit — and the segment sum
            // reconstructs it exactly.
            assert_eq!(
                cp.latency_secs.to_bits(),
                r.total_secs.to_bits(),
                "{mode:?} latency"
            );
            assert_eq!(
                cp.total().to_bits(),
                r.total_secs.to_bits(),
                "{mode:?} segments must sum bitwise to the latency"
            );
            // Something real must be attributed whenever jobs ran.
            if mode != Mode::RelOpt {
                assert!(
                    cp.map_secs > 0.0 || cp.reduce_secs > 0.0,
                    "{mode:?} attributes no task time"
                );
                assert!(!cp.bottleneck().is_empty());
            }
        }
    }

    /// The solo driver samples the shared cluster telemetry: a traced
    /// run leaves a strictly time-ordered, non-empty timeline behind,
    /// and a re-run resets it (the series covers only the latest run).
    #[test]
    fn solo_runs_record_and_reset_the_timeline() {
        let d = dyno_with_obs();
        let q = queries::prepare(QueryId::Q7);
        d.run(&q, Mode::Dynopt).unwrap();
        let first = d.obs.timeline.samples();
        assert!(!first.is_empty(), "traced run must sample the timeline");
        for w in first.windows(2) {
            assert!(w[1].time > w[0].time, "samples must be strictly ordered");
        }
        let (map_cap, reduce_cap) = d.obs.timeline.capacity();
        assert!(map_cap > 0 && reduce_cap > 0, "capacities recorded");
        // Peak occupancy cannot exceed capacity.
        assert!(first.iter().all(|s| s.map_busy <= map_cap));
        assert!(first.iter().all(|s| s.reduce_busy <= reduce_cap));
        // A second run restarts the simulated clock on a fresh cluster;
        // the timeline resets with it instead of appending out-of-order.
        // (The run itself differs — the warm metastore skips pilots.)
        d.run(&q, Mode::Dynopt).unwrap();
        let second = d.obs.timeline.samples();
        assert!(!second.is_empty());
        for w in second.windows(2) {
            assert!(w[1].time > w[0].time, "reset series stays ordered");
        }
        assert!(
            second.first().unwrap().time < first.last().unwrap().time,
            "second run must restart the series, not append after {}",
            first.last().unwrap().time
        );
    }

    #[test]
    fn dynopt_profile_has_cardinalities_and_reopt_checks() {
        let d = dyno_with_obs();
        let q = queries::prepare(QueryId::Q7);
        let r = d.run(&q, Mode::Dynopt).unwrap();
        let p = QueryProfile::build(&d.obs.tracer).unwrap();
        assert!(p.reopt_checks as usize >= r.reopts);
        assert!(
            !p.cardinalities.is_empty(),
            "executed joins must report est-vs-actual rows"
        );
        for c in &p.cardinalities {
            assert!(c.est_rows.is_finite());
        }
        let rendered = p.render();
        assert!(rendered.contains("overhead-total:"));
        // A warm re-run overwrites nothing: build() profiles the new run.
        let warm = d.run(&q, Mode::Dynopt).unwrap();
        let p2 = QueryProfile::build(&d.obs.tracer).unwrap();
        assert_eq!(p2.pilot_secs.to_bits(), warm.pilot_secs.to_bits());
        assert_eq!(p2.total_secs.to_bits(), warm.total_secs.to_bits());
    }

    /// Fixed seeds ⇒ byte-identical event logs and metrics across fresh
    /// runs — the determinism contract that makes traces diffable.
    #[test]
    fn event_log_is_byte_identical_across_identical_runs() {
        dyno_common::prop::check(
            "event_log_is_byte_identical",
            4,
            |g| {
                let query = [QueryId::Q7, QueryId::Q10][g.gen_range(0usize..2)];
                let mode =
                    [Mode::Dynopt, Mode::DynoptSimple, Mode::RelOpt][g.gen_range(0usize..3)];
                (query, mode)
            },
            |&(query, mode)| {
                let run_once = || {
                    let d = dyno_with_obs();
                    let q = queries::prepare(query);
                    d.run(&q, mode).unwrap();
                    (d.obs.tracer.render(), d.obs.metrics.render())
                };
                let (trace_a, metrics_a) = run_once();
                let (trace_b, metrics_b) = run_once();
                dyno_common::prop_ensure!(
                    trace_a == trace_b,
                    "event logs differ for {query:?} under {mode:?}"
                );
                dyno_common::prop_ensure_eq!(metrics_a, metrics_b);
                dyno_common::prop_ensure!(!trace_a.is_empty());
                Ok(())
            },
        );
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let env = TpchGenerator::new(1, SimScale::divisor(2000)).generate();
        let d = Dyno::new(env.dfs, DynoOptions::default());
        let q = queries::prepare(QueryId::Q10);
        d.run(&q, Mode::Dynopt).unwrap();
        assert!(QueryProfile::build(&d.obs.tracer).is_none());
        assert!(d.obs.tracer.spans().is_empty());
        assert!(d.obs.tracer.events().is_empty());
    }

    #[test]
    fn metrics_cover_the_whole_stack() {
        let d = dyno_with_obs();
        let q = queries::prepare(QueryId::Q7);
        d.run(&q, Mode::Dynopt).unwrap();
        let m = &d.obs.metrics;
        for counter in [
            "pilot.leaves_piloted",
            "optimizer.expressions_costed",
            "optimizer.memo_groups",
            "metastore.hits",
        ] {
            assert!(m.counter(counter) > 0, "counter {counter} never incremented");
        }
        // SF1 plans may be all-broadcast or need repartitions; either way
        // the executor moved bytes.
        assert!(
            m.counter("exec.shuffle_bytes") + m.counter("exec.broadcast_build_bytes") > 0,
            "no join bytes recorded"
        );
        let hist = m.histogram("cluster.task_secs").expect("task histogram");
        assert!(hist.count > 0);
    }

    /// The tentpole acceptance check: with memo + plan-cache reuse on, a
    /// repeated query keeps its answers and plans bitwise while the
    /// optimizer does strictly less costing work; a statistics-version
    /// bump invalidates the cached plan instead of serving it stale.
    #[test]
    fn plan_reuse_keeps_answers_and_skips_search() {
        let q = queries::prepare(QueryId::Q8Prime);
        let run_stream = |reuse: bool| {
            // SF100: the plan needs several jobs, so re-optimization
            // rounds exist and the within-run memo gets exercised.
            let env = TpchGenerator::new(100, SimScale::divisor(50_000)).generate();
            let mut d = Dyno::new(env.dfs, DynoOptions::default());
            d.obs = Obs::enabled();
            d.opts.reuse_memo = reuse;
            d.opts.reuse_plans = reuse;
            let reports: Vec<QueryReport> =
                (0..3).map(|_| d.run(&q, Mode::Dynopt).unwrap()).collect();
            (d, reports)
        };
        let (_, off) = run_stream(false);
        let (d_on, on) = run_stream(true);
        assert!(off[0].reopts >= 1, "Q8′ must hit re-optimization points");

        for (i, (a, b)) in off.iter().zip(on.iter()).enumerate() {
            assert_eq!(a.result, b.result, "run {i} answers differ under reuse");
            assert_eq!(a.rows, b.rows, "run {i} rows differ");
            assert_eq!(a.plans, b.plans, "run {i} plans differ under reuse");
        }
        // Run 1 plans over pilot-materialized leaves (unique signature);
        // runs 2-3 skip pilots, so run 2 misses + inserts and run 3 hits.
        assert_eq!(on[0].plan_cache_lookups, 1);
        assert_eq!(on[2].plan_cache_hits, 1, "repeat must be served from cache");
        let m = &d_on.obs.metrics;
        assert!(m.counter("plan_cache.hit") >= 1);
        assert!(m.counter("plan_cache.miss") >= 1);
        assert!(m.counter("optimizer.memo_reuse") > 0, "no groups reused");
        let cold = {
            let (d, _) = run_stream(false);
            d.obs.metrics.counter("optimizer.expressions_costed")
        };
        assert!(
            m.counter("optimizer.expressions_costed") < cold,
            "reuse must cost strictly fewer expressions: {} vs {}",
            m.counter("optimizer.expressions_costed"),
            cold
        );

        // Bump every signature's statistics version (a re-put of the same
        // stats still moves the version): the cached plan must be
        // invalidated, not served stale — and the answer stays put.
        d_on.metastore.restore(d_on.metastore.snapshot());
        let after = d_on.run(&q, Mode::Dynopt).unwrap();
        assert_eq!(after.result, off[2].result);
        assert_eq!(after.plan_cache_hits, 0, "stale entry must not hit");
        assert!(m.counter("plan_cache.invalidate") >= 1);
    }

    /// Satellite (a): a query referencing an unregistered UDF fails with
    /// a typed compile error before any job runs.
    #[test]
    fn unknown_udf_is_a_typed_compile_error() {
        let env = TpchGenerator::new(1, SimScale::divisor(2000)).generate();
        let d = Dyno::new(env.dfs, DynoOptions::default());
        let mut q = queries::prepare(QueryId::Q9Prime);
        q.udfs = dyno_query::UdfRegistry::new(); // drop udf_p
        let err = d.run(&q, Mode::Dynopt).unwrap_err();
        match err {
            DynoError::Compile(CompileError::UnknownUdf { name }) => {
                assert!(name.starts_with("udf_"), "unexpected udf {name}")
            }
            other => panic!("expected UnknownUdf, got {other}"),
        }
    }
}

#[cfg(test)]
mod q5_tests {
    use super::*;
    use dyno_storage::SimScale;
    use dyno_tpch::queries::{self, QueryId};
    use dyno_tpch::TpchGenerator;

    /// The cyclic Q5 runs end-to-end under every mode with identical
    /// results — the capability the paper's optimizer lacked.
    #[test]
    fn q5_cyclic_join_all_modes_agree() {
        let env = TpchGenerator::new(100, SimScale::divisor(100_000)).generate();
        let d = Dyno::new(env.dfs, DynoOptions::default());
        let q = queries::prepare(QueryId::Q5);
        let mut reference = None;
        for mode in [Mode::Dynopt, Mode::DynoptSimple, Mode::BestStaticJaql] {
            d.clear_stats();
            let r = d.run(&q, mode).unwrap();
            match &reference {
                None => reference = Some(r.result),
                Some(want) => assert_eq!(&r.result, want, "{} differs", r.mode),
            }
        }
    }
}
