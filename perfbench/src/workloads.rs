//! The three workloads, each driven from one process and one thread.
//!
//! Every workload calls only public entry points the codebase keeps:
//! `TpchGenerator`, `Dyno::new`, `QueryDriver::poll` with
//! `Cluster::run_until_*`, `QueryService`, `begin_pilots`,
//! `best_jaql_alias_order`, the trace and incident exporters and
//! validators, and `Metrics::counter`.

use std::collections::BTreeMap;
use std::time::Instant;

use dyno_cluster::{Cluster, ClusterConfig, Coord, SchedulerPolicy};
use dyno_common::{Rng, SeedableRng, StdRng};
use dyno_core::baseline::best_jaql_alias_order;
use dyno_core::pilot::{begin_pilots, PilotStep};
use dyno_core::{DriverPoll, Dyno, DynoOptions, Mode, QueryDriver, QueryReport};
use dyno_exec::Executor;
use dyno_obs::{
    validate_chrome_trace, validate_incident_json, Metrics, Obs, RecorderPolicy, SloPolicy,
    Timeline, Tracer,
};
use dyno_query::JoinBlock;
use dyno_service::{
    generate_arrivals, ArrivalSpec, QueryService, QueryStatus, ServiceConfig, SubmitOpts,
    TenantQuota,
};
use dyno_tpch::queries::{self, QueryId};
use dyno_tpch::{catalog_for, SimScale, TpchGenerator};

use crate::digest::{result_hash, Digest, QueryRecord};
use crate::layers::Layers;
use crate::procfs;
use crate::speed::Probe;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop arrivals through one `QueryService` with full
    /// observability: the service pump and obs do the work.
    ServeBacklog,
    /// Closed loop, one client, DYNOPT: pilots and record-level
    /// execution do the work, cold and warm.
    DynoptSerial,
    /// Closed loop, one client, BESTSTATICJAQL: the oracle's exhaustive
    /// order search does the work.
    BeststaticSerial,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeBacklog,
        Workload::DynoptSerial,
        Workload::BeststaticSerial,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBacklog => "serve_backlog",
            Workload::DynoptSerial => "dynopt_serial",
            Workload::BeststaticSerial => "beststatic_serial",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The outcome digest of the default seed at full size, committed so
    /// that a change which moves any simulated output fails the check.
    pub fn reference_digest(self) -> &'static str {
        match self {
            Workload::ServeBacklog => "8f69c3415686d2eb",
            Workload::DynoptSerial => "b7631f635c6ada03",
            Workload::BeststaticSerial => "3595499169dbc55b",
        }
    }

    /// The workload's input sizes. Against their first sizing,
    /// `dynopt_serial` generates half the records (divisor 20 000) and
    /// `beststatic_serial` a quarter (divisor 50 000), and `serve_backlog`
    /// serves 200 queries instead of 300, which still leaves over a
    /// hundred tickets live when the arrivals end. Each keeps its
    /// dominant layer, and a 40-second run holds seven to thirty
    /// repetitions: one repetition's time varies by 5 to 10 % on a
    /// shared 2-core host, so a run's median needs that many.
    pub fn size(self, tiny: bool) -> Size {
        use QueryId::*;
        const SERIAL_MIX: &[(QueryId, usize)] =
            &[(Q2, 1), (Q7, 1), (Q8Prime, 1), (Q9Prime, 1), (Q10, 1)];
        match (self, tiny) {
            (Workload::ServeBacklog, false) => Size {
                sf: 100,
                divisor: 200_000,
                mix: &[(Q2, 80), (Q7, 60), (Q9Prime, 60)],
                repeat: 1,
            },
            (Workload::ServeBacklog, true) => Size {
                sf: 100,
                divisor: 2_000_000,
                mix: &[(Q2, 2), (Q7, 2), (Q9Prime, 2)],
                repeat: 1,
            },
            (Workload::DynoptSerial, false) => Size {
                sf: 1000,
                divisor: 40_000,
                mix: SERIAL_MIX,
                repeat: 2,
            },
            (Workload::BeststaticSerial, false) => Size {
                sf: 300,
                divisor: 200_000,
                mix: SERIAL_MIX,
                repeat: 1,
            },
            (_, true) => Size {
                sf: 10,
                divisor: 20_000,
                mix: SERIAL_MIX,
                repeat: 2,
            },
        }
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// TPC-H scale factor of the simulated world.
    pub sf: u64,
    /// Simulated records per generated record.
    pub divisor: u64,
    /// Queries and how many instances of each.
    pub mix: &'static [(QueryId, usize)],
    /// How many times the whole mix runs.
    pub repeat: usize,
}

/// Which pass of a workload a process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The end-to-end measurement: no spans, no extra counters.
    Untraced,
    /// Spans around every layer call, counters from an enabled registry,
    /// and the direct pilot and oracle calls.
    Traced,
    /// `serve_backlog` only: the same stream with observability off, to
    /// price observability; spans on.
    ObsOff,
}

impl Pass {
    /// The name used on the worker command line.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Untraced => "untraced",
            Pass::Traced => "traced",
            Pass::ObsOff => "obs-off",
        }
    }

    /// Parse a pass name.
    pub fn parse(s: &str) -> Option<Pass> {
        [Pass::Untraced, Pass::Traced, Pass::ObsOff]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

/// What one pass of a workload measured and checked.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall seconds from workload start to the first submission.
    pub setup_s: f64,
    /// Wall seconds from the first submission until the last outcome
    /// was checked, less the probe's ticks.
    pub run_s: f64,
    /// Mean seconds per reference computation during the run: the
    /// host's speed (see [`crate::speed`]).
    pub probe_s: f64,
    /// Queries submitted.
    pub attempted: u64,
    /// Queries that errored, ended other than done, or whose result
    /// differs from the reference result.
    pub failed: u64,
    /// Digest of the simulated outcomes.
    pub digest: String,
    /// Per-layer values (traced passes only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Deadline multiple over each query's calibrated solo latency.
const SLO_MULT: f64 = 4.0;

/// Run one pass of `w` on inputs made from `seed`.
pub fn run(w: Workload, seed: u64, pass: Pass, tiny: bool) -> Result<RunReport, String> {
    let size = w.size(tiny);
    match w {
        Workload::ServeBacklog => serve(size, seed, pass),
        Workload::DynoptSerial => serial(size, seed, pass, Mode::Dynopt),
        Workload::BeststaticSerial => serial(size, seed, pass, Mode::BestStaticJaql),
    }
}

/// Generate the TPC-H data, recording its wall time and RSS growth.
fn generate(size: Size, layers: &mut Layers) -> (dyno_storage::Dfs, f64) {
    let before = procfs::rss_mb();
    let env = layers.time("tpch.generate", || {
        TpchGenerator::new(size.sf, SimScale::divisor(size.divisor)).generate()
    });
    (env.dfs, procfs::rss_mb() - before)
}

/// The mix expanded to one entry per instance, `repeat` rounds in a row,
/// each round in its own seeded shuffled order. A query's first instance
/// thus always runs in the first round.
fn stream(size: Size, seed: u64) -> Vec<QueryId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..size.repeat {
        let mut round: Vec<QueryId> = size
            .mix
            .iter()
            .flat_map(|&(q, n)| std::iter::repeat_n(q, n))
            .collect();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

fn options(cluster: ClusterConfig) -> DynoOptions {
    DynoOptions {
        cluster,
        ..DynoOptions::default()
    }
}

/// Drive one query solo on `cluster` to completion, recording a span per
/// call and ticking `probe` between calls. Returns the report and the
/// number of distinct jobs it ran.
fn solo(
    dyno: &Dyno,
    q: QueryId,
    mode: Mode,
    cluster: &mut Cluster,
    layers: &mut Layers,
    probe: &mut Probe,
) -> Result<(QueryReport, u64), String> {
    let prepared = queries::prepare(q);
    let mut driver = layers
        .time("query.compile", || {
            QueryDriver::new(dyno, &prepared, mode, cluster)
        })
        .map_err(|e| e.to_string())?;
    let mut jobs = std::collections::BTreeSet::new();
    loop {
        probe.tick();
        let open = layers.open("core.poll");
        let polled = driver.poll(cluster).map_err(|e| e.to_string());
        match polled? {
            DriverPoll::NeedJobs(handles) => {
                layers.close(open, "core.poll_jobs");
                jobs.extend(handles.iter().copied());
                probe.tick();
                layers.time("cluster.run", || cluster.run_until_done(&handles));
            }
            DriverPoll::Reoptimizing { until } => {
                layers.close(open, "core.poll_reopt");
                probe.tick();
                layers.time("cluster.run", || cluster.run_until_time(until));
            }
            DriverPoll::Done(report) => {
                layers.close(open, "core.poll_done");
                return Ok((report, jobs.len() as u64));
            }
        }
    }
}

/// Outcome checking shared by the workloads: the digest, the per-query
/// reference results, and the failure count.
#[derive(Default)]
struct Checks {
    digest: Digest,
    reference: BTreeMap<QueryId, u64>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// A query finished: fold it into the digest and compare its result
    /// with the reference (the first instance's, unless calibrated).
    fn done(&mut self, q: QueryId, rec: QueryRecord, result: u64) {
        self.attempted += 1;
        rec.fold(&mut self.digest);
        let reference = *self.reference.entry(q).or_insert(result);
        if reference != result {
            self.failed += 1;
            eprintln!("{}: result differs from the reference result", rec.label);
        }
    }

    /// A query errored or did not finish.
    fn fail(&mut self, what: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.digest.str("failed");
        eprintln!("{what}: {why}");
    }

    fn report(
        self,
        setup_s: f64,
        run_s: f64,
        probe: &Probe,
        layers: Vec<(&'static str, f64)>,
    ) -> RunReport {
        RunReport {
            setup_s,
            run_s,
            probe_s: probe.per_call_s(),
            attempted: self.attempted,
            failed: self.failed,
            digest: self.digest.hex(),
            layers,
        }
    }
}

fn record(report: &QueryReport, met_deadline: Option<bool>) -> QueryRecord {
    QueryRecord {
        label: format!("{} ({})", report.query, report.mode),
        rows: report.rows,
        latency_secs: report.total_secs,
        plans: report.plans.clone(),
        met_deadline,
    }
}

const MB: f64 = (1 << 20) as f64;

/// The counters every workload reads from its registry, under their
/// benchmark names. Byte counters become MB.
fn counters(m: &Metrics) -> Vec<(&'static str, f64)> {
    let c = |name: &str| m.counter(name) as f64;
    let hits = c("metastore.hits");
    let misses = c("metastore.misses");
    vec![
        ("core.orders_considered", c("baseline.orders_considered")),
        ("core.oom_recoveries", c("core.oom_recoveries")),
        ("core.pilot_leaves_piloted", c("pilot.leaves_piloted")),
        ("core.pilot_leaves_reused", c("pilot.leaves_reused")),
        ("stats.metastore_hits", hits),
        ("stats.metastore_misses", misses),
        (
            "stats.metastore_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        (
            "optimizer.expressions_costed",
            c("optimizer.expressions_costed"),
        ),
        ("optimizer.plans_pruned", c("optimizer.plans_pruned")),
        ("exec.shuffle_mb", c("exec.shuffle_bytes") / MB),
        (
            "exec.broadcast_build_mb",
            c("exec.broadcast_build_bytes") / MB,
        ),
        ("exec.join_candidates", c("exec.join_candidates")),
        ("cluster.tasks_retried", c("cluster.tasks_retried")),
        ("service.completed", c("service.completed")),
        (
            "service.queued_at_admission",
            c("service.queued_at_admission"),
        ),
        ("service.rejected", c("service.rejected")),
    ]
}

/// `dynopt_serial` and `beststatic_serial`: one client runs the stream
/// solo, each query on a fresh paper cluster, all sharing one `Dyno`.
fn serial(size: Size, seed: u64, pass: Pass, mode: Mode) -> Result<RunReport, String> {
    let traced = pass == Pass::Traced;
    let mut layers = Layers::new(traced);
    let t0 = Instant::now();
    let (dfs, tpch_rss) = generate(size, &mut layers);
    let mut dyno = Dyno::new(dfs, options(ClusterConfig::paper()));
    if traced {
        dyno.obs.metrics = Metrics::enabled();
    }
    let stream = stream(size, seed);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut probe = Probe::new(true);
    let mut checks = Checks::default();
    let mut jobs = 0;
    for &q in &stream {
        let mut cluster = Cluster::new(dyno.opts.cluster.clone());
        if traced {
            cluster.set_obs(
                Tracer::disabled(),
                dyno.obs.metrics.clone(),
                Timeline::disabled(),
            );
        }
        match solo(&dyno, q, mode, &mut cluster, &mut layers, &mut probe) {
            Ok((report, n)) => {
                jobs += n;
                checks.done(q, record(&report, None), result_hash(&report.result));
            }
            Err(e) => checks.fail(q.name(), &e),
        }
    }
    probe.tick();
    let run_s = t1.elapsed().as_secs_f64() - probe.spent_s();
    if !traced {
        return Ok(checks.report(setup_s, run_s, &probe, Vec::new()));
    }

    // Direct calls, outside the run window, once per distinct query on
    // the same data: the pilot phase with a cold metastore (DYNOPT) and
    // the oracle's order search (BESTSTATICJAQL).
    for &(q, _) in size.mix {
        let prepared = queries::prepare(q);
        let exec = Executor::new(dyno.dfs.clone(), Coord::new(), prepared.udfs.clone());
        let block = JoinBlock::compile(&prepared.spec, &catalog_for(&prepared.spec))
            .map_err(|e| e.to_string())?;
        let mut cluster = Cluster::new(dyno.opts.cluster.clone());
        match mode {
            Mode::Dynopt => {
                let open = layers.open("core.pilot");
                let mut pilots = begin_pilots(&exec, &mut cluster, &block, &dyno.opts.pilot)
                    .map_err(|e| e.to_string())?;
                while let PilotStep::Wait(handles) = pilots.poll(&mut cluster) {
                    cluster.run_until_done(&handles);
                }
                layers.close(open, "core.pilot");
            }
            _ => {
                let model = &dyno.opts.optimizer.cost_model;
                layers.time("core.oracle", || {
                    best_jaql_alias_order(&exec, &mut cluster, &block, model)
                });
            }
        }
    }

    let mut values = vec![
        ("tpch.generate_s", layers.total("tpch.generate")),
        ("tpch.rss_mb", tpch_rss),
        ("query.compile_s", layers.total("query.compile")),
        ("core.poll_jobs_s", layers.total("core.poll_jobs")),
        ("core.poll_reopt_s", layers.total("core.poll_reopt")),
        ("core.pilot_s", layers.total("core.pilot")),
        ("core.oracle_s", layers.total("core.oracle")),
        ("cluster.run_s", layers.total("cluster.run")),
        ("cluster.jobs", jobs as f64),
    ];
    values.extend(counters(&dyno.obs.metrics));
    Ok(checks.report(setup_s, run_s, &probe, values))
}

/// `serve_backlog`: seeded bursty arrivals from a skewed tenant
/// population through one `QueryService` under EDF, each query carrying
/// a deadline of `SLO_MULT` times its calibrated solo latency.
fn serve(size: Size, seed: u64, pass: Pass) -> Result<RunReport, String> {
    let obs_on = pass != Pass::ObsOff;
    let mut layers = Layers::new(pass != Pass::Untraced);
    let t0 = Instant::now();
    let (dfs, tpch_rss) = generate(size, &mut layers);
    let stream = stream(size, seed);

    // Deadline calibration: each distinct query solo on a fresh paper
    // cluster with a cold metastore. Its result is the reference every
    // served instance must reproduce.
    let mut checks = Checks::default();
    let mut solo_secs = BTreeMap::new();
    for &(q, _) in size.mix {
        let dyno = Dyno::new(dfs.clone(), options(ClusterConfig::paper()));
        let mut cluster = Cluster::new(ClusterConfig::paper());
        let (report, _) = solo(
            &dyno,
            q,
            Mode::Dynopt,
            &mut cluster,
            &mut Layers::new(false),
            &mut Probe::new(false),
        )
        .map_err(|e| format!("calibrating {}: {e}", q.name()))?;
        solo_secs.insert(q, report.total_secs);
        checks.reference.insert(q, result_hash(&report.result));
    }
    let arrivals = generate_arrivals(
        &ArrivalSpec {
            count: stream.len(),
            tenants: 1000,
            mean_gap_secs: 20.0,
            tenant_skew: 2.0,
            ..ArrivalSpec::default()
        },
        seed,
    );
    let mut dyno = Dyno::new(
        dfs,
        options(ClusterConfig {
            scheduler: SchedulerPolicy::DeadlineEdf,
            ..ClusterConfig::paper()
        }),
    );
    if obs_on {
        dyno.obs = Obs::enabled();
    }
    let mut service = QueryService::new(
        dyno,
        ServiceConfig {
            quota: TenantQuota {
                max_in_flight: 4,
                slot_secs: f64::INFINITY,
            },
            health: obs_on.then(SloPolicy::default),
            recorder: obs_on.then(RecorderPolicy::default),
            ..ServiceConfig::default()
        },
    );
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut probe = Probe::new(true);
    let mut tickets = Vec::with_capacity(stream.len());
    for (&q, a) in stream.iter().zip(&arrivals) {
        probe.tick();
        layers.time("service.advance", || service.advance_until(a.at));
        let opts = SubmitOpts {
            mode: Mode::Dynopt,
            deadline: Some(a.at + SLO_MULT * solo_secs[&q]),
            priority: 0,
        };
        let ticket = layers.time("service.submit", || service.submit(a.tenant, q, opts));
        tickets.push((q, ticket));
    }
    layers.time("service.drain", || {
        service.drain();
        service.finish();
    });
    probe.tick();

    let mut jobs = 0;
    for (q, ticket) in tickets {
        let status = match ticket {
            Ok(t) => service.poll(t),
            Err(e) => {
                checks.fail(q.name(), &e.to_string());
                continue;
            }
        };
        match status {
            Some(QueryStatus::Done(o)) => {
                jobs += o.jobs;
                checks.done(
                    q,
                    record(&o.report, o.met_deadline),
                    result_hash(&o.report.result),
                );
            }
            other => checks.fail(q.name(), &format!("ended as {other:?}")),
        }
    }
    let (mut completed, mut queued, mut rejected) = (0, 0, 0);
    for (_, t) in service.tenants() {
        completed += t.completed;
        queued += t.queued;
        rejected += t.rejected;
    }
    for n in [completed, queued, rejected] {
        checks.digest.u64(n);
    }

    // The whole-run Chrome trace and every incident, exported and
    // validated: a failure here fails every query of the run.
    let mut obs_values = Vec::new();
    if obs_on {
        let obs = service.obs();
        let json = layers.time("obs.export", || {
            obs.tracer.to_chrome_trace_with(&obs.timeline)
        });
        probe.tick();
        let mut invalid = match layers.time("obs.validate", || validate_chrome_trace(&json)) {
            Ok(s) if s.processes == completed as usize + 1 + usize::from(s.counters > 0) => None,
            Ok(s) => Some(format!("{completed} queries but {} pid lanes", s.processes)),
            Err(e) => Some(e),
        };
        probe.tick();
        let recorder = service.recorder().ok_or("recorder not configured")?;
        layers.time("obs.incidents", || {
            for inc in recorder.incidents() {
                if let Err(e) = validate_incident_json(&inc.to_json()) {
                    invalid.get_or_insert(format!("incident {}: {e}", inc.id));
                }
            }
        });
        if let Some(why) = invalid {
            eprintln!("serve_backlog: invalid observability output: {why}");
            checks.failed = checks.attempted;
        }
        let totals = obs.tracer.totals();
        obs_values = vec![
            ("obs.trace_mb", json.len() as f64 / MB),
            ("obs.spans", totals.spans_recorded as f64),
            ("obs.events", totals.events_recorded as f64),
        ];
    }
    probe.tick();
    let run_s = t1.elapsed().as_secs_f64() - probe.spent_s();
    if pass == Pass::Untraced {
        return Ok(checks.report(setup_s, run_s, &probe, Vec::new()));
    }

    let advance = layers.durations("service.advance");
    let tenth = (advance.len() / 10).max(1);
    let pump = ["service.submit", "service.advance", "service.drain"]
        .iter()
        .map(|n| layers.total(n))
        .sum::<f64>();
    let mut values = vec![
        ("tpch.generate_s", layers.total("tpch.generate")),
        ("tpch.rss_mb", tpch_rss),
        ("cluster.jobs", jobs as f64),
        ("service.submit_s", layers.total("service.submit")),
        ("service.advance_s", layers.total("service.advance")),
        ("service.drain_s", layers.total("service.drain")),
        (
            "service.advance_s.first_tenth",
            advance.iter().take(tenth).sum(),
        ),
        (
            "service.advance_s.last_tenth",
            advance.iter().rev().take(tenth).sum(),
        ),
        ("service.pump_s", pump),
        ("obs.export_s", layers.total("obs.export")),
        ("obs.validate_s", layers.total("obs.validate")),
        ("obs.incidents_s", layers.total("obs.incidents")),
    ];
    values.extend(obs_values);
    values.extend(counters(&service.obs().metrics));
    Ok(checks.report(setup_s, run_s, &probe, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for p in [Pass::Untraced, Pass::Traced, Pass::ObsOff] {
            assert_eq!(Pass::parse(p.name()), Some(p));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn stream_is_a_seeded_permutation_of_the_mix() {
        let size = Workload::DynoptSerial.size(false);
        let a = stream(size, 3);
        assert_eq!(a, stream(size, 3));
        assert_ne!(a, stream(size, 4));
        let mut sorted = a.clone();
        sorted.sort();
        let mut expected: Vec<QueryId> = size.mix.iter().map(|&(q, _)| q).collect();
        expected.extend(expected.clone());
        expected.sort();
        assert_eq!(sorted, expected);
    }

    /// A tiny-size run of every workload and pass: no query fails, the
    /// digest repeats across runs of one seed, and the traced and
    /// obs-off passes leave the simulated outcomes untouched.
    #[test]
    fn tiny_runs_are_correct_deterministic_and_observe_only() {
        for w in Workload::ALL {
            let untraced = run(w, 5, Pass::Untraced, true).expect("untraced run");
            assert!(untraced.attempted > 0, "{}", w.name());
            assert_eq!(untraced.failed, 0, "{}", w.name());
            let again = run(w, 5, Pass::Untraced, true).expect("second run");
            assert_eq!(untraced.digest, again.digest, "{}", w.name());
            let traced = run(w, 5, Pass::Traced, true).expect("traced run");
            assert_eq!(traced.failed, 0, "{}", w.name());
            assert_eq!(untraced.digest, traced.digest, "{}", w.name());
            assert!(!traced.layers.is_empty());
            if w == Workload::ServeBacklog {
                let off = run(w, 5, Pass::ObsOff, true).expect("obs-off run");
                assert_eq!(untraced.digest, off.digest);
            }
        }
    }
}
