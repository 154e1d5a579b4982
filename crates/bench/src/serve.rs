//! The population runner behind `repro serve`, `repro workload
//! --concurrent` and `repro timeline`.
//!
//! [`run_serve`] stands up one [`QueryService`] front door over one
//! shared cluster and replays a seeded arrival stream against it: the
//! workload spec (`name[@mode][xN]`) expands and shuffles exactly like
//! `repro workload`, and an [`ArrivalSource`] decides when each instance
//! arrives, for which tenant, and with what deadline. `serve` draws a
//! bursty/diurnal tenant population in which every submission carries a
//! deadline of `slo_mult ×` its calibrated solo latency, so `--sched edf`
//! has real deadlines to schedule on and the report can score SLO
//! attainment.
//!
//! The one [`ServeReport`] has three views. [`ServeReport::render`] folds
//! the outcomes into the tail-latency columns (p50/p95/p99/p999 over the
//! shared decade-bucket [`Histogram`]), SLO-attainment %, admission
//! accounting (admitted / queued-at-admission / rejected), and per-tenant
//! fairness (Jain's index over per-tenant mean latency, plus the worst
//! tenant's p99). [`crate::workload::render_concurrent`] and
//! [`crate::timeline::render_timeline`] are the other two. Everything is
//! a pure function of `(spec, sf, seed, source, opts)`: reports and the
//! exported Chrome trace are byte-identical across runs — `ci.sh` diffs
//! the final `slo attainment:` line against `repro_output.txt`.

use std::collections::BTreeMap;

use dyno_cluster::{ClusterConfig, SchedulerPolicy};
use dyno_core::{Mode, Strategy};
use dyno_obs::{
    validate_chrome_trace, validate_incident_json, Histogram, Obs, RecorderPolicy, SamplingPolicy,
    SloPolicy, SpanId,
};
use dyno_service::{
    exponential_offsets, generate_arrivals, ArrivalSpec, HealthDigest, QueryService, QueryStatus,
    ServiceConfig, SubmitOpts, TenantId, TenantQuota,
};
use dyno_tpch::queries::{self, QueryId};

use crate::error::BenchError;
use crate::experiments::{make_dyno, ExpScale};
use crate::render::pct;
use crate::workload::shuffled_stream;

/// Where a population's arrivals come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalSource {
    /// One client's stream (`workload --concurrent`, `timeline`): seeded
    /// exponential gaps of mean `arrival_mean`, continuing the shuffle's
    /// generator, every query on tenant 0, with no deadlines and no
    /// admission quota. Only `arrival_mean` and `sched` apply; every
    /// other [`ServeOptions`] knob keeps its default.
    Stream,
    /// A tenant population (`serve`): [`generate_arrivals`] offsets and
    /// skew-drawn tenants, each submission carrying a deadline of
    /// `slo_mult ×` its calibrated solo latency, under the per-tenant
    /// quota.
    Tenants,
}

/// Knobs for the population runner.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Tenant population size (arrivals draw from it with skew 2.0).
    pub tenants: u32,
    /// Slot-scheduling policy on the shared cluster.
    pub sched: SchedulerPolicy,
    /// Baseline mean inter-arrival gap (the diurnal curve and bursts
    /// modulate it; see [`ArrivalSpec`]'s defaults).
    pub arrival_mean: f64,
    /// Deadline multiple: each query's SLO is `slo_mult ×` its calibrated
    /// solo (uncontended) latency.
    pub slo_mult: f64,
    /// Per-tenant in-flight cap (excess queues at admission).
    pub max_in_flight: usize,
    /// Per-tenant slot-seconds budget (exhausted budgets reject).
    pub quota_slot_secs: f64,
    /// Tenant-draw skew exponent (see [`ArrivalSpec::tenant_skew`]);
    /// large values concentrate the stream on tenant 0 — the
    /// heavy-hitter / noisy-neighbor scenario admission control exists
    /// for.
    pub tenant_skew: f64,
    /// Live health monitoring: sliding-window SLO burn-rate alerting
    /// plus a periodic digest of the service's health windows.
    /// Observe-only — outcomes and scheduling are identical either way.
    pub health: bool,
    /// Simulated seconds between health digests (only with `health`).
    pub health_interval: f64,
    /// Tail-based trace sampling: keep span trees only for SLO-violating,
    /// OOM-recovering, and alert-overlapping queries plus a seeded
    /// 1-in-N baseline. `0` disables sampling (keep everything).
    pub sample_one_in: u64,
    /// Override the worker-node count (`--nodes`); `None` keeps the
    /// paper testbed's 14. The event core's indexed ready-queues make
    /// ~1000 nodes / 10k slots tractable.
    pub nodes: Option<usize>,
    /// Queue-time re-planning staleness bound (`--replan-after`), in
    /// simulated seconds: tickets that waited at admission longer than
    /// this re-probe their stats basis before running. `None` disables.
    pub replan_after: Option<f64>,
    /// Incident flight recorder (`--incidents`): freeze a diagnostic
    /// snapshot per alert fire and emit it as a per-incident file.
    /// Implies the live SLO monitor (alerts are what trigger freezes)
    /// but not the `--health` digests. Observe-only.
    pub incidents: bool,
    /// Top-K blamed queries / suspect tenants per incident
    /// (`--incident-top`, default 3).
    pub incident_top: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            tenants: 100,
            sched: SchedulerPolicy::Fifo,
            arrival_mean: 30.0,
            slo_mult: 4.0,
            max_in_flight: 4,
            quota_slot_secs: f64::INFINITY,
            tenant_skew: 2.0,
            health: false,
            health_interval: 300.0,
            sample_one_in: 0,
            nodes: None,
            replan_after: None,
            incidents: false,
            incident_top: 3,
        }
    }
}

/// Latency/SLO aggregation for one tenant.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// The tenant.
    pub tenant: TenantId,
    /// Queries completed.
    pub completed: u64,
    /// Submissions that waited at admission.
    pub queued: u64,
    /// Submissions rejected on quota.
    pub rejected: u64,
    /// Mean submit-to-answer latency.
    pub mean_latency_secs: f64,
    /// Latency distribution (decade buckets).
    pub hist: Histogram,
    /// Slot-seconds charged.
    pub slot_secs: f64,
}

/// One completed query of a population run.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Display label, e.g. `Q7 (DYNOPT)`.
    pub label: String,
    /// Simulated arrival time.
    pub arrival_secs: f64,
    /// Arrival-to-answer latency (includes every wait).
    pub latency_secs: f64,
    /// Summed queue delay of this query's jobs: time each job's first
    /// task waited behind *other* jobs for a free slot.
    pub queue_delay_secs: f64,
    /// Summed per-task slot wait across this query's jobs.
    pub slot_wait_secs: f64,
    /// Jobs the query submitted.
    pub jobs: usize,
    /// The query's root span in `ServeReport::obs`'s tracer.
    pub query_span: SpanId,
}

/// The folded result of one population run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scale factor.
    pub sf: u64,
    /// Arrival/shuffle seed.
    pub seed: u64,
    /// Harness knobs.
    pub opts: ServeOptions,
    /// Arrivals generated (== submissions attempted).
    pub submissions: usize,
    /// Queries completed.
    pub completed: u64,
    /// Submissions that waited at admission before running.
    pub queued_at_admission: u64,
    /// Submissions rejected on slot-seconds quota.
    pub rejected: u64,
    /// Distinct tenants that submitted at least once.
    pub active_tenants: usize,
    /// First arrival to last answer.
    pub makespan_secs: f64,
    /// All completed queries' latencies.
    pub latency: Histogram,
    /// Queries that finished within their deadline.
    pub slo_met: u64,
    /// Queries that carried a deadline (== completed here; every
    /// submission gets one).
    pub slo_total: u64,
    /// Jain's fairness index over per-tenant mean latency (1.0 = every
    /// tenant experiences the same mean; 1/n = one tenant eats it all).
    pub jain_fairness: f64,
    /// The worst per-tenant p99 among tenants with ≥ 1 completion.
    pub worst_tenant_p99: f64,
    /// Tenant owning `worst_tenant_p99`.
    pub worst_tenant: TenantId,
    /// Per-tenant rows for the busiest tenants (by completions), capped
    /// for rendering.
    pub top_tenants: Vec<TenantRow>,
    /// One row per completed query, in submission order.
    pub queries: Vec<QueryRow>,
    /// The run's observability handles: metrics, the span log the
    /// critical paths are built from, and the shared cluster's telemetry
    /// timeline.
    pub obs: Obs,
    /// The whole run as ONE validated Chrome trace: a pid lane per query,
    /// a `service` lane for admission events, and the cluster telemetry
    /// counters.
    pub trace_json: String,
    /// Named pid lanes in the trace (queries + the service lane).
    pub trace_processes: usize,
    /// `"C"` telemetry counter records merged into the trace.
    pub trace_counters: usize,
    /// Live health monitoring output (`--health`).
    pub health: Option<HealthSummary>,
    /// Tail-sampling accounting (`--sample-one-in`).
    pub sampling: Option<SamplingSummary>,
    /// Queue-time re-planning accounting (`--replan-after`):
    /// `(checked, triggered, skipped)` staleness probes on tickets that
    /// out-waited the bound.
    pub replan: Option<(u64, u64, u64)>,
    /// Flight-recorder output (`--incidents`): the summary counts plus
    /// the per-incident artifacts `repro serve` writes to disk.
    pub incidents: Option<IncidentFiles>,
}

/// Frozen incident reports, pre-validated and ready to write: one
/// `(file stem, text render, JSON document)` triple per incident, plus
/// the machine-parseable summary line ci.sh diffs.
#[derive(Debug, Clone)]
pub struct IncidentFiles {
    /// `incidents: opened=.. resolved=.. active=..`.
    pub summary_line: String,
    /// `(file stem, text render, JSON document)` per frozen incident,
    /// in fire order. Every JSON document has already passed
    /// [`validate_incident_json`].
    pub files: Vec<(String, String, String)>,
}

/// Folded health-monitoring output: the periodic digests plus the alert
/// stream, rendered deterministically.
#[derive(Debug, Clone)]
pub struct HealthSummary {
    /// One digest per `health_interval` boundary crossed.
    pub digests: Vec<HealthDigest>,
    /// Rendered alert fire/resolve events, in stamp order.
    pub events: Vec<String>,
    /// Alert fires, total.
    pub fired: u64,
    /// Alert resolves, total.
    pub resolved: u64,
    /// Fast-rule (page) fires.
    pub fast_fired: u64,
    /// Slow-rule (ticket) fires.
    pub slow_fired: u64,
}

/// Tail-sampling accounting: how many query span trees survived
/// settlement and how much of the trace was shed.
#[derive(Debug, Clone)]
pub struct SamplingSummary {
    /// Span trees retained (SLO violators, OOM recoveries, alert
    /// overlap, seeded baseline).
    pub kept: u64,
    /// Span trees dropped at settlement.
    pub dropped: u64,
    /// Weighted fraction of trace records removed (spans count double).
    pub dropped_fraction: f64,
}

/// Calibrate each distinct `(query, mode)`'s solo latency on a fresh,
/// uncontended paper cluster — the baseline deadlines scale from.
fn calibrate(
    pairs: &[(QueryId, Mode)],
    sf: u64,
    scale: ExpScale,
) -> Result<BTreeMap<(QueryId, &'static str), f64>, BenchError> {
    let mut base = BTreeMap::new();
    for &(q, mode) in pairs {
        let key = (q, mode.name());
        if base.contains_key(&key) {
            continue;
        }
        let d = make_dyno(sf, scale, ClusterConfig::paper(), Strategy::Unc(1));
        let prepared = queries::prepare(q);
        let report = d.run(&prepared, mode).map_err(|e| BenchError::QueryFailed {
            query: prepared.spec.name.clone(),
            message: e.to_string(),
        })?;
        base.insert(key, report.total_secs);
    }
    Ok(base)
}

/// Run a population: expand + shuffle the spec, draw the arrivals from
/// `source`, replay them through a [`QueryService`], and fold the
/// outcomes.
pub fn run_serve(
    spec: &str,
    sf: u64,
    seed: u64,
    scale: ExpScale,
    source: ArrivalSource,
    opts: ServeOptions,
) -> Result<ServeReport, BenchError> {
    let (stream, mut rng) = shuffled_stream(spec, seed)?;
    let opts = match source {
        ArrivalSource::Stream => ServeOptions {
            arrival_mean: opts.arrival_mean,
            sched: opts.sched,
            ..ServeOptions::default()
        },
        ArrivalSource::Tenants => opts,
    };

    // `(tenant, arrival time, deadline)` per stream entry.
    let (arrivals, quota): (Vec<(TenantId, f64, Option<f64>)>, TenantQuota) = match source {
        ArrivalSource::Stream => (
            exponential_offsets(&mut rng, stream.len(), opts.arrival_mean)
                .into_iter()
                .map(|at| (0, at, None))
                .collect(),
            TenantQuota::default(),
        ),
        ArrivalSource::Tenants => {
            let base = calibrate(&stream, sf, scale)?;
            let spec = ArrivalSpec {
                count: stream.len(),
                tenants: opts.tenants,
                mean_gap_secs: opts.arrival_mean,
                tenant_skew: opts.tenant_skew,
                ..ArrivalSpec::default()
            };
            let arrivals = generate_arrivals(&spec, seed)
                .iter()
                .zip(&stream)
                .map(|(a, &(q, mode))| {
                    (a.tenant, a.at, Some(a.at + opts.slo_mult * base[&(q, mode.name())]))
                })
                .collect();
            let quota = TenantQuota {
                max_in_flight: opts.max_in_flight,
                slot_secs: opts.quota_slot_secs,
            };
            (arrivals, quota)
        }
    };

    let mut dyno = make_dyno(
        sf,
        scale,
        ClusterConfig {
            scheduler: opts.sched,
            nodes: opts.nodes.unwrap_or(ClusterConfig::paper().nodes),
            ..ClusterConfig::paper()
        },
        Strategy::Unc(1),
    );
    dyno.obs = Obs::enabled();
    let mut service = QueryService::new(
        dyno,
        ServiceConfig {
            quota,
            // `--incidents` implies the SLO monitor (alert fires are
            // what trigger freezes) but not the `--health` digests; the
            // monitor is observe-only either way.
            health: (opts.health || opts.incidents).then(SloPolicy::default),
            sampling: (opts.sample_one_in > 0).then(|| SamplingPolicy {
                one_in: opts.sample_one_in,
                seed,
            }),
            replan_after: opts.replan_after,
            recorder: opts.incidents.then(|| RecorderPolicy {
                top_k: opts.incident_top.max(1),
                ..RecorderPolicy::default()
            }),
        },
    );

    // With `--health` the harness pauses at every `health_interval`
    // boundary to snapshot the live windows. The boundary stops are
    // observe-only: settlements still happen at the same cluster event
    // times, so outcomes match the plain path exactly.
    let mut digests: Vec<HealthDigest> = Vec::new();
    let mut next_digest = opts.health_interval;
    let advance_with_digests =
        |service: &mut QueryService, t: f64, digests: &mut Vec<HealthDigest>, next: &mut f64| {
            while *next <= t {
                service.advance_until(*next);
                digests.extend(service.health_digest());
                *next += opts.health_interval;
            }
            service.advance_until(t);
        };
    let step_digests = opts.health && opts.health_interval > 0.0;

    let mut tickets = Vec::with_capacity(stream.len());
    for (&(q, mode), &(tenant, at, deadline)) in stream.iter().zip(&arrivals) {
        if step_digests {
            advance_with_digests(&mut service, at, &mut digests, &mut next_digest);
        } else {
            service.advance_until(at);
        }
        let ticket = service.submit(tenant, q, SubmitOpts { mode, deadline, priority: 0 });
        tickets.push((tenant, at, ticket.ok()));
    }
    if step_digests {
        while !service.idle() {
            let next = next_digest;
            advance_with_digests(&mut service, next, &mut digests, &mut next_digest);
        }
    }
    service.drain();
    service.finish();

    // Fold the outcomes.
    let mut latency = Histogram::default();
    let mut last_answer = 0.0f64;
    let mut slo_met = 0u64;
    let mut slo_total = 0u64;
    let mut completed = 0u64;
    let mut per_tenant: BTreeMap<TenantId, TenantRow> = BTreeMap::new();
    let mut queries = Vec::with_capacity(tickets.len());
    for (i, &(tenant, arrival_secs, ticket)) in tickets.iter().enumerate() {
        let Some(ticket) = ticket else { continue };
        let status = service.poll(ticket).expect("submitted tickets exist");
        let outcome = match status {
            QueryStatus::Done(o) => o,
            QueryStatus::Failed(message) => {
                return Err(BenchError::QueryFailed {
                    query: format!("stream#{}", i + 1),
                    message,
                })
            }
            other => {
                return Err(BenchError::QueryFailed {
                    query: format!("ticket {}", ticket.0),
                    message: format!("not done after drain: {other:?}"),
                })
            }
        };
        completed += 1;
        last_answer = last_answer.max(outcome.finished_at);
        latency.observe(outcome.latency_secs);
        if let Some(met) = outcome.met_deadline {
            slo_total += 1;
            slo_met += u64::from(met);
        }
        let row = per_tenant.entry(tenant).or_insert_with(|| TenantRow {
            tenant,
            completed: 0,
            queued: 0,
            rejected: 0,
            mean_latency_secs: 0.0,
            hist: Histogram::default(),
            slot_secs: 0.0,
        });
        row.completed += 1;
        row.mean_latency_secs += outcome.latency_secs; // sum; divided below
        row.hist.observe(outcome.latency_secs);
        row.slot_secs += outcome.slot_secs;
        queries.push(QueryRow {
            label: outcome.label,
            arrival_secs,
            latency_secs: outcome.latency_secs,
            queue_delay_secs: outcome.queue_delay_secs,
            slot_wait_secs: outcome.slot_wait_secs,
            jobs: outcome.jobs,
            query_span: outcome.query_span,
        });
    }
    for row in per_tenant.values_mut() {
        row.mean_latency_secs /= row.completed as f64;
        let stats = service.tenant_stats(row.tenant);
        row.queued = stats.queued;
        row.rejected = stats.rejected;
    }

    // Jain's index over per-tenant mean latency.
    let means: Vec<f64> = per_tenant.values().map(|r| r.mean_latency_secs).collect();
    let jain_fairness = if means.is_empty() {
        1.0
    } else {
        let sum: f64 = means.iter().sum();
        let sq: f64 = means.iter().map(|x| x * x).sum();
        (sum * sum) / (means.len() as f64 * sq)
    };
    let (worst_tenant, worst_tenant_p99) = per_tenant
        .values()
        .map(|r| (r.tenant, r.hist.p99()))
        .fold((0, 0.0), |acc, x| if x.1 > acc.1 { x } else { acc });

    let mut top_tenants: Vec<TenantRow> = per_tenant.values().cloned().collect();
    top_tenants.sort_by(|a, b| b.completed.cmp(&a.completed).then(a.tenant.cmp(&b.tenant)));
    top_tenants.truncate(8);

    let rejected = service.obs().metrics.counter("service.rejected");
    let queued_at_admission = service.obs().metrics.counter("service.queued_at_admission");
    let active_tenants = service.tenants().count();
    // Digest stepping overshoots the clock to the boundary after the
    // last answer, so in health mode the makespan comes from the
    // outcomes themselves.
    let makespan_secs = if step_digests { last_answer } else { service.now() };

    let health = opts.health.then(|| {
        let m = service.health_monitor().expect("health configured");
        let metrics = &service.obs().metrics;
        HealthSummary {
            digests,
            events: m.events().iter().map(|e| e.render()).collect(),
            fired: metrics.counter("service.alerts.fired"),
            resolved: metrics.counter("service.alerts.resolved"),
            fast_fired: metrics.counter("service.alerts.fast.fired"),
            slow_fired: metrics.counter("service.alerts.slow.fired"),
        }
    });
    let sampling = (opts.sample_one_in > 0).then(|| {
        let metrics = &service.obs().metrics;
        SamplingSummary {
            kept: metrics.counter("service.trace.kept"),
            dropped: metrics.counter("service.trace.dropped"),
            dropped_fraction: service.obs().tracer.totals().dropped_fraction(),
        }
    });
    let replan = opts.replan_after.map(|_| {
        let metrics = &service.obs().metrics;
        (
            metrics.counter("service.replan.checked"),
            metrics.counter("service.replan.triggered"),
            metrics.counter("service.replan.skipped"),
        )
    });

    // Every frozen incident renders to text and JSON here; the JSON is
    // validated before it can ever reach disk — the same discipline as
    // the Chrome-trace exporter below.
    let incidents = if opts.incidents {
        let rec = service.recorder().expect("recorder configured with --incidents");
        let mut files = Vec::with_capacity(rec.incidents().len());
        for inc in rec.incidents() {
            let json = inc.to_json();
            validate_incident_json(&json)
                .map_err(|e| BenchError::InvalidIncident(format!("incident {}: {e}", inc.id)))?;
            files.push((inc.file_stem(), inc.render(), json));
        }
        Some(IncidentFiles {
            summary_line: rec.summary_line(),
            files,
        })
    } else {
        None
    };

    // One validated Chrome trace for the whole population: every query
    // that KEPT its span tree is a pid lane (all of them unless tail
    // sampling shed some), the service span is one more lane, and the
    // shared cluster's telemetry merges in as counters.
    let obs = service.obs();
    let trace_json = obs.tracer.to_chrome_trace_with(&obs.timeline);
    let summary = validate_chrome_trace(&trace_json).map_err(BenchError::InvalidTrace)?;
    let kept_lanes = sampling.as_ref().map_or(completed, |s| s.kept) as usize;
    let expected = kept_lanes + 1 + usize::from(summary.counters > 0);
    if summary.processes != expected {
        return Err(BenchError::InvalidTrace(format!(
            "{kept_lanes} kept queries + service lane but {} named pid lanes",
            summary.processes
        )));
    }

    Ok(ServeReport {
        sf,
        seed,
        opts,
        submissions: tickets.len(),
        completed,
        queued_at_admission,
        rejected,
        active_tenants,
        makespan_secs,
        latency,
        slo_met,
        slo_total,
        jain_fairness,
        worst_tenant_p99,
        worst_tenant,
        top_tenants,
        queries,
        obs: obs.clone(),
        trace_json,
        trace_processes: kept_lanes + 1,
        trace_counters: summary.counters,
        health,
        sampling,
        replan,
        incidents,
    })
}

impl ServeReport {
    /// SLO attainment in `[0, 1]` (1.0 when nothing carried a deadline).
    pub fn slo_attainment(&self) -> f64 {
        if self.slo_total == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.slo_total as f64
        }
    }

    /// The machine-parseable final line `ci.sh` diffs against
    /// `repro_output.txt`.
    pub fn slo_line(&self) -> String {
        format!(
            "slo attainment: {}/{} ({})",
            self.slo_met,
            self.slo_total,
            pct(self.slo_attainment())
        )
    }

    /// The machine-parseable alert summary (`--health` only) — ci.sh's
    /// health smoke diffs this exact line.
    pub fn alerts_line(&self) -> Option<String> {
        self.health.as_ref().map(|h| {
            format!(
                "alerts: fired={} resolved={} (fast {}, slow {})",
                h.fired, h.resolved, h.fast_fired, h.slow_fired
            )
        })
    }

    /// The machine-parseable incident summary (`--incidents` only) —
    /// ci.sh's incident smoke diffs this exact line.
    pub fn incidents_line(&self) -> Option<String> {
        self.incidents.as_ref().map(|i| i.summary_line.clone())
    }

    /// Render the full deterministic text report.
    pub fn render(&self) -> String {
        let secs = |x: f64| format!("{x:.1}s");
        let mut out = String::new();
        out.push_str(&format!(
            "== serve: {} submissions, SF={}, seed={}, tenants={}, sched={}, \
             slo-mult={}, max-in-flight={} ==\n",
            self.submissions,
            self.sf,
            self.seed,
            self.opts.tenants,
            self.opts.sched.name(),
            self.opts.slo_mult,
            self.opts.max_in_flight,
        ));
        out.push_str(&format!(
            "admission: {} completed, {} queued-at-admission, {} rejected, \
             {} active tenants\n",
            self.completed, self.queued_at_admission, self.rejected, self.active_tenants,
        ));
        out.push_str(&format!(
            "latency (n={}): {}  makespan {}\n",
            self.latency.count,
            self.latency.percentile_cols(&[0.50, 0.95, 0.99, 0.999], 0, "  "),
            secs(self.makespan_secs),
        ));
        out.push_str(&format!(
            "fairness: jain {:.3} over {} tenants, worst-tenant p99 {} (tenant {})\n",
            self.jain_fairness,
            self.active_tenants,
            secs(self.worst_tenant_p99),
            self.worst_tenant,
        ));
        out.push_str("busiest tenants:\n");
        for r in &self.top_tenants {
            out.push_str(&format!(
                "  tenant {:>5}  completed {:>4}  queued {:>3}  rejected {:>3}  \
                 mean {:>9}  {}  slot-secs {:>10}\n",
                r.tenant,
                r.completed,
                r.queued,
                r.rejected,
                secs(r.mean_latency_secs),
                r.hist.percentile_cols(&[0.99], 9, ""),
                secs(r.slot_secs),
            ));
        }
        if let Some(h) = &self.health {
            out.push_str(&format!(
                "health: {} digests @ {}s, {} fired ({} fast, {} slow), {} resolved\n",
                h.digests.len(),
                self.opts.health_interval,
                h.fired,
                h.fast_fired,
                h.slow_fired,
                h.resolved,
            ));
            for d in &h.digests {
                out.push_str(&format!(
                    "  t={:>9}  n {:>4}  {}  fast-burn {:>5.1}x  slow-burn {:>5.1}x  \
                     rej {:>3}  queue {:>6.1}  util {:>5.2}  alerts {}\n",
                    secs(d.at),
                    d.completions,
                    d.latency.percentile_cols(&[0.50, 0.95], 0, "  "),
                    d.fast_burn,
                    d.slow_burn,
                    d.rejections,
                    d.queue_depth_mean,
                    d.slot_util_mean,
                    d.active_alerts,
                ));
            }
            for e in &h.events {
                out.push_str(&format!("  {e}\n"));
            }
            out.push_str(self.alerts_line().as_deref().unwrap_or_default());
            out.push('\n');
        }
        if let Some(s) = &self.sampling {
            out.push_str(&format!(
                "sampled trace: kept {}/{} span trees ({} of records dropped)\n",
                s.kept,
                s.kept + s.dropped,
                pct(s.dropped_fraction),
            ));
        }
        if let Some((checked, triggered, skipped)) = self.replan {
            out.push_str(&format!(
                "replan: checked {checked}, triggered {triggered}, skipped {skipped} \
                 (staleness bound {}s)\n",
                self.opts.replan_after.unwrap_or_default(),
            ));
        }
        out.push_str(&format!(
            "chrome trace: {} named pid lanes, {} telemetry counters, balanced (validated)\n",
            self.trace_processes, self.trace_counters
        ));
        if let Some(inc) = &self.incidents {
            out.push_str(&inc.summary_line);
            out.push('\n');
            for (stem, text, _) in &inc.files {
                let head = text.lines().next().unwrap_or_default();
                out.push_str(&format!(
                    "  {stem}: {}\n",
                    head.trim_matches(|c: char| c == '=' || c == ' ')
                ));
            }
        }
        // The SLO line stays LAST — ci.sh keys on it.
        out.push_str(&self.slo_line());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_common::{prop, Rng};

    fn coarse() -> ExpScale {
        ExpScale { divisor: 200_000 }
    }

    fn small_opts() -> ServeOptions {
        ServeOptions {
            tenants: 16,
            arrival_mean: 10.0,
            max_in_flight: 2,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn serve_completes_scores_slo_and_validates_trace() {
        let r = run_serve("q2x6,q10x4", 1, 7, coarse(), ArrivalSource::Tenants, small_opts())
            .unwrap();
        assert_eq!(r.submissions, 10);
        assert_eq!(r.completed, 10, "nothing rejected without a quota");
        assert_eq!(r.rejected, 0);
        assert_eq!(r.slo_total, 10, "every submission carries a deadline");
        assert!(r.slo_met <= r.slo_total);
        assert!(r.latency.count == 10);
        assert!(r.latency.p50() > 0.0);
        assert!(r.latency.p50() <= r.latency.p999());
        assert!((0.0..=1.0).contains(&r.slo_attainment()));
        assert!(r.jain_fairness > 0.0 && r.jain_fairness <= 1.0 + 1e-12);
        assert!(r.active_tenants >= 1 && r.active_tenants <= 16);
        assert!(!r.top_tenants.is_empty());
        validate_chrome_trace(&r.trace_json).unwrap();
        let text = r.render();
        assert!(text.contains("== serve: 10 submissions"));
        assert!(text.contains("p999"));
        assert!(
            text.lines().last().unwrap().starts_with("slo attainment: "),
            "last line is the ci.sh diff line"
        );
    }

    #[test]
    fn tight_in_flight_cap_queues_at_admission() {
        // One tenant (population 1), cap 1, simultaneous-ish arrivals:
        // later submissions must wait at the front door.
        let r = run_serve(
            "q2x4",
            1,
            3,
            coarse(),
            ArrivalSource::Tenants,
            ServeOptions {
                tenants: 1,
                arrival_mean: 1.0,
                max_in_flight: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        assert!(r.queued_at_admission > 0, "cap 1 must queue the pile-up");
        assert_eq!(r.completed, 4, "queued is delayed, not dropped");
    }

    #[test]
    fn slot_seconds_quota_rejects_over_budget_tenants() {
        let r = run_serve(
            "q2x6",
            1,
            3,
            coarse(),
            ArrivalSource::Tenants,
            ServeOptions {
                tenants: 1,
                arrival_mean: 0.0,
                max_in_flight: 1,
                quota_slot_secs: 1.0,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        // Arrivals at t=0 are all admitted before any slot-seconds land;
        // with a 1-slot-second budget nothing else ever is — but the cap-1
        // queue serializes them, so later *completions* still happen.
        // The quota bites on any submission after the first completion.
        assert_eq!(r.submissions, 6);
        assert_eq!(r.completed + r.rejected, 6);
        assert!(r.completed >= 1);
        let text = r.render();
        assert!(text.contains(&format!("{} rejected", r.rejected)));
    }

    /// Health monitoring is observe-only: the same run with `--health`
    /// on reports the same outcomes, and the health digests/alert
    /// stream render deterministically.
    #[test]
    fn health_run_matches_plain_outcomes_and_renders_digests() {
        let plain =
            run_serve("q2x6,q10x4", 1, 7, coarse(), ArrivalSource::Tenants, small_opts())
                .unwrap();
        let health = run_serve(
            "q2x6,q10x4",
            1,
            7,
            coarse(),
            ArrivalSource::Tenants,
            ServeOptions {
                health: true,
                health_interval: 120.0,
                ..small_opts()
            },
        )
        .unwrap();
        assert_eq!(plain.slo_line(), health.slo_line(), "observe-only");
        assert_eq!(plain.completed, health.completed);
        assert_eq!(plain.latency.buckets, health.latency.buckets);
        assert_eq!(plain.makespan_secs, health.makespan_secs);
        let h = health.health.as_ref().expect("health summary present");
        assert!(!h.digests.is_empty(), "a digest per crossed boundary");
        let text = health.render();
        assert!(text.contains("health: "), "{text}");
        assert!(text.contains("fast-burn "), "{text}");
        assert!(
            text.contains(&health.alerts_line().unwrap()),
            "alerts line rendered: {text}"
        );
        assert!(
            text.lines().last().unwrap().starts_with("slo attainment: "),
            "slo line stays last"
        );
        assert!(plain.health.is_none() && plain.alerts_line().is_none());
    }

    /// Satellite prop (b): the alert stream — fire/resolve events with
    /// burn rates — is byte-identical across identical seeds.
    #[test]
    fn alert_stream_is_byte_identical_across_identical_seeds() {
        prop::check(
            "alert determinism",
            2,
            |g| g.gen_range(0..1000u64),
            |&seed| {
                let run_once = || {
                    run_serve(
                        "q2x4,q10x2",
                        1,
                        seed,
                        coarse(),
                        ArrivalSource::Tenants,
                        ServeOptions {
                            health: true,
                            health_interval: 120.0,
                            slo_mult: 1.0, // tight SLOs so alerts can fire
                            ..small_opts()
                        },
                    )
                    .map_err(|e| e.to_string())
                };
                let a = run_once()?;
                let b = run_once()?;
                let (ha, hb) = (a.health.as_ref().unwrap(), b.health.as_ref().unwrap());
                if ha.events != hb.events {
                    return Err("same seed produced different alert events".to_owned());
                }
                if (ha.fired, ha.resolved) != (hb.fired, hb.resolved) {
                    return Err("same seed produced different alert counts".to_owned());
                }
                if a.render() != b.render() {
                    return Err("same seed produced different reports".to_owned());
                }
                Ok(())
            },
        );
    }

    /// Satellite prop (c): the tail-sampled trace validates, is a strict
    /// subset of the unsampled trace from an identical run, and retains
    /// every SLO violator's span tree.
    #[test]
    fn sampled_trace_is_a_valid_subset_retaining_all_violators() {
        prop::check(
            "tail sampling subset",
            2,
            |g| g.gen_range(0..1000u64),
            |&seed| {
                let opts = ServeOptions {
                    slo_mult: 1.2, // a mix of met and missed deadlines
                    ..small_opts()
                };
                let full = run_serve("q2x6,q10x4", 1, seed, coarse(), ArrivalSource::Tenants, opts)
                    .map_err(|e| e.to_string())?;
                let sampled = run_serve(
                    "q2x6,q10x4",
                    1,
                    seed,
                    coarse(),
                    ArrivalSource::Tenants,
                    ServeOptions {
                        sample_one_in: 1 << 40, // baseline keeps nothing
                        ..opts
                    },
                )
                .map_err(|e| e.to_string())?;
                if sampled.slo_line() != full.slo_line() {
                    return Err("sampling changed outcomes".to_owned());
                }
                let s = sampled.sampling.as_ref().expect("sampling summary");
                if s.kept + s.dropped != sampled.completed {
                    return Err(format!(
                        "every settlement decides: {} + {} != {}",
                        s.kept, s.dropped, sampled.completed
                    ));
                }
                let violators = sampled.slo_total - sampled.slo_met;
                if s.kept < violators {
                    return Err(format!(
                        "{} violators but only {} span trees kept",
                        violators, s.kept
                    ));
                }
                if s.dropped > 0 && !(s.dropped_fraction > 0.0 && s.dropped_fraction < 1.0) {
                    return Err(format!(
                        "implausible reduction {}",
                        s.dropped_fraction
                    ));
                }
                dyno_obs::validate_trace_subset(&sampled.trace_json, &full.trace_json)
                    .map_err(|e| format!("subset validation failed: {e}"))?;
                Ok(())
            },
        );
    }

    /// Tentpole acceptance: a seeded flood run with `--incidents` emits
    /// at least one incident whose JSON passes the in-repo validator,
    /// leaves the `slo attainment:` and `alerts:` lines byte-identical
    /// to the recorder-off run, and produces byte-identical per-incident
    /// files across identical seeds.
    #[test]
    fn incident_run_is_observe_only_and_emits_validated_files() {
        let flood = |incidents: bool| {
            run_serve(
                "q2x4,q10x2",
                1,
                11,
                coarse(),
                ArrivalSource::Tenants,
                ServeOptions {
                    health: true,
                    health_interval: 120.0,
                    slo_mult: 1.0, // tight SLOs so the burn rules trip
                    incidents,
                    ..small_opts()
                },
            )
            .unwrap()
        };
        let off = flood(false);
        let on = flood(true);
        assert_eq!(off.slo_line(), on.slo_line(), "recorder is observe-only");
        assert_eq!(off.alerts_line(), on.alerts_line(), "alert stream untouched");
        assert!(off.incidents.is_none() && off.incidents_line().is_none());
        let inc = on.incidents.as_ref().expect("incident summary present");
        let fired = on.health.as_ref().unwrap().fired;
        assert!(fired > 0, "the flood must trip the burn-rate alerts");
        assert!(!inc.files.is_empty(), "every fire freezes an incident");
        assert!(inc.summary_line.starts_with("incidents: opened="));
        for (i, (stem, text, json)) in inc.files.iter().enumerate() {
            assert_eq!(stem, &format!("incident-{:04}", i + 1));
            assert!(text.starts_with(&format!("== incident {}", i + 1)));
            let summary = validate_incident_json(json).unwrap();
            assert!(summary.samples >= 1);
        }
        let text = on.render();
        assert!(text.contains(&inc.summary_line), "summary line rendered");
        assert!(text.contains("  incident-0001: "), "per-incident lines rendered");
        assert!(
            text.lines().last().unwrap().starts_with("slo attainment: "),
            "slo line stays last"
        );
        // Identical seeds produce byte-identical incident files.
        let again = flood(true);
        let flat = |r: &ServeReport| {
            r.incidents
                .as_ref()
                .unwrap()
                .files
                .iter()
                .map(|(s, t, j)| format!("{s}\n{t}\n{j}"))
                .collect::<Vec<_>>()
                .join("\n---\n")
        };
        assert_eq!(flat(&on), flat(&again), "incident files must be byte-identical");
        assert_eq!(on.render(), again.render());
    }

    /// `--incidents` without `--health` still works: the implied SLO
    /// monitor drives the freezes, the digests stay off, and outcomes
    /// match the plain run exactly.
    #[test]
    fn incidents_flag_implies_the_monitor_but_not_the_digests() {
        let opts = ServeOptions {
            slo_mult: 1.0,
            incidents: true,
            ..small_opts()
        };
        let r = run_serve("q2x4,q10x2", 1, 11, coarse(), ArrivalSource::Tenants, opts).unwrap();
        assert!(r.health.is_none(), "no --health, no digest block");
        assert!(r.incidents.is_some(), "the recorder still ran");
        let plain = run_serve(
            "q2x4,q10x2",
            1,
            11,
            coarse(),
            ArrivalSource::Tenants,
            ServeOptions {
                slo_mult: 1.0,
                ..small_opts()
            },
        )
        .unwrap();
        assert_eq!(plain.slo_line(), r.slo_line(), "observe-only");
    }

    /// Tentpole acceptance: `repro serve` with a fixed seed is
    /// byte-identical across runs — report AND Chrome trace.
    #[test]
    fn serve_is_byte_identical_across_identical_seeds() {
        prop::check(
            "serve determinism",
            2,
            |g| {
                (
                    g.gen_range(0..1000u64),
                    if g.gen_bool(0.5) {
                        SchedulerPolicy::DeadlineEdf
                    } else {
                        SchedulerPolicy::Fifo
                    },
                )
            },
            |&(seed, sched)| {
                let run_once = || {
                    run_serve(
                        "q2x3,q10x2",
                        1,
                        seed,
                        coarse(),
                        ArrivalSource::Tenants,
                        ServeOptions {
                            sched,
                            ..small_opts()
                        },
                    )
                    .map_err(|e| e.to_string())
                    .map(|r| (r.render(), r.trace_json))
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
}
