//! The query service: one shared cluster, many tenants, three verbs.
//!
//! [`QueryService::submit`] admits (or queues, or rejects) a query for a
//! tenant; [`QueryService::poll`] reports a ticket's status without
//! driving anything; [`QueryService::advance_until`] /
//! [`QueryService::drain`] pump the shared simulated clock, interleaving
//! every admitted driver exactly like the concurrent workload runner —
//! the service *is* that pump loop, grown an admission stage.
//!
//! ## Lifecycle of a ticket
//!
//! ```text
//! submit ──► Rejected (slot-seconds quota exhausted; typed error)
//!    │
//!    ├────► Queued   (tenant at max in-flight; waits at admission)
//!    │         │ a slot frees
//!    ▼         ▼
//!  Running (a QueryDriver on the shared cluster, polled under the
//!    │      tenant's SubmitTag so Priority/DeadlineEdf see it)
//!    ▼
//!  Done (latency, slot-seconds charged to the tenant, SLO verdict)
//! ```
//!
//! `cancel` detaches a ticket at any pre-Done point: a queued ticket
//! simply leaves the queue; a running ticket closes its Query span and
//! drops its driver (cluster jobs already in flight run to completion —
//! Hadoop semantics: a killed client does not revoke submitted jobs —
//! and their slot-seconds are still charged to the tenant).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dyno_cluster::{Cluster, JobHandle, SimTime, SubmitTag};
use dyno_core::{DriverPoll, Dyno, Mode, QueryDriver, QueryReport};
use dyno_obs::trace::NO_SPAN;
use dyno_obs::{
    AlertEvent, AlertKind, AlertRuleKind, AlertScope, CriticalPath, FlightRecorder, HealthMonitor,
    Histogram, Obs, QueryRecord, RecorderPolicy, SamplingPolicy, SloPolicy, SpanId, SpanKind,
    StateSample, TenantLoad, WindowSpec, WindowedCounter, WindowedGauge, WindowedHistogram,
};
use dyno_tpch::queries::{self, QueryId};

/// A tenant of the service. Plain integers: the population-scale harness
/// draws thousands of them from a skewed distribution.
pub type TenantId = u32;

/// A submitted query's ticket — the handle `poll` and `cancel` take.
/// Monotonically allocated in submission order, which also makes it the
/// FIFO tie-breaker for admission-queue promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryTicket(pub u64);

/// Per-tenant admission limits. The defaults are "unlimited": admission
/// control only acts where the deployment configures it.
#[derive(Debug, Clone, Copy)]
pub struct TenantQuota {
    /// Queries a tenant may have running concurrently; submissions beyond
    /// the cap wait in the admission queue (accounted, not rejected).
    pub max_in_flight: usize,
    /// Cumulative slot-seconds (map + reduce) a tenant may consume.
    /// Charged when a query's jobs finish; once `used >= quota`, further
    /// submissions are rejected with [`AdmitError::QuotaExhausted`].
    pub slot_secs: f64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_in_flight: usize::MAX,
            slot_secs: f64::INFINITY,
        }
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Admission limits, applied uniformly to every tenant.
    pub quota: TenantQuota,
    /// Live SLO monitoring and burn-rate alerting (DESIGN.md §16).
    /// Observe-only: enabling it never changes scheduling, admission, or
    /// any outcome — only the alert stream, `service.alerts.*` metrics,
    /// and the health digest.
    pub health: Option<SloPolicy>,
    /// Tail-based trace sampling at query settlement. `None` keeps every
    /// span tree (the pre-sampling behavior); `Some` keeps SLO-violating,
    /// OOM-recovering, and alert-overlapping queries plus the seeded
    /// 1-in-N baseline, and drops the rest from the trace.
    pub sampling: Option<SamplingPolicy>,
    /// Queue-time re-planning staleness bound (DESIGN.md §17). When set,
    /// `submit` captures the statistics basis the query's initial plan
    /// would be costed under ([`Dyno::stats_basis`] — the plan cache's
    /// validation vector), and a ticket leaving the admission queue after
    /// waiting *longer* than this bound re-probes it: any moved version
    /// counts `service.replan.triggered` and stamps a `replan` trace
    /// event before optimization runs against the fresh statistics; an
    /// unmoved basis counts `service.replan.skipped` (with `reuse_plans`
    /// on, that is exactly the case the plan cache serves without a
    /// search). `None` (default) skips basis capture entirely.
    pub replan_after: Option<f64>,
    /// Incident flight recorder (DESIGN.md §18): a bounded ring of recent
    /// settlements, rejections, and periodic state samples that freezes a
    /// deterministic [`IncidentReport`](dyno_obs::IncidentReport) when a
    /// `HealthMonitor` alert fires and closes it on resolve. Observe-only:
    /// the recorder reads at the existing pump beats and settlement
    /// points, never advances the clock, and never influences admission
    /// or scheduling. Pairs with `health` — without an [`SloPolicy`] no
    /// alert can fire, so it only accumulates state samples.
    pub recorder: Option<RecorderPolicy>,
}

/// Per-submission options: how to run the query and how urgently.
#[derive(Debug, Clone, Copy)]
pub struct SubmitOpts {
    /// Execution mode (default DYNOPT).
    pub mode: Mode,
    /// Absolute simulated-time deadline. Flows into the cluster's
    /// [`SubmitTag`] for `DeadlineEdf` slot grants and into the SLO
    /// verdict of the [`QueryOutcome`].
    pub deadline: Option<SimTime>,
    /// Priority for the `Priority` scheduling policy (larger wins).
    pub priority: u32,
}

impl Default for SubmitOpts {
    fn default() -> Self {
        SubmitOpts {
            mode: Mode::Dynopt,
            deadline: None,
            priority: 0,
        }
    }
}

/// Why a submission was refused at the front door.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The tenant's cumulative slot-seconds consumption reached its
    /// quota before this submission.
    QuotaExhausted {
        /// The refusing tenant.
        tenant: TenantId,
        /// Slot-seconds already charged.
        used: f64,
        /// The configured budget.
        quota: f64,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::QuotaExhausted { tenant, used, quota } => write!(
                f,
                "tenant {tenant} rejected: {used:.1} slot-seconds used of {quota:.1} quota"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// The completed half of a ticket: everything the population harness
/// folds into its tail-latency and SLO columns.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Display label, e.g. `Q7 (DYNOPT)`.
    pub label: String,
    /// Simulated time `submit` was called.
    pub submitted_at: SimTime,
    /// Simulated time the driver started (equals `submitted_at` unless
    /// the ticket waited at admission).
    pub started_at: SimTime,
    /// Simulated time the answer was ready.
    pub finished_at: SimTime,
    /// Submit-to-answer latency — *includes* admission queueing.
    pub latency_secs: f64,
    /// Map + reduce slot-seconds this query's jobs consumed (what the
    /// tenant's quota is charged).
    pub slot_secs: f64,
    /// Rows in the final result.
    pub rows: u64,
    /// Jobs the query submitted to the shared cluster.
    pub jobs: usize,
    /// `Some(true)` iff a deadline was set and the answer beat it.
    pub met_deadline: Option<bool>,
    /// Summed queue delay of this query's jobs: time each job's first
    /// task waited behind *other* jobs for a free slot.
    pub queue_delay_secs: f64,
    /// Summed per-task slot wait across this query's jobs.
    pub slot_wait_secs: f64,
    /// The root Query span this query's work nested under — workload
    /// folds build critical-path decompositions from it.
    pub query_span: SpanId,
    /// The driver's full [`QueryReport`] (result rows, per-phase timing,
    /// plan history) — what `Dyno::run` would have returned.
    pub report: QueryReport,
}

/// What [`QueryService::poll`] reports for a ticket.
#[derive(Debug, Clone)]
pub enum QueryStatus {
    /// Admitted, waiting at admission for the tenant's in-flight cap.
    Queued,
    /// A live driver on the shared cluster.
    Running,
    /// Finished; the outcome is final.
    Done(Box<QueryOutcome>),
    /// Detached by [`QueryService::cancel`] before completing.
    Canceled,
    /// The driver failed (query compilation or execution error).
    Failed(String),
}

/// Per-tenant admission accounting, readable at any time.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantStats {
    /// Queries currently running.
    pub in_flight: usize,
    /// Slot-seconds charged so far.
    pub slot_secs_used: f64,
    /// Submissions admitted (straight to Running).
    pub admitted: u64,
    /// Submissions that waited at admission.
    pub queued: u64,
    /// Submissions rejected on quota.
    pub rejected: u64,
    /// Queries completed.
    pub completed: u64,
}

/// What one running ticket is waiting for on the shared clock.
enum Wait {
    /// Ready to poll right away.
    Poll,
    /// Waiting on these cluster jobs.
    Jobs(Vec<JobHandle>),
    /// Client-side work (optimizer call, OOM penalty) until this time.
    Time(SimTime),
}

/// A canceled-while-running ticket's unfinished business: the cluster
/// still owes its submitted jobs (Hadoop semantics — a dead client does
/// not revoke them), so the span tree closes and the slot-seconds charge
/// lands only once those jobs finish.
struct CancelSettle {
    span: SpanId,
    jobs: BTreeSet<JobHandle>,
    at: SimTime,
}

enum EntryState {
    Queued,
    Running {
        driver: Box<QueryDriver>,
        wait: Wait,
        jobs: BTreeSet<JobHandle>,
    },
    Done(Box<QueryOutcome>),
    Canceled { settle: Option<CancelSettle> },
    Failed(String),
}

struct Entry {
    tenant: TenantId,
    query: QueryId,
    label: String,
    opts: SubmitOpts,
    submitted_at: SimTime,
    /// The statistics basis captured at submit time (leaf signature →
    /// metastore stats version), present only when queue-time re-planning
    /// is configured. Re-probed when the ticket leaves the admission
    /// queue after waiting past the staleness bound.
    basis: Option<Vec<(String, u64)>>,
    state: EntryState,
}

/// The live-health machinery (DESIGN.md §16): sliding windows fed by the
/// pump loop, the burn-rate monitor, and the bookkeeping for stamping
/// alert events into the trace exactly once.
struct HealthState {
    monitor: HealthMonitor,
    /// Global submit-to-answer latency over the fast (short) window.
    latency_fast: WindowedHistogram,
    /// Global latency over the slow (long) window.
    latency_slow: WindowedHistogram,
    /// Per-tenant latency over the slow window (created on first
    /// completion; the digest and future per-tenant surfaces read it).
    tenant_latency: BTreeMap<TenantId, WindowedHistogram>,
    /// Admission rejections over the fast window.
    rejections: WindowedCounter,
    /// Queued work: admission-queued tickets + cluster pending jobs.
    queue_depth: WindowedGauge,
    /// Busy map slots as a fraction of capacity, time-weighted.
    slot_util: WindowedGauge,
    /// Alert events already stamped into the trace and metrics.
    emitted: usize,
}

impl HealthState {
    fn new(policy: SloPolicy) -> Self {
        let fast = WindowSpec { secs: policy.fast.window_secs, buckets: policy.buckets };
        let slow = WindowSpec { secs: policy.slow.window_secs, buckets: policy.buckets };
        HealthState {
            monitor: HealthMonitor::new(policy),
            latency_fast: WindowedHistogram::new(fast),
            latency_slow: WindowedHistogram::new(slow),
            tenant_latency: BTreeMap::new(),
            rejections: WindowedCounter::new(fast),
            queue_depth: WindowedGauge::new(fast),
            slot_util: WindowedGauge::new(fast),
            emitted: 0,
        }
    }
}

/// The incident flight recorder plus its own cursor over the alert
/// stream. The cursor is independent of [`HealthState::emitted`] (which
/// tracks trace/metrics stamping): both consume the same
/// `HealthMonitor::events()` slice, each exactly once.
struct RecorderState {
    recorder: FlightRecorder,
    /// Alert events already delivered to [`FlightRecorder::beat`].
    consumed: usize,
}

/// A point-in-time snapshot of the live health windows — what
/// `repro serve --health` prints at each digest interval.
#[derive(Debug, Clone)]
pub struct HealthDigest {
    /// Simulated time of the snapshot.
    pub at: SimTime,
    /// Completions inside the fast window.
    pub completions: u64,
    /// Global latency over the fast window.
    pub latency: Histogram,
    /// Global fast-rule burn rate (multiples of the error budget).
    pub fast_burn: f64,
    /// Global slow-rule burn rate.
    pub slow_burn: f64,
    /// Admission rejections inside the fast window.
    pub rejections: u64,
    /// Time-weighted mean queued work (admission queue + pending jobs).
    pub queue_depth_mean: f64,
    /// Time-weighted mean map-slot utilization in `[0, 1]`.
    pub slot_util_mean: f64,
    /// Currently-firing (scope, rule) alerts.
    pub active_alerts: usize,
}

/// The front door. Owns the [`Dyno`] (shared metastore, plan cache, obs
/// handles) and the one shared [`Cluster`] every tenant's jobs contend
/// on. Single-threaded and deterministic by construction: the only clock
/// is the cluster's simulated clock, advanced explicitly by
/// [`QueryService::advance_until`] / [`QueryService::drain`].
pub struct QueryService {
    dyno: Dyno,
    cluster: Cluster,
    quota: TenantQuota,
    entries: BTreeMap<u64, Entry>,
    next_ticket: u64,
    tenants: BTreeMap<TenantId, TenantStats>,
    /// Root span every admission-control event hangs off — its own pid
    /// lane ("service") in the Chrome export, alongside the query lanes.
    /// `NO_SPAN` when tracing is off; service events are skipped in that
    /// case so they never attach to a nonexistent span.
    service_span: SpanId,
    finished: bool,
    health: Option<HealthState>,
    sampling: Option<SamplingPolicy>,
    replan_after: Option<f64>,
    recorder: Option<RecorderState>,
}

impl QueryService {
    /// Stand up a service over `dyno`'s data and observability handles.
    /// The shared cluster is built from `dyno.opts.cluster` (set its
    /// `scheduler` to `Priority`/`DeadlineEdf` for SLA-aware grants).
    pub fn new(dyno: Dyno, cfg: ServiceConfig) -> Self {
        let mut cluster = Cluster::new(dyno.opts.cluster.clone());
        cluster.set_obs(
            dyno.obs.tracer.clone(),
            dyno.obs.metrics.clone(),
            dyno.obs.timeline.clone(),
        );
        let service_span = if dyno.obs.tracer.is_enabled() {
            dyno.obs
                .tracer
                .start_span(NO_SPAN, SpanKind::Phase, "service", cluster.now())
        } else {
            NO_SPAN
        };
        QueryService {
            dyno,
            cluster,
            quota: cfg.quota,
            entries: BTreeMap::new(),
            next_ticket: 0,
            tenants: BTreeMap::new(),
            service_span,
            finished: false,
            health: cfg.health.map(HealthState::new),
            sampling: cfg.sampling,
            replan_after: cfg.replan_after,
            recorder: cfg.recorder.map(|policy| RecorderState {
                recorder: FlightRecorder::new(policy),
                consumed: 0,
            }),
        }
    }

    /// The underlying [`Dyno`] — shared metastore, plan cache, data, and
    /// observability handles.
    pub fn dyno(&self) -> &Dyno {
        &self.dyno
    }

    /// The shared simulated clock.
    pub fn now(&self) -> SimTime {
        self.cluster.now()
    }

    /// The service's observability handles (tracer, metrics, timeline).
    pub fn obs(&self) -> &Obs {
        &self.dyno.obs
    }

    /// Admission accounting for one tenant (zeros if never seen).
    pub fn tenant_stats(&self, tenant: TenantId) -> TenantStats {
        self.tenants.get(&tenant).copied().unwrap_or_default()
    }

    /// Every tenant that ever submitted, with its accounting.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, &TenantStats)> {
        self.tenants.iter().map(|(&t, s)| (t, s))
    }

    /// The live SLO monitor, when health monitoring is configured —
    /// alert events, intervals, and per-scope burn rates.
    pub fn health_monitor(&self) -> Option<&HealthMonitor> {
        self.health.as_ref().map(|h| &h.monitor)
    }

    /// The incident flight recorder, when configured — frozen incident
    /// reports, ring occupancy, and the `incidents:` summary line.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref().map(|r| &r.recorder)
    }

    /// True iff no ticket is Queued or Running — the population harness
    /// uses this to pump through digest boundaries until the stream
    /// drains.
    pub fn idle(&self) -> bool {
        !self
            .entries
            .values()
            .any(|e| matches!(e.state, EntryState::Queued | EntryState::Running { .. }))
    }

    /// Snapshot the live health windows at the current simulated time
    /// (`None` when health monitoring is off). Takes `&mut self` because
    /// the time-weighted gauges integrate their held value up to now.
    pub fn health_digest(&mut self) -> Option<HealthDigest> {
        let now = self.cluster.now();
        let h = self.health.as_mut()?;
        let (fast_burn, _, _) = h.monitor.burn(AlertScope::Global, AlertRuleKind::Fast, now);
        let (slow_burn, _, _) = h.monitor.burn(AlertScope::Global, AlertRuleKind::Slow, now);
        Some(HealthDigest {
            at: now,
            completions: h.latency_fast.count(now),
            latency: h.latency_fast.snapshot(now),
            fast_burn,
            slow_burn,
            rejections: h.rejections.sum(now),
            queue_depth_mean: h.queue_depth.mean(now),
            slot_util_mean: h.slot_util.mean(now),
            active_alerts: h.monitor.active_count(),
        })
    }

    /// One health-monitoring beat: feed the telemetry gauges from the
    /// cluster's current state, evaluate any alert boundaries the clock
    /// has passed, and stamp new fire/resolve events into the trace and
    /// the `service.alerts.*` metrics family. Observe-only — called from
    /// the pump after every clock movement; a no-op when health is off.
    fn health_tick(&mut self) {
        let Some(h) = &mut self.health else { return };
        let now = self.cluster.now();
        let sample = self.cluster.telemetry_sample();
        let queued = self
            .entries
            .values()
            .filter(|e| matches!(e.state, EntryState::Queued))
            .count();
        h.queue_depth
            .record(now, queued as f64 + sample.pending_jobs as f64);
        let map_cap = self.cluster.config().map_slots();
        let util = if map_cap > 0 {
            sample.map_busy as f64 / map_cap as f64
        } else {
            0.0
        };
        h.slot_util.record(now, util);
        h.monitor.eval_until(now);
        let events = h.monitor.events();
        for ev in &events[h.emitted..] {
            let (verb, counter) = match ev.kind {
                AlertKind::Fire => ("alert_fire", "service.alerts.fired"),
                AlertKind::Resolve => ("alert_resolve", "service.alerts.resolved"),
            };
            if self.service_span != NO_SPAN {
                self.dyno.obs.tracer.event(
                    self.service_span,
                    ev.at,
                    verb,
                    vec![
                        ("scope", format!("{}", ev.scope).into()),
                        ("rule", ev.rule.label().into()),
                        ("window_secs", ev.window_secs.into()),
                        ("burn", ev.burn.into()),
                        ("threshold", ev.threshold.into()),
                        ("errors", ev.errors.into()),
                        ("total", ev.total.into()),
                    ],
                );
            }
            self.dyno.obs.metrics.incr(counter, 1);
            let per_rule = match ev.kind {
                AlertKind::Fire => format!("service.alerts.{}.fired", ev.rule.label()),
                AlertKind::Resolve => format!("service.alerts.{}.resolved", ev.rule.label()),
            };
            self.dyno.obs.metrics.incr(&per_rule, 1);
        }
        h.emitted = events.len();
    }

    /// Assemble the recorder's cross-layer [`StateSample`] at `now`:
    /// admission-queue depth, the cluster's O(1) scheduler snapshot,
    /// per-tenant in-flight load, plan-cache and memo counters, and the
    /// health windows' latency/rejection/burn view. Pure read.
    fn state_sample(&self, now: SimTime) -> StateSample {
        let snap = self.cluster.sched_snapshot();
        let admission_queued = self
            .entries
            .values()
            .filter(|e| matches!(e.state, EntryState::Queued))
            .count() as u64;
        let queries_in_flight: u64 =
            self.tenants.values().map(|s| s.in_flight as u64).sum();
        let active_tenants =
            self.tenants.values().filter(|s| s.in_flight > 0).count() as u64;
        let top = self
            .recorder
            .as_ref()
            .map(|r| r.recorder.policy().top_k.max(1))
            .unwrap_or(1);
        let mut busiest: Vec<TenantLoad> = self
            .tenants
            .iter()
            .filter(|(_, s)| s.in_flight > 0)
            .map(|(&t, s)| TenantLoad {
                tenant: t as u64,
                in_flight: s.in_flight as u64,
                slot_secs_used: s.slot_secs_used,
            })
            .collect();
        busiest.sort_by(|a, b| b.in_flight.cmp(&a.in_flight).then(a.tenant.cmp(&b.tenant)));
        busiest.truncate(top);
        let m = &self.dyno.obs.metrics;
        let (latency_p50, latency_p95, latency_count, rejections, burn_fast, burn_slow) =
            match &self.health {
                Some(h) => {
                    let hist = h.latency_fast.snapshot(now);
                    let (fast, _, _) =
                        h.monitor.burn(AlertScope::Global, AlertRuleKind::Fast, now);
                    let (slow, _, _) =
                        h.monitor.burn(AlertScope::Global, AlertRuleKind::Slow, now);
                    (
                        hist.p50(),
                        hist.p95(),
                        hist.count,
                        h.rejections.sum(now) as f64,
                        fast,
                        slow,
                    )
                }
                None => (0.0, 0.0, 0, 0.0, 0.0, 0.0),
            };
        StateSample {
            time: now,
            admission_queued,
            map_ready: snap.map_ready as u64,
            reduce_ready: snap.reduce_ready as u64,
            running_map: snap.running_map as u64,
            running_reduce: snap.running_reduce as u64,
            free_map: snap.free_map as u64,
            free_reduce: snap.free_reduce as u64,
            in_flight_jobs: snap.in_flight_jobs as u64,
            queries_in_flight,
            active_tenants,
            busiest_tenants: busiest,
            plan_cache_hits: m.counter("plan_cache.hit"),
            plan_cache_misses: m.counter("plan_cache.miss"),
            memo_reuse: m.counter("optimizer.memo_reuse"),
            latency_p50,
            latency_p95,
            latency_count,
            rejections,
            burn_fast,
            burn_slow,
        }
    }

    /// One recorder beat, run right after [`QueryService::health_tick`]
    /// at the same pump sites: offer the current state sample and hand
    /// over the alert events stamped since the recorder's last beat.
    /// Observe-only — a no-op when no recorder is configured.
    fn recorder_tick(&mut self) {
        let Some(r) = &self.recorder else { return };
        let consumed = r.consumed;
        let now = self.cluster.now();
        let pending_alerts = match &self.health {
            Some(h) => h.monitor.events().len() > consumed,
            None => false,
        };
        // A beat with no pending alerts and no sample due is a no-op
        // inside the recorder; skip the cross-layer state scan entirely.
        if !pending_alerts && !r.recorder.wants_sample(now) {
            return;
        }
        let sample = self.state_sample(now);
        let alerts: Vec<AlertEvent> = match &self.health {
            Some(h) => h.monitor.events()[consumed..].to_vec(),
            None => Vec::new(),
        };
        let r = self.recorder.as_mut().expect("checked above");
        r.consumed += alerts.len();
        r.recorder.beat(sample, &alerts);
    }

    /// Submit `query` for `tenant` at the current simulated time.
    ///
    /// Admission control runs immediately: a tenant over its
    /// slot-seconds quota is rejected (typed error, accounted); a tenant
    /// at its in-flight cap gets a ticket that waits at admission; any
    /// other submission starts its driver right away. No simulated time
    /// passes either way.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        query: QueryId,
        opts: SubmitOpts,
    ) -> Result<QueryTicket, AdmitError> {
        let now = self.cluster.now();
        let tracer = self.dyno.obs.tracer.clone();
        let stats = self.tenants.entry(tenant).or_default();
        if stats.slot_secs_used >= self.quota.slot_secs {
            stats.rejected += 1;
            self.dyno.obs.metrics.incr("service.rejected", 1);
            if let Some(h) = &mut self.health {
                h.rejections.incr(now, 1);
            }
            if let Some(r) = &mut self.recorder {
                r.recorder.record_reject(now, tenant as u64);
            }
            if self.service_span != NO_SPAN {
                tracer.event(
                    self.service_span,
                    now,
                    "admission_reject",
                    vec![
                        ("tenant", (tenant as u64).into()),
                        ("slot_secs_used", stats.slot_secs_used.into()),
                    ],
                );
            }
            return Err(AdmitError::QuotaExhausted {
                tenant,
                used: stats.slot_secs_used,
                quota: self.quota.slot_secs,
            });
        }

        let ticket = QueryTicket(self.next_ticket);
        self.next_ticket += 1;
        let prepared = queries::prepare(query);
        let label = format!("{} ({})", prepared.spec.name, opts.mode.name());
        let queue_at_admission = stats.in_flight >= self.quota.max_in_flight;
        if queue_at_admission {
            stats.queued += 1;
            self.dyno.obs.metrics.incr("service.queued_at_admission", 1);
            if self.service_span != NO_SPAN {
                tracer.event(
                    self.service_span,
                    now,
                    "admission_queue",
                    vec![
                        ("tenant", (tenant as u64).into()),
                        ("in_flight", (stats.in_flight as u64).into()),
                    ],
                );
            }
        } else {
            stats.admitted += 1;
            self.dyno.obs.metrics.incr("service.admitted", 1);
        }
        // Queue-time re-planning: remember what the plan would be costed
        // under *now*; queue exit compares against it. Version probes are
        // metrics-free, so capture never perturbs hit-rate accounting.
        let basis = if self.replan_after.is_some() {
            self.dyno.stats_basis(&prepared).ok()
        } else {
            None
        };
        self.entries.insert(
            ticket.0,
            Entry {
                tenant,
                query,
                label,
                opts,
                submitted_at: now,
                basis,
                state: EntryState::Queued,
            },
        );
        if !queue_at_admission {
            self.start_ticket(ticket.0);
        }
        Ok(ticket)
    }

    /// A ticket's status. Never advances the clock.
    pub fn poll(&self, ticket: QueryTicket) -> Option<QueryStatus> {
        self.entries.get(&ticket.0).map(|e| match &e.state {
            EntryState::Queued => QueryStatus::Queued,
            EntryState::Running { .. } => QueryStatus::Running,
            EntryState::Done(outcome) => QueryStatus::Done(outcome.clone()),
            EntryState::Canceled { .. } => QueryStatus::Canceled,
            EntryState::Failed(msg) => QueryStatus::Failed(msg.clone()),
        })
    }

    /// Detach a ticket. Returns `true` iff the ticket was still Queued or
    /// Running. A running ticket's already-submitted jobs run to
    /// completion on the cluster (a dead client does not revoke Hadoop
    /// jobs); its span tree closes and its slot-seconds land on the
    /// tenant once they finish (settled during the next pump).
    pub fn cancel(&mut self, ticket: QueryTicket) -> bool {
        let Some(e) = self.entries.get_mut(&ticket.0) else {
            return false;
        };
        let now = self.cluster.now();
        match std::mem::replace(&mut e.state, EntryState::Canceled { settle: None }) {
            EntryState::Queued => {}
            EntryState::Running { driver, jobs, .. } => {
                self.tenants.entry(e.tenant).or_default().in_flight -= 1;
                e.state = EntryState::Canceled {
                    settle: Some(CancelSettle {
                        span: driver.query_span(),
                        jobs,
                        at: now,
                    }),
                };
            }
            done => {
                // Done / Canceled / Failed are final; put the state back.
                e.state = done;
                return false;
            }
        }
        let tenant = e.tenant;
        self.dyno.obs.metrics.incr("service.canceled", 1);
        if self.service_span != NO_SPAN {
            self.dyno.obs.tracer.event(
                self.service_span,
                now,
                "cancel",
                vec![("tenant", (tenant as u64).into()), ("ticket", ticket.0.into())],
            );
        }
        // If nothing was in flight the settlement is immediate.
        self.settle_canceled();
        true
    }

    /// Pump the service until the simulated clock reaches `t`: promote
    /// admission-queued tickets whose tenants have room, poll every
    /// ready driver, and advance the clock through cluster events and
    /// client-side waits — exactly the concurrent-runner loop. On
    /// return, `now() == t` (or later only if already past `t`).
    pub fn advance_until(&mut self, t: SimTime) {
        self.pump(Some(t));
        if self.cluster.now() < t {
            self.cluster.run_until_time(t);
            // The jump may have finished jobs drivers were waiting on.
            self.pump(Some(t));
        }
    }

    /// Pump until every ticket is final (Done / Canceled / Failed).
    pub fn drain(&mut self) {
        self.pump(None);
    }

    /// Close the service span so the Chrome export balances. Idempotent;
    /// call after the last `drain` and before exporting the trace.
    pub fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            if self.service_span != NO_SPAN {
                self.dyno
                    .obs
                    .tracer
                    .end_span(self.service_span, self.cluster.now());
            }
        }
    }

    /// Queue-time re-planning check (DESIGN.md §17), run as a ticket
    /// leaves the admission queue. If the ticket waited longer than the
    /// configured staleness bound, re-probe the statistics basis its
    /// plan would have been costed under at submit time: any moved
    /// version means optimization must re-run over fresh statistics —
    /// which is exactly what the driver about to start does (and what
    /// the plan cache's version validation refuses to serve a stale
    /// entry for). Counts `service.replan.{checked,triggered,skipped}`
    /// and stamps a `replan` trace event when triggered.
    fn replan_check(&mut self, id: u64) {
        let Some(bound) = self.replan_after else { return };
        let e = &self.entries[&id];
        let Some(basis) = &e.basis else { return };
        let now = self.cluster.now();
        let waited = now - e.submitted_at;
        if waited <= bound {
            return;
        }
        let stale: u64 = basis
            .iter()
            .filter(|(sig, v)| self.dyno.metastore.version(sig) != *v)
            .count() as u64;
        self.dyno.obs.metrics.incr("service.replan.checked", 1);
        if stale > 0 {
            self.dyno.obs.metrics.incr("service.replan.triggered", 1);
            if self.service_span != NO_SPAN {
                self.dyno.obs.tracer.event(
                    self.service_span,
                    now,
                    "replan",
                    vec![
                        ("ticket", id.into()),
                        ("waited_secs", waited.into()),
                        ("stale_leaves", stale.into()),
                    ],
                );
            }
        } else {
            self.dyno.obs.metrics.incr("service.replan.skipped", 1);
        }
    }

    /// Start the driver for an admission-complete ticket.
    fn start_ticket(&mut self, id: u64) {
        self.replan_check(id);
        let e = self.entries.get_mut(&id).expect("ticket exists");
        debug_assert!(matches!(e.state, EntryState::Queued));
        let prepared = queries::prepare(e.query);
        match QueryDriver::new(&self.dyno, &prepared, e.opts.mode, &mut self.cluster) {
            Ok(driver) => {
                self.tenants.entry(e.tenant).or_default().in_flight += 1;
                e.state = EntryState::Running {
                    driver: Box::new(driver),
                    wait: Wait::Poll,
                    jobs: BTreeSet::new(),
                };
            }
            Err(err) => {
                self.dyno.obs.metrics.incr("service.failed", 1);
                e.state = EntryState::Failed(err.to_string());
            }
        }
    }

    /// Settle canceled tickets whose orphaned jobs have all finished:
    /// close every still-open span under the Query span (deepest spans
    /// carry higher ids, so the exporter orders their closes correctly
    /// at equal timestamps) and charge the jobs' slot-seconds to the
    /// tenant. Returns true if anything settled.
    fn settle_canceled(&mut self) -> bool {
        let ids: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| {
                matches!(&e.state, EntryState::Canceled { settle: Some(s) }
                    if s.jobs.iter().all(|&h| self.cluster.is_done(h)))
            })
            .map(|(&id, _)| id)
            .collect();
        let mut any = false;
        for id in ids {
            let e = self.entries.get_mut(&id).expect("ticket exists");
            let EntryState::Canceled { settle } = &mut e.state else {
                unreachable!("filtered on Canceled above")
            };
            let s = settle.take().expect("filtered on Some above");
            let slot_secs: f64 = s
                .jobs
                .iter()
                .filter_map(|&h| self.cluster.timing(h))
                .map(|t| t.map_slot_secs + t.reduce_slot_secs)
                .sum();
            let end = s
                .jobs
                .iter()
                .filter_map(|&h| self.cluster.timing(h))
                .map(|t| t.finished)
                .fold(s.at, f64::max);
            let spans = self.dyno.obs.tracer.spans();
            for open in spans.iter().filter(|sp| {
                sp.end.is_none()
                    && (sp.id == s.span || dyno_obs::descends_from(&spans, sp.id, s.span))
            }) {
                self.dyno.obs.tracer.end_span(open.id, end);
            }
            self.tenants.entry(e.tenant).or_default().slot_secs_used += slot_secs;
            any = true;
        }
        any
    }

    /// Promote admission-queued tickets (in ticket order — FIFO per
    /// tenant and overall) while their tenants are under the in-flight
    /// cap. Returns true if anything started.
    fn promote_queued(&mut self) -> bool {
        let queued: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| matches!(e.state, EntryState::Queued))
            .map(|(&id, _)| id)
            .collect();
        let mut any = false;
        for id in queued {
            let tenant = self.entries[&id].tenant;
            if self.tenant_stats(tenant).in_flight >= self.quota.max_in_flight {
                continue;
            }
            self.start_ticket(id);
            any = true;
        }
        any
    }

    /// The shared-clock pump. With `target = Some(t)` it stops once no
    /// progress is possible before `t`; with `None` it runs to quiescence.
    fn pump(&mut self, target: Option<SimTime>) {
        self.health_tick();
        self.recorder_tick();
        loop {
            let mut progressed = self.promote_queued();
            progressed |= self.settle_canceled();
            let ids: Vec<u64> = self
                .entries
                .iter()
                .filter(|(_, e)| matches!(e.state, EntryState::Running { .. }))
                .map(|(&id, _)| id)
                .collect();
            for id in ids {
                if self.poll_running(id) {
                    progressed = true;
                }
            }
            if progressed {
                continue;
            }
            // Nothing pollable at the current time: advance the clock to
            // the next thing that can happen — a cluster event or a
            // client-side wait expiring — bounded by `target`.
            let t_wake = self
                .entries
                .values()
                .filter_map(|e| match &e.state {
                    EntryState::Running { wait: Wait::Time(until), .. } => Some(*until),
                    _ => None,
                })
                .fold(f64::INFINITY, f64::min);
            let t_event = self.cluster.next_event_time().unwrap_or(f64::INFINITY);
            let t_next = t_event.min(t_wake);
            if let Some(t) = target {
                if t_next > t {
                    return;
                }
            }
            if !t_next.is_finite() {
                // Quiescent: nothing running can ever progress again.
                debug_assert!(
                    !self
                        .entries
                        .values()
                        .any(|e| matches!(e.state, EntryState::Running { .. } | EntryState::Queued)),
                    "service stalled: live tickets but no events or waits"
                );
                return;
            }
            if t_event <= t_wake {
                self.cluster.step();
            } else {
                self.cluster.run_until_time(t_wake);
            }
            self.health_tick();
            self.recorder_tick();
        }
    }

    /// Poll one running ticket if its wait is satisfied. Returns true if
    /// the driver was polled (progress was made).
    fn poll_running(&mut self, id: u64) -> bool {
        let e = self.entries.get_mut(&id).expect("ticket exists");
        let EntryState::Running { driver, wait, jobs } = &mut e.state else {
            return false;
        };
        let ready = match wait {
            Wait::Poll => true,
            Wait::Jobs(handles) => handles.iter().all(|&h| self.cluster.is_done(h)),
            Wait::Time(until) => self.cluster.now() >= *until,
        };
        if !ready {
            return false;
        }
        // Stamp the tenant's deadline/priority into the cluster's submit
        // tag for the duration of the poll: every job the driver submits
        // inherits it, which is what Priority/DeadlineEdf schedule on.
        let saved = self.cluster.submit_tag();
        self.cluster.set_submit_tag(SubmitTag {
            priority: e.opts.priority,
            deadline: e.opts.deadline,
        });
        let polled = driver.poll(&mut self.cluster);
        self.cluster.set_submit_tag(saved);
        match polled {
            Ok(DriverPoll::NeedJobs(handles)) => {
                jobs.extend(handles.iter().copied());
                *wait = Wait::Jobs(handles);
            }
            Ok(DriverPoll::Reoptimizing { until }) => *wait = Wait::Time(until),
            Ok(DriverPoll::Done(report)) => {
                let now = self.cluster.now();
                let slot_secs: f64 = jobs
                    .iter()
                    .filter_map(|&h| self.cluster.timing(h))
                    .map(|t| t.map_slot_secs + t.reduce_slot_secs)
                    .sum();
                let (queue_delay_secs, slot_wait_secs) = jobs
                    .iter()
                    .filter_map(|&h| self.cluster.timing(h))
                    .fold((0.0, 0.0), |(q, s), t| {
                        (q + t.queue_delay, s + t.slot_wait_secs)
                    });
                let outcome = QueryOutcome {
                    tenant: e.tenant,
                    label: e.label.clone(),
                    submitted_at: e.submitted_at,
                    started_at: driver.started_at(),
                    finished_at: now,
                    latency_secs: now - e.submitted_at,
                    slot_secs,
                    rows: report.rows,
                    jobs: jobs.len(),
                    met_deadline: e.opts.deadline.map(|d| now <= d),
                    queue_delay_secs,
                    slot_wait_secs,
                    query_span: driver.query_span(),
                    report,
                };
                let stats = self.tenants.entry(e.tenant).or_default();
                stats.in_flight -= 1;
                stats.slot_secs_used += slot_secs;
                stats.completed += 1;
                self.dyno.obs.metrics.incr("service.completed", 1);
                self.dyno
                    .obs
                    .metrics
                    .observe("service.latency_secs", outcome.latency_secs);
                if let Some(met) = outcome.met_deadline {
                    self.dyno.obs.metrics.incr(
                        if met { "service.slo_met" } else { "service.slo_missed" },
                        1,
                    );
                }
                let qspan = driver.query_span();
                if let Some(h) = &mut self.health {
                    h.latency_fast.observe(now, outcome.latency_secs);
                    h.latency_slow.observe(now, outcome.latency_secs);
                    h.tenant_latency
                        .entry(e.tenant)
                        .or_insert_with(|| {
                            WindowedHistogram::new(WindowSpec::of_secs(
                                h.monitor.policy().slow.window_secs,
                            ))
                        })
                        .observe(now, outcome.latency_secs);
                    if let Some(met) = outcome.met_deadline {
                        h.monitor.record(now, e.tenant as u64, met);
                        h.monitor.eval_until(now);
                    }
                }
                // Flight-recorder capture happens at settlement, before
                // tail sampling can drop the span tree: the incident's
                // blame must reconcile bitwise with the critical path a
                // QueryProfile would report for this query.
                if self.recorder.is_some() {
                    // Only SLO violators can ever be blamed by an
                    // incident, so only they pay for the span-tree walk.
                    let critical = if outcome.met_deadline == Some(false) {
                        CriticalPath::build(&self.dyno.obs.tracer, qspan)
                    } else {
                        None
                    };
                    let rec = QueryRecord {
                        ticket: id,
                        tenant: outcome.tenant as u64,
                        label: outcome.label.clone(),
                        submitted_at: outcome.submitted_at,
                        started_at: outcome.started_at,
                        finished_at: outcome.finished_at,
                        latency_secs: outcome.latency_secs,
                        queue_delay_secs: outcome.queue_delay_secs,
                        slot_wait_secs: outcome.slot_wait_secs,
                        met_deadline: outcome.met_deadline,
                        critical,
                    };
                    self.recorder
                        .as_mut()
                        .expect("checked above")
                        .recorder
                        .record_settle(rec);
                }
                // Tail-based sampling: decide at settlement whether this
                // query's span tree earns retention. Interesting tails
                // (SLO misses, OOM recoveries, alert overlap) always stay;
                // everything else survives only the seeded 1-in-N baseline.
                if let Some(policy) = &self.sampling {
                    let tracer = &self.dyno.obs.tracer;
                    let keep = outcome.met_deadline == Some(false)
                        || tracer.subtree_contains_event(qspan, "oom_recovery")
                        || self
                            .health
                            .as_ref()
                            .map(|h| {
                                h.monitor.overlaps_alert(
                                    e.tenant as u64,
                                    outcome.submitted_at,
                                    now,
                                )
                            })
                            .unwrap_or(false)
                        || policy.baseline_keep(id);
                    if keep {
                        self.dyno.obs.metrics.incr("service.trace.kept", 1);
                    } else {
                        tracer.drop_span_tree(qspan);
                        self.dyno.obs.metrics.incr("service.trace.dropped", 1);
                    }
                }
                e.state = EntryState::Done(Box::new(outcome));
            }
            Err(err) => {
                self.tenants.entry(e.tenant).or_default().in_flight -= 1;
                self.dyno.obs.metrics.incr("service.failed", 1);
                e.state = EntryState::Failed(err.to_string());
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_cluster::{ClusterConfig, SchedulerPolicy};
    use dyno_core::DynoOptions;
    use dyno_obs::{validate_chrome_trace, validate_incident_json, validate_trace_subset};
    use dyno_storage::SimScale;
    use dyno_tpch::TpchGenerator;

    fn service_cfg(cluster: ClusterConfig, cfg: ServiceConfig) -> QueryService {
        let env = TpchGenerator::new(1, SimScale::divisor(200_000)).generate();
        let mut dyno = Dyno::new(
            env.dfs,
            DynoOptions {
                cluster,
                ..DynoOptions::default()
            },
        );
        dyno.obs = Obs::enabled();
        QueryService::new(dyno, cfg)
    }

    fn service_with(cluster: ClusterConfig, quota: TenantQuota) -> QueryService {
        service_cfg(cluster, ServiceConfig { quota, ..ServiceConfig::default() })
    }

    fn service() -> QueryService {
        service_with(ClusterConfig::paper(), TenantQuota::default())
    }

    fn outcome(s: &QueryService, t: QueryTicket) -> QueryOutcome {
        match s.poll(t) {
            Some(QueryStatus::Done(o)) => *o,
            other => panic!("ticket {t:?} not done: {other:?}"),
        }
    }

    #[test]
    fn submit_drain_poll_roundtrip() {
        let mut s = service();
        let t1 = s.submit(1, QueryId::Q2, SubmitOpts::default()).unwrap();
        let t2 = s.submit(2, QueryId::Q10, SubmitOpts::default()).unwrap();
        assert!(matches!(s.poll(t1), Some(QueryStatus::Running)));
        s.drain();
        let o1 = outcome(&s, t1);
        let o2 = outcome(&s, t2);
        assert!(o1.jobs > 0 && o2.jobs > 0);
        assert!(o1.latency_secs > 0.0);
        assert!(o1.slot_secs > 0.0, "jobs must be charged");
        assert_eq!(o1.submitted_at, o1.started_at, "no admission wait");
        assert_eq!(s.tenant_stats(1).completed, 1);
        assert_eq!(s.tenant_stats(2).completed, 1);
        assert_eq!(s.obs().metrics.counter("service.completed"), 2);
        assert!(s.poll(QueryTicket(99)).is_none());
    }

    #[test]
    fn in_flight_cap_queues_at_admission() {
        let mut s = service_with(
            ClusterConfig::paper(),
            TenantQuota {
                max_in_flight: 1,
                ..TenantQuota::default()
            },
        );
        let t1 = s.submit(7, QueryId::Q2, SubmitOpts::default()).unwrap();
        let t2 = s.submit(7, QueryId::Q2, SubmitOpts::default()).unwrap();
        assert!(matches!(s.poll(t1), Some(QueryStatus::Running)));
        assert!(matches!(s.poll(t2), Some(QueryStatus::Queued)));
        assert_eq!(s.tenant_stats(7).queued, 1);
        assert_eq!(s.obs().metrics.counter("service.queued_at_admission"), 1);
        s.drain();
        let o1 = outcome(&s, t1);
        let o2 = outcome(&s, t2);
        // The queued ticket started only after the first finished, and
        // its latency includes the admission wait.
        assert!(o2.started_at >= o1.finished_at);
        assert_eq!(o2.submitted_at, 0.0);
        assert!(o2.latency_secs >= o1.latency_secs);
        assert!(o2.started_at > o2.submitted_at);
    }

    #[test]
    fn slot_seconds_quota_rejects_with_typed_error() {
        let mut s = service_with(
            ClusterConfig::paper(),
            TenantQuota {
                slot_secs: 1.0,
                ..TenantQuota::default()
            },
        );
        let t1 = s.submit(3, QueryId::Q2, SubmitOpts::default()).unwrap();
        s.drain();
        assert!(outcome(&s, t1).slot_secs > 1.0, "query exceeds the tiny quota");
        let err = s.submit(3, QueryId::Q2, SubmitOpts::default()).unwrap_err();
        match err {
            AdmitError::QuotaExhausted { tenant, used, quota } => {
                assert_eq!(tenant, 3);
                assert!(used >= quota);
            }
        }
        assert_eq!(s.tenant_stats(3).rejected, 1);
        assert_eq!(s.obs().metrics.counter("service.rejected"), 1);
        // Another tenant is unaffected.
        assert!(s.submit(4, QueryId::Q2, SubmitOpts::default()).is_ok());
    }

    #[test]
    fn cancel_queued_and_running_tickets() {
        let mut s = service_with(
            ClusterConfig::paper(),
            TenantQuota {
                max_in_flight: 1,
                ..TenantQuota::default()
            },
        );
        let t1 = s.submit(1, QueryId::Q2, SubmitOpts::default()).unwrap();
        let t2 = s.submit(1, QueryId::Q10, SubmitOpts::default()).unwrap();
        // Cancel the queued ticket: it never starts.
        assert!(s.cancel(t2));
        assert!(matches!(s.poll(t2), Some(QueryStatus::Canceled)));
        // Let the running one make some progress, then cancel it too.
        s.advance_until(30.0);
        assert!(s.cancel(t1));
        assert!(matches!(s.poll(t1), Some(QueryStatus::Canceled)));
        assert_eq!(s.tenant_stats(1).in_flight, 0);
        // Cancel is not retroactive…
        assert!(!s.cancel(t1));
        // …and a fresh submission for the freed slot still works.
        let t3 = s.submit(1, QueryId::Q2, SubmitOpts::default()).unwrap();
        s.drain();
        assert!(outcome(&s, t3).jobs > 0);
        assert_eq!(s.obs().metrics.counter("service.canceled"), 2);
        // The trace still balances: canceled spans were closed eagerly.
        s.finish();
        validate_chrome_trace(&s.obs().tracer.to_chrome_trace()).unwrap();
    }

    #[test]
    fn deadlines_flow_into_outcomes_and_edf_grants() {
        // Two queries at t=0 under EDF; the tight-deadline latecomer
        // (higher ticket id, so FIFO would starve it) gets slots first.
        let edf = ClusterConfig {
            scheduler: SchedulerPolicy::DeadlineEdf,
            ..ClusterConfig::paper()
        };
        let mut s = service_with(edf, TenantQuota::default());
        let relaxed = s
            .submit(
                1,
                QueryId::Q10,
                SubmitOpts {
                    deadline: Some(1e6),
                    ..SubmitOpts::default()
                },
            )
            .unwrap();
        let tight = s
            .submit(
                2,
                QueryId::Q2,
                SubmitOpts {
                    deadline: Some(400.0),
                    ..SubmitOpts::default()
                },
            )
            .unwrap();
        s.drain();
        let o_relaxed = outcome(&s, relaxed);
        let o_tight = outcome(&s, tight);
        assert_eq!(o_relaxed.met_deadline, Some(true));
        assert!(o_tight.met_deadline.is_some());
        // EDF must not let the relaxed query's full backlog run first:
        // the tight query finishes before the relaxed one.
        assert!(
            o_tight.finished_at < o_relaxed.finished_at,
            "tight {} vs relaxed {}",
            o_tight.finished_at,
            o_relaxed.finished_at
        );
    }

    #[test]
    fn advance_until_reaches_the_target_time() {
        let mut s = service();
        s.submit(1, QueryId::Q2, SubmitOpts::default()).unwrap();
        s.advance_until(10.0);
        assert_eq!(s.now(), 10.0);
        s.advance_until(1e7);
        assert_eq!(s.now(), 1e7, "idle service still reaches the target");
        s.drain();
        assert_eq!(s.obs().metrics.counter("service.completed"), 1);
    }

    /// Determinism contract: the same submit/advance schedule yields a
    /// byte-identical trace, metrics dump, and outcome set.
    #[test]
    fn identical_schedules_are_byte_identical() {
        let run = || {
            let mut s = service_with(
                ClusterConfig {
                    scheduler: SchedulerPolicy::DeadlineEdf,
                    ..ClusterConfig::paper()
                },
                TenantQuota {
                    max_in_flight: 1,
                    ..TenantQuota::default()
                },
            );
            let mut tickets = Vec::new();
            for (i, (q, at)) in [
                (QueryId::Q2, 0.0),
                (QueryId::Q10, 5.0),
                (QueryId::Q2, 5.0),
            ]
            .iter()
            .enumerate()
            {
                s.advance_until(*at);
                tickets.push(
                    s.submit(
                        (i % 2) as TenantId,
                        *q,
                        SubmitOpts {
                            deadline: Some(at + 2000.0),
                            ..SubmitOpts::default()
                        },
                    )
                    .unwrap(),
                );
            }
            s.drain();
            s.finish();
            let outcomes: Vec<String> = tickets
                .iter()
                .map(|&t| {
                    let o = outcome(&s, t);
                    format!(
                        "{} t{} {:?}/{:?}/{:?} slot={:?} met={:?}",
                        o.label,
                        o.tenant,
                        o.submitted_at.to_bits(),
                        o.started_at.to_bits(),
                        o.finished_at.to_bits(),
                        o.slot_secs.to_bits(),
                        o.met_deadline
                    )
                })
                .collect();
            (
                outcomes,
                s.obs().tracer.to_chrome_trace(),
                s.obs().metrics.render(),
            )
        };
        let (o1, t1, m1) = run();
        let (o2, t2, m2) = run();
        assert_eq!(o1, o2, "outcomes must be byte-identical");
        assert_eq!(t1, t2, "traces must be byte-identical");
        assert_eq!(m1, m2, "metrics must be byte-identical");
        validate_chrome_trace(&t1).unwrap();
    }

    /// Four unmeetable deadlines out of four completions burn the error
    /// budget at 10x: both burn-rate rules trip, the alert stream is
    /// stamped into metrics, and the whole stream is byte-identical
    /// across identical runs.
    #[test]
    fn health_alerts_fire_deterministically_on_missed_deadlines() {
        let run = || {
            let mut s = service_cfg(
                ClusterConfig::paper(),
                ServiceConfig {
                    health: Some(SloPolicy::default()),
                    ..ServiceConfig::default()
                },
            );
            for _ in 0..4 {
                // A deadline of t=0 is unmeetable: every completion is
                // a miss.
                s.submit(
                    1,
                    QueryId::Q2,
                    SubmitOpts {
                        deadline: Some(0.0),
                        ..SubmitOpts::default()
                    },
                )
                .unwrap();
            }
            s.drain();
            // Push the clock through later evaluation boundaries so every
            // rule sees the misses regardless of where the last completion
            // fell on the 5s grid.
            let end = s.now() + 120.0;
            s.advance_until(end);
            s.finish();
            let digest = s.health_digest().expect("health configured");
            assert_eq!(digest.at, end);
            let m = s.health_monitor().expect("health configured");
            assert!(
                m.events().iter().any(|e| e.kind == AlertKind::Fire),
                "4/4 missed deadlines must trip the burn-rate alert"
            );
            assert!(s.obs().metrics.counter("service.alerts.fired") > 0);
            let events: Vec<String> = m.events().iter().map(|e| e.render()).collect();
            (events.join("\n"), s.obs().metrics.render())
        };
        let (e1, m1) = run();
        let (e2, m2) = run();
        assert_eq!(e1, e2, "alert stream must be byte-identical");
        assert_eq!(m1, m2, "metrics must be byte-identical");
    }

    /// Tentpole: with health and the flight recorder on, a flood of
    /// unmeetable deadlines freezes at least one incident whose JSON
    /// passes the in-repo validator, whose blamed queries reconcile
    /// *bitwise* with the critical paths of their retained span trees,
    /// and whose renders are byte-identical across identical runs.
    #[test]
    fn recorder_freezes_validated_incidents_that_reconcile_bitwise() {
        let run = || {
            let mut s = service_cfg(
                ClusterConfig::paper(),
                ServiceConfig {
                    health: Some(SloPolicy::default()),
                    recorder: Some(RecorderPolicy::default()),
                    ..ServiceConfig::default()
                },
            );
            for _ in 0..4 {
                s.submit(
                    1,
                    QueryId::Q2,
                    SubmitOpts {
                        deadline: Some(0.0),
                        ..SubmitOpts::default()
                    },
                )
                .unwrap();
            }
            s.drain();
            // Push the clock far enough that the windows drain and the
            // alerts resolve: the incidents close with recovery samples.
            let end = s.now() + 1200.0;
            s.advance_until(end);
            s.finish();
            let r = s.recorder().expect("recorder configured");
            assert!(!r.incidents().is_empty(), "4/4 misses must freeze an incident");
            assert_eq!(r.open_count(), 0, "alerts resolve once the windows drain");
            for inc in r.incidents() {
                let summary = validate_incident_json(&inc.to_json())
                    .unwrap_or_else(|e| panic!("incident {}: {e}", inc.id));
                assert!(summary.resolved);
                assert!(summary.top_queries >= 1, "the misses are in the alert window");
                assert!(summary.suspects >= 1);
                for bq in &inc.top_queries {
                    assert_eq!(bq.query.tenant, 1);
                    let o = outcome(&s, QueryTicket(bq.query.ticket));
                    let cp = CriticalPath::build(&s.obs().tracer, o.query_span)
                        .expect("blamed span tree retained");
                    let frozen = bq.query.critical.expect("critical captured at settlement");
                    assert_eq!(cp, frozen);
                    assert_eq!(
                        cp.total().to_bits(),
                        frozen.total().to_bits(),
                        "blame must reconcile bitwise with the profile's critical path"
                    );
                    assert_eq!(
                        frozen.latency_secs.to_bits(),
                        (o.finished_at - o.started_at).to_bits()
                    );
                }
            }
            let docs: Vec<String> = r
                .incidents()
                .iter()
                .map(|i| format!("{}\n{}\n{}", i.file_stem(), i.render(), i.to_json()))
                .collect();
            (r.summary_line(), docs.join("\n---\n"))
        };
        let (s1, d1) = run();
        let (s2, d2) = run();
        assert_eq!(s1, s2, "summary line must be byte-identical");
        assert_eq!(d1, d2, "incident files must be byte-identical");
    }

    /// Observe-only contract: enabling the recorder changes no outcome,
    /// no trace byte, and no metric — it only reads at the existing
    /// beats (even with tail sampling dropping span trees at settlement,
    /// after the recorder's capture).
    #[test]
    fn recorder_is_observe_only() {
        let run = |recorder: Option<RecorderPolicy>| {
            let mut s = service_cfg(
                ClusterConfig::paper(),
                ServiceConfig {
                    health: Some(SloPolicy::default()),
                    sampling: Some(SamplingPolicy {
                        one_in: 1 << 40,
                        seed: 7,
                    }),
                    recorder,
                    ..ServiceConfig::default()
                },
            );
            let mut tickets = Vec::new();
            for _ in 0..4 {
                tickets.push(
                    s.submit(
                        1,
                        QueryId::Q2,
                        SubmitOpts {
                            deadline: Some(0.0),
                            ..SubmitOpts::default()
                        },
                    )
                    .unwrap(),
                );
            }
            tickets.push(
                s.submit(
                    2,
                    QueryId::Q10,
                    SubmitOpts {
                        deadline: Some(1e9),
                        ..SubmitOpts::default()
                    },
                )
                .unwrap(),
            );
            s.drain();
            let end = s.now() + 120.0;
            s.advance_until(end);
            s.finish();
            let outcomes: Vec<String> = tickets
                .iter()
                .map(|&t| {
                    let o = outcome(&s, t);
                    format!(
                        "{} t{} {:?}/{:?} met={:?}",
                        o.label,
                        o.tenant,
                        o.finished_at.to_bits(),
                        o.slot_secs.to_bits(),
                        o.met_deadline
                    )
                })
                .collect();
            (
                outcomes.join("\n"),
                s.obs().tracer.to_chrome_trace(),
                s.obs().metrics.render(),
                s.recorder().map(|r| r.incidents().len()).unwrap_or(0),
            )
        };
        let (o_off, t_off, m_off, n_off) = run(None);
        let (o_on, t_on, m_on, n_on) = run(Some(RecorderPolicy::default()));
        assert_eq!(n_off, 0, "no recorder, no incidents");
        assert!(n_on >= 1, "the recorder still captured the incident");
        assert_eq!(o_off, o_on, "outcomes must not move");
        assert_eq!(t_off, t_on, "trace must be byte-identical");
        assert_eq!(m_off, m_on, "metrics must be byte-identical");
    }

    /// Tail sampling at settlement: the SLO-violating query's span tree
    /// survives, the on-time one is dropped (baseline disabled via a
    /// huge `one_in`), and the sampled trace is a valid subset of the
    /// unsampled trace from an otherwise identical run.
    #[test]
    fn tail_sampling_keeps_slo_violators_and_yields_a_valid_subset() {
        let run = |sampling: Option<SamplingPolicy>| {
            let mut s = service_cfg(
                ClusterConfig::paper(),
                ServiceConfig {
                    sampling,
                    ..ServiceConfig::default()
                },
            );
            let miss = s
                .submit(
                    1,
                    QueryId::Q2,
                    SubmitOpts {
                        deadline: Some(0.0),
                        ..SubmitOpts::default()
                    },
                )
                .unwrap();
            let meet = s
                .submit(
                    2,
                    QueryId::Q10,
                    SubmitOpts {
                        deadline: Some(1e9),
                        ..SubmitOpts::default()
                    },
                )
                .unwrap();
            s.drain();
            assert_eq!(outcome(&s, miss).met_deadline, Some(false));
            assert_eq!(outcome(&s, meet).met_deadline, Some(true));
            s.finish();
            (
                s.obs().tracer.to_chrome_trace(),
                s.obs().metrics.counter("service.trace.kept"),
                s.obs().metrics.counter("service.trace.dropped"),
                s.obs().tracer.totals(),
            )
        };
        let (full, k0, d0, tot0) = run(None);
        assert_eq!((k0, d0), (0, 0), "no sampling, no keep/drop accounting");
        assert_eq!(tot0.spans_dropped, 0);
        let (sampled, kept, dropped, totals) = run(Some(SamplingPolicy {
            one_in: 1 << 40,
            seed: 7,
        }));
        assert_eq!((kept, dropped), (1, 1));
        assert!(totals.spans_dropped > 0);
        assert!(totals.dropped_fraction() > 0.0 && totals.dropped_fraction() < 1.0);
        // The violator's tree survives; the on-time query's is gone.
        assert!(sampled.contains("\"Q2\""), "SLO violator must be retained");
        assert!(!sampled.contains("\"Q10\""), "on-time query must be dropped");
        assert!(full.contains("\"Q10\""));
        validate_trace_subset(&sampled, &full).unwrap();
    }

    /// Shared fixture for the queue-time re-planning tests: a ticket for
    /// `target` queued behind a restaurant-dataset blocker (disjoint
    /// statistics basis, so the blocker's own pilot-run `put`s never move
    /// the target's versions), with an optional poison applied to one of
    /// the target's basis signatures while it waits at admission.
    fn replan_run(poison: bool) -> (u64, u64, u64, Vec<String>, String) {
        use dyno_stats::TableStats;

        let mut s = service_cfg(
            ClusterConfig::paper(),
            ServiceConfig {
                quota: TenantQuota {
                    max_in_flight: 1,
                    ..TenantQuota::default()
                },
                replan_after: Some(0.0),
                ..ServiceConfig::default()
            },
        );
        let target_basis = s
            .dyno
            .stats_basis(&queries::prepare(QueryId::Q2))
            .expect("Q2 compiles");
        let blocker_basis = s
            .dyno
            .stats_basis(&queries::prepare(QueryId::Q1Restaurant))
            .expect("Q1r compiles");
        assert!(
            target_basis.iter().all(|(sig, _)| {
                blocker_basis.iter().all(|(b, _)| b != sig)
            }),
            "fixture requires disjoint bases: {target_basis:?} vs {blocker_basis:?}"
        );

        let blocker = s
            .submit(1, QueryId::Q1Restaurant, SubmitOpts::default())
            .unwrap();
        let target = s.submit(1, QueryId::Q2, SubmitOpts::default()).unwrap();
        assert!(matches!(s.poll(target), Some(QueryStatus::Queued)));
        if poison {
            // A stats refresh lands for one of the queued query's leaves
            // while it waits: its version moves, and the fresh (absurdly
            // large) cardinality must change what the optimizer picks.
            let (sig, v) = target_basis.first().unwrap().clone();
            assert_eq!(s.dyno.metastore.version(&sig), v, "captured at submit");
            s.dyno.metastore.put(
                sig,
                TableStats {
                    rows: 1e12,
                    avg_record_size: 1e3,
                    columns: std::collections::BTreeMap::new(),
                },
            );
        }
        s.drain();
        assert!(outcome(&s, blocker).jobs > 0);
        let o = outcome(&s, target);
        let m = &s.obs().metrics;
        (
            m.counter("service.replan.checked"),
            m.counter("service.replan.triggered"),
            m.counter("service.replan.skipped"),
            o.report.plans.clone(),
            s.obs().tracer.to_chrome_trace(),
        )
    }

    /// Satellite: a stats version bump while the ticket waits at
    /// admission is detected when the ticket leaves the queue —
    /// `service.replan.triggered` counts it, the `replan` trace event is
    /// stamped, and the re-run optimization picks a different plan than
    /// the unpoisoned control.
    #[test]
    fn replan_triggers_on_stats_bump_while_queued_and_flips_the_plan() {
        let (checked, triggered, skipped, plans, trace) = replan_run(true);
        assert_eq!(checked, 1, "exactly the out-waiting ticket is checked");
        assert_eq!(triggered, 1, "the moved version must trigger a re-plan");
        assert_eq!(skipped, 0);
        assert!(trace.contains("\"replan\""), "trace must carry the replan event");

        let (_, _, _, control_plans, _) = replan_run(false);
        assert_ne!(
            plans, control_plans,
            "re-planning against the bumped statistics must choose differently"
        );
    }

    /// Satellite: the no-bump control. The ticket out-waits the bound and
    /// is checked, but its basis is unmoved — `service.replan.skipped`
    /// increments and the chosen plans are bitwise-identical to a run
    /// where the query never queued at all.
    #[test]
    fn replan_skips_on_unmoved_basis_and_plans_match_the_unqueued_run() {
        let (checked, triggered, skipped, plans, trace) = replan_run(false);
        assert_eq!(checked, 1);
        assert_eq!(triggered, 0);
        assert_eq!(skipped, 1, "unmoved basis must be counted as skipped");
        assert!(!trace.contains("\"replan\""), "no event without a trigger");

        // Unqueued control: same query, same service shape, no blocker —
        // the ticket starts immediately (waited == 0, not even checked).
        let mut solo = service_cfg(
            ClusterConfig::paper(),
            ServiceConfig {
                replan_after: Some(0.0),
                ..ServiceConfig::default()
            },
        );
        let t = solo.submit(1, QueryId::Q2, SubmitOpts::default()).unwrap();
        solo.drain();
        let o = outcome(&solo, t);
        assert_eq!(solo.obs().metrics.counter("service.replan.checked"), 0);
        assert_eq!(
            plans, o.report.plans,
            "an unmoved basis must leave the plan bitwise-identical"
        );
    }
}
