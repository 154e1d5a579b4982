//! Sliding-window aggregation over the *simulated* clock.
//!
//! The post-hoc reports fold a whole run into one histogram; live health
//! monitoring (DESIGN.md §16) instead asks "what happened in the last
//! 60 s / 300 s of simulated time?". This module answers that with
//! epoch-addressed ring buffers: a window of `secs` seconds is split into
//! `buckets` equal slots, each slot owns the epoch `floor(t / slot_secs)`
//! it last recorded, and a slot whose epoch has fallen out of the window
//! is lazily reset on the next write that lands on it. Reads merge every
//! slot whose epoch is still inside the window, so both writes and reads
//! are O(buckets) with no per-observation allocation.
//!
//! Everything here is a pure function of the observation sequence — no
//! wall clock, no hashing — so a fixed seed yields byte-identical window
//! snapshots, the same contract every other `dyno-obs` surface keeps.
//! When the window covers the entire run, a [`WindowedHistogram`]
//! snapshot merges every slot ever written, and [`super::Histogram`]'s
//! `merge` is exact, so windowed quantiles equal whole-run quantiles —
//! asserted by a property test below.

use crate::metrics::Histogram;

/// Shape of a sliding window: total span and ring resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSpec {
    /// Window length in simulated seconds.
    pub secs: f64,
    /// Number of ring slots the window is split into. More slots track
    /// the trailing edge more precisely; the effective lookback at read
    /// time is `(secs - secs/buckets, secs]` depending on where the
    /// current time sits inside its slot.
    pub buckets: usize,
}

impl WindowSpec {
    /// A window of `secs` seconds at the default 12-slot resolution
    /// (5 s slots for a 60 s window, 25 s slots for a 300 s one).
    pub fn of_secs(secs: f64) -> Self {
        WindowSpec { secs, buckets: 12 }
    }

    /// Seconds covered by one ring slot.
    pub fn slot_secs(&self) -> f64 {
        self.secs / self.buckets as f64
    }

    /// Epoch (slot-sized tick count) containing simulated time `t`.
    /// Negative times clamp to epoch 0 — the simulated clock starts at 0.
    pub fn epoch(&self, t: f64) -> u64 {
        let e = (t / self.slot_secs()).floor();
        if e.is_finite() && e > 0.0 {
            e as u64
        } else {
            0
        }
    }

    /// Oldest epoch still inside the window at time `t`.
    fn oldest(&self, t: f64) -> u64 {
        self.epoch(t).saturating_sub(self.buckets as u64 - 1)
    }
}

/// Sentinel for "this slot has never been written".
const EMPTY: u64 = u64::MAX;

/// The epoch-addressed ring every windowed series shares: slot
/// `e % buckets` holds epoch `e`'s value and is reset to `T::default()`
/// when a write for a newer epoch lands on it.
#[derive(Debug, Clone)]
struct Ring<T> {
    spec: WindowSpec,
    slots: Vec<(u64, T)>,
}

impl<T: Clone + Default> Ring<T> {
    fn new(spec: WindowSpec) -> Self {
        Ring {
            spec,
            slots: vec![(EMPTY, T::default()); spec.buckets],
        }
    }

    /// The slot owning epoch `e`, reset first if it holds a stale epoch.
    fn slot_mut(&mut self, e: u64) -> &mut T {
        let i = (e % self.spec.buckets as u64) as usize;
        if self.slots[i].0 != e {
            self.slots[i] = (e, T::default());
        }
        &mut self.slots[i].1
    }

    /// The slot owning simulated time `t`'s epoch.
    fn at_mut(&mut self, t: f64) -> &mut T {
        self.slot_mut(self.spec.epoch(t))
    }

    /// Every slot whose epoch is still inside the window ending at `t`.
    fn live(&self, t: f64) -> impl Iterator<Item = &T> {
        let (lo, hi) = (self.spec.oldest(t), self.spec.epoch(t));
        self.slots
            .iter()
            .filter(move |(e, _)| *e != EMPTY && (lo..=hi).contains(e))
            .map(|(_, v)| v)
    }
}

/// A ring of per-slot [`Histogram`]s: `observe(t, v)` records into the
/// slot owning `t`'s epoch, `snapshot(t)` merges every slot still inside
/// the window ending at `t`.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    ring: Ring<Histogram>,
}

impl WindowedHistogram {
    /// An empty ring for `spec`.
    pub fn new(spec: WindowSpec) -> Self {
        WindowedHistogram {
            ring: Ring::new(spec),
        }
    }

    /// The window shape.
    pub fn spec(&self) -> WindowSpec {
        self.ring.spec
    }

    /// Record one observation at simulated time `t`.
    pub fn observe(&mut self, t: f64, value: f64) {
        self.ring.at_mut(t).observe(value);
    }

    /// Merged histogram of every observation still inside the window
    /// ending at `t`.
    pub fn snapshot(&self, t: f64) -> Histogram {
        let mut out = Histogram::default();
        for h in self.ring.live(t) {
            out.merge(h);
        }
        out
    }

    /// Observation count inside the window ending at `t`.
    pub fn count(&self, t: f64) -> u64 {
        self.ring.live(t).map(|h| h.count).sum()
    }
}

/// A ring of per-slot integer sums — windowed event counts (admission
/// rejections, SLO misses) and their per-second rates.
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    ring: Ring<u64>,
}

impl WindowedCounter {
    /// An empty ring for `spec`.
    pub fn new(spec: WindowSpec) -> Self {
        WindowedCounter {
            ring: Ring::new(spec),
        }
    }

    /// The window shape.
    pub fn spec(&self) -> WindowSpec {
        self.ring.spec
    }

    /// Add `by` at simulated time `t`.
    pub fn incr(&mut self, t: f64, by: u64) {
        *self.ring.at_mut(t) += by;
    }

    /// Sum over the window ending at `t`.
    pub fn sum(&self, t: f64) -> u64 {
        self.ring.live(t).sum()
    }

    /// Events per second over the window ending at `t`.
    pub fn rate_per_sec(&self, t: f64) -> f64 {
        self.sum(t) as f64 / self.ring.spec.secs
    }
}

/// Accumulated shape of a gauge inside one ring slot.
#[derive(Debug, Clone, Copy, Default)]
struct GaugeSlot {
    /// `∫ value dt` over the covered sub-span.
    area: f64,
    /// Seconds of the slot actually covered by observations.
    span: f64,
    /// Maximum value seen in the slot.
    max: f64,
}

/// A windowed *step-function* gauge for sampled series (queue depth,
/// slot utilization): `record(t, v)` means the gauge holds `v` from `t`
/// until the next record. Each ring slot integrates the step function
/// across its span, so `mean(t)` is the exact time-weighted mean over
/// the window and `max(t)` the exact maximum — independent of how often
/// the pump loop happened to sample.
#[derive(Debug, Clone)]
pub struct WindowedGauge {
    ring: Ring<GaugeSlot>,
    /// Most recent `(time, value)` step, not yet integrated past `time`.
    last: Option<(f64, f64)>,
}

impl WindowedGauge {
    /// An empty ring for `spec`.
    pub fn new(spec: WindowSpec) -> Self {
        WindowedGauge {
            ring: Ring::new(spec),
            last: None,
        }
    }

    /// The window shape.
    pub fn spec(&self) -> WindowSpec {
        self.ring.spec
    }

    /// Integrate the held value forward to `t` (no-op if `t` is not
    /// ahead of the last step). Epochs wholly outside the window at `t`
    /// are skipped — only the last `buckets` epochs can be read, so the
    /// walk is bounded even across long idle gaps.
    fn advance_to(&mut self, t: f64) {
        let Some((t0, v)) = self.last else { return };
        if t <= t0 {
            return;
        }
        let spec = self.ring.spec;
        let slot_secs = spec.slot_secs();
        for e in spec.epoch(t0).max(spec.oldest(t))..=spec.epoch(t) {
            let seg_lo = (e as f64 * slot_secs).max(t0);
            let seg_hi = ((e + 1) as f64 * slot_secs).min(t);
            if seg_hi <= seg_lo {
                continue;
            }
            let slot = self.ring.slot_mut(e);
            slot.area += v * (seg_hi - seg_lo);
            slot.span += seg_hi - seg_lo;
            slot.max = slot.max.max(v);
        }
        self.last = Some((t, v));
    }

    /// Step the gauge to `v` at simulated time `t`.
    pub fn record(&mut self, t: f64, v: f64) {
        self.advance_to(t);
        // Make a same-instant step visible to `max` even though it spans
        // zero seconds (and hence adds no area).
        let slot = self.ring.at_mut(t);
        slot.max = slot.max.max(v);
        self.last = Some((t, v));
    }

    /// Time-weighted mean over the window ending at `t` (0.0 if nothing
    /// was recorded). Advances the held value to `t` first.
    pub fn mean(&mut self, t: f64) -> f64 {
        self.advance_to(t);
        let (mut area, mut span) = (0.0, 0.0);
        for s in self.ring.live(t) {
            area += s.area;
            span += s.span;
        }
        if span > 0.0 {
            area / span
        } else {
            // Zero covered span but a live step at exactly `t`: report it.
            self.last.map_or(0.0, |(_, v)| v)
        }
    }

    /// Maximum over the window ending at `t`. Advances the held value
    /// to `t` first.
    pub fn max(&mut self, t: f64) -> f64 {
        self.advance_to(t);
        self.ring.live(t).map(|s| s.max).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_common::{prop, Rng};

    #[test]
    fn histogram_window_slides_old_slots_out() {
        let mut w = WindowedHistogram::new(WindowSpec { secs: 60.0, buckets: 6 });
        w.observe(1.0, 2.0); // epoch 0
        w.observe(25.0, 30.0); // epoch 2
        assert_eq!(w.count(30.0), 2);
        // At t = 65 the window is (5, 65]: epoch 0 has slid out.
        let snap = w.snapshot(65.0);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 30.0);
        // Far in the future everything is gone.
        assert_eq!(w.count(1e6), 0);
        // A write that lands on a stale slot resets it first.
        w.observe(601.0, 5.0); // epoch 60 → same ring index as epoch 0
        let snap = w.snapshot(601.0);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 5.0);
    }

    #[test]
    fn counter_window_sums_and_rates() {
        let mut c = WindowedCounter::new(WindowSpec { secs: 60.0, buckets: 6 });
        c.incr(0.0, 1);
        c.incr(9.9, 2); // same epoch 0 slot
        c.incr(59.0, 4);
        assert_eq!(c.sum(59.0), 7);
        assert_eq!(c.rate_per_sec(59.0), 7.0 / 60.0);
        // Epoch 0 slides out past t = 60 + slot span.
        assert_eq!(c.sum(69.0), 4);
        assert_eq!(c.sum(1e9), 0);
    }

    #[test]
    fn gauge_is_time_weighted_and_tracks_max() {
        let spec = WindowSpec { secs: 60.0, buckets: 6 };
        let mut g = WindowedGauge::new(spec);
        // Hold 2.0 for 30 s then 6.0 for 30 s. At t = 60 the quantized
        // window covers epochs 1..=6, i.e. [10, 60]: 20 s of 2.0 and
        // 30 s of 6.0 → (2·20 + 6·30) / 50 = 4.4 (the first 10 s slot
        // has slid out — the documented trailing-edge quantization).
        g.record(0.0, 2.0);
        g.record(30.0, 6.0);
        assert_eq!(g.max(60.0), 6.0);
        let m = g.mean(60.0);
        assert!((m - 4.4).abs() < 1e-9, "mean {m}");
        // After a long idle hold at 6.0 the window sees only 6.0.
        let m = g.mean(500.0);
        assert!((m - 6.0).abs() < 1e-9, "idle-held mean {m}");
        assert_eq!(g.max(500.0), 6.0);
    }

    #[test]
    fn gauge_same_instant_step_is_visible() {
        let mut g = WindowedGauge::new(WindowSpec { secs: 60.0, buckets: 6 });
        g.record(10.0, 3.0);
        // No time has passed, but the step must show up in max and mean.
        assert_eq!(g.max(10.0), 3.0);
        assert_eq!(g.mean(10.0), 3.0);
    }

    #[test]
    fn gauge_idle_gap_walk_is_bounded_and_correct() {
        // A gap of millions of epochs must not iterate per-epoch, and the
        // window after the gap must still read the held value.
        let mut g = WindowedGauge::new(WindowSpec { secs: 60.0, buckets: 6 });
        g.record(0.0, 5.0);
        g.record(10_000_000.0, 1.0);
        let m = g.mean(10_000_000.0);
        assert!((m - 5.0).abs() < 1e-9, "held value across the gap: {m}");
        assert_eq!(g.max(10_000_000.0), 5.0);
    }

    /// Satellite (a): when the window covers the entire run, windowed
    /// quantiles equal whole-run quantiles — `Histogram::merge` is exact,
    /// so the ring-buffer decomposition must be lossless.
    #[test]
    fn prop_full_window_quantiles_match_whole_run() {
        prop::check(
            "window covers run => windowed quantiles == whole-run quantiles",
            64,
            |g| {
                let n = g.len_in(1, 200);
                (0..n)
                    .map(|_| {
                        // Times inside [0, 900); the 1000 s window covers all.
                        let t = g.gen_range(0..9000u64) as f64 * 0.1;
                        let v = g.gen_range(0..100_000u64) as f64 * 1e-3;
                        (t, v)
                    })
                    .collect::<Vec<(f64, f64)>>()
            },
            |obs| {
                let mut whole = Histogram::default();
                let mut windowed =
                    WindowedHistogram::new(WindowSpec { secs: 1000.0, buckets: 10 });
                for &(t, v) in obs {
                    whole.observe(v);
                    windowed.observe(t, v);
                }
                let snap = windowed.snapshot(900.0);
                if snap.buckets != whole.buckets || snap.count != whole.count {
                    return Err(format!(
                        "window lost mass: {} vs {}",
                        snap.count, whole.count
                    ));
                }
                for &p in &[0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
                    if snap.quantile(p) != whole.quantile(p) {
                        return Err(format!("quantile({p}) diverged"));
                    }
                }
                Ok(())
            },
        );
    }

    /// Satellite (PR 10): wraparound correctness. Feed a histogram far
    /// past its ring capacity — epochs wrapping the bucket array dozens
    /// of times — and the snapshot must agree exactly with a whole-run
    /// histogram restricted to the observations whose epoch lies inside
    /// the quantized window, across seeds.
    #[test]
    fn prop_wraparound_window_matches_epoch_restricted_whole_run() {
        prop::check(
            "ring wraparound == epoch-restricted whole run",
            64,
            |g| {
                let n = g.len_in(1, 300);
                let mut obs: Vec<(f64, f64)> = (0..n)
                    .map(|_| {
                        // Times span [0, 3000): a 60 s / 6-bucket ring
                        // (10 s slots) wraps its 6 slots ~50 times.
                        let t = g.gen_range(0..30_000u64) as f64 * 0.1;
                        let v = g.gen_range(0..100_000u64) as f64 * 1e-3;
                        (t, v)
                    })
                    .collect();
                obs.sort_by(|a, b| a.0.total_cmp(&b.0));
                obs
            },
            |obs| {
                let spec = WindowSpec { secs: 60.0, buckets: 6 };
                let mut windowed = WindowedHistogram::new(spec);
                for &(t, v) in obs {
                    windowed.observe(t, v);
                }
                let t_end = obs.last().expect("non-empty").0;
                // The quantized window at t_end covers exactly the
                // epochs the ring retains: the newest `buckets` slots.
                let hi = spec.epoch(t_end);
                let lo = hi.saturating_sub(spec.buckets as u64 - 1);
                let mut expect = Histogram::default();
                for &(t, v) in obs.iter().filter(|(t, _)| {
                    let e = spec.epoch(*t);
                    e >= lo && e <= hi
                }) {
                    let _ = t;
                    expect.observe(v);
                }
                let snap = windowed.snapshot(t_end);
                // Buckets and count must match exactly; the sum only to
                // rounding (slot-merge regroups the additions).
                if snap.buckets != expect.buckets || snap.count != expect.count {
                    return Err(format!(
                        "wraparound diverged: count {} vs {}",
                        snap.count, expect.count
                    ));
                }
                if (snap.sum - expect.sum).abs() > 1e-6 * expect.sum.abs().max(1.0) {
                    return Err(format!("sum diverged: {} vs {}", snap.sum, expect.sum));
                }
                for &p in &[0.0, 0.5, 0.95, 0.99, 1.0] {
                    if snap.quantile(p) != expect.quantile(p) {
                        return Err(format!("quantile({p}) diverged after wrap"));
                    }
                }
                Ok(())
            },
        );
    }

    /// The ring never over-reports: a snapshot at any time holds a subset
    /// of all observations, and sliding forward is monotone non-increasing
    /// once writes stop.
    #[test]
    fn prop_window_counts_never_exceed_total() {
        prop::check(
            "windowed count <= total count",
            64,
            |g| {
                let n = g.len_in(1, 100);
                (0..n)
                    .map(|_| g.gen_range(0..100_000u64) as f64 * 0.01)
                    .collect::<Vec<f64>>()
            },
            |times| {
                let mut w = WindowedHistogram::new(WindowSpec::of_secs(60.0));
                let mut sorted = times.clone();
                sorted.sort_by(f64::total_cmp);
                for &t in &sorted {
                    w.observe(t, 1.0);
                }
                let end = *sorted.last().expect("non-empty");
                let mut prev = w.count(end);
                if prev > sorted.len() as u64 {
                    return Err("over-reported".into());
                }
                for k in 1..=20 {
                    let c = w.count(end + k as f64 * 7.0);
                    if c > prev {
                        return Err(format!("count grew while idle: {c} > {prev}"));
                    }
                    prev = c;
                }
                Ok(())
            },
        );
    }
}
