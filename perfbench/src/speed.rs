//! The host's speed while a workload runs, measured by timing a fixed
//! reference computation between the workload's steps.
//!
//! A shared host runs the same code faster or slower from one minute to
//! the next, by a fifth and more. The reference computation slows down
//! with it, so dividing a workload's wall time by the reference time
//! measured in the same interval leaves the program's own cost.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds one reference computation takes on the reference host: a
/// 2-core x86-64 host at a quiet time. Times scaled with [`Probe::scale`]
/// read as seconds on that host.
pub const REFERENCE_S: f64 = 0.0007;

/// Hash-map inserts, a sort and lookups over 8 192 keys: the kind of
/// work the program's joins and aggregations do, on a fixed input, so
/// its time changes only with the host.
fn reference(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..(1u64 << 13) {
        map.insert(next() % (1 << 18), i);
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    keys.iter().fold(0, |s, k| s.wrapping_add(map[k]))
}

/// One reference computation is due per this much wall time, so that
/// every stretch of the run weighs by its length. The ticks cost about
/// 3 % of the run, which is taken out of the run's time.
const INTERVAL: Duration = Duration::from_millis(20);

/// At most this many reference computations in one [`Probe::tick`].
const MAX_BURST: u32 = 250;

/// Times the reference computation at the workload's break points. A
/// disabled probe does nothing.
#[derive(Debug)]
pub struct Probe {
    /// When the next reference computation is due; `None` if disabled.
    due: Option<Instant>,
    spent: Duration,
    calls: u32,
}

impl Probe {
    /// A probe that measures (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Probe {
            due: enabled.then(|| Instant::now() + INTERVAL),
            spent: Duration::ZERO,
            calls: 0,
        }
    }

    /// At a break point of the workload: run the reference computation
    /// once for every interval that has passed since the last one was
    /// due, and add their wall time.
    pub fn tick(&mut self) {
        let Some(mut due) = self.due else {
            return;
        };
        let mut burst = 0;
        while Instant::now() >= due && burst < MAX_BURST {
            let t = Instant::now();
            black_box(reference(black_box(u64::from(self.calls))));
            self.spent += t.elapsed();
            self.calls += 1;
            burst += 1;
            due += INTERVAL;
        }
        self.due = Some(due.max(Instant::now()));
    }

    /// Wall seconds of every tick so far, to take out of the interval
    /// they ran in.
    pub fn spent_s(&self) -> f64 {
        self.spent.as_secs_f64()
    }

    /// Mean seconds per reference computation, or [`REFERENCE_S`] if
    /// the probe never ticked.
    pub fn per_call_s(&self) -> f64 {
        match self.calls {
            0 => REFERENCE_S,
            n => self.spent_s() / f64::from(n),
        }
    }
}

/// `secs`, measured while one reference computation took `per_call_s`,
/// scaled to the reference host's speed.
pub fn scale(secs: f64, per_call_s: f64) -> f64 {
    secs * (REFERENCE_S / per_call_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_computation_is_fixed() {
        assert_eq!(reference(3), reference(3));
        assert_ne!(reference(3), reference(4));
    }

    #[test]
    fn probe_measures_only_when_enabled() {
        let mut off = Probe::new(false);
        off.tick();
        assert_eq!((off.calls, off.spent_s()), (0, 0.0));
        assert_eq!(off.per_call_s(), REFERENCE_S);

        let mut on = Probe::new(true);
        on.tick();
        assert_eq!(on.calls, 0, "nothing is due yet");
        std::thread::sleep(INTERVAL * 3);
        on.tick();
        assert!((3..=4).contains(&on.calls), "{} calls", on.calls);
        assert!(on.spent_s() > 0.0);
        assert_eq!(on.per_call_s(), on.spent_s() / f64::from(on.calls));
    }

    #[test]
    fn scaling_divides_out_the_host_speed() {
        assert_eq!(scale(3.0, REFERENCE_S), 3.0);
        assert_eq!(scale(3.0, 2.0 * REFERENCE_S), 1.5);
    }
}
