//! `repro timeline <query|spec> <sf>` — cluster telemetry report.
//!
//! Runs the stream on ONE shared simulated cluster (the population
//! runner with an [`ArrivalSource::Stream`](crate::serve::ArrivalSource),
//! so a single query and a multi-query spec both exercise the same
//! sampled timeline) and folds the recorded [`Timeline`](dyno_obs::Timeline)
//! series into a utilization report: peak/average map and reduce slot
//! occupancy, time spent with every map slot busy, the queue-depth
//! trajectory, a 60-bucket map-utilization sparkline, and peak resident
//! memory. The final `peak map utilization:` line is machine-parseable —
//! `ci.sh` diffs it against `repro_output.txt`.
//!
//! Everything is derived from the step-function samples the simulator
//! records on the simulated clock, so the whole report is byte-identical
//! across identical `(spec, sf, seed, arrival-mean, sched)` runs
//! (property-tested below).

use dyno_obs::Sample;

use crate::render::pct;
use crate::serve::ServeReport;

/// Width of the utilization sparkline, in buckets.
const SPARK_WIDTH: usize = 60;

/// Fold a population run's sampled timeline into the utilization report.
pub fn render_timeline(report: &ServeReport) -> String {
    let timeline = &report.obs.timeline;
    let st = timeline.stats();
    let samples = timeline.samples();
    let secs = |x: f64| format!("{x:.1}s");
    let window = st.end - st.start;
    let of_window = |x: f64| if window > 0.0 { pct(x / window) } else { pct(0.0) };

    let mut out = String::new();
    out.push_str(&format!(
        "== timeline: {} queries, SF={}, seed={}, sched={}, arrival-mean={}s ==\n",
        report.queries.len(),
        report.sf,
        report.seed,
        report.opts.sched.name(),
        report.opts.arrival_mean,
    ));
    out.push_str(&format!(
        "window: {} .. {} ({} samples)\n",
        secs(st.start),
        secs(st.end),
        samples.len(),
    ));
    out.push_str(&format!(
        "map slots:    peak {}/{} ({})  avg {:.1}/{} ({})  at-full {} ({} of window)\n",
        st.peak_map_busy,
        st.map_cap,
        pct(st.peak_map_util()),
        st.avg_map_busy,
        st.map_cap,
        pct(st.avg_map_util()),
        secs(st.full_map_secs),
        of_window(st.full_map_secs),
    ));
    out.push_str(&format!(
        "reduce slots: peak {}/{} ({})  avg {:.1}/{} ({})\n",
        st.peak_reduce_busy,
        st.reduce_cap,
        pct(st.peak_reduce_util()),
        st.avg_reduce_busy,
        st.reduce_cap,
        pct(st.avg_reduce_util()),
    ));
    out.push_str(&format!(
        "pending jobs: peak {}  avg {:.1}\n",
        st.peak_pending, st.avg_pending,
    ));
    out.push_str("queue-depth trajectory (time at each in-flight job count):\n");
    for (depth, &t) in st.pending_secs.iter().enumerate() {
        if t == 0.0 {
            continue;
        }
        out.push_str(&format!(
            "  depth {depth:>2}: {:>9} ({})\n",
            secs(t),
            of_window(t),
        ));
    }
    if let Some(spark) = sparkline(&samples, st.map_cap) {
        out.push_str(&format!(
            "map utilization ({SPARK_WIDTH} buckets of {}): [{spark}]\n",
            secs(window / SPARK_WIDTH as f64),
        ));
    }
    out.push_str(&format!(
        "latency (n={}): {}\n",
        report.latency.count,
        report.latency.percentile_cols(&[0.50, 0.95, 0.99, 0.999], 0, "  "),
    ));
    out.push_str(&format!(
        "peak resident memory: {} bytes\n",
        st.peak_resident_bytes
    ));
    // The machine-parseable line ci.sh diffs against repro_output.txt.
    out.push_str(&format!(
        "peak map utilization: {} ({}/{} slots)\n",
        pct(st.peak_map_util()),
        st.peak_map_busy,
        st.map_cap,
    ));
    out
}

/// Render the map-busy step function as a fixed-width sparkline: each
/// bucket is the time-weighted mean utilization of its slice of the
/// window, drawn as `.` (idle), `1`–`9` (tenths), or `+` (full).
fn sparkline(samples: &[Sample], map_cap: u32) -> Option<String> {
    let (first, last) = (samples.first()?, samples.last()?);
    let span = last.time - first.time;
    if span <= 0.0 || map_cap == 0 {
        return None;
    }
    let mut areas = [0.0f64; SPARK_WIDTH];
    for w in samples.windows(2) {
        let (t0, t1) = (w[0].time, w[1].time);
        let v = w[0].map_busy as f64;
        let lo = ((t0 - first.time) / span * SPARK_WIDTH as f64).floor() as usize;
        let hi = ((t1 - first.time) / span * SPARK_WIDTH as f64).ceil() as usize;
        for (b, area) in areas.iter_mut().enumerate().take(hi.min(SPARK_WIDTH)).skip(lo) {
            let bs = first.time + span * b as f64 / SPARK_WIDTH as f64;
            let be = first.time + span * (b + 1) as f64 / SPARK_WIDTH as f64;
            let overlap = (t1.min(be) - t0.max(bs)).max(0.0);
            *area += v * overlap;
        }
    }
    let bucket_span = span / SPARK_WIDTH as f64;
    let line: String = areas
        .iter()
        .map(|a| {
            let util = (a / bucket_span / map_cap as f64).clamp(0.0, 1.0);
            match (util * 10.0).round() as u32 {
                0 => '.',
                l if l >= 10 => '+',
                l => char::from_digit(l, 10).unwrap(),
            }
        })
        .collect();
    Some(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExpScale;
    use crate::serve::{run_serve, ArrivalSource, ServeOptions};
    use crate::BenchError;
    use dyno_common::{prop, Rng};

    fn run(spec: &str, seed: u64) -> Result<ServeReport, BenchError> {
        let opts = ServeOptions {
            arrival_mean: 5.0,
            ..ServeOptions::default()
        };
        run_serve(spec, 1, seed, ExpScale { divisor: 200_000 }, ArrivalSource::Stream, opts)
    }

    #[test]
    fn timeline_report_renders_utilization_and_trajectory() {
        let out = render_timeline(&run("q2,q10", 7).unwrap());
        assert!(out.starts_with("== timeline: 2 queries, SF=1, seed=7, sched=fifo"), "{out}");
        assert!(out.contains("map slots:    peak "), "{out}");
        assert!(out.contains("at-full "), "{out}");
        assert!(out.contains("queue-depth trajectory"), "{out}");
        assert!(out.contains("depth "), "{out}");
        assert!(out.contains("map utilization (60 buckets of "), "{out}");
        assert!(out.contains("latency (n=2): p50 "), "{out}");
        assert!(
            out.lines().last().unwrap().starts_with("peak map utilization: "),
            "last line is the ci.sh diff line: {out}"
        );
    }

    #[test]
    fn single_query_is_a_valid_spec() {
        let out = render_timeline(&run("q10", 0).unwrap());
        assert!(out.starts_with("== timeline: 1 queries"), "{out}");
        assert!(out.contains("peak map utilization: "), "{out}");
    }

    #[test]
    fn sparkline_levels_follow_the_step_function() {
        let s = |time, map_busy| Sample {
            time,
            map_busy,
            reduce_busy: 0,
            pending_jobs: 0,
            resident_bytes: 0,
        };
        // Full for the first half of the window, idle for the second.
        let spark = sparkline(&[s(0.0, 10), s(30.0, 0), s(60.0, 0)], 10).unwrap();
        assert_eq!(spark.len(), SPARK_WIDTH);
        assert!(spark.starts_with("++++"), "{spark}");
        assert!(spark.ends_with("...."), "{spark}");
        // Degenerate inputs render nothing rather than panicking.
        assert_eq!(sparkline(&[], 10), None);
        assert_eq!(sparkline(&[s(0.0, 1)], 10), None);
        assert_eq!(sparkline(&[s(0.0, 1), s(1.0, 0)], 0), None);
    }

    /// Satellite: timeline samples are byte-identical across identical
    /// `(spec, sf, seed)` runs and strictly time-ordered.
    #[test]
    fn timeline_is_byte_identical_and_strictly_time_ordered() {
        prop::check(
            "timeline determinism",
            3,
            |g| g.gen_range(0..1000u64),
            |&seed| {
                let a = run("q2,q10", seed).map_err(|e| e.to_string())?;
                let b = run("q2,q10", seed).map_err(|e| e.to_string())?;
                if a.obs.timeline.render() != b.obs.timeline.render() {
                    return Err("same seed produced different timelines".to_owned());
                }
                if render_timeline(&a) != render_timeline(&b) {
                    return Err("same seed produced different reports".to_owned());
                }
                let samples = a.obs.timeline.samples();
                if samples.is_empty() {
                    return Err("shared cluster recorded no samples".to_owned());
                }
                for w in samples.windows(2) {
                    if !(w[1].time > w[0].time) {
                        return Err(format!(
                            "samples not strictly ordered: {} then {}",
                            w[0].time, w[1].time
                        ));
                    }
                }
                Ok(())
            },
        );
    }
}
