//! Command-line parsing for the `repro` binary, as a library module so
//! the bad-invocation matrix is unit-testable.
//!
//! The contract: every unrecognized `--flag` is a typed
//! [`BenchError::Usage`] — nothing falls through silently as a
//! positional — and every known flag with a missing or malformed value
//! is a typed [`BenchError::BadArg`] naming the expectation it violated.
//! `main` prints the error plus [`USAGE`] and exits 2; the binary never
//! panics on bad input.

use dyno_cluster::SchedulerPolicy;

use crate::error::BenchError;
use crate::serve::ServeOptions;

/// The `repro` usage text (also printed on `--help`).
pub const USAGE: &str = "usage: repro [all|table1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|ablations|reopt_ab] [--divisor N]
       repro profile <query> <sf> [--divisor N]
       repro trace <query> <sf> [--divisor N]
       repro workload <spec> <sf> [--seed N] [--divisor N] [--reuse]
                      [--concurrent [--arrival-mean S] [--sched POLICY]]
       repro timeline <query|spec> <sf> [--seed N] [--divisor N]
                      [--arrival-mean S] [--sched POLICY]
       repro serve <spec> <sf> [--tenants N] [--seed N] [--divisor N]
                   [--sched POLICY] [--arrival-mean S] [--nodes N]
                   [--slo-mult X] [--max-in-flight N] [--quota-slot-secs S]
                   [--tenant-skew X] [--health] [--health-interval S]
                   [--sample-one-in N] [--replan-after S]
                   [--incidents] [--incident-top K]

queries:  q2 q5 q7 q8_prime q9_prime q10 q1_restaurant
workload: comma-separated entries of the form name[@mode][xN],
          e.g. 'q2x3,q8_prime@relopt,q10@simplex2'
modes:    dynopt (default) | simple | relopt | beststatic | jaql
sched:    POLICY is fifo | fair | priority | edf (aliases: deadline,
          deadline_edf) — one parser shared by every harness
concurrent: run the stream through the QueryService front door on ONE
          shared cluster with seeded arrival offsets (--arrival-mean,
          default 30s) under --sched (fifo)
reuse:    keep the optimizer memo across re-optimization rounds and a
          plan cache across the stream (serial workload runner only)
timeline: run the stream on the shared cluster and report the sampled
          slot-utilization / queue-depth telemetry
serve:    stand up the multi-tenant service front door and replay a
          seeded bursty/diurnal arrival stream over --tenants tenants
          (admission control per tenant; deadlines from calibrated solo
          latency x --slo-mult; report p50..p999, SLO attainment,
          rejections, and per-tenant fairness)
health:   --health turns on sliding-window SLO burn-rate alerting and a
          digest of the live health windows every --health-interval
          simulated seconds (default 300); observe-only and
          deterministic. --sample-one-in N keeps span trees only for
          SLO-violating / OOM-recovering / alert-overlapping queries
          plus a seeded 1-in-N baseline (0 = keep everything)
incidents: --incidents arms the flight recorder: every burn-rate alert
          freezes a deterministic incident report (pre-fire state
          samples, top --incident-top SLO-violating queries with
          critical-path blame, suspect tenants) written as
          incident-NNNN.{txt,json} next to the report; implies the SLO
          monitor but not the --health digests, and stays observe-only
scale:    --nodes N overrides the worker-node count (default 14); the
          indexed ready-queues keep ~1000 nodes / 10k slots tractable.
          --replan-after S re-probes a queued ticket's stats basis when
          it waited longer than S simulated seconds and re-optimizes iff
          a stats version moved (queue-time re-planning)";

/// Parsed command line: positional arguments plus the shared flags.
#[derive(Debug)]
pub struct Cli {
    /// Subcommand + its positional operands, in order.
    pub positional: Vec<String>,
    /// `--divisor N` (physical scale; default 50 000).
    pub divisor: u64,
    /// `--seed N` (shuffle/arrival seed; default 0).
    pub seed: u64,
    /// `--concurrent` (workload: shared-cluster runner).
    pub concurrent: bool,
    /// `--reuse` (serial workload runner: memo + plan-cache reuse).
    pub reuse: bool,
    /// Population-runner knobs (`--arrival-mean`, `--sched`,
    /// `--tenants`, `--slo-mult`, …) for `serve`; `timeline` and
    /// `workload --concurrent` take `--arrival-mean` and `--sched` only.
    pub serve_opts: ServeOptions,
}

/// Parse `args` (without the program name). `Ok(None)` means `--help`
/// was requested: print [`USAGE`] and exit 0.
pub fn parse_cli(args: &[String]) -> Result<Option<Cli>, BenchError> {
    let mut positional = Vec::new();
    let mut divisor = 50_000u64;
    let mut seed = 0u64;
    let mut concurrent = false;
    let mut reuse = false;
    let mut serve_opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--divisor" => {
                divisor = parse_flag_u64(it.next(), "--divisor", "a positive integer")?;
                if divisor == 0 {
                    return Err(BenchError::BadArg {
                        arg: "--divisor".to_owned(),
                        expected: "a positive integer".to_owned(),
                    });
                }
            }
            "--seed" => {
                seed = parse_flag_u64(it.next(), "--seed", "an unsigned integer")?;
            }
            "--concurrent" => concurrent = true,
            "--reuse" => reuse = true,
            "--arrival-mean" => {
                let mean = parse_flag_f64(
                    it.next(),
                    "--arrival-mean",
                    "a non-negative number of seconds",
                    |m| m >= 0.0,
                )?;
                serve_opts.arrival_mean = mean;
            }
            "--sched" => {
                // ONE typed parser for every harness (workload,
                // timeline, serve): dyno-cluster owns the spellings.
                let raw = it.next().map(String::as_str).unwrap_or("");
                serve_opts.sched = SchedulerPolicy::parse(raw).ok_or_else(|| BenchError::BadArg {
                    arg: "--sched".to_owned(),
                    expected: "fifo, fair, priority, edf, deadline, or deadline_edf".to_owned(),
                })?;
            }
            "--nodes" => {
                let n = parse_flag_u64(it.next(), "--nodes", "a positive node count")?;
                if n == 0 || n > 1_000_000 {
                    return Err(BenchError::BadArg {
                        arg: "--nodes".to_owned(),
                        expected: "a positive node count".to_owned(),
                    });
                }
                serve_opts.nodes = Some(n as usize);
            }
            "--replan-after" => {
                serve_opts.replan_after = Some(parse_flag_f64(
                    it.next(),
                    "--replan-after",
                    "a non-negative number of seconds",
                    |s| s >= 0.0,
                )?);
            }
            "--tenants" => {
                let n = parse_flag_u64(it.next(), "--tenants", "a positive tenant count")?;
                if n == 0 || n > u32::MAX as u64 {
                    return Err(BenchError::BadArg {
                        arg: "--tenants".to_owned(),
                        expected: "a positive tenant count".to_owned(),
                    });
                }
                serve_opts.tenants = n as u32;
            }
            "--slo-mult" => {
                serve_opts.slo_mult = parse_flag_f64(
                    it.next(),
                    "--slo-mult",
                    "a positive deadline multiple",
                    |m| m > 0.0,
                )?;
            }
            "--max-in-flight" => {
                let n =
                    parse_flag_u64(it.next(), "--max-in-flight", "a positive in-flight cap")?;
                if n == 0 {
                    return Err(BenchError::BadArg {
                        arg: "--max-in-flight".to_owned(),
                        expected: "a positive in-flight cap".to_owned(),
                    });
                }
                serve_opts.max_in_flight = n as usize;
            }
            "--quota-slot-secs" => {
                serve_opts.quota_slot_secs = parse_flag_f64(
                    it.next(),
                    "--quota-slot-secs",
                    "a positive slot-seconds budget",
                    |q| q > 0.0,
                )?;
            }
            "--tenant-skew" => {
                serve_opts.tenant_skew = parse_flag_f64(
                    it.next(),
                    "--tenant-skew",
                    "a skew exponent >= 1",
                    |s| s >= 1.0,
                )?;
            }
            "--health" => serve_opts.health = true,
            "--health-interval" => {
                serve_opts.health_interval = parse_flag_f64(
                    it.next(),
                    "--health-interval",
                    "a positive number of seconds",
                    |s| s > 0.0,
                )?;
            }
            "--sample-one-in" => {
                let n = parse_flag_u64(it.next(), "--sample-one-in", "a positive keep rate")?;
                if n == 0 {
                    return Err(BenchError::BadArg {
                        arg: "--sample-one-in".to_owned(),
                        expected: "a positive keep rate".to_owned(),
                    });
                }
                serve_opts.sample_one_in = n;
            }
            "--incidents" => serve_opts.incidents = true,
            "--incident-top" => {
                let k = parse_flag_u64(it.next(), "--incident-top", "a positive query count")?;
                if k == 0 {
                    return Err(BenchError::BadArg {
                        arg: "--incident-top".to_owned(),
                        expected: "a positive query count".to_owned(),
                    });
                }
                serve_opts.incident_top = k as usize;
            }
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => {
                return Err(BenchError::Usage(format!(
                    "unrecognized flag {other:?} (see usage)"
                )));
            }
            other => positional.push(other.to_owned()),
        }
    }
    // Only the serial workload runner has a plan cache to reuse.
    if reuse && (concurrent || positional.first().map(String::as_str) != Some("workload")) {
        return Err(BenchError::Usage(
            "--reuse applies only to the serial `repro workload` runner".to_owned(),
        ));
    }
    Ok(Some(Cli {
        positional,
        divisor,
        seed,
        concurrent,
        reuse,
        serve_opts,
    }))
}

fn parse_flag_u64(
    value: Option<&String>,
    flag: &str,
    expected: &str,
) -> Result<u64, BenchError> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| BenchError::BadArg {
            arg: flag.to_owned(),
            expected: expected.to_owned(),
        })
}

fn parse_flag_f64(
    value: Option<&String>,
    flag: &str,
    expected: &str,
    valid: impl Fn(f64) -> bool,
) -> Result<f64, BenchError> {
    value
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|x| x.is_finite() && valid(*x))
        .ok_or_else(|| BenchError::BadArg {
            arg: flag.to_owned(),
            expected: expected.to_owned(),
        })
}

/// The `i`-th positional operand, or a typed missing-argument error.
pub fn positional<'a>(cli: &'a Cli, i: usize, what: &str) -> Result<&'a str, BenchError> {
    cli.positional
        .get(i)
        .map(String::as_str)
        .ok_or_else(|| BenchError::BadArg {
            arg: what.to_owned(),
            expected: "a value (missing positional argument)".to_owned(),
        })
}

/// Parse positional `i` as a scale factor.
pub fn parse_sf(cli: &Cli, i: usize) -> Result<u64, BenchError> {
    let raw = positional(cli, i, "<sf>")?;
    raw.parse().map_err(|_| BenchError::BadArg {
        arg: raw.to_owned(),
        expected: "a numeric scale factor".to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_cluster::SchedulerPolicy;

    fn parse(args: &[&str]) -> Result<Option<Cli>, BenchError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&owned)
    }

    #[test]
    fn flags_and_positionals_parse() {
        let cli = parse(&[
            "serve",
            "q2x3",
            "100",
            "--tenants",
            "1000",
            "--seed",
            "7",
            "--sched",
            "edf",
            "--slo-mult",
            "3.5",
            "--max-in-flight",
            "2",
            "--quota-slot-secs",
            "5000",
            "--arrival-mean",
            "12.5",
            "--health",
            "--health-interval",
            "60",
            "--sample-one-in",
            "10",
            "--incidents",
            "--incident-top",
            "5",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(cli.positional, vec!["serve", "q2x3", "100"]);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.serve_opts.tenants, 1000);
        assert_eq!(cli.serve_opts.sched, SchedulerPolicy::DeadlineEdf);
        assert_eq!(cli.serve_opts.slo_mult, 3.5);
        assert_eq!(cli.serve_opts.max_in_flight, 2);
        assert_eq!(cli.serve_opts.quota_slot_secs, 5000.0);
        assert_eq!(cli.serve_opts.arrival_mean, 12.5);
        assert!(cli.serve_opts.health);
        assert_eq!(cli.serve_opts.health_interval, 60.0);
        assert_eq!(cli.serve_opts.sample_one_in, 10);
        assert!(cli.serve_opts.incidents);
        assert_eq!(cli.serve_opts.incident_top, 5);
        assert_eq!(positional(&cli, 1, "<spec>").unwrap(), "q2x3");
        assert_eq!(parse_sf(&cli, 2).unwrap(), 100);
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse(&["--help"]).unwrap().is_none());
        assert!(parse(&["workload", "-h"]).unwrap().is_none());
    }

    /// Satellite: the bad-invocation matrix. Every unknown flag is a
    /// typed `Usage` error; every known flag with a missing/garbage
    /// value is a typed `BadArg` naming the flag.
    #[test]
    fn bad_invocation_matrix() {
        let usage: &[&[&str]] = &[
            &["--frobnicate"],
            &["workload", "q2", "1", "--sched-policy", "edf"],
            &["serve", "q2", "1", "--tenant", "5"],
            &["serve", "q2", "1", "--incident"],
            &["--concurrency"],
            &["-x"],
            &["workload", "q2", "1", "--reuse", "--concurrent"],
            &["timeline", "q2", "1", "--reuse"],
            &["serve", "q2", "1", "--reuse"],
            &["--reuse"],
        ];
        for args in usage {
            match parse(args) {
                Err(BenchError::Usage(msg)) => {
                    assert!(msg.contains(args.iter().find(|a| a.starts_with('-')).unwrap()))
                }
                other => panic!("{args:?} must be Usage, got {other:?}"),
            }
        }

        let bad_arg: &[(&[&str], &str)] = &[
            (&["--divisor"], "--divisor"),
            (&["--divisor", "0"], "--divisor"),
            (&["--divisor", "many"], "--divisor"),
            (&["--seed", "minus-one"], "--seed"),
            (&["--seed"], "--seed"),
            (&["--sched", "lottery"], "--sched"),
            (&["--sched"], "--sched"),
            (&["--sched", "fifo "], "--sched"),
            (&["--sched", "edf,fair"], "--sched"),
            (&["--nodes", "0"], "--nodes"),
            (&["--nodes", "fourteen"], "--nodes"),
            (&["--nodes"], "--nodes"),
            (&["--replan-after", "-5"], "--replan-after"),
            (&["--replan-after", "NaN"], "--replan-after"),
            (&["--replan-after"], "--replan-after"),
            (&["--arrival-mean", "-3"], "--arrival-mean"),
            (&["--arrival-mean", "NaN"], "--arrival-mean"),
            (&["--tenants", "0"], "--tenants"),
            (&["--tenants", "5000000000"], "--tenants"),
            (&["--slo-mult", "0"], "--slo-mult"),
            (&["--slo-mult", "inf"], "--slo-mult"),
            (&["--max-in-flight", "0"], "--max-in-flight"),
            (&["--quota-slot-secs", "-1"], "--quota-slot-secs"),
            (&["--tenant-skew", "0.5"], "--tenant-skew"),
            (&["--tenant-skew"], "--tenant-skew"),
            (&["--health-interval", "0"], "--health-interval"),
            (&["--health-interval", "NaN"], "--health-interval"),
            (&["--health-interval"], "--health-interval"),
            (&["--sample-one-in", "0"], "--sample-one-in"),
            (&["--sample-one-in", "half"], "--sample-one-in"),
            (&["--incident-top"], "--incident-top"),
            (&["--incident-top", "0"], "--incident-top"),
            (&["--incident-top", "three"], "--incident-top"),
        ];
        for (args, flag) in bad_arg {
            match parse(args) {
                Err(BenchError::BadArg { arg, .. }) => assert_eq!(&arg, flag, "{args:?}"),
                other => panic!("{args:?} must be BadArg on {flag}, got {other:?}"),
            }
        }
    }

    /// Satellite: the union of `--sched` spellings the workload and
    /// serve flags historically accepted all resolve through the ONE
    /// shared [`SchedulerPolicy::parse`].
    #[test]
    fn sched_spellings_parse_uniformly_for_all_harnesses() {
        let table: &[(&str, SchedulerPolicy)] = &[
            ("fifo", SchedulerPolicy::Fifo),
            ("fair", SchedulerPolicy::Fair),
            ("priority", SchedulerPolicy::Priority),
            ("edf", SchedulerPolicy::DeadlineEdf),
            ("deadline", SchedulerPolicy::DeadlineEdf),
            ("deadline_edf", SchedulerPolicy::DeadlineEdf),
        ];
        for &(spelling, want) in table {
            let cli = parse(&["workload", "q2", "1", "--sched", spelling])
                .unwrap()
                .unwrap();
            assert_eq!(cli.serve_opts.sched, want, "--sched {spelling}");
        }
    }

    #[test]
    fn nodes_and_replan_after_flags_reach_serve_opts() {
        let cli = parse(&[
            "serve", "q2", "1", "--nodes", "1000", "--replan-after", "30",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(cli.serve_opts.nodes, Some(1000));
        assert_eq!(cli.serve_opts.replan_after, Some(30.0));
        let plain = parse(&["serve", "q2", "1"]).unwrap().unwrap();
        assert_eq!(plain.serve_opts.nodes, None, "default keeps the paper testbed");
        assert_eq!(plain.serve_opts.replan_after, None, "re-planning is opt-in");
    }

    #[test]
    fn negative_positionals_are_not_swallowed() {
        // A bare negative number is not a flag the CLI knows; it must
        // error rather than becoming a positional.
        assert!(matches!(
            parse(&["workload", "q2", "-1"]),
            Err(BenchError::Usage(_))
        ));
    }
}
