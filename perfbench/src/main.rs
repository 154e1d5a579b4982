//! Wall time, peak RSS and per-layer attribution of the dyno workspace on
//! three workloads (see `perfbench/README.md`).
//!
//! ```text
//! dyno-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The command repeats the workload, each repetition in a fresh worker
//! process (this same executable with `--worker <pass>`), for about
//! `--seconds`, and prints the medians as one JSON line.
//! `--trace 0` gives the end-to-end metrics; `--trace 1` runs a traced,
//! an untraced and (on `serve_backlog`) an observability-off pass per
//! repetition and gives the per-layer metrics. Times are scaled to a
//! reference host's speed, measured in each worker (see `speed`).

mod digest;
mod layers;
mod loc;
mod procfs;
mod speed;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use workloads::{Pass, RunReport, Workload};

/// The seed whose outcome digests are committed as the reference.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 41] = [
    ("tpch.generate_s", "s"),
    ("tpch.rss_mb", "MB"),
    ("query.compile_s", "s"),
    ("core.poll_jobs_s", "s"),
    ("core.poll_reopt_s", "s"),
    ("core.pilot_s", "s"),
    ("core.oracle_s", "s"),
    ("core.orders_considered", "count"),
    ("core.oom_recoveries", "count"),
    ("core.pilot_leaves_piloted", "count"),
    ("core.pilot_leaves_reused", "count"),
    ("stats.metastore_hits", "count"),
    ("stats.metastore_misses", "count"),
    ("stats.metastore_hit_ratio", "ratio"),
    ("optimizer.expressions_costed", "count"),
    ("optimizer.plans_pruned", "count"),
    ("exec.shuffle_mb", "MB"),
    ("exec.broadcast_build_mb", "MB"),
    ("exec.join_candidates", "count"),
    ("cluster.run_s", "s"),
    ("cluster.jobs", "count"),
    ("cluster.tasks_retried", "count"),
    ("service.submit_s", "s"),
    ("service.advance_s", "s"),
    ("service.drain_s", "s"),
    ("service.advance_s.first_tenth", "s"),
    ("service.advance_s.last_tenth", "s"),
    ("service.completed", "count"),
    ("service.queued_at_admission", "count"),
    ("service.rejected", "count"),
    ("obs.export_s", "s"),
    ("obs.validate_s", "s"),
    ("obs.incidents_s", "s"),
    ("obs.trace_mb", "MB"),
    ("obs.spans", "count"),
    ("obs.events", "count"),
    ("obs.pump_overhead_s", "s"),
    ("obs.rss_overhead_mb", "MB"),
    ("bench.traced_overhead", "ratio"),
    ("bench.run_wall_s", "s"),
    ("bench.probe_ms", "ms"),
];

const USAGE: &str =
    "usage: dyno-perfbench --workload <serve_backlog|dynopt_serial|beststatic_serial> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One worker process's measurements.
#[derive(Debug, Clone)]
struct WorkerOut {
    report: RunReport,
    peak_rss_mb: f64,
}

impl WorkerOut {
    /// `secs` measured in this worker, at the reference host's speed.
    fn scaled(&self, secs: f64) -> f64 {
        speed::scale(secs, self.report.probe_s)
    }

    fn layer(&self, name: &str) -> f64 {
        self.report
            .layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    worker: Option<Pass>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let known = ["--workload", "--seed", "--seconds", "--trace", "--worker"];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let workload = flags.get("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        flags.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
        })
    };
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace takes 0 or 1, not {n}")),
    };
    let worker = match flags.get("--worker") {
        None => None,
        Some(p) => Some(Pass::parse(p).ok_or_else(|| format!("unknown pass {p:?}"))?),
    };
    Ok(Args {
        workload,
        seed: number("--seed", DEFAULT_SEED)?,
        seconds: number("--seconds", 10)?,
        trace,
        worker,
    })
}

/// Worker side: run one pass and print its measurements, one per line.
fn worker(w: Workload, seed: u64, pass: Pass) -> Result<(), String> {
    let r = workloads::run(w, seed, pass, false)?;
    println!("setup_s {}", r.setup_s);
    println!("run_s {}", r.run_s);
    println!("probe_s {}", r.probe_s);
    println!("peak_rss_mb {}", procfs::peak_rss_mb());
    println!("attempted {}", r.attempted);
    println!("failed {}", r.failed);
    println!("digest {}", r.digest);
    for (name, v) in &r.layers {
        println!("layer {name} {v}");
    }
    Ok(())
}

/// Parse a worker's output (the inverse of [`worker`]).
fn parse_worker(out: &str) -> Result<WorkerOut, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut layers = Vec::new();
    for line in out.lines() {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some("layer"), Some(name), Some(v)) => {
                let name = PER_LAYER
                    .iter()
                    .map(|&(n, _)| n)
                    .chain(["service.pump_s"])
                    .find(|n| *n == name)
                    .ok_or_else(|| format!("unknown layer {name:?}"))?;
                layers.push((name, v.parse::<f64>().map_err(|e| e.to_string())?));
            }
            (Some(k), Some(v), None) => {
                kv.insert(k, v);
            }
            _ => return Err(format!("malformed worker line {line:?}")),
        }
    }
    let get = |k: &str| {
        kv.get(k)
            .copied()
            .ok_or_else(|| format!("worker printed no {k}"))
    };
    let num = |k: &str| -> Result<f64, String> { get(k)?.parse().map_err(|_| format!("bad {k}")) };
    let int = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|_| format!("bad {k}")) };
    Ok(WorkerOut {
        report: RunReport {
            setup_s: num("setup_s")?,
            run_s: num("run_s")?,
            probe_s: num("probe_s")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            digest: get("digest")?.to_owned(),
            layers,
        },
        peak_rss_mb: num("peak_rss_mb")?,
    })
}

/// Run one pass in its own process, so its `VmHWM` is its own.
fn spawn(w: Workload, seed: u64, pass: Pass) -> Result<WorkerOut, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--worker", pass.name(), "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} worker: {e}", pass.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} worker failed: {}",
            w.name(),
            pass.name(),
            out.status
        ));
    }
    parse_worker(&String::from_utf8_lossy(&out.stdout))
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// An end-to-end metric as one worker measured it, times at the
/// reference host's speed.
fn end_to_end(o: &WorkerOut, name: &str) -> f64 {
    match name {
        "setup_s" => o.scaled(o.report.setup_s),
        "run_s" => o.scaled(o.report.run_s),
        _ => o.peak_rss_mb,
    }
}

/// Fold repetitions into the reported metrics: the median over the sets
/// of each metric. A set holds one worker per pass, in `bench`'s order:
/// `[untraced]`, `[traced, untraced]` or `[traced, untraced, obs-off]`.
/// Times are at the reference host's speed, except `bench.run_wall_s`
/// and `bench.probe_ms`, which give the untraced pass's raw wall time and
/// the host's speed.
fn fold(sets: &[Vec<WorkerOut>], trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let over_sets = |f: &dyn Fn(&[WorkerOut]) -> f64| median_of(sets.iter().map(|s| f(s)));
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                _ if !trace => over_sets(&|s| end_to_end(&s[0], name)),
                "bench.traced_overhead" => {
                    over_sets(&|s| end_to_end(&s[0], "run_s") / end_to_end(&s[1], "run_s"))
                }
                "bench.run_wall_s" => over_sets(&|s| s[1].report.run_s),
                "bench.probe_ms" => over_sets(&|s| s[1].report.probe_s * 1e3),
                "obs.pump_overhead_s" if sets[0].len() == 3 => over_sets(&|s| {
                    let pump = |o: &WorkerOut| o.scaled(o.layer("service.pump_s"));
                    pump(&s[0]) - pump(&s[2])
                }),
                "obs.rss_overhead_mb" if sets[0].len() == 3 => {
                    over_sets(&|s| s[0].peak_rss_mb - s[2].peak_rss_mb)
                }
                _ if unit == "s" => over_sets(&|s| s[0].scaled(s[0].layer(name))),
                _ => over_sets(&|s| s[0].layer(name)),
            };
            (name, unit, v)
        })
        .collect()
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let passes: &[Pass] = match (args.trace, w) {
        (false, _) => &[Pass::Untraced],
        (true, Workload::ServeBacklog) => &[Pass::Traced, Pass::Untraced, Pass::ObsOff],
        (true, _) => &[Pass::Traced, Pass::Untraced],
    };
    // At least three untraced repetitions, so the median has company;
    // past those, a repetition starts only if it should end in budget.
    let min_sets = if args.trace { 1 } else { 3 };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut sets: Vec<Vec<WorkerOut>> = Vec::new();
    loop {
        let set = passes
            .iter()
            .map(|&p| spawn(w, args.seed, p))
            .collect::<Result<Vec<_>, _>>()?;
        sets.push(set);
        let per_set = start.elapsed() / sets.len() as u32;
        if sets.len() >= min_sets && start.elapsed() + per_set > budget {
            break;
        }
    }

    let all = || sets.iter().flatten();
    let digest = &sets[0][0].report.digest;
    let mut correct = all().all(|o| &o.report.digest == digest);
    if !correct {
        eprintln!(
            "{}: outcome digests differ between passes of one seed",
            w.name()
        );
    }
    if args.seed == DEFAULT_SEED && digest != w.reference_digest() {
        eprintln!(
            "{}: digest {digest} differs from the committed reference {}",
            w.name(),
            w.reference_digest()
        );
        correct = false;
    }
    let attempted: u64 = all().map(|o| o.report.attempted).sum();
    let failed: u64 = all().map(|o| o.report.failed).sum();
    correct &= failed == 0;

    let metrics = fold(&sets, args.trace);
    let mut loc_total = 0;
    for (name, n) in loc::per_crate(Path::new("crates")) {
        println!("loc {name} {n}");
        loc_total += n;
    }
    println!("loc total {loc_total}");
    println!("digest {} seed={} {digest}", w.name(), args.seed);
    println!("repetitions {}", sets.len());
    if !args.trace {
        for (name, _) in END_TO_END {
            let values: Vec<f64> = sets.iter().map(|s| end_to_end(&s[0], name)).collect();
            if let Some(x) = stats::spread(&values) {
                println!("spread {name} {x:.4}");
            }
        }
        let wall: Vec<f64> = sets.iter().map(|s| s[0].report.run_s).collect();
        if let Some(x) = stats::spread(&wall) {
            println!("spread run_wall_s {x:.4}");
        }
    }
    println!("{}", json_result(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.worker {
        Some(pass) => worker(args.workload, args.seed, pass),
        None => bench(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "dynopt_serial",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, Workload::DynoptSerial);
        assert_eq!((a.seed, a.seconds, a.trace, a.worker), (7, 20, true, None));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "serve_backlog", "--trace", "2"],
            &["--workload", "serve_backlog", "--seed", "-1"],
            &["--workload", "serve_backlog", "--bogus", "1"],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn worker_output_round_trips() {
        let text = "setup_s 1.5\nrun_s 2.25\nprobe_s 0.001\npeak_rss_mb 600.5\nattempted 10\n\
                    failed 0\n\
                    digest 00ff\nlayer core.oracle_s 0.5\nlayer service.pump_s 1\n";
        let o = parse_worker(text).expect("valid");
        assert_eq!(
            (o.report.setup_s, o.report.run_s, o.peak_rss_mb),
            (1.5, 2.25, 600.5)
        );
        assert_eq!(o.report.probe_s, 0.001);
        assert_eq!((o.report.attempted, o.report.failed), (10, 0));
        assert_eq!(o.layer("core.oracle_s"), 0.5);
        assert_eq!(o.layer("service.pump_s"), 1.0);
        assert_eq!(o.layer("core.pilot_s"), 0.0);
        assert!(parse_worker("layer nope 1\n").is_err());
        assert!(parse_worker("run_s 1\n").is_err());
    }

    fn out(run_s: f64, peak: f64, layers: Vec<(&'static str, f64)>) -> WorkerOut {
        WorkerOut {
            report: RunReport {
                setup_s: 0.5,
                run_s,
                probe_s: speed::REFERENCE_S,
                attempted: 1,
                failed: 0,
                digest: String::new(),
                layers,
            },
            peak_rss_mb: peak,
        }
    }

    #[test]
    fn fold_takes_medians_and_pass_differences() {
        let untraced: Vec<Vec<WorkerOut>> = [3.0, 1.0, 2.0]
            .iter()
            .map(|&r| vec![out(r, 10.0 * r, Vec::new())])
            .collect();
        let m = fold(&untraced, false);
        assert_eq!(
            m,
            vec![
                ("setup_s", "s", 0.5),
                ("run_s", "s", 2.0),
                ("peak_rss_mb", "MB", 20.0)
            ]
        );

        let set = |k: f64| {
            vec![
                out(
                    2.0 * k,
                    600.0,
                    vec![("service.pump_s", 5.0 * k), ("core.oracle_s", k)],
                ),
                out(k, 590.0, Vec::new()),
                out(k, 20.0, vec![("service.pump_s", 3.0 * k)]),
            ]
        };
        let traced = fold(&[set(1.0), set(2.0), set(4.0)], true);
        let get = |name: &str| traced.iter().find(|m| m.0 == name).expect(name).2;
        assert_eq!(get("bench.traced_overhead"), 2.0);
        assert_eq!(get("obs.pump_overhead_s"), 4.0);
        assert_eq!(get("obs.rss_overhead_mb"), 580.0);
        assert_eq!(get("core.oracle_s"), 2.0);
        assert_eq!(get("core.pilot_s"), 0.0);
        assert_eq!(get("bench.run_wall_s"), 2.0);
        assert_eq!(get("bench.probe_ms"), speed::REFERENCE_S * 1e3);
        assert_eq!(traced.len(), PER_LAYER.len());
    }

    #[test]
    fn times_are_scaled_to_the_reference_host() {
        let mut slow = out(3.0, 100.0, vec![("core.oracle_s", 2.0)]);
        slow.report.probe_s = 2.0 * speed::REFERENCE_S;
        let m = fold(&[vec![slow.clone()]], false);
        assert_eq!(
            m,
            vec![
                ("setup_s", "s", 0.25),
                ("run_s", "s", 1.5),
                ("peak_rss_mb", "MB", 100.0)
            ]
        );
        let traced = fold(&[vec![slow.clone(), slow]], true);
        let get = |name: &str| traced.iter().find(|m| m.0 == name).expect(name).2;
        assert_eq!(get("core.oracle_s"), 1.0);
        assert_eq!(get("bench.run_wall_s"), 3.0);
        assert_eq!(get("bench.probe_ms"), 2.0 * speed::REFERENCE_S * 1e3);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = json_result(true, 10, 0, &[("run_s", "s", 1.25), ("x", "MB", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"MB\"}}}"
        );
    }

    /// `BENCHMARK.json` and the tables above name the same metrics.
    #[test]
    fn benchmark_json_names_every_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(named(name), "{name} missing from BENCHMARK.json");
        }
        for w in Workload::ALL {
            assert!(named(w.name()), "{} missing from BENCHMARK.json", w.name());
        }
        let count = json.matches("\"name\":").count();
        assert_eq!(
            count,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }
}
