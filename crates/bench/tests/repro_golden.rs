//! Whole-report goldens for the `repro` runs `ci.sh` smoke-checks.
//!
//! `ci.sh` pins one line per run. These goldens pin the complete stdout
//! of the same invocations — per-query rows, the bottleneck column, the
//! utilization sparkline, the tenant table, health digests and the
//! frozen incident files — so a refactor of the runners behind them
//! cannot move any byte unnoticed. Each run is rebuilt through the
//! library from the exact command line, and a mismatch reports the first
//! differing byte.
//!
//! The goldens are the stdout of (files in `tests/golden/repro/`):
//!
//! ```text
//! step06_workload_concurrent.txt        repro workload q2,q7,q9 100 --seed 7 --divisor 200000 --concurrent
//! step07_timeline.txt                   repro timeline q2,q7,q9 100 --seed 7 --divisor 200000
//! step09_serve.txt                      repro serve <SERVE>
//! step10_serve_health.txt               repro serve <SERVE> --health --sample-one-in 4
//! step11_workload_concurrent_fair.txt   repro workload q2x2,q7,q9x2 100 --seed 3 --divisor 200000 --concurrent --arrival-mean 5 --sched fair
//! step12_serve_incidents.txt            repro serve <SERVE> --health --sample-one-in 4 --incidents
//! step12_incident-NNNN.{txt,json}       the incident files that run writes
//! reopt_ab.txt                          repro reopt_ab
//!
//! <SERVE> = q2x6,q7x5,q9x5 100 --seed 11 --divisor 200000 --tenants 1000 --sched edf --arrival-mean 15 --slo-mult 2
//! ```

use std::path::PathBuf;

use dyno_bench::cli::{parse_cli, parse_sf, positional, Cli};
use dyno_bench::{
    render_concurrent, render_timeline, reopt_ab, run_serve, ArrivalSource, ExpScale, ServeReport,
};

const SERVE: &str = "serve q2x6,q7x5,q9x5 100 --seed 11 --divisor 200000 --tenants 1000 \
                     --sched edf --arrival-mean 15 --slo-mult 2";

fn cli(args: &str) -> Cli {
    let args: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
    parse_cli(&args).unwrap().unwrap()
}

fn scale(cli: &Cli) -> ExpScale {
    ExpScale { divisor: cli.divisor }
}

fn assert_golden(name: &str, got: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests/golden/repro", name]
        .iter()
        .collect();
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.len().min(want.len()));
    assert!(
        got == want,
        "{name} drifted at byte {at} (got {} bytes, golden {} bytes)",
        got.len(),
        want.len()
    );
}

/// The population run `repro` makes for `args`.
fn population(args: &str, source: ArrivalSource) -> ServeReport {
    let c = cli(args);
    let spec = positional(&c, 1, "<spec>").unwrap();
    let sf = parse_sf(&c, 2).unwrap();
    run_serve(spec, sf, c.seed, scale(&c), source, c.serve_opts).unwrap()
}

fn concurrent(args: &str) -> String {
    render_concurrent(&population(args, ArrivalSource::Stream))
}

fn serve(args: &str) -> ServeReport {
    population(args, ArrivalSource::Tenants)
}

#[test]
fn step06_concurrent_workload_report() {
    let got = concurrent("workload q2,q7,q9 100 --seed 7 --divisor 200000 --concurrent");
    assert_golden("step06_workload_concurrent.txt", &got);
}

#[test]
fn step07_timeline_report() {
    let report = population(
        "timeline q2,q7,q9 100 --seed 7 --divisor 200000",
        ArrivalSource::Stream,
    );
    let got = render_timeline(&report);
    assert_golden("step07_timeline.txt", &got);
}

#[test]
fn step09_serve_report() {
    assert_golden("step09_serve.txt", &serve(SERVE).render());
}

#[test]
fn step10_serve_health_report() {
    let got = serve(&format!("{SERVE} --health --sample-one-in 4")).render();
    assert_golden("step10_serve_health.txt", &got);
}

#[test]
fn step11_concurrent_fair_report() {
    let got = concurrent(
        "workload q2x2,q7,q9x2 100 --seed 3 --divisor 200000 --concurrent \
         --arrival-mean 5 --sched fair",
    );
    assert_golden("step11_workload_concurrent_fair.txt", &got);
}

#[test]
fn step12_serve_incidents_report_and_files() {
    let r = serve(&format!("{SERVE} --health --sample-one-in 4 --incidents"));
    assert_golden("step12_serve_incidents.txt", &r.render());
    let files = &r.incidents.as_ref().expect("--incidents report").files;
    assert_eq!(files.len(), 2, "the golden run froze two incidents");
    for (stem, text, json) in files {
        assert_golden(&format!("step12_{stem}.txt"), text);
        assert_golden(&format!("step12_{stem}.json"), json);
    }
}

#[test]
fn reopt_ab_report() {
    let c = cli("reopt_ab");
    assert_golden("reopt_ab.txt", &format!("{}\n", reopt_ab(scale(&c))));
}
