//! Refactor oracle for the `QueryService` front-door fold: the serial
//! `repro workload` report AND its Chrome trace are pinned byte-for-byte
//! against goldens generated before the fold. Any drift in the serial
//! path — span structure, clock arithmetic, report formatting — fails
//! here with the first differing byte position.
//!
//! Regenerate (only when a change is *supposed* to move serial bytes):
//!
//! ```text
//! cargo test -p dyno-bench --test workload_golden -- --ignored regen
//! ```

use dyno_bench::experiments::ExpScale;
use dyno_bench::workload::{run_workload, WorkloadReport};
use dyno_cluster::ClusterConfig;

const SPEC: &str = "q2x2,q10";
const SF: u64 = 1;
const SEED: u64 = 7;

fn run() -> WorkloadReport {
    let scale = ExpScale { divisor: 200_000 };
    run_workload(SPEC, SF, SEED, scale, ClusterConfig::paper(), false).unwrap()
}

const GOLDEN_REPORT: &str = include_str!("golden/workload_q2x2_q10_sf1_report.txt");
const GOLDEN_TRACE: &str = include_str!("golden/workload_q2x2_q10_sf1_chrome_trace.json");

fn first_diff(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

#[test]
fn serial_workload_report_matches_pre_fold_golden() {
    let r = run();
    let render = r.render();
    assert!(
        render == GOLDEN_REPORT,
        "serial workload report drifted from the pre-fold golden at byte {} \
         (regen only if the serial path was deliberately changed)",
        first_diff(&render, GOLDEN_REPORT)
    );
}

#[test]
fn serial_workload_trace_matches_pre_fold_golden() {
    let r = run();
    assert!(
        r.trace_json == GOLDEN_TRACE,
        "serial workload Chrome trace drifted from the pre-fold golden at byte {} \
         (regen only if the serial path was deliberately changed)",
        first_diff(&r.trace_json, GOLDEN_TRACE)
    );
}

/// Not a test: rewrites the golden files from the current tree.
#[test]
#[ignore = "golden regenerator, run explicitly"]
fn regen() {
    let r = run();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::write(dir.join("workload_q2x2_q10_sf1_report.txt"), r.render()).unwrap();
    std::fs::write(dir.join("workload_q2x2_q10_sf1_chrome_trace.json"), &r.trace_json).unwrap();
}
