//! # dyno-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§6), each regenerating the corresponding result as a text
//! table over the simulated cluster. The `repro` binary drives them from
//! the command line; `cargo bench` runs reduced-scale versions on the
//! in-repo wall-clock harness.
//!
//! Absolute numbers are simulated seconds on the modeled 14-worker
//! cluster, not the authors' testbed — what must (and does) match is the
//! *shape*: who wins, by roughly what factor, and where the crossovers
//! fall. EXPERIMENTS.md records paper-vs-measured for every experiment.

pub mod cli;
pub mod error;
pub mod experiments;
pub mod profile;
pub mod render;
pub mod serve;
pub mod timeline;
pub mod workload;

pub use cli::{parse_cli, Cli, USAGE};
pub use error::BenchError;
pub use experiments::{
    ablations, fig2, fig3, fig4, fig5, fig6, fig7, fig8, reopt_ab, table1, ExpScale,
};
pub use profile::{profile_report, trace_report};
pub use serve::{run_serve, ArrivalSource, ServeOptions, ServeReport};
pub use render::render_table;
pub use timeline::render_timeline;
pub use workload::{parse_spec, render_concurrent, run_workload, WorkloadReport};
