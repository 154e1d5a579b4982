//! `repro` — regenerate every table and figure of the DYNO paper.
//!
//! ```text
//! repro [all|table1|fig2|...|fig8|ablations|reopt_ab] [--divisor N]
//! repro profile <query> <sf> [--divisor N]
//! repro trace <query> <sf> [--divisor N]
//! repro workload <spec> <sf> [--seed N] [--divisor N]
//! repro serve <spec> <sf> [--tenants N] [--seed N] [--sched edf]
//! ```
//!
//! `profile` runs one query cold under DYNOPT with `dyno-obs` tracing on
//! and prints its `EXPLAIN ANALYZE`-style profile; `trace` prints the
//! same run as Chrome `trace_event` JSON (open in `chrome://tracing`);
//! `workload` runs a multi-query stream (`name[@mode][xN]`, comma
//! separated) against one DYNO instance and prints the workload report;
//! `serve` replays the stream through the multi-tenant service front
//! door (admission control + deadline-aware scheduling) and prints the
//! service-level report.
//!
//! The divisor controls the physical scale (logical rows per physical
//! record); the default of 50 000 runs every experiment in a few minutes
//! on a laptop while keeping the simulated world at full TPC-H scale.
//!
//! Every failure path surfaces as a typed [`BenchError`] printed with the
//! usage text — the binary never panics on bad input. Argument parsing
//! lives in `dyno_bench::cli` so the bad-invocation matrix is
//! unit-tested in the library.

use std::env;
use std::process::ExitCode;

use dyno_bench::cli::{parse_cli, parse_sf, positional, USAGE};
use dyno_bench::{
    ablations, fig2, fig3, fig4, fig5, fig6, fig7, fig8, profile_report, render_concurrent,
    render_timeline, reopt_ab, run_serve, run_workload, table1, trace_report, ArrivalSource,
    BenchError, ExpScale,
};
use dyno_cluster::ClusterConfig;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), BenchError> {
    let Some(cli) = parse_cli(args)? else {
        println!("{USAGE}");
        return Ok(());
    };
    let which = cli.positional.first().cloned().unwrap_or_else(|| "all".to_owned());
    let scale = ExpScale { divisor: cli.divisor };

    match which.as_str() {
        "profile" => {
            let query = positional(&cli, 1, "<query>")?;
            let sf = parse_sf(&cli, 2)?;
            println!("{}", profile_report(query, sf, scale)?);
            return Ok(());
        }
        "trace" => {
            let query = positional(&cli, 1, "<query>")?;
            let sf = parse_sf(&cli, 2)?;
            print!("{}", trace_report(query, sf, scale)?);
            return Ok(());
        }
        "timeline" => {
            let spec = positional(&cli, 1, "<query|spec>")?;
            let sf = parse_sf(&cli, 2)?;
            let report =
                run_serve(spec, sf, cli.seed, scale, ArrivalSource::Stream, cli.serve_opts)?;
            print!("{}", render_timeline(&report));
            return Ok(());
        }
        "workload" => {
            let spec = positional(&cli, 1, "<spec>")?;
            let sf = parse_sf(&cli, 2)?;
            if cli.concurrent {
                let report =
                    run_serve(spec, sf, cli.seed, scale, ArrivalSource::Stream, cli.serve_opts)?;
                print!("{}", render_concurrent(&report));
            } else {
                let report =
                    run_workload(spec, sf, cli.seed, scale, ClusterConfig::paper(), cli.reuse)?;
                print!("{}", report.render());
            }
            return Ok(());
        }
        "serve" => {
            let spec = positional(&cli, 1, "<spec>")?;
            let sf = parse_sf(&cli, 2)?;
            let report =
                run_serve(spec, sf, cli.seed, scale, ArrivalSource::Tenants, cli.serve_opts)?;
            print!("{}", report.render());
            // With --incidents, each frozen report also lands on disk
            // (already validated inside run_serve) as a text rendering
            // plus machine-readable JSON, next to wherever repro ran.
            if let Some(inc) = &report.incidents {
                for (stem, text, json) in &inc.files {
                    for (ext, body) in [("txt", text), ("json", json)] {
                        let path = format!("{stem}.{ext}");
                        std::fs::write(&path, body).map_err(|e| BenchError::Io {
                            path: path.clone(),
                            message: e.to_string(),
                        })?;
                    }
                }
            }
            return Ok(());
        }
        _ => {}
    }

    // Figure 6 sweeps selectivities down to 0.01 %, which needs enough
    // physical dimension rows to be realized; use a finer grain there.
    let fine = ExpScale {
        divisor: (cli.divisor / 10).max(1),
    };

    let run_one = |name: &str| -> Result<(), BenchError> {
        match name {
            "table1" => println!("{}", table1(scale)),
            "fig2" => println!("{}", fig2(scale)),
            "fig3" => println!("{}", fig3(scale)),
            "fig4" => println!("{}", fig4(scale)),
            "fig5" => println!("{}", fig5(scale)),
            "fig6" => println!("{}", fig6(fine)),
            "fig7" => println!("{}", fig7(scale)),
            "fig8" => println!("{}", fig8(scale)),
            "ablations" => println!("{}", ablations(scale)),
            "reopt_ab" => println!("{}", reopt_ab(scale)),
            other => return Err(BenchError::UnknownExperiment(other.to_owned())),
        }
        Ok(())
    };

    if which == "all" {
        for name in [
            "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "ablations",
        ] {
            run_one(name)?;
            println!();
        }
        Ok(())
    } else {
        run_one(&which)
    }
}
