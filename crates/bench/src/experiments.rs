//! One function per table/figure of the paper's evaluation (§6).

use dyno_cluster::ClusterConfig;
use dyno_core::{AdaptiveReopt, Dyno, DynoOptions, Mode, PilotConfig, PilrMode, Strategy};
use dyno_exec::Executor;
use dyno_query::JoinBlock;
use dyno_storage::SimScale;
use dyno_tpch::queries::{self, PreparedQuery, QueryId};
use dyno_tpch::{catalog_for, TpchGenerator};

use crate::render::{pct, render_table, secs};

/// Physical scale for the experiments: how many logical rows one physical
/// record stands for. Larger divisors run faster; the paper's regime is
/// preserved at any divisor because the simulated world stays full-scale.
#[derive(Debug, Clone, Copy)]
pub struct ExpScale {
    /// The divisor (see `dyno-storage`'s scale model).
    pub divisor: u64,
}

impl Default for ExpScale {
    fn default() -> Self {
        ExpScale { divisor: 50_000 }
    }
}

fn paper_cluster() -> ClusterConfig {
    ClusterConfig::paper()
}

pub(crate) fn make_dyno(
    sf: u64,
    scale: ExpScale,
    cluster: ClusterConfig,
    strategy: Strategy,
) -> Dyno {
    let env = TpchGenerator::new(sf, SimScale::divisor(scale.divisor)).generate();
    Dyno::new(
        env.dfs,
        DynoOptions {
            cluster,
            strategy,
            ..DynoOptions::default()
        },
    )
}

fn run_mode(d: &Dyno, q: &PreparedQuery, mode: Mode) -> f64 {
    d.clear_stats();
    d.run(q, mode)
        .unwrap_or_else(|e| panic!("{} under {:?} failed: {e}", q.spec.name, mode))
        .total_secs
}

/// The paper's benchmark queries used in Table 1 and Figures 4–8.
fn bench_query(id: QueryId) -> PreparedQuery {
    queries::prepare(id)
}

/// **Table 1** — relative execution time of PILR_ST (SF100) vs PILR_MT
/// (SF100/300/1000) for Q2, Q8', Q9', Q10. Paper: MT ≈ 16–28 % of ST,
/// independent of the scale factor.
pub fn table1(scale: ExpScale) -> String {
    let queries = [QueryId::Q2, QueryId::Q8Prime, QueryId::Q9Prime, QueryId::Q10];
    let mut rows = Vec::new();
    for q in queries {
        let prepared = bench_query(q);
        let pilot_secs = |sf: u64, mode: PilrMode| -> f64 {
            let env = TpchGenerator::new(sf, SimScale::divisor(scale.divisor)).generate();
            let block =
                JoinBlock::compile(&prepared.spec, &catalog_for(&prepared.spec)).unwrap();
            let exec = Executor::new(
                env.dfs,
                dyno_cluster::Coord::new(),
                prepared.udfs.clone(),
            );
            let mut cluster = dyno_cluster::Cluster::new(paper_cluster());
            dyno_core::pilot::run_pilots(
                &exec,
                &mut cluster,
                &block,
                &PilotConfig {
                    mode,
                    reuse_stats: false,
                    ..PilotConfig::default()
                },
            )
            .unwrap()
            .secs
        };
        let st100 = pilot_secs(100, PilrMode::SingleTable);
        let mt = |sf| pilot_secs(sf, PilrMode::MultiTable) / st100;
        rows.push(vec![
            q.name().to_owned(),
            "100%".to_owned(),
            pct(mt(100)),
            pct(mt(300)),
            pct(mt(1000)),
        ]);
    }
    render_table(
        "Table 1: Relative execution time of PILR for varying queries and scale factors",
        &["Query", "SF100-ST", "SF100-MT", "SF300-MT", "SF1000-MT"],
        &rows,
    )
}

/// **Figure 2** — execution plans for Q8' at SF300: the static relational
/// optimizer's plan vs DYNO's evolving plans (plan1 after pilot runs,
/// plan2… after each re-optimization).
pub fn fig2(scale: ExpScale) -> String {
    let d = make_dyno(300, scale, paper_cluster(), Strategy::Unc(1));
    let q = bench_query(QueryId::Q8Prime);
    let mut out = String::from("Figure 2: Execution plans for TPC-H query Q8'\n\n");
    d.clear_stats();
    let rel = d.run(&q, Mode::RelOpt).expect("RELOPT Q8'");
    out.push_str("— plan by traditional optimizer (RELOPT) —\n");
    out.push_str(&rel.plan_trees[0]);
    d.clear_stats();
    let dy = d.run(&q, Mode::Dynopt).expect("DYNOPT Q8'");
    for (i, tree) in dy.plan_trees.iter().enumerate() {
        out.push_str(&format!("\n— DYNO plan{} —\n", i + 1));
        out.push_str(tree);
    }
    out.push_str(&format!(
        "\nDYNOPT re-optimized {} time(s); RELOPT ran {:.0}s vs DYNOPT {:.0}s\n",
        dy.reopts, rel.total_secs, dy.total_secs
    ));
    out
}

/// **Figure 3** — execution plans for Q9': the traditional optimizer
/// (UDF-blind ⇒ all repartition joins) vs DYNO after pilot runs
/// (broadcast joins everywhere).
pub fn fig3(scale: ExpScale) -> String {
    let d = make_dyno(300, scale, paper_cluster(), Strategy::SimpleMo);
    let q = queries::q9_prime(0.01);
    let mut out = String::from("Figure 3: Execution plans for TPC-H query Q9'\n\n");
    d.clear_stats();
    let rel = d.run(&q, Mode::RelOpt).expect("RELOPT Q9'");
    out.push_str("— plan by traditional optimizer (RELOPT) —\n");
    out.push_str(&rel.plan_trees[0]);
    d.clear_stats();
    let dy = d.run(&q, Mode::DynoptSimple).expect("DYNOPT-SIMPLE Q9'");
    out.push_str("\n— DYNO plan after pilot runs —\n");
    out.push_str(&dy.plan_trees[0]);
    let rel_b = rel.plans[0].matches("⋈b").count();
    let dy_b = dy.plans[0].matches("⋈b").count();
    out.push_str(&format!(
        "\nbroadcast joins: RELOPT {rel_b}, DYNO {dy_b} (paper: 0 vs all)\n"
    ));
    out
}

/// **Figure 4** — overhead of pilot runs, re-optimization and statistics
/// collection at SF300: execution with pre-collected statistics vs the
/// fully dynamic run. Paper: total overhead ≈ 7–10 %.
pub fn fig4(scale: ExpScale) -> String {
    let queries = [QueryId::Q2, QueryId::Q7, QueryId::Q8Prime, QueryId::Q10];
    let mut rows = Vec::new();
    for q in queries {
        let d = make_dyno(300, scale, paper_cluster(), Strategy::Unc(1));
        let prepared = bench_query(q);
        // First execution: everything computed at runtime.
        let dynamic = d.run(&prepared, Mode::Dynopt).expect("dynamic run");
        // Second execution: statistics already in the metastore — pilot
        // runs are all served by signature lookups (§4.1).
        let warm = d.run(&prepared, Mode::Dynopt).expect("warm run");
        rows.push(vec![
            q.name().to_owned(),
            secs(warm.total_secs),
            secs(dynamic.total_secs),
            pct(dynamic.pilot_secs / dynamic.total_secs),
            pct(dynamic.optimize_secs / dynamic.total_secs),
            pct((dynamic.total_secs - warm.total_secs) / warm.total_secs),
        ]);
    }
    render_table(
        "Figure 4: Overhead of pilot runs, re-optimization and statistics collection (SF300)",
        &[
            "Query",
            "existing stats",
            "with PILR/collect",
            "PILR %",
            "re-opt %",
            "total overhead %",
        ],
        &rows,
    )
}

/// **Figure 5** — comparison of execution strategies (§5.3) at SF300,
/// normalized to DYNOPT-SIMPLE_SO. Paper: MO beats SO; UNC-1 wins on
/// Q7/Q8'; all equal on Q10 (left-deep plan, nothing to parallelize).
pub fn fig5(scale: ExpScale) -> String {
    let queries = [QueryId::Q7, QueryId::Q8Prime, QueryId::Q10];
    let variants: [(&str, Mode, Strategy); 6] = [
        ("SIMPLE_SO", Mode::DynoptSimple, Strategy::SimpleSo),
        ("SIMPLE_MO", Mode::DynoptSimple, Strategy::SimpleMo),
        ("UNC-1", Mode::Dynopt, Strategy::Unc(1)),
        ("UNC-2", Mode::Dynopt, Strategy::Unc(2)),
        ("CHEAP-1", Mode::Dynopt, Strategy::Cheap(1)),
        ("CHEAP-2", Mode::Dynopt, Strategy::Cheap(2)),
    ];
    let mut rows = Vec::new();
    for q in queries {
        let prepared = bench_query(q);
        let mut cells = vec![q.name().to_owned()];
        let mut baseline = None;
        for (_, mode, strategy) in variants {
            let d = make_dyno(300, scale, paper_cluster(), strategy);
            let t = run_mode(&d, &prepared, mode);
            let base = *baseline.get_or_insert(t);
            cells.push(pct(t / base));
        }
        rows.push(cells);
    }
    render_table(
        "Figure 5: Execution strategies for DYNOPT (SF300, relative to SIMPLE_SO)",
        &["Query", "SIMPLE_SO", "SIMPLE_MO", "UNC-1", "UNC-2", "CHEAP-1", "CHEAP-2"],
        &rows,
    )
}

/// **Figure 6** — Q9' star-join sensitivity: execution time of
/// DYNOPT-SIMPLE relative to RELOPT as the dimension-UDF selectivity
/// sweeps 0.01 %…100 %. Paper: ≈56 % (1.78x speedup) at the selective
/// end, ≈87 % at 1–10 %, slightly above 100 % at 100 %.
pub fn fig6(scale: ExpScale) -> String {
    let mut rows = Vec::new();
    for sel in [0.0001, 0.001, 0.01, 0.1, 1.0] {
        let q = queries::q9_prime(sel);
        let d = make_dyno(300, scale, paper_cluster(), Strategy::SimpleMo);
        let rel = run_mode(&d, &q, Mode::RelOpt);
        let dy = run_mode(&d, &q, Mode::DynoptSimple);
        rows.push(vec![
            pct(sel),
            secs(rel),
            secs(dy),
            pct(dy / rel),
        ]);
    }
    render_table(
        "Figure 6: Impact of UDF selectivity on Q9' (SF300, DYNOPT-SIMPLE relative to RELOPT)",
        &["UDF sel", "RELOPT", "DYNOPT-SIMPLE", "relative time"],
        &rows,
    )
}

/// **Figure 7** — end-to-end comparison: BESTSTATICJAQL / RELOPT /
/// DYNOPT-SIMPLE / DYNOPT on Q2, Q8', Q9', Q10 at SF 100/300/1000,
/// normalized to BESTSTATICJAQL. Paper: DYNO variants are never worse
/// than the best left-deep plan and up to 2x better (Q8' SF100).
pub fn fig7(scale: ExpScale) -> String {
    let mut out = String::new();
    for sf in [100u64, 300, 1000] {
        let mut rows = Vec::new();
        for q in [QueryId::Q2, QueryId::Q8Prime, QueryId::Q9Prime, QueryId::Q10] {
            let prepared = bench_query(q);
            let d = make_dyno(sf, scale, paper_cluster(), Strategy::Unc(1));
            let base = run_mode(&d, &prepared, Mode::BestStaticJaql);
            let rel = run_mode(&d, &prepared, Mode::RelOpt);
            let simple = run_mode(&d, &prepared, Mode::DynoptSimple);
            let dynopt = run_mode(&d, &prepared, Mode::Dynopt);
            rows.push(vec![
                q.name().to_owned(),
                "100%".to_owned(),
                pct(rel / base),
                pct(simple / base),
                pct(dynopt / base),
            ]);
        }
        out.push_str(&render_table(
            &format!(
                "Figure 7 (SF={sf}): execution time relative to BESTSTATICJAQL"
            ),
            &["Query", "BESTSTATICJAQL", "RELOPT", "DYNOPT-SIMPLE", "DYNOPT"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// **Figure 8** — the same plan variants executed under the Hive runtime
/// profile (broadcast builds through the DistributedCache) at SF300.
/// Paper: same trends as Jaql; Q9' gains more (3.98x vs 1.88x) because
/// Hive's broadcast joins are cheaper.
pub fn fig8(scale: ExpScale) -> String {
    let mut rows = Vec::new();
    for q in [QueryId::Q2, QueryId::Q8Prime, QueryId::Q9Prime, QueryId::Q10] {
        let prepared = bench_query(q);
        let d = make_dyno(300, scale, ClusterConfig::paper_hive(), Strategy::Unc(1));
        let base = run_mode(&d, &prepared, Mode::BestStaticJaql);
        let rel = run_mode(&d, &prepared, Mode::RelOpt);
        let simple = run_mode(&d, &prepared, Mode::DynoptSimple);
        let dynopt = run_mode(&d, &prepared, Mode::Dynopt);
        rows.push(vec![
            q.name().to_owned(),
            "100%".to_owned(),
            pct(rel / base),
            pct(simple / base),
            pct(dynopt / base),
        ]);
    }
    render_table(
        "Figure 8: Benefits of applying DYNOPT in Hive (SF300, relative to BESTSTATICHIVE)",
        &["Query", "BESTSTATICHIVE", "RELOPT", "DYNOPT-SIMPLE", "DYNOPT"],
        &rows,
    )
}

/// **Adaptive re-optimization A/B** — the static conditional threshold
/// (§5.1's sketch, fixed at 50 %) vs the adaptive controller that
/// tightens the threshold after a missed estimate and relaxes it after a
/// hold. Each variant's final plan is compared against the unconditional
/// loop's final plan (the quality oracle: ALWAYS re-optimizes at every
/// job boundary, so its last plan is the best this system can find).
pub fn reopt_ab(scale: ExpScale) -> String {
    let queries = [
        QueryId::Q2,
        QueryId::Q7,
        QueryId::Q8Prime,
        QueryId::Q9Prime,
        QueryId::Q10,
    ];
    let mut rows = Vec::new();
    for q in queries {
        let prepared = bench_query(q);
        let run_policy = |set: &dyn Fn(&mut Dyno)| {
            let mut d = make_dyno(100, scale, paper_cluster(), Strategy::Unc(1));
            set(&mut d);
            d.run(&prepared, Mode::Dynopt)
                .unwrap_or_else(|e| panic!("{} reopt_ab run failed: {e}", prepared.spec.name))
        };
        let always = run_policy(&|_| {});
        let stat = run_policy(&|d| d.opts.reopt_threshold = Some(0.5));
        let adaptive = run_policy(&|d| d.opts.adaptive_reopt = Some(AdaptiveReopt::default()));
        assert_eq!(always.rows, stat.rows, "{}: static changed the answer", prepared.spec.name);
        assert_eq!(
            always.rows, adaptive.rows,
            "{}: adaptive changed the answer",
            prepared.spec.name
        );
        let vs_always = |r: &dyno_core::QueryReport| {
            if r.plans.last() == always.plans.last() {
                "same".to_owned()
            } else {
                "differs".to_owned()
            }
        };
        rows.push(vec![
            q.name().to_owned(),
            secs(always.total_secs),
            secs(stat.total_secs),
            secs(adaptive.total_secs),
            format!("{}", always.plans.len()),
            format!("{}", stat.plans.len()),
            format!("{}", adaptive.plans.len()),
            vs_always(&stat),
            vs_always(&adaptive),
        ]);
    }
    render_table(
        "A/B: static (50%) vs adaptive re-optimization threshold (SF100, final plan vs ALWAYS)",
        &[
            "Query",
            "always",
            "static",
            "adaptive",
            "always calls",
            "static calls",
            "adaptive calls",
            "static final",
            "adaptive final",
        ],
        &rows,
    )
}

/// **Ablations** — isolate each design choice the paper (or this
/// reproduction) makes: broadcast chaining, bushy plans, the DV
/// extrapolation formula, conditional re-optimization (§5.1's sketch),
/// and the task scheduler (§5.3's future work).
pub fn ablations(scale: ExpScale) -> String {
    let mut out = String::new();

    // 1. Broadcast chaining on/off — a controlled comparison: the *same*
    // two-broadcast plan over lineitem with its filtered dimensions,
    // executed as one chained map-only job vs two single-join jobs. The
    // chained variant saves one job startup plus the materialization and
    // re-read of the intermediate result (§2.2.2).
    {
        use dyno_exec::{Executor, JobDag};
        use dyno_query::{JoinMethod, PhysNode};
        let env = TpchGenerator::new(300, SimScale::divisor(scale.divisor)).generate();
        let q = queries::q9_prime(0.001);
        let block =
            JoinBlock::compile(&q.spec, &catalog_for(&q.spec)).expect("q9 compiles");
        let exec = Executor::new(env.dfs, dyno_cluster::Coord::new(), q.udfs.clone());
        let l = block.leaf_of_alias("lineitem").expect("lineitem leaf");
        let p = block.leaf_of_alias("part").expect("part leaf");
        let o = block.leaf_of_alias("orders").expect("orders leaf");
        let run_variant = |chained: bool| -> f64 {
            let plan = PhysNode::Join {
                method: JoinMethod::Broadcast,
                left: Box::new(PhysNode::join(
                    JoinMethod::Broadcast,
                    PhysNode::Leaf(l),
                    PhysNode::Leaf(p),
                )),
                right: Box::new(PhysNode::Leaf(o)),
                chained,
            };
            let dag = JobDag::compile(&block, &plan);
            let mut cluster = dyno_cluster::Cluster::new(paper_cluster());
            exec.run_dag(&mut cluster, &block, &dag, false, false)
                .expect("chain variant runs");
            cluster.now()
        };
        let t_with = run_variant(true);
        let t_without = run_variant(false);
        out.push_str(&render_table(
            "Ablation: broadcast chaining ((lineitem ⋈b part) ⋈b orders, SF300)",
            &["variant", "time", "relative"],
            &[
                vec!["chained (1 job)".into(), secs(t_with), pct(1.0)],
                vec![
                    "unchained (2 jobs)".into(),
                    secs(t_without),
                    pct(t_without / t_with),
                ],
            ],
        ));
        out.push('\n');
    }

    // 2. Bushy vs left-deep search — Q2 is the paper's bushy showcase.
    {
        let q = bench_query(QueryId::Q2);
        let bushy = make_dyno(300, scale, paper_cluster(), Strategy::SimpleMo);
        let t_bushy = run_mode(&bushy, &q, Mode::DynoptSimple);
        let mut ld = make_dyno(300, scale, paper_cluster(), Strategy::SimpleMo);
        ld.opts.optimizer = dyno_optimizer::Optimizer::new().left_deep();
        let t_ld = run_mode(&ld, &q, Mode::DynoptSimple);
        out.push_str(&render_table(
            "Ablation: bushy vs left-deep search (Q2, SF300)",
            &["variant", "time", "relative"],
            &[
                vec!["bushy".into(), secs(t_bushy), pct(1.0)],
                vec!["left-deep only".into(), secs(t_ld), pct(t_ld / t_bushy)],
            ],
        ));
        out.push('\n');
    }

    // 3. DV extrapolation: the paper's linear formula vs the
    // saturation-aware default (Q10 — linear inflates the 25 nation keys
    // to hundreds of thousands and poisons the join selectivities).
    {
        let q = bench_query(QueryId::Q10);
        let sat = make_dyno(300, scale, paper_cluster(), Strategy::SimpleMo);
        let t_sat = run_mode(&sat, &q, Mode::DynoptSimple);
        let mut lin = make_dyno(300, scale, paper_cluster(), Strategy::SimpleMo);
        lin.opts.pilot.dv_mode = dyno_stats::DvExtrapolation::Linear;
        let t_lin = run_mode(&lin, &q, Mode::DynoptSimple);
        out.push_str(&render_table(
            "Ablation: distinct-value extrapolation (Q10, SF300)",
            &["variant", "time", "relative"],
            &[
                vec!["saturation-aware".into(), secs(t_sat), pct(1.0)],
                vec!["paper linear".into(), secs(t_lin), pct(t_lin / t_sat)],
            ],
        ));
        out.push('\n');
    }

    // 4. Conditional re-optimization (§5.1's sketched variant) — same
    // answers, fewer optimizer calls when estimates hold.
    {
        let q = bench_query(QueryId::Q8Prime);
        let always = make_dyno(300, scale, paper_cluster(), Strategy::Unc(1));
        always.clear_stats();
        let r_always = always.run(&q, Mode::Dynopt).expect("always");
        let mut cond = make_dyno(300, scale, paper_cluster(), Strategy::Unc(1));
        cond.opts.reopt_threshold = Some(0.5);
        cond.clear_stats();
        let r_cond = cond.run(&q, Mode::Dynopt).expect("conditional");
        out.push_str(&render_table(
            "Ablation: conditional re-optimization (Q8', SF300, threshold 50%)",
            &["variant", "time", "optimizer calls", "re-opt secs"],
            &[
                vec![
                    "re-optimize always".into(),
                    secs(r_always.total_secs),
                    format!("{}", r_always.plans.len()),
                    secs(r_always.optimize_secs),
                ],
                vec![
                    "threshold 0.5".into(),
                    secs(r_cond.total_secs),
                    format!("{}", r_cond.plans.len()),
                    secs(r_cond.optimize_secs),
                ],
            ],
        ));
        out.push('\n');
    }

    // 5. FIFO vs fair scheduling under co-scheduled leaf jobs.
    {
        let q = bench_query(QueryId::Q8Prime);
        let fifo = make_dyno(300, scale, paper_cluster(), Strategy::Unc(2));
        let t_fifo = run_mode(&fifo, &q, Mode::Dynopt);
        let fair_cfg = ClusterConfig {
            scheduler: dyno_cluster::SchedulerPolicy::Fair,
            ..paper_cluster()
        };
        let fair = make_dyno(300, scale, fair_cfg, Strategy::Unc(2));
        let t_fair = run_mode(&fair, &q, Mode::Dynopt);
        out.push_str(&render_table(
            "Ablation: FIFO vs fair scheduler (Q8', SF300, UNC-2)",
            &["scheduler", "time", "relative"],
            &[
                vec!["FIFO".into(), secs(t_fifo), pct(1.0)],
                vec!["fair".into(), secs(t_fair), pct(t_fair / t_fifo)],
            ],
        ));
        out.push('\n');
    }

    // 6. The cyclic query the paper had to exclude: Q5 runs here.
    {
        let q = bench_query(QueryId::Q5);
        let d = make_dyno(300, scale, paper_cluster(), Strategy::Unc(1));
        let base = run_mode(&d, &q, Mode::BestStaticJaql);
        let dynopt = run_mode(&d, &q, Mode::Dynopt);
        out.push_str(&render_table(
            "Extension: TPC-H Q5 (cyclic join graph, unsupported by the paper's optimizer)",
            &["variant", "time", "relative"],
            &[
                vec!["BESTSTATICJAQL".into(), secs(base), pct(1.0)],
                vec!["DYNOPT".into(), secs(dynopt), pct(dynopt / base)],
            ],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Experiment smoke tests at a coarse scale (fast; the repro binary
    // runs the full-resolution versions).
    fn coarse() -> ExpScale {
        ExpScale { divisor: 200_000 }
    }

    #[test]
    fn table1_shape() {
        let t = table1(coarse());
        assert!(t.contains("Q8'"));
        assert!(t.contains("%"));
    }

    #[test]
    fn fig3_shows_broadcast_advantage() {
        let t = fig3(coarse());
        assert!(t.contains("RELOPT"), "{t}");
        assert!(t.contains("⋈"), "{t}");
    }

    #[test]
    fn reopt_ab_adaptive_is_never_worse_than_static() {
        // The SF100 claim is recorded in EXPERIMENTS.md from the full run;
        // here the coarse grain checks the invariant the table encodes:
        // adaptive ends on the unconditional loop's final plan whenever
        // the static threshold does.
        let t = reopt_ab(coarse());
        for q in ["Q2", "Q7", "Q8'", "Q9'", "Q10"] {
            assert!(t.contains(q), "{t}");
        }
        for line in t.lines().skip(2) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() < 2 {
                continue;
            }
            let static_final = cells[cells.len() - 2];
            let adaptive_final = cells[cells.len() - 1];
            if static_final == "same" {
                assert_eq!(
                    adaptive_final, "same",
                    "adaptive lost a plan static kept: {line}"
                );
            }
        }
    }

    #[test]
    fn fig5_reports_all_strategies() {
        let t = fig5(ExpScale { divisor: 400_000 });
        for s in ["SIMPLE_SO", "SIMPLE_MO", "UNC-1", "UNC-2", "CHEAP-1", "CHEAP-2"] {
            assert!(t.contains(s), "{t}");
        }
    }
}
