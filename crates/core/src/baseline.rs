//! The experiment baselines (paper §6.1).
//!
//! * [`best_jaql_alias_order`] + [`begin_jaql_order`] — `BESTSTATICJAQL`:
//!   stock Jaql's left-deep, FROM-order join planning with the small-file
//!   broadcast rewrite, over the best FROM permutation. The paper's
//!   authors "tried all possible orders and picked the best one"; we rank
//!   every order that Jaql's heuristic could produce using *true*
//!   intermediate sizes from the [`crate::oracle`] under the platform cost
//!   model, then execute the winner for real.
//! * [`relopt_leaf_stats`] — the `RELOPT` stand-in for DBMS-X: exact
//!   base-table statistics (histograms ⇒ exact single-predicate
//!   selectivities), combined under the **independence assumption**, with
//!   **UDF selectivity = 1** ("DBMS-X does not have enough information to
//!   estimate selectivity of UDFs"). The resulting leaf statistics feed
//!   the same cost-based optimizer, once, with no runtime adaptation.

use std::collections::BTreeSet;

use dyno_cluster::{Cluster, JobHandle};
use dyno_exec::{DagRun, DagStep, Executor, JobDag, JobOutput};
use dyno_obs::{SpanId, SpanKind};
use dyno_optimizer::CostModel;
use dyno_query::jaql::{jaql_heuristic_plan, leaf_sizes_from};
use dyno_query::{JoinBlock, LeafSource, Predicate};
use dyno_stats::{AttrSpec, TableStats, TableStatsBuilder};

use crate::dyno::DynoError;
use crate::oracle::Oracle;

/// Enumerate the left-deep orders stock Jaql can produce (permutations
/// that only break FROM order to avoid cartesian products).
fn jaql_producible_orders(block: &JoinBlock) -> Vec<Vec<usize>> {
    let n = block.num_leaves();
    let mut orders = Vec::new();
    let mut current = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    fn rec(
        block: &JoinBlock,
        current: &mut Vec<usize>,
        remaining: &mut Vec<usize>,
        orders: &mut Vec<Vec<usize>>,
    ) {
        if remaining.is_empty() {
            orders.push(current.clone());
            return;
        }
        let joined: BTreeSet<usize> = current.iter().copied().collect();
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&cand| {
                current.is_empty() || block.connected(&joined, &BTreeSet::from([cand]))
            })
            .collect();
        // Jaql deviates from FROM order only to avoid cartesian products:
        // if any connected relation exists, only those are candidates.
        let candidates = if connected.is_empty() {
            remaining.clone()
        } else {
            connected
        };
        for cand in candidates {
            let pos = remaining
                .iter()
                .position(|&x| x == cand)
                .expect("candidate from remaining");
            remaining.remove(pos);
            current.push(cand);
            rec(block, current, remaining, orders);
            current.pop();
            remaining.insert(pos, cand);
        }
    }
    rec(block, &mut current, &mut remaining, &mut orders);
    orders
}

/// Cost one left-deep order with **true** sizes, mirroring Jaql's method
/// selection (base-file size vs memory) and broadcast chaining.
fn true_cost_of_order(
    order: &[usize],
    _block: &JoinBlock,
    oracle: &mut Oracle<'_>,
    file_sizes: &[u64],
    model: &CostModel,
) -> f64 {
    let mut joined: BTreeSet<usize> = BTreeSet::from([order[0]]);
    let mut cost = 0.0;
    let mut prev_broadcast = false;
    let mut chain_build_bytes = 0.0f64;
    for &leaf in &order[1..] {
        let probe_bytes = oracle.sim_bytes(&joined) as f64;
        let build_true_bytes = oracle.sim_bytes(&BTreeSet::from([leaf])) as f64;
        joined.insert(leaf);
        let out_bytes = oracle.sim_bytes(&joined) as f64;
        // Jaql's rewrite looks at the raw file size only (§2.2.2).
        let broadcast = (file_sizes[leaf] as f64) <= model.memory_budget;
        if broadcast {
            let chained = prev_broadcast
                && chain_build_bytes + build_true_bytes <= model.memory_budget;
            cost += model.c_build * build_true_bytes + model.c_out * out_bytes;
            if chained {
                // probe flowed through: refund the materialization+reread
                cost -= (model.c_out + model.c_probe) * probe_bytes;
                chain_build_bytes += build_true_bytes;
            } else {
                chain_build_bytes = build_true_bytes;
            }
            cost += model.c_probe * probe_bytes;
            prev_broadcast = true;
        } else {
            cost += model.repartition_join(probe_bytes, build_true_bytes, out_bytes);
            prev_broadcast = false;
            chain_build_bytes = 0.0;
        }
    }
    cost
}

/// Rank every Jaql-producible left-deep order with true sizes and return
/// the winner's alias order; resumable drivers execute it through
/// [`begin_jaql_order`]. Costs no simulated time (the paper's authors did
/// this offline).
pub fn best_jaql_alias_order(
    exec: &Executor,
    cluster: &mut Cluster,
    block: &JoinBlock,
    model: &CostModel,
) -> Vec<String> {
    let sizes = leaf_sizes_from(block, |f| {
        exec.dfs.file(f).map(|x| x.sim_bytes()).unwrap_or(u64::MAX)
    });
    let mut oracle = Oracle::new(block, &exec.dfs, &exec.udfs);
    let orders = jaql_producible_orders(block);
    assert!(!orders.is_empty(), "at least the FROM order exists");
    let best = orders
        .iter()
        .min_by(|a, b| {
            true_cost_of_order(a, block, &mut oracle, &sizes, model)
                .total_cmp(&true_cost_of_order(b, block, &mut oracle, &sizes, model))
        })
        .expect("non-empty");
    cluster
        .metrics()
        .incr("baseline.orders_considered", orders.len() as u64);
    if cluster.tracer().is_enabled() {
        let best_cost = true_cost_of_order(best, block, &mut oracle, &sizes, model);
        let tracer = cluster.tracer().clone();
        tracer.event(
            cluster.trace_scope(),
            cluster.now(),
            "plan_choice",
            vec![
                ("orders", (orders.len() as u64).into()),
                ("true_cost", best_cost.into()),
            ],
        );
    }
    best.iter()
        .map(|&l| {
            block.leaves[l]
                .aliases
                .iter()
                .next()
                .expect("leaf covers an alias")
                .clone()
        })
        .collect()
}

/// One poll of a [`JaqlRun`].
pub enum JaqlStep {
    /// Waiting on these cluster jobs.
    Wait(Vec<JobHandle>),
    /// The plan has executed: join-block output + rendered plan.
    Done(Box<(JobOutput, String)>),
}

/// Resumable execution of a stock-Jaql plan: the heuristic plan is fixed
/// up front; the DAG then runs wave by wave through [`DagRun`].
pub struct JaqlRun {
    block: JoinBlock,
    dag: JobDag,
    rendered: String,
    phase: SpanId,
    prev_scope: SpanId,
    run: DagRun,
}

/// Plan stock Jaql over a given FROM order and start executing: compiles
/// the heuristic plan and opens the `execute` phase span; jobs are
/// submitted by [`JaqlRun::poll`].
pub fn begin_jaql_order(
    exec: &Executor,
    cluster: &mut Cluster,
    block: &JoinBlock,
    model: &CostModel,
    from_order: &[String],
) -> JaqlRun {
    let mut block = block.clone();
    block.from_order = from_order.to_vec();
    let sizes = leaf_sizes_from(&block, |f| {
        exec.dfs.file(f).map(|x| x.sim_bytes()).unwrap_or(u64::MAX)
    });
    let plan = jaql_heuristic_plan(&block, &sizes, model.memory_budget as u64);
    let rendered = plan.render_inline(&block);
    let dag = JobDag::compile(&block, &plan);
    // Baseline runs get an `execute` phase span too, so their profiles
    // show the same phase breakdown as DYNOPT's.
    let tracer = cluster.tracer().clone();
    let prev_scope = cluster.trace_scope();
    let phase = tracer.start_span(prev_scope, SpanKind::Phase, "execute", cluster.now());
    if tracer.is_enabled() {
        cluster.set_trace_scope(phase);
    }
    JaqlRun {
        block,
        dag,
        rendered,
        phase,
        prev_scope,
        run: DagRun::new(false, false),
    }
}

impl JaqlRun {
    /// Advance the DAG; restores the trace scope and closes the phase
    /// span when the run completes (or fails).
    pub fn poll(
        &mut self,
        exec: &Executor,
        cluster: &mut Cluster,
    ) -> Result<JaqlStep, DynoError> {
        let step = self.run.poll(exec, cluster, &self.block, &self.dag);
        let close = |cluster: &mut Cluster| {
            let tracer = cluster.tracer().clone();
            if tracer.is_enabled() {
                cluster.set_trace_scope(self.prev_scope);
                tracer.end_span(self.phase, cluster.now());
            }
        };
        match step {
            Ok(DagStep::Wait(handles)) => Ok(JaqlStep::Wait(handles)),
            Ok(DagStep::Done(out)) => {
                close(cluster);
                Ok(JaqlStep::Done(Box::new((out, self.rendered.clone()))))
            }
            Err(e) => {
                close(cluster);
                Err(e.into())
            }
        }
    }
}

/// Compute the RELOPT leaf statistics: exact base stats, exact
/// single-predicate selectivities, independence-combined, UDFs opaque.
pub fn relopt_leaf_stats(exec: &Executor, block: &JoinBlock) -> Result<Vec<TableStats>, DynoError> {
    let mut out = Vec::with_capacity(block.num_leaves());
    for (i, leaf) in block.leaves.iter().enumerate() {
        let file = exec.dfs.file(dyno_exec::leaf::leaf_file(leaf))?;
        let attrs: Vec<AttrSpec> = block
            .leaf_join_attrs(i)
            .into_iter()
            .map(AttrSpec::field)
            .collect();
        // Renames must be applied before observing attributes: build a
        // predicate-free twin of the leaf.
        let bare = dyno_query::LeafExpr {
            local_preds: Vec::new(),
            ..leaf.clone()
        };
        let batch = dyno_exec::leaf::apply_leaf_records(&bare, file.records(), &exec.udfs);
        let mut builder = TableStatsBuilder::new(attrs);
        for r in &batch.records {
            builder.observe(r);
        }
        // Independence assumption: multiply exact per-predicate
        // selectivities; UDFs contribute 1.0 (unknowable statically).
        let total = batch.records.len().max(1) as f64;
        let mut sel = 1.0f64;
        for pred in &leaf.local_preds {
            if matches!(pred, Predicate::Udf { .. }) {
                continue; // selectivity 1.0
            }
            let pass = batch
                .records
                .iter()
                .filter(|r| pred.eval(r, &exec.udfs))
                .count() as f64;
            sel *= pass / total;
        }
        let est_rows = file.sim_records() as f64 * sel;
        out.push(builder.finish(Some(est_rows)));
    }
    Ok(out)
}

/// The materialized source of a leaf, if any (helper for tests).
pub fn leaf_is_materialized(block: &JoinBlock, leaf: usize) -> bool {
    matches!(block.leaves[leaf].source, LeafSource::Materialized { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_cluster::{ClusterConfig, Coord};
    use dyno_storage::SimScale;
    use dyno_tpch::queries::{self, QueryId};
    use dyno_tpch::{catalog_for, TpchGenerator};

    fn setup(q: QueryId) -> (Executor, Cluster, JoinBlock) {
        let env = TpchGenerator::new(1, SimScale::divisor(2000)).generate();
        let p = queries::prepare(q);
        let block = JoinBlock::compile(&p.spec, &catalog_for(&p.spec)).unwrap();
        let exec = Executor::new(env.dfs, Coord::new(), p.udfs);
        let cluster = Cluster::new(ClusterConfig {
            task_jitter: 0.0,
            ..ClusterConfig::paper()
        });
        (exec, cluster, block)
    }

    #[test]
    fn producible_orders_avoid_cartesians() {
        let (_, _, block) = setup(QueryId::Q10);
        let orders = jaql_producible_orders(&block);
        assert!(!orders.is_empty());
        for order in &orders {
            let mut joined: BTreeSet<usize> = BTreeSet::from([order[0]]);
            for &l in &order[1..] {
                assert!(
                    block.connected(&joined, &BTreeSet::from([l])),
                    "cartesian product in producible order {order:?}"
                );
                joined.insert(l);
            }
        }
        // Q10's join graph is a tree around orders/customer; far fewer
        // orders than 4! are producible.
        assert!(orders.len() < 24);
    }

    #[test]
    fn relopt_multiplies_correlated_predicates() {
        let (exec, _, block) = setup(QueryId::Q8Prime);
        let stats = relopt_leaf_stats(&exec, &block).unwrap();
        let o = block.leaf_of_alias("orders").unwrap();
        let est = stats[o].rows;
        let full = exec.dfs.file("orders").unwrap().sim_records() as f64;
        // true selectivity: date (≈2/7) × priority (≈1/5); RELOPT
        // multiplies in the redundant shippriority (another ≈1/5),
        // underestimating ≈5×.
        let est_frac = est / full;
        // RELOPT multiplies every pushed-down predicate independently:
        // the two date bounds (≥ 4/7 and ≤ 5/7 of the 1992–1998 span),
        // the priority (≈1/5) and the redundant shippriority (another
        // ≈1/5) — even though priority ⇒ shippriority and the date pair
        // jointly selects 2/7.
        let independence = (4.0 / 7.0) * (5.0 / 7.0) * (1.0 / 5.0) * (1.0 / 5.0);
        assert!(
            (est_frac - independence).abs() < independence * 0.6,
            "estimated fraction {est_frac}, independence predicts {independence}"
        );
        // The correlation makes RELOPT underestimate the true fraction
        // (priority alone implies shippriority; joint date ≈ 2/7) ≈ 3.5×.
        let truth = (2.0 / 7.0) * (1.0 / 5.0);
        assert!(
            est_frac < truth * 0.6,
            "estimated fraction {est_frac} not an underestimate of {truth}"
        );
    }

    #[test]
    fn relopt_is_blind_to_udfs() {
        let (exec, _, block) = setup(QueryId::Q9Prime); // dims filtered to 1%
        let stats = relopt_leaf_stats(&exec, &block).unwrap();
        let p = block.leaf_of_alias("part").unwrap();
        let full = exec.dfs.file("part").unwrap().sim_records() as f64;
        assert_eq!(stats[p].rows, full, "UDF selectivity must be assumed 1.0");
    }
}
