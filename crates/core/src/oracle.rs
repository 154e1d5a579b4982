//! The true-cardinality oracle.
//!
//! The paper's `BESTSTATICJAQL` baseline is "the best hand-written
//! left-deep plan", found by *trying all FROM-clause orders and picking
//! the best one* (§6.1). Ranking those orders needs only the true row
//! count and byte volume of every left-deep prefix, and every prefix is a
//! subset of the relations, so the oracle joins each subset exactly once
//! (memoized) and keeps only what those sizes need. A leaf keeps its
//! filtered records with each row's field count and field bytes; a
//! multi-leaf subset keeps a flat list of row-index tuples (one index per
//! leaf) and its encoded byte total. A joined record is built only to
//! evaluate a post-join predicate on it.
//!
//! It is also the measuring stick in tests: estimated cardinalities can
//! be compared against `oracle.rows(...)` ground truth.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use dyno_data::{encoded_len, varint_len, Record, Value};
use dyno_query::{JoinBlock, Predicate, UdfRegistry};
use dyno_storage::{Dfs, SimScale};

/// Memoizing true-size oracle over a join block.
pub struct Oracle<'a> {
    block: &'a JoinBlock,
    dfs: &'a Dfs,
    udfs: &'a UdfRegistry,
    /// Each leaf's rows, loaded with its single-leaf entry.
    leaf_rows: Vec<Option<LeafRows>>,
    memo: HashMap<Vec<usize>, Rc<OracleEntry>>,
}

/// One leaf's filtered records and the size parts of each row.
struct LeafRows {
    records: Vec<Record>,
    /// Field count of each row.
    fields: Vec<u64>,
    /// Encoded bytes of each row's fields: its encoding minus the record
    /// header (tag byte and field-count varint).
    field_bytes: Vec<u64>,
    /// Every field name any row carries.
    names: BTreeSet<String>,
}

/// True sizes of one leaf subset's join result.
pub struct OracleEntry {
    /// The subset's leaves, ascending.
    leaves: Vec<usize>,
    /// One tuple of `leaves.len()` row indices per result row; the i-th
    /// index points into the rows of `leaves[i]`.
    tuples: Vec<u32>,
    /// Encoded bytes of the whole result.
    bytes: u64,
    /// Scale of the result (max over participating files).
    pub scale: SimScale,
}

impl OracleEntry {
    /// Physical row count.
    pub fn rows(&self) -> u64 {
        (self.tuples.len() / self.leaves.len()) as u64
    }

    /// Simulated row count.
    pub fn sim_rows(&self) -> u64 {
        self.scale.up(self.rows())
    }

    /// Simulated byte volume.
    pub fn sim_bytes(&self) -> u64 {
        self.scale.up(self.bytes)
    }
}

impl<'a> Oracle<'a> {
    /// An oracle over `block`'s leaves as stored in `dfs`.
    pub fn new(block: &'a JoinBlock, dfs: &'a Dfs, udfs: &'a UdfRegistry) -> Self {
        Oracle {
            block,
            dfs,
            udfs,
            leaf_rows: (0..block.num_leaves()).map(|_| None).collect(),
            memo: HashMap::new(),
        }
    }

    /// True physical row count of the join of `leaves` (local predicates
    /// applied; post-join predicates applied as soon as covered).
    pub fn rows(&mut self, leaves: &BTreeSet<usize>) -> u64 {
        self.entry(leaves).rows()
    }

    /// True simulated row count.
    pub fn sim_rows(&mut self, leaves: &BTreeSet<usize>) -> u64 {
        self.entry(leaves).sim_rows()
    }

    /// True simulated byte volume.
    pub fn sim_bytes(&mut self, leaves: &BTreeSet<usize>) -> u64 {
        self.entry(leaves).sim_bytes()
    }

    /// The memoized entry for a subset.
    pub fn entry(&mut self, leaves: &BTreeSet<usize>) -> Rc<OracleEntry> {
        assert!(!leaves.is_empty(), "oracle asked about the empty set");
        let key: Vec<usize> = leaves.iter().copied().collect();
        if let Some(hit) = self.memo.get(&key) {
            return Rc::clone(hit);
        }
        let entry = Rc::new(self.compute(leaves));
        self.memo.insert(key, Rc::clone(&entry));
        entry
    }

    fn compute(&mut self, leaves: &BTreeSet<usize>) -> OracleEntry {
        if leaves.len() == 1 {
            let leaf_id = *leaves.iter().next().expect("non-empty");
            return self.load_leaf(leaf_id);
        }
        // Canonical split: peel the highest leaf that keeps the remainder
        // non-empty; prefer a connected peel to avoid cartesian blowups.
        let peel = leaves
            .iter()
            .rev()
            .copied()
            .find(|&l| {
                let mut rest = leaves.clone();
                rest.remove(&l);
                self.block.connected(&rest, &BTreeSet::from([l]))
            })
            .unwrap_or_else(|| *leaves.iter().next_back().expect("non-empty"));
        let mut rest = leaves.clone();
        rest.remove(&peel);

        let left = self.entry(&rest);
        let right = self.entry(&BTreeSet::from([peel]));
        let conds = self
            .block
            .conditions_between(&rest, &BTreeSet::from([peel]));

        // Post-join predicates that become applicable exactly now.
        let out_aliases = self.block.aliases_of(leaves);
        let left_aliases = self.block.aliases_of(&rest);
        let right_aliases = self.block.aliases_of(&BTreeSet::from([peel]));
        let post: Vec<&Predicate> = self
            .block
            .newly_applicable_preds(&out_aliases, &left_aliases, &right_aliases)
            .into_iter()
            .map(|i| &self.block.post_preds[i].pred)
            .collect();

        let (tuples, bytes) = self.join(&left, peel, &conds, &post);
        let scale = if left.scale.factor() >= right.scale.factor() {
            left.scale
        } else {
            right.scale
        };
        OracleEntry {
            leaves: leaves.iter().copied().collect(),
            tuples,
            bytes,
            scale,
        }
    }

    /// Filter one leaf's file, keep its rows and return its entry.
    fn load_leaf(&mut self, leaf_id: usize) -> OracleEntry {
        let leaf = &self.block.leaves[leaf_id];
        let file = self
            .dfs
            .file(dyno_exec::leaf::leaf_file(leaf))
            .expect("oracle leaf file exists");
        let batch = dyno_exec::leaf::apply_leaf_records(leaf, file.records(), self.udfs);
        let n = batch.records.len();
        let mut rows = LeafRows {
            records: Vec::with_capacity(n),
            fields: Vec::with_capacity(n),
            field_bytes: Vec::with_capacity(n),
            names: BTreeSet::new(),
        };
        let mut bytes = 0u64;
        for value in batch.records {
            let len = encoded_len(&value) as u64;
            let Value::Record(rec) = value else {
                panic!("oracle leaf {leaf_id} holds a row that is not a record");
            };
            let fields = rec.len() as u64;
            bytes += len;
            rows.fields.push(fields);
            rows.field_bytes.push(len - 1 - varint_len(fields) as u64);
            for (name, _) in rec.iter() {
                if !rows.names.contains(name) {
                    rows.names.insert(name.to_owned());
                }
            }
            rows.records.push(rec);
        }
        self.leaf_rows[leaf_id] = Some(rows);
        OracleEntry {
            leaves: vec![leaf_id],
            tuples: (0..n).map(row_index).collect(),
            bytes,
            scale: file.scale(),
        }
    }

    fn rows_of(&self, leaf: usize) -> &LeafRows {
        self.leaf_rows[leaf]
            .as_ref()
            .expect("a leaf's rows load with its entry")
    }

    /// Hash-join `left`'s tuples with leaf `peel`'s rows on `conds`,
    /// keeping the pairs that pass `post`. Returns the result's tuples,
    /// in ascending leaf order, and its encoded byte total.
    fn join(
        &self,
        left: &OracleEntry,
        peel: usize,
        conds: &[(String, String)],
        post: &[&Predicate],
    ) -> (Vec<u32>, u64) {
        let right = self.rows_of(peel);
        let lefts: Vec<&LeafRows> = left.leaves.iter().map(|&l| self.rows_of(l)).collect();
        // `Record::merge` lets the right side win on a name collision, so
        // a joined row would be smaller than its parts: forbid it.
        for rows in &lefts {
            if let Some(name) = rows.names.intersection(&right.names).next() {
                panic!("oracle join with leaf {peel}: field `{name}` is on both sides");
            }
        }
        // Where each left key attribute lives; an attribute no left leaf
        // carries is missing from every row, so nothing joins.
        let Some(left_key) = conds
            .iter()
            .map(|(attr, _)| {
                let pos = lefts.iter().position(|rows| rows.names.contains(attr))?;
                Some((pos, attr.as_str()))
            })
            .collect::<Option<Vec<_>>>()
        else {
            return (Vec::new(), 0);
        };

        let mut table: HashMap<Vec<&Value>, Vec<u32>> = HashMap::new();
        for (i, rec) in right.records.iter().enumerate() {
            let key: Option<Vec<&Value>> =
                conds.iter().map(|(_, attr)| key_field(rec, attr)).collect();
            if let Some(key) = key {
                table.entry(key).or_default().push(row_index(i));
            }
        }

        let ins = left.leaves.partition_point(|&l| l < peel);
        let mut tuples = Vec::new();
        let mut bytes = 0u64;
        let mut key = Vec::with_capacity(conds.len());
        for t in left.tuples.chunks_exact(lefts.len()) {
            key.clear();
            for &(pos, attr) in &left_key {
                match key_field(&lefts[pos].records[t[pos] as usize], attr) {
                    Some(v) => key.push(v),
                    None => break,
                }
            }
            if key.len() < left_key.len() {
                continue;
            }
            let Some(matches) = table.get(key.as_slice()) else {
                continue;
            };
            let (mut fields, mut field_bytes) = (0, 0);
            for (rows, &row) in lefts.iter().zip(t) {
                fields += rows.fields[row as usize];
                field_bytes += rows.field_bytes[row as usize];
            }
            let merged_left = (!post.is_empty()).then(|| {
                let mut rec = Record::new();
                for (rows, &row) in lefts.iter().zip(t) {
                    rec.merge(&rows.records[row as usize]);
                }
                rec
            });
            for &j in matches {
                let r = j as usize;
                if let Some(merged_left) = &merged_left {
                    let mut joined = merged_left.clone();
                    joined.merge(&right.records[r]);
                    let joined = Value::Record(joined);
                    if !post.iter().all(|p| p.eval(&joined, self.udfs)) {
                        continue;
                    }
                }
                let row_fields = fields + right.fields[r];
                bytes += 1 + varint_len(row_fields) as u64 + field_bytes + right.field_bytes[r];
                tuples.extend_from_slice(&t[..ins]);
                tuples.push(j);
                tuples.extend_from_slice(&t[ins..]);
            }
        }
        (tuples, bytes)
    }
}

/// A join-key field under `key_of`'s rule: a missing or null field
/// joins with nothing.
fn key_field<'r>(rec: &'r Record, attr: &str) -> Option<&'r Value> {
    rec.get(attr).filter(|v| !v.is_null())
}

fn row_index(i: usize) -> u32 {
    u32::try_from(i).expect("oracle leaf rows fit in u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_query::{JoinBlock, Predicate, QuerySpec, ScanDef, SchemaCatalog};
    use dyno_tpch::{SimScale, TpchGenerator};

    fn env() -> dyno_tpch::TpchEnv {
        TpchGenerator::new(1, SimScale::divisor(5000)).generate()
    }

    fn co_block() -> (JoinBlock, UdfRegistry) {
        let spec = QuerySpec::new(
            "co",
            vec![ScanDef::table("customer"), ScanDef::table("orders")],
        )
        .filter(Predicate::attr_eq("c_custkey", "o_custkey"));
        let mut cat = SchemaCatalog::new();
        for scan in &spec.relations {
            cat.add_scan(scan, dyno_tpch::table_attrs(&scan.table));
        }
        (JoinBlock::compile(&spec, &cat).unwrap(), UdfRegistry::new())
    }

    #[test]
    fn fk_join_count_equals_fact_side() {
        let env = env();
        let (block, udfs) = co_block();
        let mut oracle = Oracle::new(&block, &env.dfs, &udfs);
        let orders = env.table_rows("orders");
        let all: BTreeSet<usize> = [0, 1].into_iter().collect();
        // every order has exactly one customer
        assert_eq!(oracle.rows(&all), orders);
        // sim rows scale up by the divisor
        assert_eq!(oracle.sim_rows(&all), orders * 5000);
    }

    #[test]
    fn memoization_returns_same_entry() {
        let env = env();
        let (block, udfs) = co_block();
        let mut oracle = Oracle::new(&block, &env.dfs, &udfs);
        let set: BTreeSet<usize> = [0, 1].into_iter().collect();
        let a = oracle.entry(&set);
        let b = oracle.entry(&set);
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_set_panics() {
        let env = env();
        let (block, udfs) = co_block();
        Oracle::new(&block, &env.dfs, &udfs).rows(&BTreeSet::new());
    }
}

#[cfg(test)]
mod reference_tests {
    use super::*;
    use dyno_tpch::queries::{self, QueryId};
    use dyno_tpch::{catalog_for, TpchGenerator};

    /// The materializing recursion the size oracle replaced, kept as its
    /// reference: every subset's join result as merged records, split the
    /// same canonical way and joined by `oracle_join`.
    struct Reference<'a> {
        block: &'a JoinBlock,
        dfs: &'a Dfs,
        udfs: &'a UdfRegistry,
        memo: HashMap<Vec<usize>, Rc<(Vec<Value>, SimScale)>>,
    }

    impl Reference<'_> {
        fn entry(&mut self, leaves: &BTreeSet<usize>) -> Rc<(Vec<Value>, SimScale)> {
            let key: Vec<usize> = leaves.iter().copied().collect();
            if let Some(hit) = self.memo.get(&key) {
                return Rc::clone(hit);
            }
            let entry = Rc::new(self.compute(leaves));
            self.memo.insert(key, Rc::clone(&entry));
            entry
        }

        fn compute(&mut self, leaves: &BTreeSet<usize>) -> (Vec<Value>, SimScale) {
            if leaves.len() == 1 {
                let leaf = &self.block.leaves[*leaves.first().expect("non-empty")];
                let file = self.dfs.file(dyno_exec::leaf::leaf_file(leaf)).unwrap();
                let batch = dyno_exec::leaf::apply_leaf_records(leaf, file.records(), self.udfs);
                return (batch.records, file.scale());
            }
            let peel = leaves
                .iter()
                .rev()
                .copied()
                .find(|&l| {
                    let mut rest = leaves.clone();
                    rest.remove(&l);
                    self.block.connected(&rest, &BTreeSet::from([l]))
                })
                .unwrap_or_else(|| *leaves.last().expect("non-empty"));
            let mut rest = leaves.clone();
            rest.remove(&peel);
            let left = self.entry(&rest);
            let right = self.entry(&BTreeSet::from([peel]));
            let peeled = BTreeSet::from([peel]);
            let post_preds = self.block.newly_applicable_preds(
                &self.block.aliases_of(leaves),
                &self.block.aliases_of(&rest),
                &self.block.aliases_of(&peeled),
            );
            let post: Vec<&Predicate> = post_preds
                .iter()
                .map(|&i| &self.block.post_preds[i].pred)
                .collect();
            let step = dyno_exec::JoinStep {
                conds: self.block.conditions_between(&rest, &peeled),
                post_preds,
            };
            let out = dyno_exec::jobs::oracle_join(&left.0, &right.0, &step, &post, self.udfs);
            let scale = if left.1.factor() >= right.1.factor() {
                left.1
            } else {
                right.1
            };
            (out, scale)
        }
    }

    /// Every connected leaf subset of `block`.
    fn connected_subsets(block: &JoinBlock) -> Vec<BTreeSet<usize>> {
        let n = block.num_leaves();
        (1u64..1 << n)
            .map(|mask| {
                (0..n)
                    .filter(|&i| mask & 1 << i != 0)
                    .collect::<BTreeSet<_>>()
            })
            .filter(|set| {
                let mut reached = BTreeSet::from([*set.first().expect("non-empty")]);
                while let Some(&next) = set.iter().find(|&&l| {
                    !reached.contains(&l) && block.connected(&reached, &BTreeSet::from([l]))
                }) {
                    reached.insert(next);
                }
                reached.len() == set.len()
            })
            .collect()
    }

    /// The size oracle agrees with the materializing reference on every
    /// connected subset: Q7, Q8' and Q9' carry post-join predicates, and
    /// Q5's join graph is cyclic. Q7 needs more rows than the rest before
    /// any tuple survives its predicate over both nations.
    #[test]
    fn size_oracle_matches_materializing_reference() {
        let small = TpchGenerator::new(1, SimScale::divisor(2000)).generate();
        let larger = TpchGenerator::new(1, SimScale::divisor(500)).generate();
        for (q, env) in [
            (QueryId::Q2, &small),
            (QueryId::Q5, &small),
            (QueryId::Q7, &larger),
            (QueryId::Q8Prime, &small),
            (QueryId::Q9Prime, &small),
            (QueryId::Q10, &small),
        ] {
            let p = queries::prepare(q);
            let block = JoinBlock::compile(&p.spec, &catalog_for(&p.spec)).unwrap();
            let mut oracle = Oracle::new(&block, &env.dfs, &p.udfs);
            let mut reference = Reference {
                block: &block,
                dfs: &env.dfs,
                udfs: &p.udfs,
                memo: HashMap::new(),
            };
            let mut post_filtered_rows = 0;
            for set in connected_subsets(&block) {
                let (records, scale) = &*reference.entry(&set);
                let bytes: u64 = records.iter().map(|r| encoded_len(r) as u64).sum();
                assert_eq!(
                    oracle.rows(&set),
                    records.len() as u64,
                    "{q:?} {set:?} rows"
                );
                assert_eq!(
                    oracle.sim_bytes(&set),
                    scale.up(bytes),
                    "{q:?} {set:?} bytes"
                );
                let aliases = block.aliases_of(&set);
                if block
                    .post_preds
                    .iter()
                    .any(|p| aliases.is_superset(&p.aliases))
                {
                    post_filtered_rows += records.len();
                }
            }
            assert_eq!(
                post_filtered_rows > 0,
                !block.post_preds.is_empty(),
                "{q:?}: post-join predicates must be exercised on live rows"
            );
        }
    }
}

#[cfg(test)]
mod more_oracle_tests {
    use super::*;
    use dyno_query::{Predicate, QuerySpec, ScanDef, SchemaCatalog};
    use dyno_tpch::{SimScale, TpchGenerator};
    use std::collections::BTreeSet;

    /// The oracle applies post-join predicates exactly when they become
    /// applicable, so its subset sizes account for non-local UDFs.
    #[test]
    fn oracle_honors_post_join_predicates() {
        let env = TpchGenerator::new(1, SimScale::divisor(2000)).generate();
        let spec = QuerySpec::new(
            "coudf",
            vec![ScanDef::table("customer"), ScanDef::table("orders")],
        )
        .filter(Predicate::attr_eq("c_custkey", "o_custkey"))
        .filter(Predicate::udf("gate", &["c_custkey", "o_orderkey"]));
        let mut cat = SchemaCatalog::new();
        for scan in &spec.relations {
            cat.add_scan(scan, dyno_tpch::table_attrs(&scan.table));
        }
        let block = dyno_query::JoinBlock::compile(&spec, &cat).unwrap();
        let mut udfs = UdfRegistry::new();
        udfs.register("gate", |args| {
            dyno_data::Value::Bool(args[1].as_long().unwrap_or(0) % 3 == 0)
        });
        let mut oracle = Oracle::new(&block, &env.dfs, &udfs);
        let all: BTreeSet<usize> = [0, 1].into_iter().collect();
        let with_udf = oracle.rows(&all);
        let orders = env.table_rows("orders");
        // gate keeps ~1/3 of orders
        assert!(with_udf < orders, "UDF must filter: {with_udf} !< {orders}");
        assert!(with_udf > 0);
    }

    /// Subset sizes are consistent: a superset's byte volume reflects its
    /// own join result, and single-leaf entries match a direct filter.
    #[test]
    fn oracle_leaf_sizes_match_direct_scan() {
        let env = TpchGenerator::new(1, SimScale::divisor(2000)).generate();
        let spec = QuerySpec::new(
            "scan1",
            vec![ScanDef::table("orders"), ScanDef::table("customer")],
        )
        .filter(Predicate::attr_eq("o_custkey", "c_custkey"))
        .filter(Predicate::cmp(
            "o_orderdate",
            dyno_query::CmpOp::Ge,
            19970101i64,
        ));
        let mut cat = SchemaCatalog::new();
        for scan in &spec.relations {
            cat.add_scan(scan, dyno_tpch::table_attrs(&scan.table));
        }
        let block = dyno_query::JoinBlock::compile(&spec, &cat).unwrap();
        let udfs = UdfRegistry::new();
        let mut oracle = Oracle::new(&block, &env.dfs, &udfs);
        let o = block.leaf_of_alias("orders").unwrap();
        let direct = dyno_exec::leaf::scan_leaf(&block, o, &env.dfs, &udfs)
            .unwrap()
            .records
            .len() as u64;
        assert_eq!(oracle.rows(&BTreeSet::from([o])), direct);
        assert!(oracle.sim_bytes(&BTreeSet::from([o])) > 0);
    }
}
