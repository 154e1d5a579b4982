//! Digests of simulated outcomes and of query results.
//!
//! The outcome digest is what the benchmark's correctness guard keys on:
//! a change that makes the program faster but moves a plan, a row count
//! or a single bit of a simulated latency changes it.

use dyno_data::Value;

/// FNV-1a over a length-prefixed field stream, so `("ab", "c")` and
/// `("a", "bc")` digest differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in a float bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold in a string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One finished query, as the outcome digest sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Display label, e.g. `Q7 (DYNOPT)`.
    pub label: String,
    /// Rows in the final result.
    pub rows: u64,
    /// Simulated latency in seconds.
    pub latency_secs: f64,
    /// Every plan the query ran, in order.
    pub plans: Vec<String>,
    /// SLO verdict, for submissions that carried a deadline.
    pub met_deadline: Option<bool>,
}

impl QueryRecord {
    /// Fold this query into `d`.
    pub fn fold(&self, d: &mut Digest) {
        d.str(&self.label);
        d.u64(self.rows);
        d.f64(self.latency_secs);
        d.u64(self.plans.len() as u64);
        for p in &self.plans {
            d.str(p);
        }
        d.u64(match self.met_deadline {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
}

/// An order-insensitive hash of a query result. Record fields are taken
/// in name order and doubles are rounded to 9 significant digits, because
/// two correct plans may emit rows, fields and floating-point sums in
/// different orders.
pub fn result_hash(rows: &[Value]) -> u64 {
    let mut encoded: Vec<Vec<u8>> = rows
        .iter()
        .map(|v| {
            let mut buf = Vec::new();
            canonical(v, &mut buf);
            buf
        })
        .collect();
    encoded.sort_unstable();
    let mut d = Digest::default();
    for e in &encoded {
        d.u64(e.len() as u64);
        d.bytes(e);
    }
    d.0
}

fn canonical(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => out.extend([1, u8::from(*b)]),
        Value::Long(x) => {
            out.push(2);
            out.extend(x.to_le_bytes());
        }
        Value::Double(x) => {
            out.push(6);
            out.extend(format!("{x:.8e}").bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend((s.len() as u64).to_le_bytes());
            out.extend(s.bytes());
        }
        Value::Array(items) => {
            out.push(4);
            out.extend((items.len() as u64).to_le_bytes());
            for item in items {
                canonical(item, out);
            }
        }
        Value::Record(r) => {
            let mut fields: Vec<(&str, &Value)> = r.iter().collect();
            fields.sort_by(|a, b| a.0.cmp(b.0));
            out.push(5);
            out.extend((fields.len() as u64).to_le_bytes());
            for (name, value) in fields {
                out.extend((name.len() as u64).to_le_bytes());
                out.extend(name.bytes());
                canonical(value, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_data::Record;

    fn record(plans: &[&str]) -> QueryRecord {
        QueryRecord {
            label: "Q7 (DYNOPT)".into(),
            rows: 4,
            latency_secs: 812.25,
            plans: plans.iter().map(|p| p.to_string()).collect(),
            met_deadline: Some(true),
        }
    }

    fn digest(records: &[&QueryRecord]) -> String {
        let mut d = Digest::default();
        for r in records {
            r.fold(&mut d);
        }
        d.hex()
    }

    #[test]
    fn digest_changes_when_a_plan_changes() {
        let base = digest(&[&record(&["(a ⋈ b)", "((a ⋈ b) ⋈ c)"])]);
        assert_eq!(base, digest(&[&record(&["(a ⋈ b)", "((a ⋈ b) ⋈ c)"])]));
        assert_ne!(base, digest(&[&record(&["(a ⋈ b)", "(a ⋈ (b ⋈ c))"])]));
        assert_ne!(base, digest(&[&record(&["(a ⋈ b)"])]));
    }

    #[test]
    fn digest_sees_every_field() {
        let base = record(&["p"]);
        let mut moved = base.clone();
        moved.latency_secs = f64::from_bits(base.latency_secs.to_bits() + 1);
        assert_ne!(digest(&[&base]), digest(&[&moved]));
        let mut verdict = base.clone();
        verdict.met_deadline = Some(false);
        assert_ne!(digest(&[&base]), digest(&[&verdict]));
        // Field boundaries are part of the stream.
        let mut d1 = Digest::default();
        d1.str("ab");
        d1.str("c");
        let mut d2 = Digest::default();
        d2.str("a");
        d2.str("bc");
        assert_ne!(d1, d2);
    }

    #[test]
    fn result_hash_ignores_row_and_field_order_and_sum_order() {
        let r1 = Value::Record(Record::new().with("a", 1i64).with("b", 0.1 + 0.2 + 0.3));
        let r2 = Value::Record(Record::new().with("b", 0.3 + 0.2 + 0.1).with("a", 1i64));
        let r3 = Value::Record(Record::new().with("a", 2i64).with("b", 0.5));
        assert_eq!(
            result_hash(&[r1.clone(), r3.clone()]),
            result_hash(&[r3.clone(), r2.clone()])
        );
        assert_ne!(
            result_hash(&[r1.clone(), r3.clone()]),
            result_hash(std::slice::from_ref(&r1))
        );
        assert_ne!(result_hash(&[r1]), result_hash(&[r3]));
        // Integers are exact: keys that agree in 9 digits still differ.
        let k1 = Value::Long(1_000_000_001);
        let k2 = Value::Long(1_000_000_002);
        assert_ne!(result_hash(&[k1]), result_hash(&[k2]));
    }
}
