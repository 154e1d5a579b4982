//! # dyno-data
//!
//! The semi-structured data model underlying DYNO's query processing.
//!
//! Jaql (the language DYNO was built into) operates over JSON-like values:
//! records with named fields, arrays, and scalars. Nested structures are
//! pervasive in the paper's motivating workloads (e.g. the restaurant query
//! of §4.1 accesses `rs.addr[0].zip`), so the data model supports full
//! nesting plus path navigation.
//!
//! The crate provides:
//!
//! * [`Value`] — the value tree (null / bool / long / double / string /
//!   array / record) with total ordering and hashing suitable for join keys
//!   and grouping;
//! * [`Record`] — an ordered set of named fields;
//! * [`Path`] — compiled field/index navigation (`addr[0].zip`);
//! * [`encode`] — a compact, self-describing binary encoding used by the
//!   simulated DFS for byte accounting and (de)materialization.

pub mod encode;
pub mod path;
pub mod value;

pub use encode::{decode_value, encode_value, encoded_len, varint_len, DecodeError};
pub use path::{ParsePathError, Path, Step};
pub use value::{Record, Value};
