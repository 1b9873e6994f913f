//! Relational substrate for the ECA warehouse reproduction.
//!
//! This crate implements the data model of Zhuge et al., *View Maintenance in
//! a Warehousing Environment* (SIGMOD 1995), §4:
//!
//! * tuples of typed values ([`Tuple`], [`Value`]),
//! * named schemas with optional key information ([`Schema`]),
//! * **signed bag** relations that retain duplicates and carry `+`/`−`
//!   replication counts ([`SignedBag`]) — the paper's signed-tuple semantics,
//! * a small predicate language for selection conditions ([`Predicate`]),
//! * the select/project/cross/join operators with the paper's
//!   sign-propagation rules ([`algebra`]),
//! * base-relation updates ([`Update`]).
//!
//! Duplicate retention (replication counts) is essential for incremental
//! deletion handling (paper §1.1, footnote 1); we follow the counting
//! formulation: a tuple with count `n > 0` appears `n` times, a tuple with
//! count `n < 0` is a pending deletion of `|n|` copies. The paper's relation
//! operators `+` and `−` (§4.1) are exactly count addition and subtraction.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod algebra;
pub mod bag;
pub mod error;
pub mod modify;
pub mod planner;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod update;
pub mod value;

pub use bag::SignedBag;
pub use error::RelationalError;
pub use modify::Modification;
pub use predicate::{CmpOp, Operand, Predicate};
pub use relation::Relation;
pub use schema::Schema;
pub use tuple::{Sign, SignedTuple, Tuple};
pub use update::{Update, UpdateKind};
pub use value::Value;
