//! Block-based storage engine with I/O accounting.
//!
//! The paper's performance study (§6.3, Appendix D) counts the number of
//! I/Os performed *at the source* while evaluating warehouse queries, under
//! two extreme scenarios:
//!
//! * **Scenario 1** — ample memory and in-memory indexes: clustered indexes
//!   on the join attributes plus one non-clustered index; index access
//!   itself is free, data-block reads are counted.
//! * **Scenario 2** — no indexes and only **three** free memory blocks,
//!   forcing block-nested-loop join processing.
//!
//! This crate implements a physical layer that realizes both scenarios on
//! real data structures:
//!
//! * [`HeapFile`] — tuples packed `K` per block, optionally kept in
//!   cluster order, with 4-byte-per-row secondary indexes; every block
//!   touch increments an [`IoMeter`]. Index lookups cost O(log n +
//!   matches) CPU, as the model's "free index traversal" assumes.
//! * [`Table`] — a heap plus index metadata, with metered access paths
//!   (scan, clustered lookup, unclustered lookup).
//! * [`StorageEngine`] — evaluates the warehouse's [`Query`] expressions
//!   with the SPJ executor the warehouse also runs
//!   ([`eca_relational::planner`]), choosing and charging each relation's
//!   access path per scenario, so measured I/O counts can be compared
//!   against the paper's closed-form formulas (reproduced in
//!   `eca-analytic`).
//!
//! The engine is deliberately honest rather than formula-fitted: it counts
//! the block reads its plans actually perform. Lower-order deviations from
//! Appendix D's hand counts (which ignore e.g. the cost of reading outer
//! chunks) are documented in `EXPERIMENTS.md`.
//!
//! [`Query`]: eca_core::Query

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod heap;
pub mod io;
pub mod table;

pub use engine::{Scenario, StorageEngine};
pub use error::StorageError;
pub use heap::{HeapFile, IndexKind, Run};
pub use io::IoMeter;
pub use table::Table;
