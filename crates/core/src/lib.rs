//! The paper's primary contribution: correct materialized-view maintenance
//! at a warehouse that is *decoupled* from its data source.
//!
//! Zhuge, Garcia-Molina, Hammer, Widom — *View Maintenance in a Warehousing
//! Environment*, SIGMOD 1995.
//!
//! A warehouse materializes an SPJ view `V = π_proj(σ_cond(r1 × … × rn))`
//! over base relations that live at an autonomous source. The source only
//! notifies the warehouse of updates and answers queries; maintenance
//! queries are evaluated at the source *later* than the updates that
//! triggered them, so naive incremental maintenance computes **anomalous**
//! views (paper Examples 2–3). This crate implements:
//!
//! * [`ViewDef`] — SPJ view definitions (paper §4),
//! * [`Query`]/[`Term`] — signed query expressions and the substitution
//!   operator `V⟨U⟩` / `Q⟨U1,…,Uk⟩` (paper §4.2),
//! * [`BaseDb`] — a reference in-memory base-relation store used by tests,
//!   by the Store-Copies strategy and by differential checks against the
//!   storage engine,
//! * the algorithm family behind the [`ViewMaintainer`] trait
//!   ([`algorithms`]): Basic (Alg. 5.1), **ECA** (Alg. 5.2, with the
//!   App. D.2, §7-batching and auxiliary-view refinements as presets),
//!   ECA-Key (§5.4), Lazy Compensating (§5.3), Recompute-View (App. D.1)
//!   and Store-Copies (§1.2).
//!
//! Transport, event interleaving, cost metering and physical evaluation are
//! deliberately *not* here — see `eca-sim`, `eca-wire`, `eca-source`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod algorithms;
pub mod basedb;
pub mod error;
pub mod expr;
pub mod maintainer;
pub mod parse;
pub mod view;

pub use basedb::BaseDb;
pub use error::CoreError;
pub use expr::{Atom, Query, QueryId, Term};
pub use maintainer::{AuxDurableState, OutboundQuery, ViewMaintainer};
pub use parse::{parse_view, ParseError};
pub use view::ViewDef;

// Re-export the relational substrate so downstream users need one import.
pub use eca_relational as relational;
