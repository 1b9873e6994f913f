//! Workload generation for the performance study.
//!
//! * [`Params`] — the paper's Table 1 variable set with its defaults
//!   (`C = 100`, `S = 4`, `σ = ½`, `J = 4`, `K = 20`).
//! * [`example6`] — the §6.2 evaluation scenario: relations `r1(W,X)`,
//!   `r2(X,Y)`, `r3(Y,Z)`, view `V = π_{W,Z}(σ_{W>Z}(r1 ⋈ r2 ⋈ r3))`,
//!   with base data *calibrated* so every join attribute has join factor
//!   exactly `J` and the selection accepts ≈ `σ` of the product.
//! * [`scenarios`] — the paper's worked Examples 1–9 as canned scenarios
//!   for integration tests and the anomaly-tour example binary.
//! * [`stress`] — robustness generators: zipfian-skewed streams,
//!   delete-heavy mixes, rolling warehouse-restart schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod example6;
pub mod params;
pub mod scenarios;
pub mod stress;

pub use example6::{Example6, UpdateMix};
pub use params::Params;
pub use scenarios::Scenario;
pub use stress::{rolling_restart_schedule, Zipfian};
