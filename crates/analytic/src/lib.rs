//! The paper's closed-form cost model (§6 and Appendix D).
//!
//! Every equation the paper derives for the RV-vs-ECA comparison is
//! reproduced here so the benchmark harness can plot analytic curves next
//! to measured ones:
//!
//! * **Messages** (§6.1): `M_RV = 2⌈k/s⌉`, `M_ECA = 2k`.
//! * **Bytes transferred** (§6.2, App. D.2) — best/worst for both
//!   algorithms, 3-update and general-`k` forms.
//! * **I/O** (§6.3, App. D.3) — Scenario 1 (indexes + ample memory) and
//!   Scenario 2 (no indexes, 3 memory blocks), best/worst, 3-update and
//!   general-`k` forms.
//!
//! All byte formulas scale with `S·σ`; the measured counterpart in
//! `eca-sim` reports answer *tuples* so `S × tuples` can be compared
//! directly against these curves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bytes;
pub mod crossover;
pub mod io;
pub mod messages;
pub mod selfmaint;

pub use eca_workload::Params;
