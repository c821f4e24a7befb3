//! # ise-sched — the SPAA 2015 calibration-scheduling algorithms
//!
//! This crate implements the algorithms of
//!
//! > Jeremy T. Fineman and Brendan Sheridan,
//! > *Scheduling Non-Unit Jobs to Minimize Calibrations*, SPAA 2015,
//!
//! which give the first approximation algorithms for the Integrated
//! Stockpile Evaluation (ISE) problem with **non-unit** processing times:
//! with an `α`-approximate machine-minimization (MM) black box, an
//! `O(α)`-machine `O(α)`-approximation in calibrations (Theorem 1).
//!
//! The pipeline, bottom to top:
//!
//! * [`points`] — the polynomially many *potential calibration points*
//!   `𝒯 = {r_j + kT}` (Lemma 3).
//! * [`tise`] — the *trimmed ISE* restriction and the Lemma 2
//!   transformation showing a TISE solution costs at most 3× the ISE
//!   optimum for long-window jobs.
//! * [`lp`] — the TISE linear-programming relaxation.
//! * [`rounding`] — Algorithm 1 (greedy calibration rounding) and
//!   Algorithm 3 (the augmented rounding used by the Lemma 5 / Corollary 6
//!   feasibility proof, implemented so its invariants can be machine-checked).
//! * [`edf`] — Algorithm 2: nonpreemptive EDF assignment of jobs onto a
//!   mirrored calibration schedule (Lemmas 8–10).
//! * [`long_window`] — the full long-window pipeline (Theorem 12:
//!   ≤ 18m machines, ≤ 12·C\* calibrations, speed 1).
//! * [`speed_transform`] — the machine-for-speed trade (Lemma 13 /
//!   Theorem 14: m machines at speed 36).
//! * [`short_window`] — Algorithms 4–5: interval partitioning plus the MM
//!   black box, with crossing-job machinery (Theorem 20).
//! * [`solver`] — the combined Theorem 1 solver ([`solve`]).
//! * [`baseline`] — unit-job baselines in the spirit of the prior work
//!   (Bender et al., SPAA 2013) plus naive engineering baselines.
//! * [`exact`] — brute-force optimal ISE/TISE for tiny instances (used to
//!   certify approximation ratios in tests and experiments).
//! * [`lower_bound`] — certified lower bounds on the optimal number of
//!   calibrations.

pub mod audit;
pub mod baseline;
pub mod cancel;
pub mod decompose;
pub mod edf;
pub mod error;
pub mod exact;
pub mod improve;
pub mod long_window;
pub mod lower_bound;
pub mod lp;
pub mod points;
pub mod report;
pub mod rounding;
pub mod short_window;
pub mod solver;
pub mod speed_transform;
pub mod tise;

pub use audit::{audit, AuditReport, BudgetCheck};
pub use cancel::CancelToken;
pub use decompose::{components, solve_decomposed};
pub use error::SchedError;
pub use improve::{improve, ImproveOptions, ImproveOutcome};
pub use report::{LpTelemetry, SolveReport};
pub use short_window::ShortWindowMemo;
pub use solver::{
    refine_for_speed, solve, solve_incremental, solve_with_speed, try_refine_for_speed,
    SolveOutcome, SolveReuse, SolverOptions,
};
