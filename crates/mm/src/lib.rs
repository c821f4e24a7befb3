//! # ise-mm — machine-minimization algorithms
//!
//! The *machine-minimization* (MM) problem: given jobs with release times,
//! deadlines, and processing times, find the minimum number of identical
//! machines on which all jobs can be scheduled nonpreemptively by their
//! deadlines.
//!
//! Fineman & Sheridan's short-window algorithm (SPAA 2015, Section 4) uses
//! an MM algorithm as a *black box*: any `s`-speed `α`-approximate MM
//! algorithm yields an `O(α)`-machine `s`-speed `O(α)`-approximation for the
//! ISE problem. This crate provides that black box in several strengths:
//!
//! * [`ExactMm`] — branch-and-bound exact MM (`α = 1`) for small job sets;
//!   this is the per-interval workhorse of the short-window pipeline, whose
//!   intervals contain few jobs each.
//! * [`UnitMm`] — exact polynomial-time MM for unit jobs (EDF is optimal).
//! * [`IntervalMm`] — exact polynomial-time MM for zero-slack jobs
//!   (fixed intervals: the minimum is the maximum overlap depth).
//! * [`GreedyMm`] — EDF first-fit heuristic for arbitrary jobs; its
//!   empirical approximation factor is *measured* against the lower bounds
//!   below rather than assumed.
//!
//! Lower bounds ([`lower_bound`]) certify solution quality: a combinatorial
//! interval-density bound and a stronger preemptive-relaxation bound
//! computed with a built-from-scratch Dinic max-flow ([`flow`]).

pub mod exact;
pub mod flow;
pub mod greedy;
pub mod interval;
pub mod lower_bound;
pub mod lp_round;
pub mod portfolio;
pub mod problem;
pub mod unit;

pub use exact::ExactMm;
pub use greedy::GreedyMm;
pub use interval::IntervalMm;
pub use lower_bound::{demand_lower_bound, preemptive_lower_bound};
pub use lp_round::LpRoundMm;
pub use portfolio::Portfolio;
pub use problem::{validate_mm, MachineMinimizer, MmError, MmPlacement, MmSchedule};
pub use unit::UnitMm;
