//! Mixed-criticality EDF analysis with temporary processor speedup.
//!
//! This crate implements the analytical contribution of *"Run and Be Safe:
//! Mixed-Criticality Scheduling with Temporary Processor Speedup"* (Huang,
//! Kumar, Giannopoulou, Thiele — DATE 2015):
//!
//! * [`dbf`] — demand bound functions: the LO-mode `DBF_LO` (eq. (4)) and
//!   the carry-over-aware HI-mode `DBF_HI` of Lemma 1 (eqs. (5)–(7));
//! * [`speedup`] — **Theorem 2**: the minimum processor speedup `s_min =
//!   sup_Δ Σ_i DBF_HI(τ_i, Δ)/Δ` that guarantees HI-mode schedulability,
//!   computed exactly by breakpoint enumeration;
//! * [`adb`] — **Theorem 4**: the worst-case arrived demand bound
//!   `ADB_HI` after the mode switch (eqs. (9)–(10));
//! * [`resetting`] — **Corollary 5**: a safe service resetting time
//!   `Δ_R = min{Δ ≥ 0 : Σ_i ADB_HI(τ_i, Δ) ≤ s·Δ}` (eq. (12));
//! * [`closed_form`] — **Lemmas 6 and 7**: closed-form bounds for the
//!   implicit-deadline `(x, y)` special case of Section V;
//! * [`lo_mode`] — LO-mode EDF schedulability and minimal-`x` tuning;
//! * [`qpa`] — Quick Processor-demand Analysis: an independent EDF
//!   decision algorithm cross-validating the curve engine;
//! * [`shaping`] — per-task LO-deadline tuning (greedy demand shaping
//!   beyond the uniform `x`);
//! * [`tuning`] — sizing procedures built on the analyses (minimum
//!   speed within an overclock budget, minimum degradation for a given
//!   platform speed, duty-cycle bounds);
//! * [`demand`] — the shared exact piecewise-linear curve engine the
//!   above are built on;
//! * [`sweep`] — the incremental campaign engine: one [`SweepAnalysis`]
//!   per task set answering a whole `(y, s)` grid by patching the
//!   `y`-dependent demand components in place instead of rebuilding;
//! * [`delta`] — online admission: one [`DeltaAnalysis`] surviving
//!   admit/evict/replace task-set deltas by splicing the affected
//!   demand components instead of rebuilding the profiles.
//!
//! All computation is exact over [`rbs_timebase::Rational`].
//!
//! # Examples
//!
//! Reproducing Example 1 of the paper (`s_min = 4/3` for the Table I task
//! set with no service degradation):
//!
//! ```
//! use rbs_core::speedup::{minimum_speedup, SpeedupBound};
//! use rbs_core::AnalysisLimits;
//! use rbs_model::{Criticality, Task, TaskSet};
//! use rbs_timebase::Rational;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = TaskSet::new(vec![
//!     Task::builder("tau1", Criticality::Hi)
//!         .period(Rational::integer(5))
//!         .deadline_lo(Rational::integer(2))
//!         .deadline_hi(Rational::integer(5))
//!         .wcet_lo(Rational::integer(1))
//!         .wcet_hi(Rational::integer(2))
//!         .build()?,
//!     Task::builder("tau2", Criticality::Lo)
//!         .period(Rational::integer(10))
//!         .deadline(Rational::integer(10))
//!         .wcet(Rational::integer(3))
//!         .build()?,
//! ]);
//! let analysis = minimum_speedup(&set, &AnalysisLimits::default())?;
//! assert_eq!(analysis.bound(), SpeedupBound::Finite(Rational::new(4, 3)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adb;
pub mod analysis;
pub mod closed_form;
pub mod dbf;
pub mod delta;
pub mod demand;
pub mod lo_mode;
pub mod qpa;
pub mod report;
pub mod resetting;
pub mod shaping;
pub mod speedup;
pub mod sweep;
pub mod tuning;

mod config;
mod error;
mod kernel;
mod scaled;
mod splice_buf;

pub use analysis::{Analysis, AnalysisScratch, WalkCounts};
pub use config::AnalysisLimits;
pub use delta::{DeltaAnalysis, DeltaError, DeltaOp, DeltaPlan};
pub use error::AnalysisError;
pub use report::{
    analyze, analyze_with_meta, analyze_with_meta_in, run_delta, run_delta_in, run_sweep,
    run_sweep_in, AnalyzeMeta, AnalyzeReport, DeltaBase, DeltaRequest, SweepGrid, SweepPoint,
    SweepReport,
};
pub use sweep::{SweepAnalysis, SweepMode};
