//! Incremental task-set deltas against a cached analysis.
//!
//! The paper's analysis is a whole-set fixed point, but an online
//! admission monitor mutates its set one task at a time: admit a task,
//! evict one, replace one. Rebuilding the three demand profiles
//! (`DBF_LO`, `DBF_HI`, `ADB_HI`) from scratch for every delta throws
//! away almost all of the construction work — each profile holds one
//! component per (HI-active) task, in declaration order, and a
//! single-task delta touches exactly one component per profile.
//!
//! [`DeltaAnalysis`] owns the task set and its three profiles across
//! deltas and splices components instead of rebuilding. Every delta —
//! a single admit/evict/replace is a one-op batch — goes through one
//! composite splice ([`DeltaAnalysis::apply_batch`]): the ops resolve
//! to a canonical [`DeltaPlan`] against the pre-edit set (replace in
//! place, remove, insert), and each profile applies it with one aggregate
//! refold over the per-component contributions — the same exact sums
//! as a fresh build, without re-deriving any untouched component's
//! scaled form. Admits insert at the profile ends; a replace that
//! switches a task between HI-terminated and HI-active removes or
//! inserts its `DBF_HI`/`ADB_HI` components at the task's rank.
//!
//! Bit-identity with a fresh [`Analysis`] of the resulting set is the
//! contract, overflow behavior included: an in-place splice is only
//! kept when the patched profile stays on the timebase a fresh build
//! would pick (otherwise the overflow-bail points of the integer walks
//! could move), and any splice that cannot prove this rebuilds that
//! profile exactly as [`crate::demand::DemandProfile::new`] would.
//! `tests/delta_differential.rs` pins results *and* examined-walk
//! counts after arbitrary admit/evict/replace churn, one op or a batch
//! at a time.
//!
//! The reset-frontier staircase is repaired, not dropped: a delta keeps
//! the records whose segments end before the earliest instant any
//! changed `ADB_HI` component contributes demand (see
//! [`ResetFrontier`]'s truncation), and a delta that never touches the
//! arrival profile — HI-terminated task churn — keeps it whole.
//!
//! # Examples
//!
//! ```
//! use rbs_core::{DeltaAnalysis, AnalysisLimits};
//! use rbs_model::{Criticality, Task, TaskSet};
//! use rbs_timebase::Rational;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = TaskSet::new(vec![Task::builder("tau1", Criticality::Hi)
//!     .period(Rational::integer(5))
//!     .deadline_lo(Rational::integer(2))
//!     .deadline_hi(Rational::integer(5))
//!     .wcet_lo(Rational::integer(1))
//!     .wcet_hi(Rational::integer(2))
//!     .build()?]);
//! let mut delta = DeltaAnalysis::new(base, &AnalysisLimits::default());
//! let before = delta.minimum_speedup()?;
//! delta.admit(
//!     Task::builder("tau2", Criticality::Lo)
//!         .period(Rational::integer(10))
//!         .deadline(Rational::integer(10))
//!         .wcet(Rational::integer(3))
//!         .build()?,
//! )?;
//! let after = delta.minimum_speedup()?;
//! assert_ne!(after, before); // tau2's demand moved the supremum
//! delta.evict("tau2")?;
//! assert_eq!(delta.minimum_speedup()?, before);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use rbs_model::{Mode, Task, TaskSet};
use rbs_timebase::Rational;

use crate::adb::{arrival_component_of, hi_arrival_profile};
use crate::analysis::{Analysis, WalkCounts};
use crate::dbf::{hi_component_of, hi_profile, lo_component_of, lo_profile};
use crate::demand::{DemandProfile, PeriodicDemand, ResetFrontier};
use crate::resetting::ResettingAnalysis;
use crate::speedup::SpeedupAnalysis;
use crate::{AnalysisError, AnalysisLimits};

thread_local! {
    /// One-shot fault armed by [`DeltaAnalysis::arm_mid_splice_fault`]:
    /// the next delta on this thread panics between its profile splices.
    static MID_SPLICE_FAULT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// One-shot fault armed by [`DeltaAnalysis::arm_mid_repair_fault`]:
    /// the next delta on this thread panics as it enters frontier repair.
    static MID_REPAIR_FAULT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The earliest instant at which any of `changed` contributes demand —
/// the truncation bound for a frontier repair ([`ResetFrontier`] keeps
/// records whose segments end at or below it). `None` when no changed
/// component ever contributes (empty delta on this profile, or
/// identically-zero components): the whole staircase survives.
fn frontier_cut<'c>(changed: impl IntoIterator<Item = &'c PeriodicDemand>) -> Option<Rational> {
    let mut cut = None;
    for c in changed {
        cut = merge_cut(cut, c.first_positive_instant());
    }
    cut
}

/// Combines two truncation bounds: `None` means "never diverges"
/// (+∞), so the merge is the finite minimum.
fn merge_cut(a: Option<Rational>, b: Option<Rational>) -> Option<Rational> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (cut, None) | (None, cut) => cut,
    }
}

/// A one-bit name-length fingerprint, the first stage of
/// [`DeltaPlan::resolve`]'s name prefilter: it reads only
/// the length stored inline in the name's `String`, so a resident whose
/// length no batch name shares is rejected without loading its heap
/// bytes.
fn length_bit(name: &str) -> u64 {
    1 << (name.len() % 64)
}

/// A one-bit name fingerprint, the second stage of
/// [`DeltaPlan::resolve`]'s name prefilter: cheap enough to
/// compute per resident (four byte peeks, no full-string hashing),
/// selective enough that residents a batch never names almost always
/// miss the combined mask. A collision only costs the string
/// comparisons the prefilter would have skipped.
fn name_fingerprint(name: &str) -> u64 {
    let b = name.as_bytes();
    let mix = (b.len() as u64)
        ^ (u64::from(b.first().copied().unwrap_or(0)) << 8)
        ^ (u64::from(b.last().copied().unwrap_or(0)) << 16)
        ^ (u64::from(b.get(b.len() / 2).copied().unwrap_or(0)) << 24);
    1 << (mix.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// A set mutation a [`DeltaAnalysis`] can apply — the in-memory form of
/// the service's `{"delta": {"ops": [...]}}` wire entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Admit a new task (appended in declaration order).
    Admit(Task),
    /// Evict the task with this name.
    Evict(String),
    /// Replace the task with this name in place (the replacement may be
    /// renamed).
    Replace {
        /// Name of the task being replaced.
        id: String,
        /// Its replacement.
        task: Task,
    },
}

/// Why a delta op could not be applied. The set (and every profile) is
/// left exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeltaError {
    /// `evict`/`replace` named a task the set does not contain.
    UnknownTask {
        /// The unmatched name.
        id: String,
    },
    /// `admit` (or a renaming `replace`) would duplicate a task name —
    /// names are the delta engine's task ids, so they must stay unique.
    DuplicateTask {
        /// The already-present name.
        id: String,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownTask { id } => write!(f, "no task named `{id}` in the base set"),
            DeltaError::DuplicateTask { id } => {
                write!(f, "a task named `{id}` is already in the set")
            }
        }
    }
}

impl Error for DeltaError {}

impl DeltaOp {
    /// The names this op resolves against the set: its target, plus the
    /// incoming task's name for a replace.
    fn names(&self) -> impl Iterator<Item = &str> {
        let (target, incoming) = match self {
            DeltaOp::Admit(task) => (task.name(), None),
            DeltaOp::Evict(id) => (id.as_str(), None),
            DeltaOp::Replace { id, task } => (id.as_str(), Some(task.name())),
        };
        std::iter::once(target).chain(incoming)
    }

    /// Applies this op to a bare task set, one op at a time — the
    /// set-level reference interpreter. The delta differential suite
    /// checks [`DeltaPlan::resolve`] against it, and the end-to-end
    /// benchmark's workload generator and replay use it; the request
    /// path resolves a [`DeltaPlan`] instead.
    ///
    /// # Errors
    ///
    /// As for [`DeltaAnalysis::apply`]; the set is unchanged on error.
    pub fn apply_to(&self, set: &mut TaskSet) -> Result<(), DeltaError> {
        match self {
            DeltaOp::Admit(task) => {
                if set.by_name(task.name()).is_some() {
                    return Err(DeltaError::DuplicateTask {
                        id: task.name().to_owned(),
                    });
                }
                set.push(task.clone());
            }
            DeltaOp::Evict(id) => {
                let Some(pos) = set.position(id) else {
                    return Err(DeltaError::UnknownTask { id: id.clone() });
                };
                set.remove(pos);
            }
            DeltaOp::Replace { id, task } => {
                let Some(pos) = set.position(id) else {
                    return Err(DeltaError::UnknownTask { id: id.clone() });
                };
                if task.name() != id && set.by_name(task.name()).is_some() {
                    return Err(DeltaError::DuplicateTask {
                        id: task.name().to_owned(),
                    });
                }
                set.replace(pos, task.clone());
            }
        }
        Ok(())
    }
}

/// A delta's op list resolved against one set: the canonical edit the
/// ops make to it — in-place replacements, removals and surviving
/// admits, all at pre-edit positions. [`DeltaPlan::resolve`] is the one
/// interpreter of op semantics on the request path; the service
/// resolves a plan once in triage, builds the resulting set from it
/// with [`DeltaPlan::splice_set`], and a worker splices the same plan
/// into a [`DeltaAnalysis`] with [`DeltaAnalysis::apply_plan`].
#[derive(Debug)]
pub struct DeltaPlan {
    /// The length of the set the plan was resolved against.
    base_len: usize,
    /// In-place replacements, by ascending pre-edit position.
    replaced: Vec<(usize, Task)>,
    /// Removed pre-edit positions, ascending.
    removed: Vec<usize>,
    /// Surviving admits, in admit order; they append to the set.
    admitted: Vec<Task>,
}

impl DeltaPlan {
    /// Resolves `ops` against `set`, validating them atomically against
    /// the simulated final set. Per-name chains cancel: an admit later
    /// evicted vanishes, and a replace chain collapses to its last task.
    /// The plan leaves the set the ops leave one by one: survivors keep
    /// their relative order, a replace keeps its task's position, and
    /// surviving admits append in admit order (an evict-then-readmit
    /// moves the task to the end).
    ///
    /// # Errors
    ///
    /// The error of the first op that would fail when applying the ops
    /// in order with [`DeltaOp::apply_to`].
    pub fn resolve(set: &TaskSet, ops: Vec<DeltaOp>) -> Result<DeltaPlan, DeltaError> {
        // Slot simulation, O(k) in the batch size: only the slots the
        // ops touch are tracked (a map over every resident name would
        // make a 2-op delta pay O(set) setup). A name resolves to a
        // pending admit, a touched original slot's *current* name, or —
        // failing both — an untouched original slot.
        enum SlotRef {
            Orig(usize),
            New(usize),
        }
        // Each touched original slot holds its replacement, or `None`
        // once removed; each admit holds its task until evicted.
        let mut touched: Vec<(usize, Option<Task>)> = Vec::new();
        let mut new_tasks: Vec<Option<Task>> = Vec::new();
        // Each op resolves up to two names against the resident set. A
        // full name → position map would pay O(set) hashing and
        // allocation per batch, and per-op linear scans pay O(ops·set).
        // Instead the base positions come from one pass: the batch's
        // names fold into two 64-bit masks — name lengths, then one-bit
        // name fingerprints — and a single scan of the set
        // string-compares only the residents that hit both — O(set)
        // length tests and byte peeks plus O(ops²) real work.
        let op_names: Vec<&str> = ops.iter().flat_map(DeltaOp::names).collect();
        let (len_mask, mask) = op_names.iter().fold((0, 0), |(l, m), name| {
            (l | length_bit(name), m | name_fingerprint(name))
        });
        let positions: Vec<(&str, usize)> = set
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name(), i))
            .filter(|&(name, _)| {
                len_mask & length_bit(name) != 0
                    && mask & name_fingerprint(name) != 0
                    && op_names.contains(&name)
            })
            .collect();
        let resolve = |touched: &[(usize, Option<Task>)],
                       new_tasks: &[Option<Task>],
                       id: &str|
         -> Option<SlotRef> {
            let named = |slot: &Option<Task>| slot.as_ref().is_some_and(|t| t.name() == id);
            if let Some(j) = new_tasks.iter().position(named) {
                return Some(SlotRef::New(j));
            }
            // A removed slot no longer owns a name; a replaced slot
            // answers to its replacement's (possibly new) name.
            if let Some(&(i, _)) = touched.iter().find(|(_, slot)| named(slot)) {
                return Some(SlotRef::Orig(i));
            }
            let i = positions
                .iter()
                .find_map(|&(name, i)| (name == id).then_some(i))?;
            touched
                .iter()
                .all(|(p, _)| *p != i)
                .then_some(SlotRef::Orig(i))
        };
        let touch =
            |touched: &mut Vec<(usize, Option<Task>)>, i: usize, state: Option<Task>| match touched
                .iter_mut()
                .find(|(p, _)| *p == i)
            {
                Some(entry) => entry.1 = state,
                None => touched.push((i, state)),
            };
        for op in ops {
            match op {
                DeltaOp::Admit(task) => {
                    if resolve(&touched, &new_tasks, task.name()).is_some() {
                        return Err(DeltaError::DuplicateTask {
                            id: task.name().to_owned(),
                        });
                    }
                    new_tasks.push(Some(task));
                }
                DeltaOp::Evict(id) => match resolve(&touched, &new_tasks, &id) {
                    None => return Err(DeltaError::UnknownTask { id }),
                    Some(SlotRef::Orig(i)) => touch(&mut touched, i, None),
                    Some(SlotRef::New(j)) => new_tasks[j] = None,
                },
                DeltaOp::Replace { id, task } => {
                    let Some(slot) = resolve(&touched, &new_tasks, &id) else {
                        return Err(DeltaError::UnknownTask { id });
                    };
                    if task.name() != id && resolve(&touched, &new_tasks, task.name()).is_some() {
                        return Err(DeltaError::DuplicateTask {
                            id: task.name().to_owned(),
                        });
                    }
                    match slot {
                        SlotRef::Orig(i) => touch(&mut touched, i, Some(task)),
                        SlotRef::New(j) => new_tasks[j] = Some(task),
                    }
                }
            }
        }

        // The canonical edit: replacements and removals ascending by
        // position; `new_tasks` holds the surviving admits in admit order.
        touched.sort_unstable_by_key(|(i, _)| *i);
        let removed = touched
            .iter()
            .filter_map(|(i, slot)| slot.is_none().then_some(*i))
            .collect();
        Ok(DeltaPlan {
            base_len: set.len(),
            replaced: touched
                .into_iter()
                .filter_map(|(i, slot)| Some((i, slot?)))
                .collect(),
            removed,
            admitted: new_tasks.into_iter().flatten().collect(),
        })
    }

    /// Whether the plan leaves the set as it was (an empty or fully
    /// cancelled op list).
    fn is_empty(&self) -> bool {
        self.replaced.is_empty() && self.removed.is_empty() && self.admitted.is_empty()
    }

    /// The tasks the plan brings into the set: replacements, then
    /// surviving admits. A task admitted and evicted within the same
    /// op list is not among them.
    pub fn incoming(&self) -> impl Iterator<Item = &Task> {
        self.replaced
            .iter()
            .map(|(_, task)| task)
            .chain(&self.admitted)
    }

    /// Applies the plan to `set`, the set it was resolved against: the
    /// set [`DeltaOp::apply_to`] would leave after the whole op list.
    ///
    /// # Panics
    ///
    /// When `set` is not as long as the set the plan was resolved
    /// against.
    pub fn splice_set(&self, set: &mut TaskSet) {
        self.assert_base(set);
        for (pos, task) in &self.replaced {
            set.replace(*pos, task.clone());
        }
        for &pos in self.removed.iter().rev() {
            set.remove(pos);
        }
        for task in &self.admitted {
            set.push(task.clone());
        }
    }

    /// Panics unless `set` has the length the plan was resolved against.
    fn assert_base(&self, set: &TaskSet) {
        assert_eq!(
            set.len(),
            self.base_len,
            "delta plan resolved against a set of {} tasks applied to one of {}",
            self.base_len,
            set.len()
        );
    }
}

/// A resident analysis context that survives task-set mutations.
///
/// Owns the set and its three demand profiles;
/// [`DeltaAnalysis::apply_batch`] (and its one-op wrappers
/// [`DeltaAnalysis::admit`], [`DeltaAnalysis::evict`] and
/// [`DeltaAnalysis::replace`]) splices the affected components in place
/// (see the module docs for the bit-identity argument), and every query
/// method answers exactly what a fresh [`Analysis`] of the current set
/// would.
#[derive(Debug)]
pub struct DeltaAnalysis {
    limits: AnalysisLimits,
    set: TaskSet,
    lo: DemandProfile,
    hi: DemandProfile,
    arrival: DemandProfile,
    /// The resetting-time staircase carried between queries (exactly
    /// [`Analysis`]' cache); repaired across each delta, down to the
    /// prefix no changed arrival component reaches.
    frontier: Option<ResetFrontier>,
    /// Set while the profiles are lent to a query session *or* while a
    /// delta op is mid-splice, and cleared on orderly completion; a panic
    /// in either window leaves it set, and the next use rebuilds the
    /// profiles from the (never-lent, mutated-first) set.
    dirty: bool,
    /// Cumulative counters across all deltas and query sessions.
    counts: WalkCounts,
}

impl DeltaAnalysis {
    /// Builds the resident context: three fresh profiles, counted as
    /// rebuilt — exactly the components a fresh [`Analysis`] constructs.
    #[must_use]
    pub fn new(set: TaskSet, limits: &AnalysisLimits) -> DeltaAnalysis {
        let lo = lo_profile(&set);
        let hi = hi_profile(&set);
        let arrival = hi_arrival_profile(&set);
        let rebuilt =
            (lo.components().len() + hi.components().len() + arrival.components().len()) as u64;
        DeltaAnalysis {
            limits: *limits,
            set,
            lo,
            hi,
            arrival,
            frontier: None,
            dirty: false,
            counts: WalkCounts {
                rebuilt_components: rebuilt,
                ..WalkCounts::default()
            },
        }
    }

    /// The current task set (base set with every applied delta).
    #[must_use]
    pub fn set(&self) -> &TaskSet {
        &self.set
    }

    /// Consumes the context, returning the current task set.
    #[must_use]
    pub fn into_set(self) -> TaskSet {
        self.set
    }

    /// The breakpoint budget every query runs under.
    #[must_use]
    pub fn limits(&self) -> &AnalysisLimits {
        &self.limits
    }

    /// Cumulative walk/coverage counters across all deltas and queries.
    /// `patched` counts profile updates applied by an in-place splice;
    /// `reused_components`/`rebuilt_components` partition each delta's
    /// component work exactly as the sweep engine's counters do.
    #[must_use]
    pub fn walk_counts(&self) -> WalkCounts {
        self.counts
    }

    /// Arms a one-shot fault on the calling thread for the next delta
    /// ([`DeltaAnalysis::apply_plan`], single ops and batches included):
    /// it panics after the set mutation and the `DBF_LO` splice but
    /// before the `DBF_HI`/`ADB_HI` splices. That delta disarms the fault
    /// even when it splices nothing, so it never fires on a later one.
    /// This is the fault-injection hook behind the service's mid-splice
    /// poison pill; the dirty guard
    /// must make the bailed context heal on its next use (an evict of a
    /// half-admitted task restores the original set bit-identically).
    pub fn arm_mid_splice_fault() {
        MID_SPLICE_FAULT.with(|flag| flag.set(true));
    }

    /// Arms a one-shot fault on the calling thread for the next delta:
    /// it panics as it enters frontier repair — after all profile
    /// splices, before the dirty guard clears. That delta disarms the
    /// fault even when it never reaches the repair (an empty plan, or a
    /// mid-splice fault firing first), so it never fires on a later one.
    /// This is the fault-injection hook behind the service's mid-repair
    /// poison pill; it proves a panic
    /// inside the repair window leaves the context rebuildable and at
    /// worst costs the staircase (the next `Δ_R` query re-walks).
    pub fn arm_mid_repair_fault() {
        MID_REPAIR_FAULT.with(|flag| flag.set(true));
    }

    /// Test hook: unconditionally drops the resetting-time staircase,
    /// exactly what every delta op did before frontier repair existed.
    /// The frontier-repair differential suite churns a shadow context
    /// through this whole-invalidation path to pin that repair changes
    /// walk *counts* only, never answers.
    #[doc(hidden)]
    pub fn invalidate_frontier(&mut self) {
        if let Some(frontier) = self.frontier.take() {
            self.counts.rewalked += frontier.len() as u64;
        }
    }

    /// Applies one [`DeltaOp`] — a one-op [`DeltaAnalysis::apply_batch`].
    ///
    /// # Errors
    ///
    /// As for the named op; the set and profiles are unchanged on error.
    pub fn apply(&mut self, op: DeltaOp) -> Result<(), DeltaError> {
        self.apply_batch(vec![op])
    }

    /// Applies a delta as **one composite splice**:
    /// [`DeltaPlan::resolve`], then [`DeltaAnalysis::apply_plan`]. Single
    /// ops are one-op batches, so every profile change goes through a
    /// plan. The resulting set and every query answer are bit-identical
    /// to applying the ops one by one.
    ///
    /// # Errors
    ///
    /// As for [`DeltaPlan::resolve`]; the set and profiles are unchanged
    /// on error.
    pub fn apply_batch(&mut self, ops: Vec<DeltaOp>) -> Result<(), DeltaError> {
        let plan = DeltaPlan::resolve(&self.set, ops)?;
        self.apply_plan(&plan);
        Ok(())
    }

    /// Splices a resolved [`DeltaPlan`] into the set and its three
    /// profiles, without validating anything again: each profile pays the
    /// splice bookkeeping — aggregate refold, overflow certificate,
    /// narrow-lane update, frontier repair — once for the whole plan. An
    /// empty (fully cancelled) plan changes nothing.
    ///
    /// # Panics
    ///
    /// When `plan` was resolved against a set of another length: a plan
    /// from another set is a caller bug, and its positions must never be
    /// spliced here.
    pub fn apply_plan(&mut self, plan: &DeltaPlan) {
        // Faults armed for this delta are consumed here, fired or not.
        let splice_fault = MID_SPLICE_FAULT.take();
        let repair_fault = MID_REPAIR_FAULT.take();
        plan.assert_base(&self.set);
        if plan.is_empty() {
            return;
        }
        self.ensure_profiles();
        // Per-profile splice plans, on pre-edit positions/ranks. A
        // replace that switches HI-mode activity removes or inserts the
        // task's `DBF_HI`/`ADB_HI` components at its rank; inserts are
        // ascending (replaces by position, then admits at the end).
        let mut lo_patched = Vec::with_capacity(plan.replaced.len());
        let mut hi_patched = Vec::new();
        let mut arrival_patched = Vec::new();
        let mut hi_removed = Vec::new();
        let mut hi_inserted = Vec::new();
        let mut arrival_inserted = Vec::new();
        for &(pos, ref task) in &plan.replaced {
            lo_patched.push((pos, lo_component_of(task)));
            let was_active = self.set[pos].params(Mode::Hi).is_some();
            match (
                was_active,
                hi_component_of(task),
                arrival_component_of(task),
            ) {
                (false, None, None) => {}
                (true, Some(hi_c), Some(arrival_c)) => {
                    let rank = self.hi_rank(pos);
                    hi_patched.push((rank, hi_c));
                    arrival_patched.push((rank, arrival_c));
                }
                (true, None, None) => hi_removed.push(self.hi_rank(pos)),
                (false, Some(hi_c), Some(arrival_c)) => {
                    let rank = self.hi_rank(pos);
                    hi_inserted.push((rank, hi_c));
                    arrival_inserted.push((rank, arrival_c));
                }
                _ => unreachable!("hi/arrival activity always agrees"),
            }
        }
        for &pos in &plan.removed {
            if self.set[pos].params(Mode::Hi).is_some() {
                hi_removed.push(self.hi_rank(pos));
            }
        }
        hi_removed.sort_unstable();
        let (lo_end, hi_end) = (self.lo.components().len(), self.hi.components().len());
        let mut lo_inserted = Vec::new();
        for task in &plan.admitted {
            lo_inserted.push((lo_end, lo_component_of(task)));
            if let (Some(hi_c), Some(arrival_c)) =
                (hi_component_of(task), arrival_component_of(task))
            {
                hi_inserted.push((hi_end, hi_c));
                arrival_inserted.push((hi_end, arrival_c));
            }
        }
        let hi_untouched = hi_patched.is_empty() && hi_removed.is_empty() && hi_inserted.is_empty();
        let cut = {
            let arrival_components = self.arrival.components();
            let mut cut = frontier_cut(
                hi_removed
                    .iter()
                    .map(|&rank| &arrival_components[rank])
                    .chain(arrival_inserted.iter().map(|(_, c)| c)),
            );
            // A replaced-in-place component diverges only where old and
            // new arrival curves actually disagree — a replace that keeps
            // the `ADB_HI` component (rename, LO-deadline tweak past the
            // shared flat prefix) keeps more of the staircase than
            // treating it as an evict + admit would.
            for &(rank, ref new_c) in &arrival_patched {
                cut = merge_cut(cut, arrival_components[rank].divergence_bound(new_c));
            }
            cut
        };

        // Mid-splice guard: the set mutates before the three profile
        // splices, so a panic anywhere in between (overflow in a splice,
        // an injected fault) must not strand profiles that disagree with
        // the set. With the flag raised, the next use — including a
        // rollback evict — rebuilds all three profiles from the set.
        self.dirty = true;
        plan.splice_set(&mut self.set);
        let lo_changed = (lo_patched.len() + lo_inserted.len()) as u64;
        let in_place = self
            .lo
            .splice_components(&lo_patched, &plan.removed, &lo_inserted);
        self.note_touched(Which::Lo, in_place, lo_changed);
        // The worst spot a real splice could bail: set and profiles
        // disagree until the dirty guard heals them.
        if splice_fault {
            panic!("injected fault: delta bailed mid-splice");
        }
        if hi_untouched {
            self.note_untouched(Which::Hi);
            self.note_untouched(Which::Arrival);
        } else {
            let hi_changed = (hi_patched.len() + hi_inserted.len()) as u64;
            let in_place = self
                .hi
                .splice_components(&hi_patched, &hi_removed, &hi_inserted);
            self.note_touched(Which::Hi, in_place, hi_changed);
            let in_place =
                self.arrival
                    .splice_components(&arrival_patched, &hi_removed, &arrival_inserted);
            self.note_touched(Which::Arrival, in_place, hi_changed);
        }
        // Every splice has landed, but the dirty guard is still up: an
        // unwind here must leave the context rebuildable (the heal
        // rebuild discards the stale staircase, so the next
        // resetting-time query simply re-walks).
        if repair_fault {
            panic!("injected fault: delta bailed mid-repair");
        }
        self.repair_frontier(cut);
        self.dirty = false;
    }

    /// Admits `task`, appended in declaration order — a one-op
    /// [`DeltaAnalysis::apply_batch`].
    ///
    /// # Errors
    ///
    /// [`DeltaError::DuplicateTask`] when a task of that name exists.
    pub fn admit(&mut self, task: Task) -> Result<(), DeltaError> {
        self.apply_batch(vec![DeltaOp::Admit(task)])
    }

    /// Evicts the task named `id` — a one-op
    /// [`DeltaAnalysis::apply_batch`].
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownTask`] when no task has that name.
    pub fn evict(&mut self, id: &str) -> Result<(), DeltaError> {
        self.apply_batch(vec![DeltaOp::Evict(id.to_owned())])
    }

    /// Replaces the task named `id` with `task` in place — a one-op
    /// [`DeltaAnalysis::apply_batch`]. The replacement may change name,
    /// parameters, and even HI-mode activity.
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownTask`] when no task is named `id`;
    /// [`DeltaError::DuplicateTask`] when renaming onto an existing
    /// name.
    pub fn replace(&mut self, id: &str, task: Task) -> Result<(), DeltaError> {
        self.apply_batch(vec![DeltaOp::Replace {
            id: id.to_owned(),
            task,
        }])
    }

    /// Lends the set and profiles to `f` as a regular [`Analysis`]
    /// context — the full query surface, lockstep priming included —
    /// and absorbs the session's walk counts when it returns. The
    /// reset frontier persists across sessions (until the next delta),
    /// exactly like repeated queries on one long-lived [`Analysis`].
    pub fn with_analysis<R>(&mut self, f: impl FnOnce(&Analysis<'_>) -> R) -> R {
        self.ensure_profiles();
        let lo = std::mem::take(&mut self.lo);
        let hi = std::mem::take(&mut self.hi);
        let arrival = std::mem::take(&mut self.arrival);
        let frontier = self.frontier.take();
        // If `f` unwinds, the lent profiles are gone with the context;
        // the flag makes the next use rebuild them from the set.
        self.dirty = true;
        let ctx = Analysis::adopt(&self.set, &self.limits, lo, hi, arrival, frontier);
        let result = f(&ctx);
        let (lo, hi, arrival, frontier, counts) = ctx.release();
        self.lo = lo;
        self.hi = hi;
        self.arrival = arrival;
        self.frontier = frontier;
        self.dirty = false;
        // `adopt` fills all three profile cells, so the session's lazy
        // builders never run: its component and splice counters are 0
        // and absorbing the whole session adds only its walks.
        debug_assert_eq!(counts.rebuilt_components, 0);
        self.counts.absorb(counts);
        result
    }

    /// Theorem 2's minimum HI-mode speedup (see
    /// [`Analysis::minimum_speedup`]).
    ///
    /// # Errors
    ///
    /// As for [`Analysis::minimum_speedup`].
    pub fn minimum_speedup(&mut self) -> Result<SpeedupAnalysis, AnalysisError> {
        self.with_analysis(|ctx| ctx.minimum_speedup())
    }

    /// Whether HI mode is EDF-schedulable at `speed` (see
    /// [`Analysis::is_hi_schedulable`]).
    ///
    /// # Errors
    ///
    /// As for [`Analysis::is_hi_schedulable`].
    pub fn is_hi_schedulable(&mut self, speed: Rational) -> Result<bool, AnalysisError> {
        self.with_analysis(|ctx| ctx.is_hi_schedulable(speed))
    }

    /// Corollary 5's service resetting time at `speed` (see
    /// [`Analysis::resetting_time`]).
    ///
    /// # Errors
    ///
    /// As for [`Analysis::resetting_time`].
    pub fn resetting_time(&mut self, speed: Rational) -> Result<ResettingAnalysis, AnalysisError> {
        self.with_analysis(|ctx| ctx.resetting_time(speed))
    }

    /// Whether LO mode meets all deadlines at nominal speed (see
    /// [`Analysis::is_lo_schedulable`]).
    ///
    /// # Errors
    ///
    /// As for [`Analysis::is_lo_schedulable`].
    pub fn is_lo_schedulable(&mut self) -> Result<bool, AnalysisError> {
        self.with_analysis(|ctx| ctx.is_lo_schedulable())
    }

    /// The smallest speed at which LO mode is EDF-schedulable (see
    /// [`Analysis::lo_speed_requirement`]).
    ///
    /// # Errors
    ///
    /// As for [`Analysis::lo_speed_requirement`].
    pub fn lo_speed_requirement(&mut self) -> Result<Rational, AnalysisError> {
        self.with_analysis(|ctx| ctx.lo_speed_requirement())
    }

    /// The smallest speed within `tolerance` meeting both HI-mode
    /// schedulability and the resetting-time `budget` (see
    /// [`Analysis::minimal_speed_within_budget`]).
    ///
    /// # Errors
    ///
    /// As for [`Analysis::minimal_speed_within_budget`].
    ///
    /// # Panics
    ///
    /// As for [`Analysis::minimal_speed_within_budget`].
    pub fn minimal_speed_within_budget(
        &mut self,
        budget: Rational,
        max_speed: Rational,
        tolerance: Rational,
    ) -> Result<Option<Rational>, AnalysisError> {
        self.with_analysis(|ctx| ctx.minimal_speed_within_budget(budget, max_speed, tolerance))
    }

    /// Repairs the resetting-time staircase across a delta instead of
    /// dropping it: records whose whole segment lies below `cut` — the
    /// earliest instant any changed `ADB_HI` component contributes
    /// demand — still answer lookups bit-identically against the new
    /// profile (see [`ResetFrontier::truncated_below`] for the
    /// argument), and a delta that never touches the arrival profile
    /// (`cut = None`, e.g. LO-task churn) keeps the staircase whole.
    fn repair_frontier(&mut self, cut: Option<Rational>) {
        let Some(frontier) = self.frontier.take() else {
            return;
        };
        let before = frontier.len() as u64;
        match frontier.truncated_below(cut) {
            Some(repaired) => {
                self.counts.repaired += 1;
                self.counts.kept += repaired.len() as u64;
                self.counts.rewalked += before - repaired.len() as u64;
                self.frontier = Some(repaired);
            }
            None => {
                self.counts.rewalked += before;
            }
        }
    }

    /// The number of HI-active components before task position `pos` —
    /// the task's component index inside the `DBF_HI`/`ADB_HI` profiles
    /// (the `DBF_LO` index is the task position itself).
    fn hi_rank(&self, pos: usize) -> usize {
        self.set
            .iter()
            .take(pos)
            .filter(|t| t.params(Mode::Hi).is_some())
            .count()
    }

    /// Rebuilds all three profiles from the set after a query session
    /// panicked mid-lend (the panic-pill path): the set itself is never
    /// lent, so the rebuild restores exactly the fresh-build state.
    fn ensure_profiles(&mut self) {
        if !self.dirty {
            return;
        }
        self.lo = lo_profile(&self.set);
        self.hi = hi_profile(&self.set);
        self.arrival = hi_arrival_profile(&self.set);
        self.counts.rebuilt_components += (self.lo.components().len()
            + self.hi.components().len()
            + self.arrival.components().len()) as u64;
        self.frontier = None;
        self.dirty = false;
    }

    /// Accounts one profile's delta: `changed` freshly constructed
    /// components (one per replaced or inserted component) and
    /// the rest reused when the splice stayed in place; the whole
    /// profile rebuilt otherwise.
    fn note_touched(&mut self, which: Which, in_place: bool, changed: u64) {
        let len = match which {
            Which::Lo => self.lo.components().len(),
            Which::Hi => self.hi.components().len(),
            Which::Arrival => self.arrival.components().len(),
        } as u64;
        if in_place {
            self.counts.patched += 1;
            self.counts.rebuilt_components += changed;
            self.counts.reused_components += len - changed;
        } else {
            self.counts.rebuilt_components += len;
        }
    }

    /// Accounts a profile the delta did not touch at all (e.g. the
    /// `DBF_HI` profile when a HI-terminated task is admitted): every
    /// component is served as-is, mirroring the sweep engine's
    /// whole-profile reuse tally.
    fn note_untouched(&mut self, which: Which) {
        let len = match which {
            Which::Lo => self.lo.components().len(),
            Which::Hi => self.hi.components().len(),
            Which::Arrival => self.arrival.components().len(),
        } as u64;
        self.counts.reused_components += len;
    }
}

/// Which profile a delta accounting note addresses.
#[derive(Clone, Copy)]
enum Which {
    Lo,
    Hi,
    Arrival,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbs_model::Criticality;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn rat(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn hi_task(name: &str, period: i128, dl_lo: i128, c_lo: i128, c_hi: i128) -> Task {
        Task::builder(name, Criticality::Hi)
            .period(int(period))
            .deadline_lo(int(dl_lo))
            .deadline_hi(int(period))
            .wcet_lo(int(c_lo))
            .wcet_hi(int(c_hi))
            .build()
            .expect("valid")
    }

    fn lo_task(name: &str, period: i128, wcet: i128) -> Task {
        Task::builder(name, Criticality::Lo)
            .period(int(period))
            .deadline(int(period))
            .wcet(int(wcet))
            .build()
            .expect("valid")
    }

    fn table1() -> TaskSet {
        TaskSet::new(vec![hi_task("tau1", 5, 2, 1, 2), lo_task("tau2", 10, 3)])
    }

    fn assert_matches_fresh(delta: &mut DeltaAnalysis) {
        let set = delta.set().clone();
        let limits = *delta.limits();
        let fresh = Analysis::new(&set, &limits);
        assert_eq!(
            delta.minimum_speedup().expect("ok"),
            fresh.minimum_speedup().expect("ok")
        );
        assert_eq!(
            delta.is_lo_schedulable().expect("ok"),
            fresh.is_lo_schedulable().expect("ok")
        );
        assert_eq!(
            delta.lo_speed_requirement().expect("ok"),
            fresh.lo_speed_requirement().expect("ok")
        );
        for speed in [Rational::ONE, rat(3, 2), int(2)] {
            assert_eq!(
                delta.is_hi_schedulable(speed).expect("ok"),
                fresh.is_hi_schedulable(speed).expect("ok")
            );
            assert_eq!(
                delta.resetting_time(speed).expect("ok"),
                fresh.resetting_time(speed).expect("ok")
            );
        }
    }

    /// The `(patched, reused_components, rebuilt_components)` counters
    /// one delta adds — the splice accounting partition responses carry.
    fn splice_counts(
        delta: &mut DeltaAnalysis,
        op: impl FnOnce(&mut DeltaAnalysis),
    ) -> (u64, u64, u64) {
        let before = delta.walk_counts();
        op(delta);
        let after = delta.walk_counts();
        (
            after.patched - before.patched,
            after.reused_components - before.reused_components,
            after.rebuilt_components - before.rebuilt_components,
        )
    }

    #[test]
    fn admit_then_evict_round_trips() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        assert_matches_fresh(&mut delta);
        let counts = splice_counts(&mut delta, |d| {
            d.admit(hi_task("tau3", 20, 6, 2, 5)).expect("admit");
        });
        assert_eq!(counts, (3, 6, 3), "admit: one new component per profile");
        assert_eq!(delta.set().len(), 3);
        assert_matches_fresh(&mut delta);
        let counts = splice_counts(&mut delta, |d| {
            d.evict("tau3").expect("evict");
        });
        assert_eq!(counts, (3, 6, 0), "evict: pure removals, survivors reused");
        assert!(delta.set().by_name("tau3").is_none());
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn replace_handles_activity_changes() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        // Active -> active: one component swapped in place per profile.
        let counts = splice_counts(&mut delta, |d| {
            d.replace("tau2", lo_task("tau2", 10, 2)).expect("replace");
        });
        assert_eq!(counts, (3, 3, 3), "active -> active");
        assert_matches_fresh(&mut delta);
        // Active -> terminated: the DBF_HI/ADB_HI components vanish.
        let counts = splice_counts(&mut delta, |d| {
            d.replace("tau2", lo_task("tau2", 10, 3).terminated().expect("lo"))
                .expect("replace");
        });
        assert_eq!(counts, (3, 3, 1), "active -> terminated");
        assert!(delta.set()[1].is_terminated_in_hi());
        assert_matches_fresh(&mut delta);
        // Terminated -> terminated: only DBF_LO changes; the HI-mode
        // profiles are served whole.
        let counts = splice_counts(&mut delta, |d| {
            d.replace("tau2", lo_task("tau2", 10, 2).terminated().expect("lo"))
                .expect("replace");
        });
        assert_eq!(counts, (1, 3, 1), "terminated -> terminated");
        assert_matches_fresh(&mut delta);
        // Terminated -> active again, renamed: the components are
        // inserted at the task's rank.
        let counts = splice_counts(&mut delta, |d| {
            d.replace("tau2", lo_task("tau2b", 20, 4)).expect("replace");
        });
        assert_eq!(counts, (3, 3, 3), "terminated -> active");
        assert_eq!(delta.set().position("tau2b"), Some(1));
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn errors_leave_everything_unchanged() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        let before = delta.walk_counts();
        assert_eq!(
            delta.admit(lo_task("tau1", 4, 1)).expect_err("duplicate"),
            DeltaError::DuplicateTask {
                id: "tau1".to_owned()
            }
        );
        assert_eq!(
            delta.evict("ghost").expect_err("unknown"),
            DeltaError::UnknownTask {
                id: "ghost".to_owned()
            }
        );
        assert_eq!(
            delta
                .replace("tau2", lo_task("tau1", 4, 1))
                .expect_err("rename collision"),
            DeltaError::DuplicateTask {
                id: "tau1".to_owned()
            }
        );
        assert_eq!(delta.walk_counts(), before);
        assert_eq!(delta.set().len(), 2);
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn admit_splices_in_place_on_a_shared_timebase() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        let before = delta.walk_counts();
        // Table I is integer-valued and tau3 is too: all three profiles
        // extend in place.
        delta.admit(hi_task("tau3", 4, 2, 1, 1)).expect("admit");
        let counts = delta.walk_counts();
        assert_eq!(counts.patched, before.patched + 3);
        // One new component per profile; every old component reused.
        assert_eq!(counts.rebuilt_components, before.rebuilt_components + 3);
        assert_eq!(
            counts.reused_components,
            before.reused_components + 2 + 2 + 2
        );
    }

    #[test]
    fn offgrid_admit_rebuilds_and_still_matches() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        let before = delta.walk_counts();
        // A denominator the resident timebase (1) misses forces the
        // rebuild path of all three profiles.
        delta
            .admit(
                Task::builder("frac", Criticality::Hi)
                    .period(rat(7, 3))
                    .deadline_lo(rat(2, 3))
                    .deadline_hi(rat(7, 3))
                    .wcet_lo(rat(1, 3))
                    .wcet_hi(rat(2, 3))
                    .build()
                    .expect("valid"),
            )
            .expect("admit");
        let counts = delta.walk_counts();
        assert_eq!(counts.patched, before.patched);
        assert_eq!(counts.reused_components, before.reused_components);
        assert_eq!(counts.rebuilt_components, before.rebuilt_components + 9);
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn panic_in_session_self_heals() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            delta.with_analysis(|_| panic!("poison pill"));
        }));
        assert!(result.is_err());
        // The next use rebuilds the profiles from the set and answers
        // exactly like a fresh context.
        assert_matches_fresh(&mut delta);
        delta.admit(lo_task("late", 8, 1)).expect("admit");
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn admit_bailing_mid_splice_still_rolls_back_by_evict() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        let baseline = delta.minimum_speedup().expect("ok");

        // The admit panics after the set mutation and the DBF_LO splice
        // but before the DBF_HI/ADB_HI splices — the worst interleaving
        // a real splice bail could produce.
        DeltaAnalysis::arm_mid_splice_fault();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            delta
                .admit(hi_task("probe", 7, 3, 2, 3))
                .expect("unreached");
        }));
        assert!(result.is_err(), "the armed fault must fire");

        // The half-admitted task is in the set; the dirty guard makes the
        // rollback evict heal the profiles first, then remove it — the
        // probe-then-rollback invariant the partitioner relies on.
        assert!(delta.set().by_name("probe").is_some());
        delta.evict("probe").expect("rollback evict");
        assert_matches_fresh(&mut delta);
        assert_eq!(delta.minimum_speedup().expect("ok"), baseline);

        // And the context is fully usable afterwards: the same admit,
        // unarmed, completes and matches a fresh analysis.
        delta.admit(hi_task("probe", 7, 3, 2, 3)).expect("admit");
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn empty_base_set_grows() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(TaskSet::empty(), &limits);
        assert!(delta.is_lo_schedulable().expect("ok"));
        delta.admit(hi_task("first", 5, 2, 1, 2)).expect("admit");
        assert_matches_fresh(&mut delta);
        delta.evict("first").expect("evict");
        assert!(delta.set().is_empty());
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn batch_matches_sequential_ops() {
        let limits = AnalysisLimits::default();
        let mut batched = DeltaAnalysis::new(table1(), &limits);
        let mut sequential = DeltaAnalysis::new(table1(), &limits);
        let ops = vec![
            DeltaOp::Evict("tau1".to_owned()),
            DeltaOp::Admit(hi_task("tau3", 20, 6, 2, 5)),
            DeltaOp::Replace {
                id: "tau2".to_owned(),
                task: lo_task("tau2b", 8, 2),
            },
            DeltaOp::Admit(lo_task("tau4", 16, 1)),
        ];
        for op in ops.clone() {
            sequential.apply(op).expect("ok");
        }
        batched.apply_batch(ops).expect("ok");
        assert_eq!(batched.set(), sequential.set());
        assert_matches_fresh(&mut batched);
        assert_eq!(
            batched.minimum_speedup().expect("ok"),
            sequential.minimum_speedup().expect("ok")
        );
    }

    #[test]
    fn batch_cancels_opposing_ops() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        let before = delta.walk_counts();
        delta
            .apply_batch(vec![
                DeltaOp::Admit(hi_task("ghost", 12, 4, 1, 2)),
                DeltaOp::Replace {
                    id: "ghost".to_owned(),
                    task: lo_task("ghost2", 6, 1),
                },
                DeltaOp::Evict("ghost2".to_owned()),
            ])
            .expect("ok");
        // The batch cancels to a no-op: no profile was touched at all.
        assert_eq!(delta.walk_counts(), before);
        assert_eq!(delta.set().len(), 2);
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn batch_evict_readmit_moves_task_to_the_end() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        delta
            .apply_batch(vec![
                DeltaOp::Evict("tau1".to_owned()),
                DeltaOp::Admit(hi_task("tau1", 6, 3, 1, 2)),
            ])
            .expect("ok");
        // Same order the sequential ops leave: tau1 re-enters at the end.
        assert_eq!(delta.set().position("tau1"), Some(1));
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn batch_splices_rename_chains_on_activity_flip() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        // tau2 goes HI-terminated first so the batch flips it back to
        // active — an insert mid-profile — together with a rename chain
        // the canonical plan collapses to two in-place replacements.
        delta
            .replace("tau2", lo_task("tau2", 10, 3).terminated().expect("lo"))
            .expect("ok");
        let counts = splice_counts(&mut delta, |d| {
            d.apply_batch(vec![
                DeltaOp::Replace {
                    id: "tau1".to_owned(),
                    task: hi_task("tmp", 5, 2, 1, 2),
                },
                DeltaOp::Replace {
                    id: "tau2".to_owned(),
                    task: lo_task("tau1", 10, 3),
                },
                DeltaOp::Replace {
                    id: "tmp".to_owned(),
                    task: hi_task("tau2", 5, 2, 1, 2),
                },
            ])
            .expect("ok");
        });
        // One composite splice per profile: two fresh DBF_LO components,
        // and a patch plus an insert in each HI-mode profile.
        assert_eq!(counts, (3, 0, 6));
        assert_eq!(delta.set().position("tau2"), Some(0));
        assert_eq!(delta.set().position("tau1"), Some(1));
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn batch_first_failing_op_reports_and_leaves_state() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        let err = delta
            .apply_batch(vec![
                DeltaOp::Admit(lo_task("tau3", 8, 1)),
                DeltaOp::Evict("ghost".to_owned()),
                DeltaOp::Admit(lo_task("tau3", 8, 1)),
            ])
            .expect_err("second op fails first");
        assert_eq!(
            err,
            DeltaError::UnknownTask {
                id: "ghost".to_owned()
            }
        );
        // Atomic: the valid first op was not applied either.
        assert_eq!(delta.set().len(), 2);
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn frontier_is_dropped_by_every_op() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        delta.resetting_time(int(2)).expect("ok");
        delta.resetting_time(int(3)).expect("ok");
        // Second query is served by the frontier carried across
        // sessions, exactly like one long-lived Analysis.
        assert_eq!(delta.walk_counts().avoided, 1);
        // A degraded LO task stays live in HI mode, so its arrival
        // component contributes the carried-over job from Δ = 0: the
        // repair cut is 0 and the whole staircase must go.
        delta.admit(lo_task("tau3", 8, 1)).expect("admit");
        delta.resetting_time(int(3)).expect("ok");
        // Post-delta the frontier was dropped: this walk rebuilt it.
        assert_eq!(delta.walk_counts().avoided, 1);
        assert_eq!(delta.walk_counts().repaired, 0);
        assert!(delta.walk_counts().rewalked > 0);
        delta.resetting_time(int(3)).expect("ok");
        assert_eq!(delta.walk_counts().avoided, 2);
    }

    fn terminated_task(name: &str, period: i128, wcet: i128) -> Task {
        Task::builder(name, Criticality::Lo)
            .period(int(period))
            .deadline(int(period))
            .wcet(int(wcet))
            .terminated()
            .build()
            .expect("valid")
    }

    #[test]
    fn frontier_survives_terminated_task_churn() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        delta.resetting_time(int(2)).expect("ok");
        let staircase = {
            delta.resetting_time(int(3)).expect("ok");
            assert_eq!(delta.walk_counts().avoided, 1);
            delta.walk_counts()
        };
        // A HI-terminated task never touches the `ADB_HI` profile, so
        // churning one leaves the resetting staircase whole — the next
        // queries are still served without a walk.
        delta.admit(terminated_task("stop3", 8, 1)).expect("admit");
        delta.resetting_time(int(2)).expect("ok");
        delta.resetting_time(int(3)).expect("ok");
        let counts = delta.walk_counts();
        assert_eq!(
            counts.avoided,
            staircase.avoided + 2,
            "kept staircase serves"
        );
        assert_eq!(counts.repaired, 1, "one repaired delta");
        assert!(counts.kept > 0, "records were kept");
        assert_eq!(counts.rewalked, 0, "nothing to re-walk");
        // And eviction repairs just the same.
        delta.evict("stop3").expect("evict");
        delta.resetting_time(int(3)).expect("ok");
        let counts = delta.walk_counts();
        assert_eq!(counts.avoided, staircase.avoided + 3);
        assert_eq!(counts.repaired, 2);
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn frontier_survives_arrival_identical_replace() {
        let limits = AnalysisLimits::default();
        let mut delta = DeltaAnalysis::new(table1(), &limits);
        delta.resetting_time(int(2)).expect("ok");
        delta.resetting_time(int(2)).expect("ok");
        assert_eq!(delta.walk_counts().avoided, 1);
        // A pure rename keeps every demand curve: the replace path's
        // divergence cut is +∞ and the staircase survives whole.
        delta
            .replace("tau1", hi_task("tau1b", 5, 2, 1, 2))
            .expect("replace");
        delta.resetting_time(int(2)).expect("ok");
        let counts = delta.walk_counts();
        assert_eq!(counts.avoided, 2, "kept staircase serves post-rename");
        assert_eq!(counts.repaired, 1);
        assert_eq!(counts.rewalked, 0);
        assert_matches_fresh(&mut delta);
    }

    #[test]
    fn batched_terminated_churn_keeps_the_frontier() {
        let limits = AnalysisLimits::default();
        let mut set = table1();
        set.push(terminated_task("stop0", 6, 1));
        let mut delta = DeltaAnalysis::new(set, &limits);
        delta.resetting_time(int(2)).expect("ok");
        delta.resetting_time(int(2)).expect("ok");
        assert_eq!(delta.walk_counts().avoided, 1);
        // One batched evict + admit of HI-terminated tasks: a single
        // repair, and the staircase still answers.
        delta
            .apply_batch(vec![
                DeltaOp::Evict("stop0".to_owned()),
                DeltaOp::Admit(terminated_task("stop1", 9, 2)),
            ])
            .expect("batch");
        delta.resetting_time(int(2)).expect("ok");
        let counts = delta.walk_counts();
        assert_eq!(counts.avoided, 2);
        assert_eq!(counts.repaired, 1);
        assert_eq!(counts.rewalked, 0);
        assert_matches_fresh(&mut delta);
    }
}
