//! Tasks and the task builder.

use std::fmt;

use rbs_json::{FromJson, Json, JsonError, ToJson};
use rbs_timebase::Rational;

use crate::{Criticality, Mode, ModeParams, ModelError};

/// What a task does after the system switches to HI mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HiBehavior {
    /// The task keeps running with the given (possibly degraded)
    /// parameters. HI tasks always continue; LO tasks continue with
    /// `T(HI) ≥ T(LO)`, `D(HI) ≥ D(LO)` per eq. (2).
    Continue(ModeParams),
    /// The task is terminated at the mode switch (LO tasks only): its
    /// pending jobs are discarded and no further jobs are released until
    /// the system resets to LO mode. This is eq. (3)'s
    /// `T(HI) = D(HI) = +∞` special case.
    Terminated,
}

impl HiBehavior {
    /// The HI-mode parameters, or `None` if the task is terminated.
    #[must_use]
    pub fn params(&self) -> Option<&ModeParams> {
        match self {
            HiBehavior::Continue(p) => Some(p),
            HiBehavior::Terminated => None,
        }
    }
}

/// A dual-criticality sporadic task with per-mode parameters.
///
/// Construct via [`Task::builder`]; the builder validates the paper's
/// model constraints (eqs. (1)–(3)) and returns a [`ModelError`] when they
/// are violated.
///
/// # Examples
///
/// A HI task that prepares for overrun by shortening its LO-mode deadline:
///
/// ```
/// use rbs_model::{Criticality, Mode, Task};
/// use rbs_timebase::Rational;
///
/// # fn main() -> Result<(), rbs_model::ModelError> {
/// let task = Task::builder("ctrl", Criticality::Hi)
///     .period(Rational::integer(5))
///     .deadline_lo(Rational::integer(2))
///     .deadline_hi(Rational::integer(5))
///     .wcet_lo(Rational::integer(1))
///     .wcet_hi(Rational::integer(2))
///     .build()?;
/// assert_eq!(task.utilization(Mode::Hi), Rational::new(2, 5));
/// assert_eq!(task.gamma(), Some(Rational::integer(2)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Task {
    name: String,
    criticality: Criticality,
    lo: ModeParams,
    hi: HiBehavior,
}

impl Task {
    /// Starts building a task with the given name and criticality.
    #[must_use]
    pub fn builder(name: impl Into<String>, criticality: Criticality) -> TaskBuilder {
        TaskBuilder::new(name, criticality)
    }

    /// The task name (unique names are recommended but not enforced).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's criticality level.
    #[must_use]
    pub const fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// LO-mode parameters `{T(LO), D(LO), C(LO)}`.
    #[must_use]
    pub const fn lo(&self) -> &ModeParams {
        &self.lo
    }

    /// The task's behaviour in HI mode.
    #[must_use]
    pub const fn hi_behavior(&self) -> &HiBehavior {
        &self.hi
    }

    /// Parameters in the given mode; `None` when the task is terminated in
    /// HI mode.
    #[must_use]
    pub fn params(&self, mode: Mode) -> Option<&ModeParams> {
        match mode {
            Mode::Lo => Some(&self.lo),
            Mode::Hi => self.hi.params(),
        }
    }

    /// Whether the task is terminated at the LO→HI mode switch.
    #[must_use]
    pub fn is_terminated_in_hi(&self) -> bool {
        matches!(self.hi, HiBehavior::Terminated)
    }

    /// Utilization `C(mode)/T(mode)`; zero for a task terminated in HI
    /// mode when `mode` is HI.
    #[must_use]
    pub fn utilization(&self, mode: Mode) -> Rational {
        self.params(mode)
            .map_or(Rational::ZERO, ModeParams::utilization)
    }

    /// The WCET inflation factor `γ = C(HI)/C(LO)` of a HI task
    /// (Section VI), or `None` for LO tasks and tasks with `C(LO) = 0`.
    #[must_use]
    pub fn gamma(&self) -> Option<Rational> {
        if self.criticality != Criticality::Hi || self.lo.wcet().is_zero() {
            return None;
        }
        self.hi.params().map(|hi| hi.wcet() / self.lo.wcet())
    }

    /// Returns a copy of this task with the LO task terminated in HI mode.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::HiTaskTerminated`] for HI-criticality tasks.
    pub fn terminated(&self) -> Result<Task, ModelError> {
        if self.criticality == Criticality::Hi {
            return Err(ModelError::HiTaskTerminated {
                task: self.name.clone(),
            });
        }
        Ok(Task {
            hi: HiBehavior::Terminated,
            ..self.clone()
        })
    }
}

/// Wire format: `{"Continue": ModeParams}` or the string `"Terminated"`
/// (externally-tagged enum encoding).
impl ToJson for HiBehavior {
    fn write_json(&self, out: &mut String) {
        match self {
            HiBehavior::Continue(p) => rbs_json::object(out).field("Continue", p).end(),
            HiBehavior::Terminated => out.push_str("\"Terminated\""),
        }
    }
}

impl FromJson for HiBehavior {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Str(s) if s == "Terminated" => Ok(HiBehavior::Terminated),
            Json::Object(_) => {
                let params = value.field("Continue")?;
                Ok(HiBehavior::Continue(ModeParams::from_json(params)?))
            }
            _ => Err(JsonError::new(
                "expected `{\"Continue\": ...}` or `\"Terminated\"`",
            )),
        }
    }
}

/// Wire format: `{"name", "criticality", "lo", "hi"}`.
///
/// Deserialization goes through [`TaskBuilder`], so a decoded task always
/// satisfies the model constraints (eqs. (1)–(3)); invalid parameter
/// combinations are reported as [`JsonError`]s.
impl ToJson for Task {
    fn write_json(&self, out: &mut String) {
        rbs_json::object(out)
            .field("name", &self.name)
            .field("criticality", &self.criticality)
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .end();
    }
}

impl FromJson for Task {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let name = value
            .field("name")?
            .as_str()
            .ok_or_else(|| JsonError::new("task `name` must be a string"))?;
        let criticality = Criticality::from_json(value.field("criticality")?)?;
        let lo = ModeParams::from_json(value.field("lo")?)?;
        let hi = HiBehavior::from_json(value.field("hi")?)?;

        let mut builder = Task::builder(name, criticality)
            .period(lo.period())
            .deadline_lo(lo.deadline())
            .wcet_lo(lo.wcet());
        match hi {
            HiBehavior::Continue(p) => {
                builder = builder
                    .period_hi(p.period())
                    .deadline_hi(p.deadline())
                    .wcet_hi(p.wcet());
            }
            HiBehavior::Terminated => builder = builder.terminated(),
        }
        builder
            .build()
            .map_err(|e| JsonError::new(format!("invalid task: {e}")))
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] LO{}", self.name, self.criticality, self.lo)?;
        match &self.hi {
            HiBehavior::Continue(p) => write!(f, " HI{p}"),
            HiBehavior::Terminated => write!(f, " HI(terminated)"),
        }
    }
}

/// Builder for [`Task`] (see [`Task::builder`]).
///
/// Field conventions:
///
/// * `period`, `deadline`, `wcet` set the value for **both** modes;
/// * `_lo`/`_hi` suffixed setters override a single mode;
/// * unset HI values default to the LO values (no degradation / no WCET
///   inflation);
/// * [`TaskBuilder::terminated`] marks a LO task as terminated in HI mode.
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    name: String,
    criticality: Criticality,
    period_lo: Option<Rational>,
    period_hi: Option<Rational>,
    deadline_lo: Option<Rational>,
    deadline_hi: Option<Rational>,
    wcet_lo: Option<Rational>,
    wcet_hi: Option<Rational>,
    terminated: bool,
}

impl TaskBuilder {
    fn new(name: impl Into<String>, criticality: Criticality) -> TaskBuilder {
        TaskBuilder {
            name: name.into(),
            criticality,
            period_lo: None,
            period_hi: None,
            deadline_lo: None,
            deadline_hi: None,
            wcet_lo: None,
            wcet_hi: None,
            terminated: false,
        }
    }

    /// Sets the minimum inter-arrival time for both modes.
    #[must_use]
    pub fn period(mut self, period: Rational) -> Self {
        self.period_lo = Some(period);
        self
    }

    /// Sets the degraded HI-mode inter-arrival time (LO tasks, eq. (2)).
    #[must_use]
    pub fn period_hi(mut self, period: Rational) -> Self {
        self.period_hi = Some(period);
        self
    }

    /// Sets the relative deadline for both modes.
    #[must_use]
    pub fn deadline(mut self, deadline: Rational) -> Self {
        self.deadline_lo = Some(deadline);
        self.deadline_hi = Some(deadline);
        self
    }

    /// Sets the LO-mode deadline (shortened for HI tasks, eq. (1)).
    #[must_use]
    pub fn deadline_lo(mut self, deadline: Rational) -> Self {
        self.deadline_lo = Some(deadline);
        self
    }

    /// Sets the HI-mode deadline.
    #[must_use]
    pub fn deadline_hi(mut self, deadline: Rational) -> Self {
        self.deadline_hi = Some(deadline);
        self
    }

    /// Sets the WCET for both modes.
    #[must_use]
    pub fn wcet(mut self, wcet: Rational) -> Self {
        self.wcet_lo = Some(wcet);
        self.wcet_hi = Some(wcet);
        self
    }

    /// Sets the LO-mode (optimistic) WCET.
    #[must_use]
    pub fn wcet_lo(mut self, wcet: Rational) -> Self {
        self.wcet_lo = Some(wcet);
        self
    }

    /// Sets the HI-mode (pessimistic) WCET.
    #[must_use]
    pub fn wcet_hi(mut self, wcet: Rational) -> Self {
        self.wcet_hi = Some(wcet);
        self
    }

    /// Marks the task as terminated at the LO→HI switch (LO tasks only).
    #[must_use]
    pub fn terminated(mut self) -> Self {
        self.terminated = true;
        self
    }

    /// Validates the model constraints and builds the task.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] describing the first violated constraint
    /// of Section II / eqs. (1)–(3); see the `ModelError` variants.
    pub fn build(self) -> Result<Task, ModelError> {
        let task_name = || self.name.clone();
        let missing = |field| ModelError::MissingField {
            task: task_name(),
            field,
        };
        let period_lo = self.period_lo.ok_or_else(|| missing("period"))?;
        let deadline_lo = self
            .deadline_lo
            .or(self.deadline_hi)
            .ok_or_else(|| missing("deadline"))?;
        let wcet_lo = self.wcet_lo.ok_or_else(|| missing("wcet"))?;
        let lo = ModeParams::new(period_lo, deadline_lo, wcet_lo);

        if self.terminated {
            if self.criticality == Criticality::Hi {
                return Err(ModelError::HiTaskTerminated { task: task_name() });
            }
            let task = Task {
                name: self.name,
                criticality: self.criticality,
                lo,
                hi: HiBehavior::Terminated,
            };
            validate_mode(&task, &task.lo)?;
            return Ok(task);
        }

        let period_hi = self.period_hi.unwrap_or(period_lo);
        let deadline_hi = self.deadline_hi.unwrap_or(deadline_lo);
        let wcet_hi = self.wcet_hi.unwrap_or(wcet_lo);
        let hi = ModeParams::new(period_hi, deadline_hi, wcet_hi);

        let task = Task {
            name: self.name,
            criticality: self.criticality,
            lo,
            hi: HiBehavior::Continue(hi),
        };
        validate_mode(&task, &task.lo)?;
        validate_mode(&task, &hi)?;
        match task.criticality {
            Criticality::Hi => {
                // eq. (1): T(HI) = T(LO), D(LO) <= D(HI), C(HI) >= C(LO).
                if hi.period() != lo.period() {
                    return Err(ModelError::HiTaskPeriodChanged { task: task.name });
                }
                if lo.deadline() > hi.deadline() {
                    return Err(ModelError::HiDeadlineNotPrepared { task: task.name });
                }
                if hi.wcet() < lo.wcet() {
                    return Err(ModelError::HiWcetSmallerThanLo { task: task.name });
                }
            }
            Criticality::Lo => {
                // eq. (2): C(HI) = C(LO), T(HI) >= T(LO), D(HI) >= D(LO).
                if hi.wcet() != lo.wcet() {
                    return Err(ModelError::LoWcetChanged { task: task.name });
                }
                if hi.period() < lo.period() || hi.deadline() < lo.deadline() {
                    return Err(ModelError::LoServiceImproved { task: task.name });
                }
            }
        }
        Ok(task)
    }
}

fn validate_mode(task: &Task, params: &ModeParams) -> Result<(), ModelError> {
    let name = || task.name().to_owned();
    if !params.period().is_positive() {
        return Err(ModelError::NonPositivePeriod { task: name() });
    }
    if !params.deadline().is_positive() {
        return Err(ModelError::NonPositiveDeadline { task: name() });
    }
    if params.wcet().is_negative() {
        return Err(ModelError::NegativeWcet { task: name() });
    }
    if params.deadline() > params.period() {
        return Err(ModelError::DeadlineExceedsPeriod { task: name() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn hi_task() -> Task {
        Task::builder("tau1", Criticality::Hi)
            .period(int(5))
            .deadline_lo(int(2))
            .deadline_hi(int(5))
            .wcet_lo(int(1))
            .wcet_hi(int(2))
            .build()
            .expect("valid HI task")
    }

    fn lo_task() -> Task {
        Task::builder("tau2", Criticality::Lo)
            .period(int(10))
            .deadline(int(10))
            .wcet(int(3))
            .build()
            .expect("valid LO task")
    }

    #[test]
    fn hi_task_accessors() {
        let t = hi_task();
        assert_eq!(t.name(), "tau1");
        assert_eq!(t.criticality(), Criticality::Hi);
        assert_eq!(t.lo().deadline(), int(2));
        assert_eq!(t.params(Mode::Hi).expect("continues").deadline(), int(5));
        assert_eq!(t.utilization(Mode::Lo), Rational::new(1, 5));
        assert_eq!(t.utilization(Mode::Hi), Rational::new(2, 5));
        assert_eq!(t.gamma(), Some(int(2)));
        assert!(!t.is_terminated_in_hi());
    }

    #[test]
    fn lo_task_defaults_to_undegraded_hi_params() {
        let t = lo_task();
        let hi = t.params(Mode::Hi).expect("continues");
        assert_eq!(hi, t.lo());
        assert_eq!(t.gamma(), None);
    }

    #[test]
    fn degraded_lo_task() {
        let t = Task::builder("tau2", Criticality::Lo)
            .period(int(10))
            .period_hi(int(20))
            .deadline_lo(int(10))
            .deadline_hi(int(15))
            .wcet(int(3))
            .build()
            .expect("valid degraded LO task");
        let hi = t.params(Mode::Hi).expect("continues");
        assert_eq!(hi.period(), int(20));
        assert_eq!(hi.deadline(), int(15));
        assert_eq!(hi.wcet(), int(3));
    }

    #[test]
    fn terminated_lo_task_has_no_hi_params() {
        let t = lo_task().terminated().expect("LO task can terminate");
        assert!(t.is_terminated_in_hi());
        assert_eq!(t.params(Mode::Hi), None);
        assert_eq!(t.utilization(Mode::Hi), Rational::ZERO);
        assert!(t.to_string().contains("terminated"));
    }

    #[test]
    fn builder_terminated_flag() {
        let t = Task::builder("bg", Criticality::Lo)
            .period(int(4))
            .deadline(int(4))
            .wcet(int(1))
            .terminated()
            .build()
            .expect("valid");
        assert!(t.is_terminated_in_hi());
    }

    #[test]
    fn hi_task_cannot_be_terminated() {
        let err = hi_task().terminated().expect_err("HI task");
        assert_eq!(
            err,
            ModelError::HiTaskTerminated {
                task: "tau1".to_owned()
            }
        );
        let err = Task::builder("h", Criticality::Hi)
            .period(int(5))
            .deadline(int(5))
            .wcet(int(1))
            .terminated()
            .build()
            .expect_err("HI task");
        assert!(matches!(err, ModelError::HiTaskTerminated { .. }));
    }

    #[test]
    fn missing_fields_are_reported() {
        let err = Task::builder("t", Criticality::Lo)
            .build()
            .expect_err("no fields");
        assert!(matches!(
            err,
            ModelError::MissingField {
                field: "period",
                ..
            }
        ));
        let err = Task::builder("t", Criticality::Lo)
            .period(int(5))
            .build()
            .expect_err("no deadline");
        assert!(matches!(
            err,
            ModelError::MissingField {
                field: "deadline",
                ..
            }
        ));
        let err = Task::builder("t", Criticality::Lo)
            .period(int(5))
            .deadline(int(5))
            .build()
            .expect_err("no wcet");
        assert!(matches!(
            err,
            ModelError::MissingField { field: "wcet", .. }
        ));
    }

    #[test]
    fn constraint_violations_are_rejected() {
        // Non-positive period.
        let err = Task::builder("t", Criticality::Lo)
            .period(int(0))
            .deadline(int(1))
            .wcet(int(1))
            .build()
            .expect_err("zero period");
        assert!(matches!(err, ModelError::NonPositivePeriod { .. }));

        // D > T.
        let err = Task::builder("t", Criticality::Lo)
            .period(int(5))
            .deadline(int(6))
            .wcet(int(1))
            .build()
            .expect_err("unconstrained deadline");
        assert!(matches!(err, ModelError::DeadlineExceedsPeriod { .. }));

        // Negative WCET.
        let err = Task::builder("t", Criticality::Lo)
            .period(int(5))
            .deadline(int(5))
            .wcet(int(-1))
            .build()
            .expect_err("negative wcet");
        assert!(matches!(err, ModelError::NegativeWcet { .. }));

        // HI task with period change.
        let err = Task::builder("t", Criticality::Hi)
            .period(int(5))
            .period_hi(int(6))
            .deadline(int(5))
            .wcet(int(1))
            .build()
            .expect_err("period change");
        assert!(matches!(err, ModelError::HiTaskPeriodChanged { .. }));

        // HI task with D(LO) > D(HI).
        let err = Task::builder("t", Criticality::Hi)
            .period(int(5))
            .deadline_lo(int(5))
            .deadline_hi(int(4))
            .wcet(int(1))
            .build()
            .expect_err("deadline not prepared");
        assert!(matches!(err, ModelError::HiDeadlineNotPrepared { .. }));

        // HI task with C(HI) < C(LO).
        let err = Task::builder("t", Criticality::Hi)
            .period(int(5))
            .deadline(int(5))
            .wcet_lo(int(2))
            .wcet_hi(int(1))
            .build()
            .expect_err("shrinking wcet");
        assert!(matches!(err, ModelError::HiWcetSmallerThanLo { .. }));

        // LO task changing WCET.
        let err = Task::builder("t", Criticality::Lo)
            .period(int(5))
            .deadline(int(5))
            .wcet_lo(int(1))
            .wcet_hi(int(2))
            .build()
            .expect_err("lo wcet change");
        assert!(matches!(err, ModelError::LoWcetChanged { .. }));

        // LO task improving service.
        let err = Task::builder("t", Criticality::Lo)
            .period(int(10))
            .period_hi(int(5))
            .deadline_lo(int(5))
            .wcet(int(1))
            .build()
            .expect_err("improved service");
        assert!(matches!(err, ModelError::LoServiceImproved { .. }));
    }

    #[test]
    fn hi_task_with_equal_deadlines_is_allowed() {
        // Allowed by the model; the analysis then reports unbounded
        // speedup (see the discussion after eq. (8)).
        let t = Task::builder("t", Criticality::Hi)
            .period(int(5))
            .deadline(int(5))
            .wcet_lo(int(1))
            .wcet_hi(int(2))
            .build()
            .expect("valid, if hopeless");
        assert_eq!(
            t.lo().deadline(),
            t.params(Mode::Hi).expect("continues").deadline()
        );
    }

    #[test]
    fn display_lists_both_modes() {
        let t = hi_task();
        let text = t.to_string();
        assert!(text.contains("tau1"));
        assert!(text.contains("[HI]"));
        assert!(text.contains("LO(T=5, D=2, C=1)"));
        assert!(text.contains("HI(T=5, D=5, C=2)"));
    }

    #[test]
    fn json_round_trip() {
        for t in [hi_task(), lo_task(), lo_task().terminated().expect("lo")] {
            let json = rbs_json::to_string(&t);
            let back: Task = rbs_json::from_str(&json).expect("deserialize");
            assert_eq!(back, t);
        }
    }

    #[test]
    fn json_rejects_constraint_violations() {
        // A HI task whose HI-mode period differs from LO violates eq. (1)
        // and must be rejected at decode time.
        let text = r#"{
            "name": "bad", "criticality": "Hi",
            "lo": {"period": {"num":5,"den":1}, "deadline": {"num":5,"den":1},
                   "wcet": {"num":1,"den":1}},
            "hi": {"Continue": {"period": {"num":6,"den":1},
                   "deadline": {"num":6,"den":1}, "wcet": {"num":1,"den":1}}}
        }"#;
        let result: Result<Task, _> = rbs_json::from_str(text);
        assert!(result.is_err());
    }
}
