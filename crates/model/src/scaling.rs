//! The implicit-deadline `(x, y)` special case of Section V.
//!
//! Much of the paper's design-space exploration (Figs. 4–6) uses
//! implicit-deadline tasks where
//!
//! * HI tasks prepare for overrun by shortening LO-mode deadlines by a
//!   common factor `0 < x ≤ 1` — eq. (13):
//!   `D_i(LO) = x·D_i(HI)`, `T_i(HI) = T_i(LO) = D_i(HI)`;
//! * LO tasks degrade in HI mode by a common factor `y ≥ 1` — eq. (14):
//!   `D_i(HI) = y·D_i(LO)`, `T_i(χ) = D_i(χ)`.
//!
//! [`ImplicitTaskSpec`] captures the mode-independent part of such a task
//! (period and WCETs); [`scaled_task_set`] instantiates a full
//! [`TaskSet`] for chosen [`ScalingFactors`].

use rbs_json::{FromJson, Json, JsonError, ToJson};
use rbs_timebase::Rational;

use crate::{Criticality, ModelError, Task, TaskSet};

/// The mode-independent description of an implicit-deadline task used by
/// the `(x, y)` parameterization.
///
/// # Examples
///
/// ```
/// use rbs_model::ImplicitTaskSpec;
/// use rbs_timebase::Rational;
///
/// let hi = ImplicitTaskSpec::hi("nav", Rational::integer(100),
///                               Rational::integer(10), Rational::integer(20));
/// assert_eq!(hi.utilization_hi(), Rational::new(1, 5));
/// let lo = ImplicitTaskSpec::lo("log", Rational::integer(50), Rational::integer(5));
/// assert_eq!(lo.utilization_lo(), Rational::new(1, 10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImplicitTaskSpec {
    name: String,
    criticality: Criticality,
    period: Rational,
    wcet_lo: Rational,
    wcet_hi: Rational,
}

impl ImplicitTaskSpec {
    /// A HI-criticality implicit-deadline task with optimistic and
    /// pessimistic WCETs.
    #[must_use]
    pub fn hi(
        name: impl Into<String>,
        period: Rational,
        wcet_lo: Rational,
        wcet_hi: Rational,
    ) -> ImplicitTaskSpec {
        ImplicitTaskSpec {
            name: name.into(),
            criticality: Criticality::Hi,
            period,
            wcet_lo,
            wcet_hi,
        }
    }

    /// A LO-criticality implicit-deadline task (single WCET by eq. (2)).
    #[must_use]
    pub fn lo(name: impl Into<String>, period: Rational, wcet: Rational) -> ImplicitTaskSpec {
        ImplicitTaskSpec {
            name: name.into(),
            criticality: Criticality::Lo,
            period,
            wcet_lo: wcet,
            wcet_hi: wcet,
        }
    }

    /// Task name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Criticality level.
    #[must_use]
    pub const fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// Implicit period/deadline.
    #[must_use]
    pub const fn period(&self) -> Rational {
        self.period
    }

    /// LO-mode WCET.
    #[must_use]
    pub const fn wcet_lo(&self) -> Rational {
        self.wcet_lo
    }

    /// HI-mode WCET (equal to [`Self::wcet_lo`] for LO tasks).
    #[must_use]
    pub const fn wcet_hi(&self) -> Rational {
        self.wcet_hi
    }

    /// LO-mode utilization `C(LO)/T`.
    #[must_use]
    pub fn utilization_lo(&self) -> Rational {
        self.wcet_lo / self.period
    }

    /// HI-mode utilization `C(HI)/T` (ignoring HI-mode degradation of the
    /// period, i.e. with respect to the nominal period).
    #[must_use]
    pub fn utilization_hi(&self) -> Rational {
        self.wcet_hi / self.period
    }
}

/// Wire format: `{"name", "criticality", "period", "wcet_lo", "wcet_hi"}`.
impl ToJson for ImplicitTaskSpec {
    fn write_json(&self, out: &mut String) {
        rbs_json::object(out)
            .field("name", &self.name)
            .field("criticality", &self.criticality)
            .field("period", &self.period)
            .field("wcet_lo", &self.wcet_lo)
            .field("wcet_hi", &self.wcet_hi)
            .end();
    }
}

impl FromJson for ImplicitTaskSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ImplicitTaskSpec {
            name: value
                .field("name")?
                .as_str()
                .ok_or_else(|| JsonError::new("spec `name` must be a string"))?
                .to_owned(),
            criticality: Criticality::from_json(value.field("criticality")?)?,
            period: Rational::from_json(value.field("period")?)?,
            wcet_lo: Rational::from_json(value.field("wcet_lo")?)?,
            wcet_hi: Rational::from_json(value.field("wcet_hi")?)?,
        })
    }
}

/// The common deadline-shortening factor `x` and service-degradation
/// factor `y` of Section V.
///
/// # Examples
///
/// ```
/// use rbs_model::ScalingFactors;
/// use rbs_timebase::Rational;
///
/// # fn main() -> Result<(), rbs_model::ModelError> {
/// let f = ScalingFactors::new(Rational::new(1, 2), Rational::integer(2))?;
/// assert_eq!(f.x(), Rational::new(1, 2));
/// assert_eq!(f.y(), Rational::integer(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScalingFactors {
    x: Rational,
    y: Rational,
}

impl ScalingFactors {
    /// Validates `0 < x ≤ 1` and `y ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScalingFactor`] when a factor is out
    /// of range.
    pub fn new(x: Rational, y: Rational) -> Result<ScalingFactors, ModelError> {
        if !x.is_positive() || x > Rational::ONE {
            return Err(ModelError::InvalidScalingFactor { which: "x" });
        }
        if y < Rational::ONE {
            return Err(ModelError::InvalidScalingFactor { which: "y" });
        }
        Ok(ScalingFactors { x, y })
    }

    /// The identity factors `x = 1, y = 1` (no preparation, no
    /// degradation).
    #[must_use]
    pub fn identity() -> ScalingFactors {
        ScalingFactors {
            x: Rational::ONE,
            y: Rational::ONE,
        }
    }

    /// Overrun-preparation factor `x` (eq. (13)).
    #[must_use]
    pub const fn x(&self) -> Rational {
        self.x
    }

    /// Service-degradation factor `y` (eq. (14)).
    #[must_use]
    pub const fn y(&self) -> Rational {
        self.y
    }
}

/// Wire format: `{"x": R, "y": R}`; the range constraints are re-validated
/// on decode.
impl ToJson for ScalingFactors {
    fn write_json(&self, out: &mut String) {
        rbs_json::object(out)
            .field("x", &self.x)
            .field("y", &self.y)
            .end();
    }
}

impl FromJson for ScalingFactors {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let x = Rational::from_json(value.field("x")?)?;
        let y = Rational::from_json(value.field("y")?)?;
        ScalingFactors::new(x, y)
            .map_err(|e| JsonError::new(format!("invalid scaling factors: {e}")))
    }
}

/// Instantiates a [`TaskSet`] from implicit-deadline specs per eqs. (13)
/// and (14).
///
/// HI tasks get `D(LO) = x·T`, `D(HI) = T(HI) = T(LO) = T`; LO tasks get
/// `T(LO) = D(LO) = T` and `T(HI) = D(HI) = y·T`.
///
/// # Errors
///
/// Propagates [`ModelError`]s from task validation (e.g. non-positive
/// periods in the specs).
///
/// # Examples
///
/// ```
/// use rbs_model::{scaled_task_set, ImplicitTaskSpec, Mode, ScalingFactors};
/// use rbs_timebase::Rational;
///
/// # fn main() -> Result<(), rbs_model::ModelError> {
/// let specs = [
///     ImplicitTaskSpec::hi("h", Rational::integer(10), Rational::integer(2), Rational::integer(4)),
///     ImplicitTaskSpec::lo("l", Rational::integer(20), Rational::integer(4)),
/// ];
/// let factors = ScalingFactors::new(Rational::new(1, 2), Rational::integer(2))?;
/// let set = scaled_task_set(&specs, factors)?;
/// assert_eq!(set[0].lo().deadline(), Rational::integer(5));      // x·T
/// let lo_hi = set[1].params(Mode::Hi).expect("continues");
/// assert_eq!(lo_hi.period(), Rational::integer(40));             // y·T
/// # Ok(())
/// # }
/// ```
pub fn scaled_task_set(
    specs: &[ImplicitTaskSpec],
    factors: ScalingFactors,
) -> Result<TaskSet, ModelError> {
    let mut tasks = Vec::with_capacity(specs.len());
    for spec in specs {
        let task = match spec.criticality {
            Criticality::Hi => Task::builder(spec.name.clone(), Criticality::Hi)
                .period(spec.period)
                .deadline_lo(factors.x * spec.period)
                .deadline_hi(spec.period)
                .wcet_lo(spec.wcet_lo)
                .wcet_hi(spec.wcet_hi)
                .build()?,
            Criticality::Lo => Task::builder(spec.name.clone(), Criticality::Lo)
                .period(spec.period)
                .deadline_lo(spec.period)
                .period_hi(factors.y * spec.period)
                .deadline_hi(factors.y * spec.period)
                .wcet(spec.wcet_lo)
                .build()?,
        };
        tasks.push(task);
    }
    Ok(TaskSet::new(tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn specs() -> Vec<ImplicitTaskSpec> {
        vec![
            ImplicitTaskSpec::hi("h1", int(10), int(2), int(4)),
            ImplicitTaskSpec::hi("h2", int(20), int(2), int(6)),
            ImplicitTaskSpec::lo("l1", int(8), int(2)),
        ]
    }

    #[test]
    fn factors_validate_ranges() {
        assert!(ScalingFactors::new(Rational::new(1, 2), int(1)).is_ok());
        assert!(ScalingFactors::new(int(1), int(5)).is_ok());
        assert!(matches!(
            ScalingFactors::new(Rational::ZERO, int(1)),
            Err(ModelError::InvalidScalingFactor { which: "x" })
        ));
        assert!(matches!(
            ScalingFactors::new(Rational::new(3, 2), int(1)),
            Err(ModelError::InvalidScalingFactor { which: "x" })
        ));
        assert!(matches!(
            ScalingFactors::new(int(1), Rational::new(1, 2)),
            Err(ModelError::InvalidScalingFactor { which: "y" })
        ));
        let id = ScalingFactors::identity();
        assert_eq!(id.x(), Rational::ONE);
        assert_eq!(id.y(), Rational::ONE);
    }

    #[test]
    fn hi_tasks_follow_eq_13() {
        let factors = ScalingFactors::new(Rational::new(2, 5), int(2)).expect("valid");
        let set = scaled_task_set(&specs(), factors).expect("valid");
        let h1 = &set[0];
        assert_eq!(h1.lo().period(), int(10));
        assert_eq!(h1.lo().deadline(), int(4)); // x·T = 2/5·10
        let hi = h1.params(Mode::Hi).expect("continues");
        assert_eq!(hi.period(), int(10));
        assert_eq!(hi.deadline(), int(10));
        assert_eq!(hi.wcet(), int(4));
    }

    #[test]
    fn lo_tasks_follow_eq_14() {
        let factors = ScalingFactors::new(Rational::new(2, 5), int(3)).expect("valid");
        let set = scaled_task_set(&specs(), factors).expect("valid");
        let l1 = &set[2];
        assert_eq!(l1.lo().period(), int(8));
        assert_eq!(l1.lo().deadline(), int(8));
        let hi = l1.params(Mode::Hi).expect("continues");
        assert_eq!(hi.period(), int(24)); // y·T
        assert_eq!(hi.deadline(), int(24)); // y·D
        assert_eq!(hi.wcet(), int(2));
    }

    #[test]
    fn identity_factors_change_nothing_for_lo_tasks() {
        let set = scaled_task_set(&specs(), ScalingFactors::identity()).expect("valid");
        let l1 = &set[2];
        assert_eq!(l1.params(Mode::Hi).expect("continues"), l1.lo());
        // HI task with x = 1 has equal deadlines in both modes.
        assert_eq!(set[0].lo().deadline(), int(10));
    }

    #[test]
    fn spec_utilizations() {
        let s = &specs()[0];
        assert_eq!(s.utilization_lo(), Rational::new(1, 5));
        assert_eq!(s.utilization_hi(), Rational::new(2, 5));
        assert_eq!(s.name(), "h1");
        assert_eq!(s.criticality(), Criticality::Hi);
        assert_eq!(s.period(), int(10));
        assert_eq!(s.wcet_lo(), int(2));
        assert_eq!(s.wcet_hi(), int(4));
    }

    #[test]
    fn json_round_trip() {
        let spec = ImplicitTaskSpec::hi("h", int(10), int(2), int(4));
        let json = rbs_json::to_string(&spec);
        let back: ImplicitTaskSpec = rbs_json::from_str(&json).expect("deserialize");
        assert_eq!(back, spec);
        let f = ScalingFactors::new(Rational::new(1, 2), int(2)).expect("valid");
        let json = rbs_json::to_string(&f);
        let back: ScalingFactors = rbs_json::from_str(&json).expect("deserialize");
        assert_eq!(back, f);
    }
}
