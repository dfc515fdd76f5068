//! Per-mode task parameters.

use std::fmt;

use rbs_json::{FromJson, Json, JsonError, ToJson};
use rbs_timebase::Rational;

/// The sporadic-task parameters of one task in one operating mode:
/// minimum inter-arrival time `T`, relative deadline `D` and worst-case
/// execution time `C`.
///
/// # Examples
///
/// ```
/// use rbs_model::ModeParams;
/// use rbs_timebase::Rational;
///
/// let p = ModeParams::new(
///     Rational::integer(10), // T
///     Rational::integer(10), // D
///     Rational::integer(3),  // C
/// );
/// assert_eq!(p.utilization(), Rational::new(3, 10));
/// assert_eq!(p.density(), Rational::new(3, 10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModeParams {
    period: Rational,
    deadline: Rational,
    wcet: Rational,
}

impl ModeParams {
    /// Creates a parameter triple. Range validation happens when the
    /// containing [`crate::Task`] is built.
    #[must_use]
    pub const fn new(period: Rational, deadline: Rational, wcet: Rational) -> ModeParams {
        ModeParams {
            period,
            deadline,
            wcet,
        }
    }

    /// Minimum inter-arrival time `T`.
    #[must_use]
    pub const fn period(&self) -> Rational {
        self.period
    }

    /// Relative deadline `D`.
    #[must_use]
    pub const fn deadline(&self) -> Rational {
        self.deadline
    }

    /// Worst-case execution time `C`.
    #[must_use]
    pub const fn wcet(&self) -> Rational {
        self.wcet
    }

    /// Utilization `C / T`.
    #[must_use]
    pub fn utilization(&self) -> Rational {
        self.wcet / self.period
    }

    /// Density `C / min(D, T)`.
    #[must_use]
    pub fn density(&self) -> Rational {
        self.wcet / self.deadline.min(self.period)
    }

    /// Returns a copy with the deadline replaced.
    #[must_use]
    pub fn with_deadline(self, deadline: Rational) -> ModeParams {
        ModeParams { deadline, ..self }
    }

    /// Returns a copy with the period replaced.
    #[must_use]
    pub fn with_period(self, period: Rational) -> ModeParams {
        ModeParams { period, ..self }
    }

    /// Returns a copy with the WCET replaced.
    #[must_use]
    pub fn with_wcet(self, wcet: Rational) -> ModeParams {
        ModeParams { wcet, ..self }
    }
}

/// Wire format: `{"period": R, "deadline": R, "wcet": R}` with rationals as
/// `{"num", "den"}` pairs.
impl ToJson for ModeParams {
    fn write_json(&self, out: &mut String) {
        rbs_json::object(out)
            .field("period", &self.period)
            .field("deadline", &self.deadline)
            .field("wcet", &self.wcet)
            .end();
    }
}

impl FromJson for ModeParams {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ModeParams {
            period: Rational::from_json(value.field("period")?)?,
            deadline: Rational::from_json(value.field("deadline")?)?,
            wcet: Rational::from_json(value.field("wcet")?)?,
        })
    }
}

impl fmt::Display for ModeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(T={}, D={}, C={})",
            self.period, self.deadline, self.wcet
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(t: i128, d: i128, c: i128) -> ModeParams {
        ModeParams::new(
            Rational::integer(t),
            Rational::integer(d),
            Rational::integer(c),
        )
    }

    #[test]
    fn accessors_return_constructor_values() {
        let p = params(20, 15, 3);
        assert_eq!(p.period(), Rational::integer(20));
        assert_eq!(p.deadline(), Rational::integer(15));
        assert_eq!(p.wcet(), Rational::integer(3));
    }

    #[test]
    fn utilization_and_density() {
        let p = params(20, 15, 3);
        assert_eq!(p.utilization(), Rational::new(3, 20));
        assert_eq!(p.density(), Rational::new(3, 15));
        // Density uses min(D, T).
        let q = params(10, 15, 3);
        assert_eq!(q.density(), Rational::new(3, 10));
    }

    #[test]
    fn with_methods_replace_one_field() {
        let p = params(20, 15, 3);
        assert_eq!(
            p.with_deadline(Rational::integer(10)).deadline(),
            Rational::integer(10)
        );
        assert_eq!(
            p.with_period(Rational::integer(40)).period(),
            Rational::integer(40)
        );
        assert_eq!(
            p.with_wcet(Rational::integer(5)).wcet(),
            Rational::integer(5)
        );
        // Other fields untouched.
        assert_eq!(
            p.with_wcet(Rational::integer(5)).period(),
            Rational::integer(20)
        );
    }

    #[test]
    fn display_shows_all_fields() {
        assert_eq!(params(20, 15, 3).to_string(), "(T=20, D=15, C=3)");
    }

    #[test]
    fn json_round_trip() {
        let p = params(20, 15, 3);
        let json = rbs_json::to_string(&p);
        let back: ModeParams = rbs_json::from_str(&json).expect("deserialize");
        assert_eq!(back, p);
    }
}
