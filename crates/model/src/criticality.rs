//! Criticality levels and operating modes.

use std::fmt;

use rbs_json::{FromJson, Json, JsonError, ToJson};

/// The safety-criticality level of a task.
///
/// The model is dual-criticality: `LO < HI`. The ordering is meaningful
/// (`Criticality::Lo < Criticality::Hi`) and used e.g. when sorting tasks
/// for display.
///
/// # Examples
///
/// ```
/// use rbs_model::Criticality;
///
/// assert!(Criticality::Lo < Criticality::Hi);
/// assert_eq!(Criticality::Hi.to_string(), "HI");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Criticality {
    /// Low criticality (e.g. DO-178B level C).
    #[default]
    Lo,
    /// High criticality (e.g. DO-178B level B).
    Hi,
}

impl Criticality {
    /// Both criticality levels, lowest first.
    pub const ALL: [Criticality; 2] = [Criticality::Lo, Criticality::Hi];
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Criticality::Lo => f.write_str("LO"),
            Criticality::Hi => f.write_str("HI"),
        }
    }
}

/// The operating mode of the system.
///
/// The system starts in [`Mode::Lo`]; it transitions to [`Mode::Hi`] when
/// any HI-criticality job executes beyond its LO-mode WCET, and returns to
/// [`Mode::Lo`] at the first processor idle instant.
///
/// # Examples
///
/// ```
/// use rbs_model::Mode;
///
/// assert_eq!(Mode::Lo.to_string(), "LO");
/// assert_ne!(Mode::Lo, Mode::Hi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Mode {
    /// Normal operation: no job has overrun its LO-mode WCET.
    #[default]
    Lo,
    /// Critical operation: some HI job overran; the processor may be sped
    /// up and LO-task service may be degraded or terminated.
    Hi,
}

impl Mode {
    /// Both modes, normal mode first.
    pub const ALL: [Mode; 2] = [Mode::Lo, Mode::Hi];
}

/// Wire format: the variant name as a string (`"Lo"` / `"Hi"`).
impl ToJson for Criticality {
    fn write_json(&self, out: &mut String) {
        out.push_str(match self {
            Criticality::Lo => "\"Lo\"",
            Criticality::Hi => "\"Hi\"",
        });
    }
}

impl FromJson for Criticality {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("Lo") => Ok(Criticality::Lo),
            Some("Hi") => Ok(Criticality::Hi),
            _ => Err(JsonError::new("expected criticality `\"Lo\"` or `\"Hi\"`")),
        }
    }
}

/// Wire format: the variant name as a string (`"Lo"` / `"Hi"`).
impl ToJson for Mode {
    fn write_json(&self, out: &mut String) {
        out.push_str(match self {
            Mode::Lo => "\"Lo\"",
            Mode::Hi => "\"Hi\"",
        });
    }
}

impl FromJson for Mode {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("Lo") => Ok(Mode::Lo),
            Some("Hi") => Ok(Mode::Hi),
            _ => Err(JsonError::new("expected mode `\"Lo\"` or `\"Hi\"`")),
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Lo => f.write_str("LO"),
            Mode::Hi => f.write_str("HI"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criticality_orders_lo_below_hi() {
        assert!(Criticality::Lo < Criticality::Hi);
        assert_eq!(Criticality::ALL, [Criticality::Lo, Criticality::Hi]);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Criticality::Lo.to_string(), "LO");
        assert_eq!(Criticality::Hi.to_string(), "HI");
        assert_eq!(Mode::Lo.to_string(), "LO");
        assert_eq!(Mode::Hi.to_string(), "HI");
    }

    #[test]
    fn defaults_are_the_normal_levels() {
        assert_eq!(Criticality::default(), Criticality::Lo);
        assert_eq!(Mode::default(), Mode::Lo);
    }

    #[test]
    fn json_round_trip() {
        for c in Criticality::ALL {
            let json = rbs_json::to_string(&c);
            let back: Criticality = rbs_json::from_str(&json).expect("deserialize");
            assert_eq!(back, c);
        }
        assert_eq!(rbs_json::to_string(&Criticality::Hi), "\"Hi\"");
        for m in Mode::ALL {
            let json = rbs_json::to_string(&m);
            let back: Mode = rbs_json::from_str(&json).expect("deserialize");
            assert_eq!(back, m);
        }
    }
}
