//! Wire forms for the service's `partition` request kind.
//!
//! A request names the task set plus the platform/heuristic/objective
//! spec; the response is the full [`PartitionOutcome`]: the per-core
//! assignment with each core's exact `s_min`, the first unplaced task
//! on a shed, and the run's probe/screen counters.
//!
//! ```json
//! {"partition": {"tasks": [...], "cores": 4,
//!                "max_speedup": {"num": 2, "den": 1},
//!                "heuristic": "worst_fit",
//!                "objective": {"shared_budget": {"num": 5, "den": 1}}}}
//! ```

use rbs_core::speedup::SpeedupBound;
use rbs_json::{FromJson, Json, JsonError, ToJson};
use rbs_model::{Task, TaskSet};
use rbs_timebase::Rational;

use crate::{Heuristic, Objective, PartitionOutcome, PartitionSpec, PlatformCap};

/// One `partition` request: the set to place and the placement spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionRequest {
    /// The tasks to place.
    pub set: TaskSet,
    /// Platform, heuristic and objective.
    pub spec: PartitionSpec,
}

impl FromJson for PartitionRequest {
    fn from_json(value: &Json) -> Result<PartitionRequest, JsonError> {
        let set = TaskSet::from_json(value.field("tasks")?)?;
        let cores = value
            .field("cores")?
            .as_i128()
            .filter(|&n| n >= 1)
            .ok_or_else(|| JsonError::new("partition requires \"cores\" >= 1"))?;
        let cores = usize::try_from(cores)
            .map_err(|_| JsonError::new("partition \"cores\" out of range"))?;
        let max_speedup = Rational::from_json(value.field("max_speedup")?)?;
        if !max_speedup.is_positive() {
            return Err(JsonError::new("partition \"max_speedup\" must be positive"));
        }
        let heuristic = match value.get("heuristic") {
            None => Heuristic::FirstFit,
            Some(tag) => match tag.as_str() {
                Some("first_fit") => Heuristic::FirstFit,
                Some("best_fit") => Heuristic::BestFit,
                Some("worst_fit") => Heuristic::WorstFit,
                _ => {
                    return Err(JsonError::new(
                        "partition \"heuristic\" must be \"first_fit\", \"best_fit\" or \"worst_fit\"",
                    ));
                }
            },
        };
        let objective = match value.get("objective") {
            None => Objective::CapOnly,
            Some(tag) => objective_from_json(tag)?,
        };
        let mut names: Vec<&str> = set.iter().map(Task::name).collect();
        names.sort_unstable();
        if names.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(JsonError::new("partition requires unique task names"));
        }
        let spec = PartitionSpec::new(PlatformCap::new(cores, max_speedup), heuristic)
            .with_objective(objective);
        Ok(PartitionRequest { set, spec })
    }
}

fn objective_from_json(value: &Json) -> Result<Objective, JsonError> {
    match value {
        Json::Str(tag) if tag == "cap_only" => Ok(Objective::CapOnly),
        Json::Str(tag) if tag == "min_max_speedup" => Ok(Objective::MinMaxSpeedup),
        Json::Object(fields) if fields.len() == 1 && fields[0].0 == "shared_budget" => {
            let budget = Rational::from_json(&fields[0].1)?;
            if !budget.is_positive() {
                return Err(JsonError::new("partition shared budget must be positive"));
            }
            Ok(Objective::SharedBudget(budget))
        }
        _ => Err(JsonError::new(
            "partition \"objective\" must be \"cap_only\", \"min_max_speedup\" or {\"shared_budget\": rational}",
        )),
    }
}

impl PartitionSpec {
    /// Deterministic byte encoding of the spec for canonical-form cache
    /// keying; the task set itself is canonicalized separately, so two
    /// requests differing only in task order share a key.
    #[must_use]
    pub fn canonical_detail(&self) -> Vec<u8> {
        let cap = self.cap();
        let mut detail = Vec::with_capacity(64);
        detail.extend_from_slice(b"cores ");
        let mut digits = [0; rbs_json::DECIMAL_LEN];
        detail.extend_from_slice(rbs_json::decimal(cap.cores() as i128, &mut digits));
        detail.extend_from_slice(b"|cap ");
        cap.max_speedup().write_canonical(&mut detail);
        detail.extend_from_slice(b"|h ");
        detail.extend_from_slice(match self.heuristic() {
            Heuristic::FirstFit => b"ff".as_slice(),
            Heuristic::BestFit => b"bf".as_slice(),
            Heuristic::WorstFit => b"wf".as_slice(),
        });
        detail.extend_from_slice(b"|obj ");
        match self.objective() {
            Objective::CapOnly => detail.extend_from_slice(b"cap"),
            Objective::MinMaxSpeedup => detail.extend_from_slice(b"minmax"),
            Objective::SharedBudget(budget) => {
                detail.extend_from_slice(b"budget ");
                budget.write_canonical(&mut detail);
            }
        }
        detail
    }
}

impl ToJson for PartitionOutcome {
    fn write_json(&self, out: &mut String) {
        let mut object = rbs_json::object(out);
        object.field("fits", &self.is_fit());
        if let Some(partition) = self.partition() {
            object.field_with("cores", |out| {
                let cores = partition.cores().iter().zip(partition.core_speedups());
                rbs_json::write_array(out, cores.map(|(core, s_min)| CoreJson { core, s_min }));
            });
            object.field("max_s_min", &partition.max_core_speedup());
        }
        if let Some(name) = self.unplaced() {
            object.field("unplaced", name);
        }
        object
            .field("probes", &self.probes())
            .field("screened", &self.screened())
            .end();
    }
}

/// One core of a placement: its task names and its exact `s_min`.
struct CoreJson<'a> {
    core: &'a TaskSet,
    s_min: &'a SpeedupBound,
}

impl ToJson for CoreJson<'_> {
    fn write_json(&self, out: &mut String) {
        rbs_json::object(out)
            .field_with("tasks", |out| {
                rbs_json::write_array(out, self.core.iter().map(Task::name));
            })
            .field("s_min", self.s_min)
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rbs_model::Criticality;

    fn request_json(extra: &[(&str, Json)]) -> Json {
        let task = Task::builder("a", Criticality::Lo)
            .period(Rational::integer(10))
            .deadline(Rational::integer(10))
            .wcet(Rational::TWO)
            .build()
            .expect("valid");
        let set = TaskSet::new(vec![task]);
        let mut fields = vec![
            ("tasks".to_owned(), set.to_json()),
            ("cores".to_owned(), Json::Int(2)),
            ("max_speedup".to_owned(), Rational::TWO.to_json()),
        ];
        for (key, value) in extra {
            fields.push(((*key).to_owned(), value.clone()));
        }
        Json::Object(fields)
    }

    #[test]
    fn defaults_are_first_fit_cap_only() {
        let request = PartitionRequest::from_json(&request_json(&[])).expect("parses");
        assert_eq!(request.spec.heuristic(), Heuristic::FirstFit);
        assert_eq!(request.spec.objective(), Objective::CapOnly);
        assert_eq!(request.spec.cap().cores(), 2);
    }

    #[test]
    fn explicit_heuristic_and_objective_parse() {
        let request = PartitionRequest::from_json(&request_json(&[
            ("heuristic", Json::Str("worst_fit".to_owned())),
            (
                "objective",
                Json::Object(vec![(
                    "shared_budget".to_owned(),
                    Rational::new(5, 2).to_json(),
                )]),
            ),
        ]))
        .expect("parses");
        assert_eq!(request.spec.heuristic(), Heuristic::WorstFit);
        assert_eq!(
            request.spec.objective(),
            Objective::SharedBudget(Rational::new(5, 2))
        );
    }

    #[test]
    fn bad_fields_are_rejected() {
        for extra in [
            ("heuristic", Json::Str("next_fit".to_owned())),
            ("objective", Json::Str("cheapest".to_owned())),
            (
                "objective",
                Json::Object(vec![("shared_budget".to_owned(), Rational::ZERO.to_json())]),
            ),
        ] {
            assert!(PartitionRequest::from_json(&request_json(&[extra])).is_err());
        }
    }

    #[test]
    fn canonical_detail_distinguishes_specs() {
        let base = PartitionSpec::new(PlatformCap::new(4, Rational::TWO), Heuristic::FirstFit);
        let mut seen = std::collections::HashSet::new();
        for spec in [
            base,
            base.with_objective(Objective::MinMaxSpeedup),
            base.with_objective(Objective::SharedBudget(Rational::new(7, 2))),
            PartitionSpec::new(PlatformCap::new(5, Rational::TWO), Heuristic::FirstFit),
            PartitionSpec::new(
                PlatformCap::new(4, Rational::new(3, 2)),
                Heuristic::FirstFit,
            ),
            PartitionSpec::new(PlatformCap::new(4, Rational::TWO), Heuristic::BestFit),
        ] {
            assert!(
                seen.insert(spec.canonical_detail()),
                "collision for {spec:?}"
            );
        }
    }
}
