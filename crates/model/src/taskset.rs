//! Task sets.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Index;
use std::slice;

use rbs_json::{FromJson, Json, JsonError, ToJson};
use rbs_timebase::Rational;

use crate::{Criticality, Mode, ModelError, Task};

/// An ordered collection of dual-criticality tasks scheduled together on
/// one (variable-speed) processor.
///
/// # Examples
///
/// ```
/// use rbs_model::{Criticality, Mode, Task, TaskSet};
/// use rbs_timebase::Rational;
///
/// # fn main() -> Result<(), rbs_model::ModelError> {
/// let set: TaskSet = [
///     Task::builder("hi", Criticality::Hi)
///         .period(Rational::integer(4))
///         .deadline_lo(Rational::integer(2))
///         .deadline_hi(Rational::integer(4))
///         .wcet_lo(Rational::integer(1))
///         .wcet_hi(Rational::integer(2))
///         .build()?,
///     Task::builder("lo", Criticality::Lo)
///         .period(Rational::integer(8))
///         .deadline(Rational::integer(8))
///         .wcet(Rational::integer(2))
///         .build()?,
/// ]
/// .into_iter()
/// .collect();
/// assert_eq!(set.utilization(Mode::Lo), Rational::new(1, 2));
/// assert_eq!(set.utilization_of(Criticality::Hi, Mode::Hi), Rational::new(1, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskSet {
    /// Kept contiguous at all times (see [`TaskSet::fixup`]): a deque
    /// makes removals shift only the shorter side — a churn loop evicts
    /// its oldest admissions first, turning the former whole-set
    /// memmove into an O(1) head adjustment — while every read path
    /// still sees one plain slice in declaration order.
    tasks: VecDeque<Task>,
}

impl PartialEq for TaskSet {
    fn eq(&self, other: &TaskSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TaskSet {}

/// Wire format: a bare JSON array of tasks (transparent wrapper).
impl ToJson for TaskSet {
    fn write_json(&self, out: &mut String) {
        rbs_json::write_array(out, &self.tasks);
    }
}

impl FromJson for TaskSet {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let tasks = value
            .as_array()
            .ok_or_else(|| JsonError::new("expected a task array"))?
            .iter()
            .map(Task::from_json)
            .collect::<Result<VecDeque<_>, _>>()?;
        Ok(TaskSet { tasks })
    }
}

impl TaskSet {
    /// Creates a task set from already-validated tasks.
    #[must_use]
    pub fn new(tasks: Vec<Task>) -> TaskSet {
        TaskSet {
            tasks: tasks.into(),
        }
    }

    /// An empty task set.
    #[must_use]
    pub fn empty() -> TaskSet {
        TaskSet::default()
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set contains no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over the tasks in declaration order.
    pub fn iter(&self) -> slice::Iter<'_, Task> {
        self.as_slice().iter()
    }

    /// The tasks as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Task] {
        let (head, tail) = self.tasks.as_slices();
        debug_assert!(tail.is_empty(), "task deque contiguity invariant broken");
        head
    }

    /// Restores the contiguity invariant after a mutation: a wrapped
    /// ring is rotated straight, which happens at most once per O(len)
    /// front-biased removals and so amortizes to O(1) per mutation.
    fn fixup(&mut self) {
        if !self.tasks.as_slices().1.is_empty() {
            // Linear slack first, so the next wrap is Ω(len) mutations
            // away and this rotation amortizes to O(1).
            self.tasks.reserve(self.tasks.len() + 1);
            self.tasks.make_contiguous();
        }
    }

    /// The task at `index`, if any.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&Task> {
        self.tasks.get(index)
    }

    /// Looks a task up by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&Task> {
        self.tasks.iter().find(|t| t.name() == name)
    }

    /// The declaration-order index of the task with the given name.
    #[must_use]
    pub fn position(&self, name: &str) -> Option<usize> {
        self.tasks.iter().position(|t| t.name() == name)
    }

    /// Adds a task to the set.
    pub fn push(&mut self, task: Task) {
        self.tasks.push_back(task);
        self.fixup();
    }

    /// Removes and returns the task at `index`, shifting later tasks left
    /// (declaration order of the remaining tasks is preserved).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> Task {
        let removed = self.tasks.remove(index).expect("index in bounds");
        self.fixup();
        removed
    }

    /// Replaces the task at `index` in place, returning the old task.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn replace(&mut self, index: usize, task: Task) -> Task {
        std::mem::replace(&mut self.tasks[index], task)
    }

    /// Iterates over the tasks of one criticality level (the paper's
    /// `τ_χ`).
    pub fn of_criticality(&self, criticality: Criticality) -> impl Iterator<Item = &Task> {
        self.tasks
            .iter()
            .filter(move |t| t.criticality() == criticality)
    }

    /// Total utilization `Σ C_i(mode)/T_i(mode)` over all tasks (tasks
    /// terminated in HI mode contribute zero there).
    #[must_use]
    pub fn utilization(&self, mode: Mode) -> Rational {
        self.tasks.iter().map(|t| t.utilization(mode)).sum()
    }

    /// Total utilization of one criticality level in one mode — the
    /// paper's `U_χ` quantities, e.g. `U_HI(LO) = Σ_{τ_i ∈ τ_HI}
    /// C_i(LO)/T_i(LO)`.
    #[must_use]
    pub fn utilization_of(&self, criticality: Criticality, mode: Mode) -> Rational {
        self.of_criticality(criticality)
            .map(|t| t.utilization(mode))
            .sum()
    }

    /// Sum of WCETs in the given mode, `Σ C_i(mode)` (tasks terminated in
    /// HI mode contribute zero there). This is the numerator of the
    /// closed-form resetting-time bound (eq. (16)).
    #[must_use]
    pub fn total_wcet(&self, mode: Mode) -> Rational {
        self.tasks
            .iter()
            .filter_map(|t| t.params(mode))
            .map(|p| p.wcet())
            .sum()
    }

    /// Hyperperiod in the given mode: the lcm of the periods of all tasks
    /// active in that mode. Returns `None` on `i128` overflow or when no
    /// task is active.
    #[must_use]
    pub fn hyperperiod(&self, mode: Mode) -> Option<Rational> {
        let mut acc: Option<Rational> = None;
        for task in &self.tasks {
            let Some(params) = task.params(mode) else {
                continue;
            };
            acc = Some(match acc {
                None => params.period(),
                Some(a) => a.lcm(params.period())?,
            });
        }
        acc
    }

    /// Returns a copy of the set with every LO-criticality task terminated
    /// in HI mode — the paper's eq. (3) special case, used in Fig. 7.
    ///
    /// # Errors
    ///
    /// Never fails on a well-formed set; the `Result` mirrors
    /// [`Task::terminated`].
    pub fn with_lo_terminated(&self) -> Result<TaskSet, ModelError> {
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for task in &self.tasks {
            if task.criticality() == Criticality::Lo {
                tasks.push(task.terminated()?);
            } else {
                tasks.push(task.clone());
            }
        }
        Ok(TaskSet {
            tasks: tasks.into(),
        })
    }
}

impl Index<usize> for TaskSet {
    type Output = Task;

    fn index(&self, index: usize) -> &Task {
        &self.tasks[index]
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> TaskSet {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl Extend<Task> for TaskSet {
    fn extend<I: IntoIterator<Item = Task>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

impl IntoIterator for TaskSet {
    type Item = Task;
    type IntoIter = std::collections::vec_deque::IntoIter<Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = slice::Iter<'a, Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "task set ({} tasks):", self.tasks.len())?;
        for task in &self.tasks {
            writeln!(f, "  {task}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Task;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn example_set() -> TaskSet {
        let tau1 = Task::builder("tau1", Criticality::Hi)
            .period(int(5))
            .deadline_lo(int(2))
            .deadline_hi(int(5))
            .wcet_lo(int(1))
            .wcet_hi(int(2))
            .build()
            .expect("valid");
        let tau2 = Task::builder("tau2", Criticality::Lo)
            .period(int(10))
            .deadline(int(10))
            .wcet(int(3))
            .build()
            .expect("valid");
        TaskSet::new(vec![tau1, tau2])
    }

    #[test]
    fn len_get_index_by_name() {
        let set = example_set();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set[0].name(), "tau1");
        assert_eq!(set.get(1).map(Task::name), Some("tau2"));
        assert_eq!(set.get(2), None);
        assert_eq!(set.by_name("tau2").map(Task::name), Some("tau2"));
        assert_eq!(set.by_name("nope"), None);
        assert!(TaskSet::empty().is_empty());
    }

    #[test]
    fn position_remove_replace() {
        let mut set = example_set();
        assert_eq!(set.position("tau2"), Some(1));
        assert_eq!(set.position("nope"), None);
        let swapped = Task::builder("tau3", Criticality::Lo)
            .period(int(20))
            .deadline(int(20))
            .wcet(int(5))
            .build()
            .expect("valid");
        let old = set.replace(1, swapped);
        assert_eq!(old.name(), "tau2");
        assert_eq!(set[1].name(), "tau3");
        assert_eq!(set.len(), 2);
        let removed = set.remove(0);
        assert_eq!(removed.name(), "tau1");
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].name(), "tau3");
        assert_eq!(set.position("tau3"), Some(0));
    }

    #[test]
    fn utilizations_match_hand_computation() {
        let set = example_set();
        // LO mode: 1/5 + 3/10 = 1/2.
        assert_eq!(set.utilization(Mode::Lo), Rational::new(1, 2));
        // HI mode: 2/5 + 3/10 = 7/10.
        assert_eq!(set.utilization(Mode::Hi), Rational::new(7, 10));
        assert_eq!(
            set.utilization_of(Criticality::Hi, Mode::Lo),
            Rational::new(1, 5)
        );
        assert_eq!(
            set.utilization_of(Criticality::Hi, Mode::Hi),
            Rational::new(2, 5)
        );
        assert_eq!(
            set.utilization_of(Criticality::Lo, Mode::Hi),
            Rational::new(3, 10)
        );
    }

    #[test]
    fn total_wcet_sums_active_tasks() {
        let set = example_set();
        assert_eq!(set.total_wcet(Mode::Lo), int(4));
        assert_eq!(set.total_wcet(Mode::Hi), int(5));
        let terminated = set.with_lo_terminated().expect("valid");
        assert_eq!(terminated.total_wcet(Mode::Hi), int(2));
    }

    #[test]
    fn hyperperiod_is_lcm_of_periods() {
        let set = example_set();
        assert_eq!(set.hyperperiod(Mode::Lo), Some(int(10)));
        assert_eq!(set.hyperperiod(Mode::Hi), Some(int(10)));
        assert_eq!(TaskSet::empty().hyperperiod(Mode::Lo), None);
        let terminated = set.with_lo_terminated().expect("valid");
        assert_eq!(terminated.hyperperiod(Mode::Hi), Some(int(5)));
    }

    #[test]
    fn with_lo_terminated_only_touches_lo_tasks() {
        let set = example_set().with_lo_terminated().expect("valid");
        assert!(!set[0].is_terminated_in_hi());
        assert!(set[1].is_terminated_in_hi());
        assert_eq!(
            set.utilization_of(Criticality::Lo, Mode::Hi),
            Rational::ZERO
        );
    }

    #[test]
    fn of_criticality_filters() {
        let set = example_set();
        let hi: Vec<&str> = set
            .of_criticality(Criticality::Hi)
            .map(Task::name)
            .collect();
        assert_eq!(hi, vec!["tau1"]);
        let lo: Vec<&str> = set
            .of_criticality(Criticality::Lo)
            .map(Task::name)
            .collect();
        assert_eq!(lo, vec!["tau2"]);
    }

    #[test]
    fn collect_extend_iterate() {
        let set = example_set();
        let rebuilt: TaskSet = set.iter().cloned().collect();
        assert_eq!(rebuilt, set);
        let mut grown = TaskSet::empty();
        grown.extend(set.clone());
        assert_eq!(grown, set);
        let names: Vec<&str> = (&set).into_iter().map(Task::name).collect();
        assert_eq!(names, vec!["tau1", "tau2"]);
    }

    #[test]
    fn display_lists_every_task() {
        let text = example_set().to_string();
        assert!(text.contains("2 tasks"));
        assert!(text.contains("tau1"));
        assert!(text.contains("tau2"));
    }

    #[test]
    fn json_round_trip() {
        let set = example_set();
        let json = rbs_json::to_string(&set);
        assert!(json.starts_with('['), "transparent array encoding: {json}");
        let back: TaskSet = rbs_json::from_str(&json).expect("deserialize");
        assert_eq!(back, set);
    }
}
