//! Canonical forms and content hashing for task sets.
//!
//! The admission-control service (`rbs-svc`) memoizes analysis results, so
//! it needs a *stable identity* for a task set: two submissions that
//! describe the same workload must map to the same cache key even when
//! their JSON spells rationals unreduced, lists tasks in a different order,
//! or names them differently in the same order.
//!
//! [`CanonicalTaskSet`] provides that identity:
//!
//! * rationals are already normalized by construction (`rbs-timebase`
//!   reduces and fixes the sign of every value);
//! * tasks are sorted by a total order over their *parameters* (criticality,
//!   LO triple, HI behavior, then name as the final tie-breaker), so
//!   declaration order does not matter;
//! * the canonical byte string enumerates every parameter exactly
//!   (`num/den` in decimal), so equal bytes ⇔ equal canonical sets;
//! * [`CanonicalTaskSet::content_hash`] is a 64-bit FNV-1a over those bytes
//!   for cheap shard selection and map lookup. The cache stores the full
//!   byte string alongside the hash — a hash collision can never return the
//!   wrong report.

use std::fmt;

use rbs_timebase::Rational;

use crate::{HiBehavior, Task, TaskSet};

/// A task set reduced to canonical form: parameter-sorted tasks rendered to
/// a stable byte string, plus the FNV-1a hash of those bytes.
///
/// # Examples
///
/// ```
/// use rbs_model::{canonical::CanonicalTaskSet, Criticality, Task, TaskSet};
/// use rbs_timebase::Rational;
///
/// # fn main() -> Result<(), rbs_model::ModelError> {
/// let a = Task::builder("a", Criticality::Lo)
///     .period(Rational::integer(4))
///     .deadline(Rational::integer(4))
///     .wcet(Rational::integer(1))
///     .build()?;
/// let b = Task::builder("b", Criticality::Hi)
///     .period(Rational::integer(6))
///     .deadline_lo(Rational::integer(3))
///     .deadline_hi(Rational::integer(6))
///     .wcet_lo(Rational::integer(1))
///     .wcet_hi(Rational::integer(2))
///     .build()?;
/// let forward = TaskSet::new(vec![a.clone(), b.clone()]);
/// let reversed = TaskSet::new(vec![b, a]);
/// let ca = CanonicalTaskSet::of(&forward);
/// let cb = CanonicalTaskSet::of(&reversed);
/// assert_eq!(ca, cb);
/// assert_eq!(ca.content_hash(), cb.content_hash());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalTaskSet {
    bytes: Vec<u8>,
    hash: u64,
}

impl CanonicalTaskSet {
    /// Computes the canonical form of `set`.
    #[must_use]
    pub fn of(set: &TaskSet) -> CanonicalTaskSet {
        let mut bytes = Vec::with_capacity(set.len() * 64);
        encode_tasks(set, &mut bytes);
        let hash = fnv1a64(&bytes);
        CanonicalTaskSet { bytes, hash }
    }

    /// The canonical form of a sweep request: the parameter-sorted spec
    /// list plus the grid (`x`, `ys`, `speeds`). The byte string is
    /// domain-prefixed so it can never collide with a plain task-set
    /// form, and the grid lists keep request order (a reordered `ys`
    /// produces a differently-ordered response, so it is a different
    /// cache entry). Spec order, by contrast, never affects a sweep
    /// result, so permuted spec lists canonicalize identically.
    #[must_use]
    pub fn of_sweep(
        specs: &[crate::ImplicitTaskSpec],
        x: Option<Rational>,
        ys: &[Rational],
        speeds: &[Rational],
    ) -> CanonicalTaskSet {
        let mut sorted: Vec<&crate::ImplicitTaskSpec> = specs.iter().collect();
        sorted.sort_by(|a, b| {
            let key = |s: &crate::ImplicitTaskSpec| {
                (s.criticality(), s.period(), s.wcet_lo(), s.wcet_hi())
            };
            key(a).cmp(&key(b)).then_with(|| a.name().cmp(b.name()))
        });
        let mut bytes = Vec::with_capacity(sorted.len() * 48 + 64);
        bytes.extend_from_slice(b"sweep");
        match x {
            Some(x) => encode_rational(x, &mut bytes),
            None => bytes.push(b'*'),
        }
        bytes.push(b'|');
        for &y in ys {
            encode_rational(y, &mut bytes);
        }
        bytes.push(b'|');
        for &s in speeds {
            encode_rational(s, &mut bytes);
        }
        bytes.push(b'|');
        for spec in sorted {
            bytes.push(b'S');
            bytes.extend_from_slice(spec.name().as_bytes());
            bytes.push(0);
            bytes.push(match spec.criticality() {
                crate::Criticality::Lo => b'L',
                crate::Criticality::Hi => b'H',
            });
            encode_rational(spec.period(), &mut bytes);
            encode_rational(spec.wcet_lo(), &mut bytes);
            encode_rational(spec.wcet_hi(), &mut bytes);
            bytes.push(b';');
        }
        let hash = fnv1a64(&bytes);
        CanonicalTaskSet { bytes, hash }
    }

    /// The canonical form of a partition request: the parameter-sorted
    /// task set plus an opaque `detail` blob encoding the placement spec
    /// (cores, speedup cap, heuristic, objective — rendered by the
    /// partitioning crate, which owns those types). Domain-prefixed so
    /// it can never collide with a plain task-set or sweep form; task
    /// order never affects a placement result (the partitioner sorts by
    /// utilization internally), so permuted sets canonicalize
    /// identically.
    #[must_use]
    pub fn of_partition(set: &TaskSet, detail: &[u8]) -> CanonicalTaskSet {
        let mut bytes = Vec::with_capacity(set.len() * 64 + detail.len() + 16);
        bytes.extend_from_slice(b"partition");
        bytes.extend_from_slice(detail);
        bytes.push(b'|');
        encode_tasks(set, &mut bytes);
        let hash = fnv1a64(&bytes);
        CanonicalTaskSet { bytes, hash }
    }

    /// The canonical byte string. Equal bytes ⇔ same canonical set.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// 64-bit FNV-1a hash of [`Self::bytes`]; suitable for shard selection
    /// and hash-map keys, but always confirm equality on the bytes.
    #[must_use]
    pub const fn content_hash(&self) -> u64 {
        self.hash
    }
}

impl fmt::Display for CanonicalTaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.hash)
    }
}

/// Encodes `set`'s tasks in a total order over their parameters first and
/// their names last, so that sets that differ only in declaration order
/// canonicalize identically. Each task's sort key is built once.
fn encode_tasks(set: &TaskSet, out: &mut Vec<u8>) {
    let keyed: Vec<(TaskKey<'_>, &Task)> = set.iter().map(|t| (task_key(t), t)).collect();
    let mut order: Vec<&(TaskKey<'_>, &Task)> = keyed.iter().collect();
    order.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, task) in order {
        encode_task(task, out);
    }
}

/// Criticality, the LO triple, the HI triple (`None` — terminated — sorts
/// first), then the name.
type TaskKey<'a> = (
    crate::Criticality,
    [Rational; 3],
    Option<[Rational; 3]>,
    &'a str,
);

fn task_key(t: &Task) -> TaskKey<'_> {
    let lo = t.lo();
    (
        t.criticality(),
        [lo.period(), lo.deadline(), lo.wcet()],
        t.hi_behavior()
            .params()
            .map(|p| [p.period(), p.deadline(), p.wcet()]),
        t.name(),
    )
}

fn encode_task(task: &Task, out: &mut Vec<u8>) {
    out.push(b'T');
    out.extend_from_slice(task.name().as_bytes());
    // NUL separates the (arbitrary) name from the structured fields; task
    // names come from JSON strings and cannot contain NUL... but even if one
    // did, the length-free encoding stays unambiguous because every field
    // below has a fixed arity.
    out.push(0);
    out.push(match task.criticality() {
        crate::Criticality::Lo => b'L',
        crate::Criticality::Hi => b'H',
    });
    encode_rational(task.lo().period(), out);
    encode_rational(task.lo().deadline(), out);
    encode_rational(task.lo().wcet(), out);
    match task.hi_behavior() {
        HiBehavior::Terminated => out.push(b'X'),
        HiBehavior::Continue(p) => {
            out.push(b'C');
            encode_rational(p.period(), out);
            encode_rational(p.deadline(), out);
            encode_rational(p.wcet(), out);
        }
    }
    out.push(b';');
}

fn encode_rational(r: Rational, out: &mut Vec<u8>) {
    out.push(b' ');
    r.write_canonical(out);
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Criticality;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn lo_task(name: &str, t: i128, c: i128) -> Task {
        Task::builder(name, Criticality::Lo)
            .period(int(t))
            .deadline(int(t))
            .wcet(int(c))
            .build()
            .expect("valid")
    }

    fn hi_task(name: &str, t: i128, d_lo: i128, c_lo: i128, c_hi: i128) -> Task {
        Task::builder(name, Criticality::Hi)
            .period(int(t))
            .deadline_lo(int(d_lo))
            .deadline_hi(int(t))
            .wcet_lo(int(c_lo))
            .wcet_hi(int(c_hi))
            .build()
            .expect("valid")
    }

    #[test]
    fn order_independent() {
        let a = lo_task("a", 10, 2);
        let b = hi_task("b", 6, 3, 1, 2);
        let c = lo_task("c", 4, 1);
        let forward = TaskSet::new(vec![a.clone(), b.clone(), c.clone()]);
        let shuffled = TaskSet::new(vec![c, a, b]);
        assert_eq!(
            CanonicalTaskSet::of(&forward),
            CanonicalTaskSet::of(&shuffled)
        );
    }

    #[test]
    fn parameters_matter() {
        let base = TaskSet::new(vec![lo_task("a", 10, 2)]);
        let changed = TaskSet::new(vec![lo_task("a", 10, 3)]);
        assert_ne!(CanonicalTaskSet::of(&base), CanonicalTaskSet::of(&changed));
        assert_ne!(
            CanonicalTaskSet::of(&base).content_hash(),
            CanonicalTaskSet::of(&changed).content_hash()
        );
    }

    #[test]
    fn names_matter_but_do_not_break_sorting() {
        // Same parameters, different names: distinct canonical sets, but
        // stable regardless of order.
        let s1 = TaskSet::new(vec![lo_task("x", 10, 2), lo_task("y", 10, 2)]);
        let s2 = TaskSet::new(vec![lo_task("y", 10, 2), lo_task("x", 10, 2)]);
        let s3 = TaskSet::new(vec![lo_task("x", 10, 2), lo_task("z", 10, 2)]);
        assert_eq!(CanonicalTaskSet::of(&s1), CanonicalTaskSet::of(&s2));
        assert_ne!(CanonicalTaskSet::of(&s1), CanonicalTaskSet::of(&s3));
    }

    #[test]
    fn termination_is_part_of_identity() {
        let keep = TaskSet::new(vec![lo_task("a", 10, 2)]);
        let term = TaskSet::new(vec![lo_task("a", 10, 2)
            .terminated()
            .expect("LO task terminates")]);
        assert_ne!(CanonicalTaskSet::of(&keep), CanonicalTaskSet::of(&term));
    }

    #[test]
    fn partition_domain_is_disjoint_and_order_independent() {
        let a = lo_task("a", 10, 2);
        let b = hi_task("b", 6, 3, 1, 2);
        let forward = TaskSet::new(vec![a.clone(), b.clone()]);
        let reversed = TaskSet::new(vec![b, a]);
        let detail = b"cores 4|cap 2/1|h ff|obj cap";
        assert_eq!(
            CanonicalTaskSet::of_partition(&forward, detail),
            CanonicalTaskSet::of_partition(&reversed, detail)
        );
        assert_ne!(
            CanonicalTaskSet::of_partition(&forward, detail),
            CanonicalTaskSet::of(&forward)
        );
        assert_ne!(
            CanonicalTaskSet::of_partition(&forward, detail),
            CanonicalTaskSet::of_partition(&forward, b"cores 5|cap 2/1|h ff|obj cap")
        );
    }

    #[test]
    fn display_is_the_hex_hash() {
        let set = TaskSet::new(vec![lo_task("a", 10, 2)]);
        let canon = CanonicalTaskSet::of(&set);
        assert_eq!(canon.to_string(), format!("{:016x}", canon.content_hash()));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
