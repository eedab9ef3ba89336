//! Caching schedules — ordered persist/unpersist instruction lists.
//!
//! A *schedule* (paper §5) is Juggler's unit of caching decision: an ordered
//! list of datasets to persist, optionally interleaved with unpersist
//! instructions that free a cached ancestor once all of its remaining uses go
//! through its (also cached) descendant. Table 2 of the paper writes these as
//! `p(1) p(2) u(2) p(11)`.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::dataset::DatasetId;
use crate::Bytes;

/// One instruction in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScheduleOp {
    /// Cache the dataset when it is first computed.
    Persist(DatasetId),
    /// Drop the dataset's cached blocks immediately before the *next*
    /// persist in the schedule takes effect.
    Unpersist(DatasetId),
}

impl ScheduleOp {
    /// The dataset the instruction refers to.
    #[must_use]
    pub fn dataset(&self) -> DatasetId {
        match *self {
            ScheduleOp::Persist(d) | ScheduleOp::Unpersist(d) => d,
        }
    }
}

impl fmt::Display for ScheduleOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleOp::Persist(d) => write!(f, "p({})", d.0),
            ScheduleOp::Unpersist(d) => write!(f, "u({})", d.0),
        }
    }
}

/// An ordered persist/unpersist instruction list.
///
/// The empty schedule is valid and means "cache nothing" (HiBench's default
/// for Linear Regression, for instance).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schedule {
    ops: Vec<ScheduleOp>,
}

impl Schedule {
    /// The empty schedule: cache nothing.
    #[must_use]
    pub fn empty() -> Self {
        Schedule::default()
    }

    /// Builds a schedule from instructions.
    #[must_use]
    pub fn from_ops(ops: Vec<ScheduleOp>) -> Self {
        Schedule { ops }
    }

    /// A schedule that persists the given datasets, in order, without
    /// unpersists.
    #[must_use]
    pub fn persist_all<I: IntoIterator<Item = DatasetId>>(datasets: I) -> Self {
        Schedule {
            ops: datasets.into_iter().map(ScheduleOp::Persist).collect(),
        }
    }

    /// The instructions, in order.
    #[must_use]
    pub fn ops(&self) -> &[ScheduleOp] {
        &self.ops
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule caches nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All datasets the schedule persists (at any point), in persist order.
    #[must_use]
    pub fn persisted(&self) -> Vec<DatasetId> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                ScheduleOp::Persist(d) => Some(*d),
                ScheduleOp::Unpersist(_) => None,
            })
            .collect()
    }

    /// All datasets the schedule unpersists, in order.
    #[must_use]
    pub fn unpersisted(&self) -> Vec<DatasetId> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                ScheduleOp::Unpersist(d) => Some(*d),
                ScheduleOp::Persist(_) => None,
            })
            .collect()
    }

    /// The set of datasets still cached after the whole schedule has run.
    #[must_use]
    pub fn resident_at_end(&self) -> BTreeSet<DatasetId> {
        let mut live = BTreeSet::new();
        for op in &self.ops {
            match op {
                ScheduleOp::Persist(d) => {
                    live.insert(*d);
                }
                ScheduleOp::Unpersist(d) => {
                    live.remove(d);
                }
            }
        }
        live
    }

    /// Checks internal consistency: persists are unique and every unpersist
    /// refers to a dataset persisted earlier (and not yet unpersisted).
    pub fn check(&self) -> Result<(), crate::DagError> {
        let mut live = BTreeSet::new();
        let mut ever = BTreeSet::new();
        for op in &self.ops {
            match op {
                ScheduleOp::Persist(d) => {
                    if !ever.insert(*d) {
                        return Err(crate::DagError::DuplicatePersist { dataset: *d });
                    }
                    live.insert(*d);
                }
                ScheduleOp::Unpersist(d) => {
                    if !live.remove(d) {
                        return Err(crate::DagError::UnpersistWithoutPersist { dataset: *d });
                    }
                }
            }
        }
        Ok(())
    }

    /// Memory budget of the schedule (paper §5.1): the peak amount of cache
    /// the schedule occupies, assuming each `u(X)` that *immediately
    /// precedes* a `p(Y)` lets X and Y share a slot of size `max(|X|, |Y|)`
    /// — "unpersisting the first dataset decreases the SCHEDULE memory
    /// budget by the size of the smaller of the two datasets".
    ///
    /// `size_of` maps a dataset to its (predicted or measured) byte size.
    #[must_use]
    pub fn memory_budget<F: Fn(DatasetId) -> Bytes>(&self, size_of: F) -> Bytes {
        let mut total: u64 = 0;
        let mut prev_unpersist: Option<DatasetId> = None;
        for op in &self.ops {
            match op {
                ScheduleOp::Persist(d) => {
                    let mut contribution = size_of(*d);
                    if let Some(x) = prev_unpersist.take() {
                        // X's slot is reused: the pair occupies max(|X|, |Y|),
                        // and |X| was already counted when X was persisted, so
                        // subtract the smaller of the two.
                        contribution = contribution.saturating_sub(size_of(x).min(contribution));
                    }
                    total += contribution;
                }
                ScheduleOp::Unpersist(d) => prev_unpersist = Some(*d),
            }
        }
        total
    }

    /// Parses the paper's Table 2 notation — `p(1) p(2) u(2) p(11)` — back
    /// into a schedule (`-` or an empty string parse as the empty
    /// schedule). Inverse of [`Schedule::notation`]; the result is
    /// [`Schedule::check`]ed.
    pub fn parse(notation: &str) -> Result<Self, crate::DagError> {
        let trimmed = notation.trim();
        if trimmed.is_empty() || trimmed == "-" {
            return Ok(Schedule::empty());
        }
        let mut ops = Vec::new();
        for token in trimmed.split_whitespace() {
            let id = |prefix: &str| -> Option<DatasetId> {
                let digits = token.strip_prefix(prefix)?.strip_suffix(')')?;
                digits.parse().ok().map(DatasetId)
            };
            let op = match (id("p("), id("u(")) {
                (Some(d), _) => ScheduleOp::Persist(d),
                (_, Some(d)) => ScheduleOp::Unpersist(d),
                _ => {
                    return Err(crate::DagError::MalformedScheduleToken {
                        token: token.to_owned(),
                    })
                }
            };
            ops.push(op);
        }
        let schedule = Schedule::from_ops(ops);
        schedule.check()?;
        Ok(schedule)
    }

    /// Renders the schedule in the paper's Table 2 notation,
    /// e.g. `p(1) p(2) u(2) p(11)`. The empty schedule renders as `-`.
    #[must_use]
    pub fn notation(&self) -> String {
        if self.ops.is_empty() {
            return "-".to_owned();
        }
        let parts: Vec<String> = self.ops.iter().map(ToString::to_string).collect();
        parts.join(" ")
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DatasetId {
        DatasetId(i)
    }

    #[test]
    fn notation_matches_paper_table2() {
        let s = Schedule::from_ops(vec![
            ScheduleOp::Persist(d(1)),
            ScheduleOp::Persist(d(2)),
            ScheduleOp::Unpersist(d(2)),
            ScheduleOp::Persist(d(11)),
        ]);
        assert_eq!(s.notation(), "p(1) p(2) u(2) p(11)");
        assert_eq!(Schedule::empty().notation(), "-");
    }

    #[test]
    fn check_accepts_wellformed() {
        let s = Schedule::from_ops(vec![
            ScheduleOp::Persist(d(1)),
            ScheduleOp::Unpersist(d(1)),
            ScheduleOp::Persist(d(2)),
        ]);
        assert!(s.check().is_ok());
        assert_eq!(
            s.resident_at_end().into_iter().collect::<Vec<_>>(),
            vec![d(2)]
        );
    }

    #[test]
    fn check_rejects_double_persist() {
        let s = Schedule::from_ops(vec![ScheduleOp::Persist(d(1)), ScheduleOp::Persist(d(1))]);
        assert!(matches!(
            s.check(),
            Err(crate::DagError::DuplicatePersist { dataset }) if dataset == d(1)
        ));
    }

    #[test]
    fn check_rejects_dangling_unpersist() {
        let s = Schedule::from_ops(vec![ScheduleOp::Unpersist(d(3))]);
        assert!(matches!(
            s.check(),
            Err(crate::DagError::UnpersistWithoutPersist { dataset }) if dataset == d(3)
        ));
        // Unpersisting twice is also dangling the second time.
        let s = Schedule::from_ops(vec![
            ScheduleOp::Persist(d(3)),
            ScheduleOp::Unpersist(d(3)),
            ScheduleOp::Unpersist(d(3)),
        ]);
        assert!(s.check().is_err());
    }

    #[test]
    fn memory_budget_without_unpersist_is_sum() {
        let s = Schedule::persist_all([d(0), d(1)]);
        let size = |x: DatasetId| if x == d(0) { 100 } else { 40 };
        assert_eq!(s.memory_budget(size), 140);
    }

    /// The paper's LOR example: schedule 3 = p(1) p(2) u(2) p(11) with sizes
    /// |D1| = 76.347 MB, |D2| = 45.961 MB, |D11| = 45.975 MB has budget
    /// |D1| + max(|D2|, |D11|) = 122.322 MB.
    #[test]
    fn memory_budget_with_unpersist_matches_paper_example() {
        let s = Schedule::from_ops(vec![
            ScheduleOp::Persist(d(1)),
            ScheduleOp::Persist(d(2)),
            ScheduleOp::Unpersist(d(2)),
            ScheduleOp::Persist(d(11)),
        ]);
        let size = |x: DatasetId| match x.0 {
            1 => 76_347,
            2 => 45_961,
            11 => 45_975,
            _ => unreachable!(),
        };
        assert_eq!(s.memory_budget(size), 76_347 + 45_975);
    }

    #[test]
    fn memory_budget_chained_unpersists() {
        // PCA-style: p(1) u(1) p(2) u(2) p(13) — each pair shares a slot.
        let s = Schedule::from_ops(vec![
            ScheduleOp::Persist(d(1)),
            ScheduleOp::Unpersist(d(1)),
            ScheduleOp::Persist(d(2)),
            ScheduleOp::Unpersist(d(2)),
            ScheduleOp::Persist(d(13)),
        ]);
        let size = |x: DatasetId| match x.0 {
            1 => 100,
            2 => 80,
            13 => 120,
            _ => unreachable!(),
        };
        // 100 + (80 - 80) + (120 - 80)  = peak while 13 replaces 2 = 140?
        // Walk: p(1): total=100. u(1) p(2): 2 contributes 80-min(100,80)=0.
        // u(2) p(13): 13 contributes 120-min(80,120)=40. Total 140.
        assert_eq!(s.memory_budget(size), 140);
    }

    #[test]
    fn parse_roundtrips_notation() {
        for text in [
            "p(2)",
            "p(1) p(2) u(2) p(11)",
            "p(1) u(1) p(2) u(2) p(13)",
            "-",
        ] {
            let s = Schedule::parse(text).unwrap();
            assert_eq!(s.notation(), text);
        }
        assert_eq!(Schedule::parse("  ").unwrap(), Schedule::empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        for (text, token) in [
            ("x", "x"),
            ("p()", "p()"),
            ("p(1", "p(1"),
            ("p(-1)", "p(-1)"),
            ("s(1,2)", "s(1,2)"),
            ("persist(1)", "persist(1)"),
            ("p(x)", "p(x)"),
            ("p(1) q(2)", "q(2)"),
            ("é", "é"),
        ] {
            assert_eq!(
                Schedule::parse(text),
                Err(crate::DagError::MalformedScheduleToken {
                    token: token.to_owned()
                }),
                "{text}"
            );
        }
        assert_eq!(
            crate::DagError::MalformedScheduleToken {
                token: "x".to_owned()
            }
            .to_string(),
            "malformed schedule token `x` (expected p(N) or u(N))"
        );
        assert!(
            Schedule::parse("u(1)").is_err(),
            "dangling unpersist fails check()"
        );
        assert!(Schedule::parse("p(1) p(1)").is_err(), "duplicate persist");
    }

    #[test]
    fn unpersisted_and_persisted_listings() {
        let s = Schedule::from_ops(vec![
            ScheduleOp::Persist(d(5)),
            ScheduleOp::Unpersist(d(5)),
            ScheduleOp::Persist(d(7)),
        ]);
        assert_eq!(s.persisted(), vec![d(5), d(7)]);
        assert_eq!(s.unpersisted(), vec![d(5)]);
    }
}
