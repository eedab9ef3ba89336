//! Pluggable runtime cache-eviction policies.
//!
//! The paper's §1 applies LRU, LRC [Yu et al.] and MRD [Perez et al.] to
//! the SVM experiments "and do not realize any performance improvement
//! because SVM contains a single developer-cached dataset". This module
//! makes the block store's victim selection pluggable so that claim is
//! reproducible (see the `intro_eviction_policies` bench).
//!
//! * **LRU** — Spark's default: evict the least-recently-used block.
//! * **FIFO** — evict the oldest-inserted block (a sanity baseline).
//! * **LRC** — least reference count: evict the block of the dataset with
//!   the fewest *remaining* references in the job sequence.
//! * **MRD** — most reference distance: evict the block of the dataset
//!   whose next use is farthest in the future.
//!
//! LRC and MRD are DAG-aware: they need per-dataset hints (remaining
//! references, next-use distance) that the engine refreshes at every job
//! boundary from the lineage analysis.

use serde::{Deserialize, Serialize};

/// Which victim-selection rule the block store uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EvictionPolicyKind {
    /// Least recently used (Spark's default).
    #[default]
    Lru,
    /// First in, first out.
    Fifo,
    /// Least (remaining) reference count, ties broken by LRU.
    Lrc,
    /// Most reference distance (farthest next use), ties broken by LRU.
    Mrd,
}

impl EvictionPolicyKind {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicyKind::Lru => "LRU",
            EvictionPolicyKind::Fifo => "FIFO",
            EvictionPolicyKind::Lrc => "LRC",
            EvictionPolicyKind::Mrd => "MRD",
        }
    }

    /// All policies, for comparison sweeps.
    #[must_use]
    pub fn all() -> [EvictionPolicyKind; 4] {
        [
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Fifo,
            EvictionPolicyKind::Lrc,
            EvictionPolicyKind::Mrd,
        ]
    }

    /// Packed sort key of one resident block under the policy: the victim
    /// is the block with the smallest key. LRU's key is `last_access` and
    /// FIFO's `inserted`, both below 2^64. LRC's is `(remaining_refs << 64)
    /// | last_access` and MRD's `((u32::MAX - next_use_distance) << 64) |
    /// last_access`, so the farthest next use sorts first and ties fall to
    /// LRU. `hints` is called only by LRC and MRD, so an LRU or FIFO scan
    /// never loads a hint.
    ///
    /// The slice oracle also breaks ties by dataset id; the key can drop
    /// that because it never decides. Every read and insert ticks the
    /// store's clock and gives the new stamp to at most one block, so no
    /// two resident blocks share a `last_access` or an `inserted` stamp,
    /// and every key carries one of those stamps in its low 64 bits.
    #[inline]
    #[must_use]
    pub fn victim_key(
        self,
        last_access: u64,
        inserted: u64,
        hints: impl FnOnce() -> DatasetHints,
    ) -> u128 {
        let (primary, stamp) = match self {
            EvictionPolicyKind::Lru => (0, last_access),
            EvictionPolicyKind::Fifo => (0, inserted),
            EvictionPolicyKind::Lrc => (hints().remaining_refs, last_access),
            EvictionPolicyKind::Mrd => {
                (u64::from(u32::MAX - hints().next_use_distance), last_access)
            }
        };
        (u128::from(primary) << 64) | u128::from(stamp)
    }
}

/// Per-dataset scheduling hints for the DAG-aware policies, refreshed by
/// the engine at job boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DatasetHints {
    /// How many future jobs still reference the dataset.
    pub remaining_refs: u64,
    /// Distance (in jobs) to the next reference; `u32::MAX` if never used
    /// again.
    pub next_use_distance: u32,
}

/// The slice-based selection [`EvictionPolicyKind::victim_key`] replaced,
/// kept as the oracle the block store's single pass is tested against: it
/// copies every candidate into a slice, then scans it with one
/// `min_by_key`/`max_by_key` per policy.
#[cfg(test)]
pub(crate) mod slice_oracle {
    use dagflow::DatasetId;

    use super::*;

    /// Everything victim selection may look at for one candidate block.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct VictimCandidate {
        pub(crate) dataset: DatasetId,
        /// LRU stamp (larger = more recent).
        pub(crate) last_access: u64,
        /// Insertion stamp (larger = newer).
        pub(crate) inserted: u64,
        pub(crate) hints: DatasetHints,
    }

    /// Index of the candidate to evict under `kind`, or `None` if there
    /// are no candidates.
    pub(crate) fn select_victim(
        kind: EvictionPolicyKind,
        candidates: &[VictimCandidate],
    ) -> Option<usize> {
        let it = candidates.iter().enumerate();
        match kind {
            EvictionPolicyKind::Lru => it.min_by_key(|(_, c)| (c.last_access, c.dataset)),
            EvictionPolicyKind::Fifo => it.min_by_key(|(_, c)| (c.inserted, c.dataset)),
            EvictionPolicyKind::Lrc => {
                it.min_by_key(|(_, c)| (c.hints.remaining_refs, c.last_access, c.dataset))
            }
            EvictionPolicyKind::Mrd => it.max_by_key(|(_, c)| {
                (
                    c.hints.next_use_distance,
                    u64::MAX - c.last_access,
                    c.dataset,
                )
            }),
        }
        .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use dagflow::DatasetId;

    use super::slice_oracle::{select_victim, VictimCandidate};
    use super::*;

    fn cand(
        dataset: u32,
        last_access: u64,
        inserted: u64,
        refs: u64,
        dist: u32,
    ) -> VictimCandidate {
        VictimCandidate {
            dataset: DatasetId(dataset),
            last_access,
            inserted,
            hints: DatasetHints {
                remaining_refs: refs,
                next_use_distance: dist,
            },
        }
    }

    /// The candidate with the smallest `victim_key`, cross-checked
    /// against the slice oracle.
    fn pick(kind: EvictionPolicyKind, c: &[VictimCandidate]) -> Option<usize> {
        let got = c
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| kind.victim_key(c.last_access, c.inserted, || c.hints))
            .map(|(i, _)| i);
        assert_eq!(got, select_victim(kind, c), "{kind:?}");
        got
    }

    #[test]
    fn lru_picks_oldest_access() {
        let c = [
            cand(0, 5, 1, 9, 1),
            cand(1, 2, 9, 9, 1),
            cand(2, 8, 2, 9, 1),
        ];
        assert_eq!(pick(EvictionPolicyKind::Lru, &c), Some(1));
    }

    #[test]
    fn fifo_picks_oldest_insert() {
        let c = [
            cand(0, 5, 3, 9, 1),
            cand(1, 2, 9, 9, 1),
            cand(2, 8, 1, 9, 1),
        ];
        assert_eq!(pick(EvictionPolicyKind::Fifo, &c), Some(2));
    }

    #[test]
    fn lrc_picks_fewest_remaining_refs() {
        let c = [
            cand(0, 5, 1, 3, 1),
            cand(1, 2, 2, 1, 1),
            cand(2, 8, 3, 7, 1),
        ];
        assert_eq!(pick(EvictionPolicyKind::Lrc, &c), Some(1));
    }

    #[test]
    fn lrc_ties_break_by_lru() {
        let c = [cand(0, 5, 1, 2, 1), cand(1, 2, 2, 2, 1)];
        assert_eq!(pick(EvictionPolicyKind::Lrc, &c), Some(1));
    }

    #[test]
    fn mrd_picks_farthest_next_use() {
        let c = [
            cand(0, 5, 1, 9, 2),
            cand(1, 2, 2, 9, 40),
            cand(2, 8, 3, 9, 7),
        ];
        assert_eq!(pick(EvictionPolicyKind::Mrd, &c), Some(1));
    }

    #[test]
    fn mrd_ties_break_by_lru_and_never_used_sorts_first() {
        let c = [
            cand(0, 5, 1, 9, 7),
            cand(1, 3, 2, 9, u32::MAX),
            cand(2, 2, 3, 9, u32::MAX),
        ];
        assert_eq!(pick(EvictionPolicyKind::Mrd, &c), Some(2));
    }

    #[test]
    fn empty_candidates_yield_none() {
        for kind in EvictionPolicyKind::all() {
            assert_eq!(pick(kind, &[]), None);
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            EvictionPolicyKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
