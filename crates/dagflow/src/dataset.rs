//! Datasets (Spark RDDs) and their ground-truth annotations.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::DagError;
use crate::name::Name;
use crate::ops::OpKind;
use crate::{Bytes, Seconds};

/// Identifier of a dataset within an application. Ids are dense indices into
/// [`crate::Application::datasets`], and a dataset's parents always carry
/// strictly smaller ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DatasetId(pub u32);

impl DatasetId {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Ground-truth cost of computing one partition of a dataset from its
/// parents, used by the simulator. All coefficients are per *task*
/// (per-partition): the simulator multiplies `per_record` by the partition's
/// record count and `per_input_byte` by the partition's input bytes.
///
/// These are the quantities Juggler never gets to see directly — it observes
/// them only through the instrumentation of §4 and reconstructs
/// per-transformation times with the §3.3 model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeCost {
    /// Fixed per-task setup time, seconds.
    pub fixed_s: Seconds,
    /// Seconds per output record processed.
    pub per_record_s: Seconds,
    /// Seconds per input byte consumed (scan/deserialization cost).
    pub per_input_byte_s: Seconds,
}

impl ComputeCost {
    /// A zero-cost annotation (useful for pass-through profiling operators).
    pub const FREE: ComputeCost = ComputeCost {
        fixed_s: 0.0,
        per_record_s: 0.0,
        per_input_byte_s: 0.0,
    };

    /// Convenience constructor.
    #[must_use]
    pub fn new(fixed_s: Seconds, per_record_s: Seconds, per_input_byte_s: Seconds) -> Self {
        ComputeCost {
            fixed_s,
            per_record_s,
            per_input_byte_s,
        }
    }

    /// Time to compute one partition holding `records` output records from
    /// `input_bytes` of parent data.
    #[must_use]
    pub fn task_seconds(&self, records: f64, input_bytes: f64) -> Seconds {
        self.fixed_s + self.per_record_s * records + self.per_input_byte_s * input_bytes
    }

    /// Whether every coefficient is finite and non-negative.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        // `0 <= c < inf` is false for NaN: finite and non-negative.
        let valid = |c: f64| (0.0..f64::INFINITY).contains(&c);
        valid(self.fixed_s) && valid(self.per_record_s) && valid(self.per_input_byte_s)
    }
}

/// A dataset's parent list. Nearly every operator reads one or two
/// inputs, so up to two ids live inline and only a longer list (a
/// union, a star join) goes to the heap: an application of thousands of
/// datasets allocates nothing for its edges. Derefs to `[DatasetId]`; its
/// JSON is the array of ids.
#[derive(Clone, PartialEq, Eq)]
pub struct Parents(Repr);

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// The first `len` ids of `ids`; the rest are unused.
    Inline {
        len: u8,
        ids: [DatasetId; 2],
    },
    Heap(Vec<DatasetId>),
}

impl Parents {
    /// Appends one parent, moving the list to the heap when it outgrows
    /// the inline pair.
    fn push(&mut self, id: DatasetId) {
        match &mut self.0 {
            Repr::Inline { len, ids } if usize::from(*len) < ids.len() => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            Repr::Inline { ids, .. } => {
                let mut heap = ids.to_vec();
                heap.push(id);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(v) => v.push(id),
        }
    }
}

impl Default for Parents {
    fn default() -> Self {
        Parents(Repr::Inline {
            len: 0,
            ids: [DatasetId(0); 2],
        })
    }
}

impl std::ops::Deref for Parents {
    type Target = [DatasetId];

    fn deref(&self) -> &[DatasetId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a Parents {
    type Item = &'a DatasetId;
    type IntoIter = std::slice::Iter<'a, DatasetId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Extend<DatasetId> for Parents {
    fn extend<I: IntoIterator<Item = DatasetId>>(&mut self, iter: I) {
        for id in iter {
            self.push(id);
        }
    }
}

impl FromIterator<DatasetId> for Parents {
    fn from_iter<I: IntoIterator<Item = DatasetId>>(iter: I) -> Self {
        let mut parents = Parents::default();
        parents.extend(iter);
        parents
    }
}

impl From<&[DatasetId]> for Parents {
    fn from(ids: &[DatasetId]) -> Self {
        // Unused inline slots hold `DatasetId(0)`, as `push` leaves them.
        let unused = DatasetId(0);
        Parents(match *ids {
            [] => Repr::Inline {
                len: 0,
                ids: [unused; 2],
            },
            [a] => Repr::Inline {
                len: 1,
                ids: [a, unused],
            },
            [a, b] => Repr::Inline {
                len: 2,
                ids: [a, b],
            },
            _ => Repr::Heap(ids.to_vec()),
        })
    }
}

impl PartialEq<Vec<DatasetId>> for Parents {
    fn eq(&self, other: &Vec<DatasetId>) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Parents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Parents {
    fn write_json(&self, w: &mut serde::JsonWriter) {
        (**self).write_json(w);
    }
}

impl Deserialize for Parents {
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::DeError> {
        r.seq("Parents")
    }
}

/// A dataset node in the application's lineage graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Dense identifier; equals the dataset's index in the application.
    pub id: DatasetId,
    /// Human-readable name (`"points"`, `"gradient[3]"`, …).
    pub name: Name,
    /// Operator producing this dataset.
    pub op: OpKind,
    /// Producing operator's inputs; empty iff `op` is a source.
    pub parents: Parents,
    /// Total record count across partitions (ground truth).
    pub records: u64,
    /// Total size in bytes across partitions (ground truth; what Spark would
    /// report as the in-memory size when cached).
    pub bytes: Bytes,
    /// Number of partitions, i.e. tasks per computing stage.
    pub partitions: u32,
    /// Ground-truth compute cost of the producing operator.
    pub compute: ComputeCost,
}

/// What sizing a lineage sets for one dataset: everything of a
/// [`Dataset`] that may differ between the points of a training grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Total record count.
    pub records: u64,
    /// Total size in bytes.
    pub bytes: Bytes,
    /// Number of partitions.
    pub partitions: u32,
    /// Compute cost of the producing operator.
    pub compute: ComputeCost,
}

impl Dataset {
    /// This dataset's sizes.
    #[must_use]
    pub fn sizes(&self) -> Sizes {
        Sizes {
            records: self.records,
            bytes: self.bytes,
            partitions: self.partitions,
            compute: self.compute,
        }
    }

    /// Checks what sizing can break: at least one partition and a valid
    /// compute cost.
    pub(crate) fn check_sizes(&self) -> Result<(), DagError> {
        if self.partitions == 0 {
            return Err(DagError::InvalidAnnotation {
                dataset: self.id,
                detail: "partitions must be >= 1".into(),
            });
        }
        if !self.compute.is_valid() {
            return Err(DagError::InvalidAnnotation {
                dataset: self.id,
                detail: "compute cost coefficients must be finite and >= 0".into(),
            });
        }
        Ok(())
    }

    /// Average partition size in bytes.
    #[must_use]
    pub fn partition_bytes(&self) -> f64 {
        self.bytes as f64 / f64::from(self.partitions.max(1))
    }

    /// Average records per partition.
    #[must_use]
    pub fn partition_records(&self) -> f64 {
        self.records as f64 / f64::from(self.partitions.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{NarrowKind, OpKind};

    #[test]
    fn compute_cost_task_seconds() {
        let c = ComputeCost::new(0.5, 1e-6, 1e-9);
        let t = c.task_seconds(1_000_000.0, 1_000_000_000.0);
        assert!((t - (0.5 + 1.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn compute_cost_validity() {
        assert!(ComputeCost::FREE.is_valid());
        assert!(!ComputeCost::new(-1.0, 0.0, 0.0).is_valid());
        assert!(!ComputeCost::new(f64::NAN, 0.0, 0.0).is_valid());
        assert!(!ComputeCost::new(0.0, f64::INFINITY, 0.0).is_valid());
    }

    #[test]
    fn partition_means_guard_zero_partitions() {
        let d = Dataset {
            id: DatasetId(0),
            name: "x".into(),
            op: OpKind::Narrow(NarrowKind::Map),
            parents: Parents::default(),
            records: 10,
            bytes: 100,
            partitions: 0,
            compute: ComputeCost::FREE,
        };
        assert_eq!(d.partition_bytes(), 100.0);
        assert_eq!(d.partition_records(), 10.0);
    }

    /// Up to two parents stay inline, a third moves the list to the heap;
    /// either way it reads, compares and round-trips through JSON as the
    /// plain id array.
    #[test]
    fn parents_spill_past_two_and_keep_their_json() {
        for n in 0..5u32 {
            let ids: Vec<DatasetId> = (0..n).map(|i| DatasetId(10 - i)).collect();
            let parents = Parents::from(ids.as_slice());
            assert_eq!(parents, ids);
            assert_eq!(parents.len(), ids.len());
            assert_eq!(matches!(parents.0, Repr::Heap(_)), n > 2, "{n} parents");
            let pushed: Parents = ids.iter().copied().collect();
            assert_eq!(pushed, parents, "{n} parents pushed one by one");
            let json = serde_json::to_string(&parents).unwrap();
            assert_eq!(json, serde_json::to_string(&ids).unwrap());
            let back: Parents = serde_json::from_str(&json).unwrap();
            assert_eq!(back, parents);
            assert_eq!(format!("{parents:?}"), format!("{ids:?}"));
        }
    }

    #[test]
    fn dataset_id_display_and_index() {
        assert_eq!(DatasetId(11).to_string(), "D11");
        assert_eq!(DatasetId(11).index(), 11);
    }
}
