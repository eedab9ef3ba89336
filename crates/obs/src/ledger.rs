//! The on-disk run ledger: a content-addressed store of run manifests
//! under `results/runs/`.
//!
//! The store is deliberately schema-light: it files any JSON document by
//! its caller-supplied content hash (`<first 16 hex chars>.json`), lists
//! what it holds, and resolves unambiguous id prefixes — the *typed*
//! manifest (what goes in the document, what the hash covers, what counts
//! as drift) lives in `juggler-core::provenance`. Keeping storage generic
//! means the store itself never needs to change when the manifest schema
//! grows; summaries below read well-known fields leniently and degrade to
//! placeholders for foreign documents.
//!
//! Recording is idempotent: the same content hashes to the same id and
//! overwrites the same file with identical bytes, so re-recording a run
//! is a no-op — which is exactly the property the cross-run determinism
//! tests pin (bit-identical manifests at any worker-thread count).

use std::io;
use std::path::{Path, PathBuf};

use serde::Value;

/// Number of leading hex characters of the content hash used as the run
/// id (and file stem) — 64 bits, plenty for a local experiment ledger.
pub const RUN_ID_LEN: usize = 16;

/// A content-addressed directory of run-manifest JSON documents.
#[derive(Debug, Clone)]
pub struct LedgerStore {
    root: PathBuf,
}

/// Summary row for one stored run (the `juggler runs list` view). Fields
/// absent from the document degrade to empty/zero rather than erroring,
/// so a store survives schema evolution and foreign files.
#[derive(Debug, Clone)]
pub struct StoredRun {
    /// Run id (file stem; leading [`RUN_ID_LEN`] chars of the hash).
    pub id: String,
    /// Path of the manifest file.
    pub path: PathBuf,
    /// Workload name, if the document declares one.
    pub workload: String,
    /// `(examples, features, iterations)` parameters, when present.
    pub params: (u64, u64, u64),
    /// Number of schedules in the manifest, when present.
    pub schedules: usize,
    /// Mean relative time-prediction error, when present.
    pub mean_time_rel_error: Option<f64>,
    /// Full content hash declared by the document (empty if absent).
    pub content_hash: String,
    /// When the manifest file was recorded (file mtime, nanoseconds since
    /// the Unix epoch; 0 if the filesystem won't say). Ordering metadata
    /// only — deliberately *outside* the content hash, like the envelope.
    pub recorded_unix_ns: u128,
}

/// One directory entry of a [`LedgerStore`]: identity and ordering
/// metadata only, no document parse. The cheap spine of [`LedgerStore::list`]
/// and of bulk readers that bring their own (typed, cached) parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntryMeta {
    /// Run id (file stem).
    pub id: String,
    /// Path of the document file.
    pub path: PathBuf,
    /// File mtime, nanoseconds since the Unix epoch (0 if unavailable).
    pub recorded_unix_ns: u128,
}

impl LedgerStore {
    /// A store rooted at `root` (created lazily on first record).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LedgerStore { root: root.into() }
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Derives the run id from a full content hash.
    #[must_use]
    pub fn id_of(content_hash: &str) -> String {
        content_hash.chars().take(RUN_ID_LEN).collect()
    }

    /// Files `document_json` under the id derived from `content_hash`,
    /// creating the root directory if needed. Returns the file path.
    /// Idempotent for identical content.
    pub fn record(&self, content_hash: &str, document_json: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.root)?;
        let path = self
            .root
            .join(format!("{}.json", Self::id_of(content_hash)));
        std::fs::write(&path, document_json)?;
        Ok(path)
    }

    /// The store's directory entries, newest first: recorded timestamp
    /// descending with the id ascending as tiebreak — a total,
    /// deterministic order regardless of directory iteration order.
    /// Never opens a document, so it costs one `readdir` plus one `stat`
    /// per file.
    pub fn entries(&self) -> io::Result<Vec<LedgerEntryMeta>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            out.push(LedgerEntryMeta {
                id: stem.to_owned(),
                recorded_unix_ns: recorded_ns(&path),
                path,
            });
        }
        out.sort_by(|a, b| {
            b.recorded_unix_ns
                .cmp(&a.recorded_unix_ns)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
    }

    /// All stored runs, newest first (same order as [`Self::entries`]),
    /// with summary fields parsed out of each document. Parse failures
    /// are skipped — the ledger must not die on a stray file.
    pub fn list(&self) -> io::Result<Vec<StoredRun>> {
        let mut out = Vec::new();
        for meta in self.entries()? {
            let Ok(raw) = std::fs::read_to_string(&meta.path) else {
                continue;
            };
            let Ok(doc) = serde_json::from_str::<Value>(&raw) else {
                continue;
            };
            out.push(summarize(&meta.id, &meta.path, &doc, meta.recorded_unix_ns));
        }
        Ok(out)
    }

    /// Resolves a run reference to a manifest path. Accepts an id or
    /// unambiguous id prefix within the store, or a direct path to a
    /// manifest file anywhere. Ids match on file stems alone (no document
    /// is opened), so a corrupt manifest still resolves and its reader
    /// reports the parse error. An empty reference is refused.
    pub fn resolve(&self, reference: &str) -> Result<PathBuf, String> {
        if reference.is_empty() {
            return Err("empty run reference".to_owned());
        }
        let direct = Path::new(reference);
        if direct.is_file() {
            return Ok(direct.to_path_buf());
        }
        let entries = self
            .entries()
            .map_err(|e| format!("reading ledger {}: {e}", self.root.display()))?;
        let matches: Vec<&LedgerEntryMeta> = entries
            .iter()
            .filter(|e| e.id.starts_with(reference))
            .collect();
        match matches.as_slice() {
            [one] => Ok(one.path.clone()),
            [] => Err(format!(
                "no run matching `{reference}` in {} ({} stored)",
                self.root.display(),
                entries.len()
            )),
            many => Err(format!(
                "ambiguous run reference `{reference}`: matches {}",
                many.iter()
                    .map(|e| e.id.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }

    /// Loads a run by reference, returning `(path, raw JSON)`.
    pub fn load(&self, reference: &str) -> Result<(PathBuf, String), String> {
        let path = self.resolve(reference)?;
        let raw = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Ok((path, raw))
    }
}

/// File mtime as nanoseconds since the Unix epoch (0 when unavailable).
fn recorded_ns(path: &Path) -> u128 {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos())
}

/// Lenient summary extraction from a manifest document.
fn summarize(id: &str, path: &Path, doc: &Value, recorded_unix_ns: u128) -> StoredRun {
    let content = doc.get("content").unwrap_or(doc);
    let as_u64 = |v: &Value| match v {
        Value::Int(n) => u64::try_from(*n).unwrap_or(0),
        Value::UInt(n) => *n,
        Value::Float(x) if x.is_finite() && *x >= 0.0 => *x as u64,
        _ => 0,
    };
    let params = content.get("params");
    let param = |key: &str| params.and_then(|p| p.get(key)).map_or(0, as_u64);
    let schedules = match content.get("schedules") {
        Some(Value::Array(items)) => items.len(),
        _ => 0,
    };
    let mean_err = content
        .get("predictions")
        .and_then(|p| p.get("mean_time_rel_error"))
        .and_then(|v| match v {
            Value::Float(x) => Some(*x),
            Value::Int(n) => Some(*n as f64),
            Value::UInt(n) => Some(*n as f64),
            _ => None,
        });
    let text = |v: Option<&Value>| match v {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    StoredRun {
        id: id.to_owned(),
        path: path.to_path_buf(),
        workload: text(content.get("workload")),
        params: (param("examples"), param("features"), param("iterations")),
        schedules,
        mean_time_rel_error: mean_err,
        content_hash: text(doc.get("content_hash")),
        recorded_unix_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str) -> LedgerStore {
        let dir =
            std::env::temp_dir().join(format!("obs_ledger_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        LedgerStore::new(dir)
    }

    const DOC: &str = r#"{
        "envelope": {"schema_version": 1},
        "content": {
            "workload": "TINY",
            "params": {"examples": 4000, "features": 800, "iterations": 4},
            "schedules": [{"index": 0}],
            "predictions": {"mean_time_rel_error": 0.0805}
        },
        "content_hash": "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef"
    }"#;

    #[test]
    fn record_list_resolve_roundtrip() {
        let store = tmp_store("roundtrip");
        let hash = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef";
        let path = store.record(hash, DOC).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "deadbeefdeadbeef.json"
        );
        let runs = store.list().unwrap();
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(r.id, "deadbeefdeadbeef");
        assert_eq!(r.workload, "TINY");
        assert_eq!(r.params, (4000, 800, 4));
        assert_eq!(r.schedules, 1);
        assert!((r.mean_time_rel_error.unwrap() - 0.0805).abs() < 1e-12);
        assert_eq!(r.content_hash, hash);
        // Prefix resolution.
        assert_eq!(store.resolve("deadbe").unwrap(), path);
        // Direct path resolution.
        assert_eq!(store.resolve(path.to_str().unwrap()).unwrap(), path);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn record_is_idempotent() {
        let store = tmp_store("idempotent");
        let hash = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff";
        let p1 = store.record(hash, DOC).unwrap();
        let p2 = store.record(hash, DOC).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(store.list().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn missing_store_lists_empty_and_resolve_reports() {
        let store = tmp_store("missing");
        assert!(store.list().unwrap().is_empty());
        let err = store.resolve("abc").unwrap_err();
        assert!(err.contains("no run matching"), "{err}");
    }

    #[test]
    fn ambiguous_prefix_is_an_error() {
        let store = tmp_store("ambiguous");
        store
            .record("aa00000000000000ffff", "{\"content\":{}}")
            .unwrap();
        store
            .record("aa11111111111111ffff", "{\"content\":{}}")
            .unwrap();
        let err = store.resolve("aa").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        assert!(store.resolve("aa0").is_ok());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn list_orders_newest_first_with_id_tiebreak() {
        use std::time::{Duration, SystemTime};
        let store = tmp_store("ordering");
        let base = SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000);
        let set_mtime = |path: &Path, offset_s: u64| {
            let f = std::fs::File::options().write(true).open(path).unwrap();
            f.set_modified(base + Duration::from_secs(offset_s))
                .unwrap();
        };
        // Record out of id order, then pin mtimes: cc oldest, aa newest.
        let p_bb = store
            .record("bb00000000000000ffff", "{\"content\":{}}")
            .unwrap();
        let p_aa = store
            .record("aa00000000000000ffff", "{\"content\":{}}")
            .unwrap();
        let p_cc = store
            .record("cc00000000000000ffff", "{\"content\":{}}")
            .unwrap();
        set_mtime(&p_cc, 10);
        set_mtime(&p_bb, 20);
        set_mtime(&p_aa, 30);
        let ids: Vec<String> = store.list().unwrap().into_iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            ["aa00000000000000", "bb00000000000000", "cc00000000000000"],
            "newest first"
        );
        // Equal mtimes fall back to id ascending.
        set_mtime(&p_aa, 10);
        set_mtime(&p_bb, 10);
        set_mtime(&p_cc, 10);
        let runs = store.list().unwrap();
        let ids: Vec<&str> = runs.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            ["aa00000000000000", "bb00000000000000", "cc00000000000000"]
        );
        assert!(runs.iter().all(|r| r.recorded_unix_ns > 0));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_manifest_resolves_by_its_own_id() {
        let store = tmp_store("corrupt");
        let path = store.record("cc33445566778899", "{not json").unwrap();
        assert!(store.list().unwrap().is_empty(), "list skips it");
        assert_eq!(store.resolve("cc3344").unwrap(), path);
        // The reader, not the resolver, reports the damage.
        let (_, raw) = store.load("cc3344").unwrap();
        assert!(serde_json::from_str::<Value>(&raw).is_err());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn empty_reference_is_refused() {
        let store = tmp_store("empty_ref");
        store.record("deadbeefdeadbeef", DOC).unwrap();
        let err = store.resolve("").unwrap_err();
        assert!(err.contains("empty run reference"), "{err}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn foreign_documents_survive_listing() {
        let store = tmp_store("foreign");
        store.record("bb22334455667788", "[1, 2, 3]").unwrap();
        let runs = store.list().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].workload, "");
        assert_eq!(runs[0].schedules, 0);
        let _ = std::fs::remove_dir_all(store.root());
    }
}
