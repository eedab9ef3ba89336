//! The on-disk run ledger: a content-addressed store of run manifests
//! under `results/runs/`.
//!
//! The store only stores bytes: it files any JSON document by its
//! caller-supplied content hash (`<first 16 hex chars>.json`), lists
//! what it holds, and resolves unambiguous id prefixes. It never parses
//! a document — the *typed* manifest (what goes in the document, what
//! the hash covers, what counts as drift) and the one verified reader of
//! a whole store live in `juggler-core` (`provenance`, `watchtower`).
//! Keeping storage generic means the store itself never needs to change
//! when the manifest schema grows.
//!
//! Recording is idempotent: the same content hashes to the same id and
//! replaces the same file with identical bytes, so re-recording a run
//! is a no-op — which is exactly the property the cross-run determinism
//! tests pin (bit-identical manifests at any worker-thread count). The
//! replacement is atomic, so a concurrent reader sees the old file or
//! the new one, never a half-written one, and durable: the bytes and the
//! rename are synced before the write returns.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of leading hex characters of the content hash used as the run
/// id (and file stem) — 64 bits, plenty for a local experiment ledger.
pub const RUN_ID_LEN: usize = 16;

/// A content-addressed directory of run-manifest JSON documents.
#[derive(Debug, Clone)]
pub struct LedgerStore {
    root: PathBuf,
}

/// One directory entry of a [`LedgerStore`]: identity and ordering
/// metadata only, no document parse — the spine of bulk readers that
/// bring their own (typed, cached) parsing.
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
    /// Idempotent for identical content, and atomic (see [`write_atomic`]).
    pub fn record(&self, content_hash: &str, document_json: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.root)?;
        let path = self
            .root
            .join(format!("{}.json", Self::id_of(content_hash)));
        write_atomic(&path, document_json.as_bytes())?;
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

/// Replaces `path` with `bytes` atomically: the bytes go to a temp file
/// in the same directory (a dot-file ending in `.tmp`, so
/// [`LedgerStore::entries`] never lists it), which is then renamed over
/// `path`. A concurrent reader opens either the old file or the new one;
/// `std::fs::write` would truncate first and let it read a prefix. The
/// temp file is synced before the rename and its directory after it, so
/// after a crash `path` holds the old bytes or the new ones, never an
/// empty or partial file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = path.with_file_name(format!(
        ".{name}.{}-{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let synced = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()
    });
    let renamed = synced.and_then(|()| std::fs::rename(&tmp, path));
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed?;
    sync_dir(path.parent().filter(|p| !p.as_os_str().is_empty()))
}

/// Syncs a directory, making a rename inside it durable (the current
/// directory when `dir` is `None`). Only Unix can open a directory for
/// syncing; elsewhere this is a no-op.
fn sync_dir(dir: Option<&Path>) -> io::Result<()> {
    if cfg!(unix) {
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// File mtime as nanoseconds since the Unix epoch (0 when unavailable).
fn recorded_ns(path: &Path) -> u128 {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos())
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

    fn ids(store: &LedgerStore) -> Vec<String> {
        store.entries().unwrap().into_iter().map(|e| e.id).collect()
    }

    #[test]
    fn record_list_resolve_roundtrip() {
        let store = tmp_store("roundtrip");
        let hash = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef";
        let path = store.record(hash, DOC).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "deadbeefdeadbeef.json"
        );
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].id, "deadbeefdeadbeef");
        assert_eq!(entries[0].path, path);
        assert_eq!(
            store.load("deadbeefdeadbeef").unwrap(),
            (path.clone(), DOC.to_owned())
        );
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
        assert_eq!(ids(&store), ["0011223344556677"]);
        // No temp file is left behind next to the document.
        assert_eq!(std::fs::read_dir(store.root()).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn rerecording_is_atomic_for_a_concurrent_reader() {
        const REWRITES: usize = 200;
        let store = tmp_store("atomic");
        let hash = "ab00000000000000ffff";
        // Large enough that a truncate-then-write replacement is visible
        // to the reader as an empty or partial file.
        let doc = DOC.repeat(256);
        store.record(hash, &doc).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        let (reads, failures) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut reads, mut failures) = (0usize, 0usize);
                start.wait();
                while !done.load(Ordering::Acquire) || reads == 0 {
                    match store.load("ab00000000000000") {
                        Ok((_, raw)) if raw == doc => {}
                        _ => failures += 1,
                    }
                    reads += 1;
                }
                (reads, failures)
            });
            start.wait();
            for _ in 0..REWRITES {
                store.record(hash, &doc).unwrap();
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        assert_eq!(
            failures, 0,
            "{failures} of {reads} concurrent reads saw a partial document"
        );
        assert_eq!(ids(&store), ["ab00000000000000"]);
        assert_eq!(std::fs::read_dir(store.root()).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// A synced write round-trips: a fresh file and a replacement both
    /// read back byte for byte, and no temp file is left beside them.
    #[test]
    fn write_atomic_syncs_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("obs_ledger_sync_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        for doc in [DOC, "{}", ""] {
            write_atomic(&path, doc.as_bytes()).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), doc);
        }
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["cache.json"]);
        // A write into a missing directory fails and leaves nothing.
        let missing = dir.join("absent").join("cache.json");
        assert!(write_atomic(&missing, b"{}").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_store_lists_empty_and_resolve_reports() {
        let store = tmp_store("missing");
        assert!(store.entries().unwrap().is_empty());
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
        assert_eq!(
            ids(&store),
            ["aa00000000000000", "bb00000000000000", "cc00000000000000"],
            "newest first"
        );
        // Equal mtimes fall back to id ascending.
        set_mtime(&p_aa, 10);
        set_mtime(&p_bb, 10);
        set_mtime(&p_cc, 10);
        let entries = store.entries().unwrap();
        let ids: Vec<&str> = entries.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(
            ids,
            ["aa00000000000000", "bb00000000000000", "cc00000000000000"]
        );
        assert!(entries.iter().all(|e| e.recorded_unix_ns > 0));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_manifest_resolves_by_its_own_id() {
        let store = tmp_store("corrupt");
        let path = store.record("cc33445566778899", "{not json").unwrap();
        // Listing never opens a document, so the damage is not its concern.
        assert_eq!(ids(&store), ["cc33445566778899"]);
        assert_eq!(store.resolve("cc3344").unwrap(), path);
        // The typed reader, not the store, reports the damage.
        assert_eq!(
            store.load("cc3344").unwrap(),
            (path, "{not json".to_owned())
        );
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
}
