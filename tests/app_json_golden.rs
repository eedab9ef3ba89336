//! Application-plan JSON golden: for every workload family (the five
//! evaluated ones and the three extensions) at its sample and paper
//! parameters, the SHA-256 and length of `serde_json::to_string` of the
//! built `Application` — and of its instrumented (`inject`ed) sample plan,
//! whose `#profile` names are derived from the originals — must equal the
//! committed digests. This pins every dataset name, action name, size,
//! partition count, cost and default schedule the generators emit, and
//! the JSON the plan types print for them. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test app_json_golden` only for an
//! intended change to a workload, and review the diff.

use juggler_suite::dagflow::Application;
use juggler_suite::instrument::{inject, ProfilingOverhead};
use juggler_suite::obs::sha256_hex;
use juggler_suite::workloads::{all_workloads, KMeans, MicroBatchStream, SqlStarJoin, Workload};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/app_json_digests.txt")
}

fn line(out: &mut String, family: &str, scale: &str, app: &Application) {
    let json = serde_json::to_string(app).expect("application serializes");
    let back: Application = serde_json::from_str(&json).expect("application parses back");
    assert_eq!(&back, app, "{family} {scale} does not round-trip");
    out.push_str(&format!(
        "{family} {scale} bytes={} sha256={}\n",
        json.len(),
        sha256_hex(json.as_bytes())
    ));
}

/// One line per (family, scale): `<family> <scale> bytes=<n> sha256=<hex>`.
fn render() -> String {
    let mut families: Vec<Box<dyn Workload>> = all_workloads();
    families.push(Box::new(KMeans::default()));
    families.push(Box::new(SqlStarJoin));
    families.push(Box::new(MicroBatchStream));
    let mut out = String::new();
    for w in &families {
        let sample = w.build(&w.sample_params());
        line(&mut out, w.name(), "sample", &sample);
        line(&mut out, w.name(), "paper", &w.build(&w.paper_params()));
        let profiled = inject(&sample, ProfilingOverhead::default()).app;
        line(&mut out, w.name(), "sample+profile", &profiled);
    }
    out
}

#[test]
fn application_json_matches_golden_digests() {
    let got = render();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test app_json_golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "application plan JSON drifted from the golden digests"
    );
}
