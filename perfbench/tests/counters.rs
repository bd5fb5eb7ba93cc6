//! The benchmark's exact counters repeat between runs, every per-layer
//! metric `BENCHMARK.json` names is produced by some workload, and the
//! serve request sequence depends on the seed.
//!
//! The workload tests run the real problem sizes: run them with
//! `cargo test --release` (debug builds skip them).

use bwb_perfbench::roof::Roof;
use bwb_perfbench::serve::{distinct_keys, kind_shares, Catalog, CLIENTS, KEY_PREFIX};
use bwb_perfbench::stats::Report;
use bwb_perfbench::{run, Workload};
use std::collections::BTreeSet;

const ROOF: Roof = Roof {
    llc_bytes: 0,
    llc_measured: false,
    array_bytes: 0,
    triad_gbs_1t: 10.0,
    triad_gbs_2t: 20.0,
    copy_gbs_1t: 10.0,
};

/// Counters that are functions of the workload and seed alone.
const EXACT: [&str; 8] = [
    "ops.bytes_per_step",
    "ops.flops_per_step",
    "op2.bytes_per_step",
    "shmpi.msgs_per_step",
    "shmpi.bytes_per_step",
    "serve.distinct_keys",
    "serve.cache_entries",
    "serve.duplicate_work_ratio",
];

/// The shortest traced run: two rounds or batches, a short load.
fn traced(w: Workload, seed: u64) -> Report {
    let r = run(w, seed, 0.5, true, &ROOF);
    assert_eq!(r.failed(), 0, "{}: {:?}", w.name(), r.failures);
    r
}

fn value(r: &Report, name: &str) -> Option<f64> {
    r.metrics.get(name).map(|m| m.value)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "real problem sizes: run with --release")]
fn exact_counters_repeat_between_runs() {
    for w in Workload::ALL {
        let (a, b) = (traced(w, 7), traced(w, 7));
        for name in EXACT {
            // The serve cache's contents depend on how many requests the
            // load reached in its time; only the seed-determined counts
            // compare exactly there.
            if w == Workload::ServeZipf && name != "serve.distinct_keys" {
                continue;
            }
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{}: {name} differs between runs",
                w.name()
            );
        }
        if w != Workload::ServeZipf {
            assert_eq!(
                a.info.get("validation"),
                b.info.get("validation"),
                "{}: validation quantities differ between runs",
                w.name()
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "real problem sizes: run with --release")]
fn benchmark_json_per_layer_metrics_are_all_produced() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let spec = bwb_trace::json::parse(&spec).expect("BENCHMARK.json is JSON");
    let mut produced: BTreeSet<String> = BTreeSet::new();
    for w in Workload::ALL {
        produced.extend(traced(w, 3).metrics.keys().cloned());
    }
    // Added by run.py: the roof process's figures and the check ratio.
    for name in [
        "stream.triad_gbs.1t",
        "stream.triad_gbs.2t",
        "stream.copy_gbs.1t",
        "fail_ratio",
    ] {
        produced.insert(name.into());
    }
    let Some(bwb_trace::json::Json::Arr(per_layer)) = spec.get("per_layer") else {
        panic!("BENCHMARK.json has no per_layer list");
    };
    for m in per_layer {
        let name = m.get("name").and_then(|n| n.as_str()).expect("named");
        assert!(produced.contains(name), "no workload reports {name}");
    }
}

#[test]
fn serve_sequence_depends_on_the_seed_alone() {
    let cat = Catalog::new();
    let take = |seed, client| cat.stream(seed, client).take(500).collect::<Vec<_>>();
    assert_eq!(take(1, 0), take(1, 0));
    assert_ne!(take(1, 0), take(2, 0));
    assert_ne!(take(1, 0), take(1, 1));
    let a = distinct_keys(&cat, 11, KEY_PREFIX).expect("generated jobs parse");
    let b = distinct_keys(&cat, 11, KEY_PREFIX).expect("generated jobs parse");
    assert_eq!(a, b);
    assert!(a > 0 && a <= CLIENTS * KEY_PREFIX);
}

#[test]
fn serve_catalog_jobs_all_parse() {
    let cat = Catalog::new();
    for k in &cat.kinds {
        for body in &k.bodies {
            bwb_perfbench::serve::key_of(body, "m").unwrap_or_else(|e| panic!("{body}: {e}"));
        }
    }
}

#[test]
fn serve_kind_shares_cover_every_kind() {
    let shares = kind_shares();
    assert!(shares.iter().all(|&w| w > 0.0), "{shares:?}");
    assert!(
        (shares.iter().sum::<f64>() - 1.0).abs() < 1e-12,
        "{shares:?}"
    );
}
