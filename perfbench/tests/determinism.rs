//! A seed fixes each workload's operation sequence and its exact
//! counts; another seed changes the sequence but no per-design count.

use anvil_perfbench::common::{Budget, Report, RunConfig};
use anvil_perfbench::{run, WORKLOADS};

fn short_run(workload: &str, seed: u64) -> Report {
    let cfg = RunConfig {
        seed,
        budget: Budget::Rounds(2),
        trace: false,
        setup_reps: 1,
        trace_dir: None,
    };
    let report = run(workload, &cfg).expect("known workload");
    assert!(report.attempted > 0, "{workload}: no operation ran");
    assert_eq!(report.failed, 0, "{workload}: failed operations");
    report
}

#[test]
fn same_seed_repeats_sequence_and_exact_counts() {
    for w in WORKLOADS {
        let a = short_run(w, 7);
        let b = short_run(w, 7);
        assert!(!a.sequence.is_empty(), "{w}: empty sequence");
        assert_eq!(a.sequence, b.sequence, "{w}: sequence");
        assert!(!a.exact.is_empty(), "{w}: no exact counts");
        assert_eq!(a.exact, b.exact, "{w}: exact counts");
        assert_eq!(a.per_design, b.per_design, "{w}: per-design counts");
    }
}

#[test]
fn other_seed_changes_sequence_but_no_per_design_count() {
    for w in WORKLOADS {
        let a = short_run(w, 7);
        let b = short_run(w, 8);
        assert_ne!(
            a.sequence, b.sequence,
            "{w}: seed did not change the sequence"
        );
        assert!(!a.per_design.is_empty(), "{w}: no per-design counts");
        assert_eq!(a.per_design, b.per_design, "{w}: per-design counts moved");
    }
}

#[test]
fn traced_run_reports_layer_metrics() {
    let cfg = RunConfig {
        seed: 3,
        budget: Budget::Rounds(2),
        trace: true,
        setup_reps: 1,
        trace_dir: None,
    };
    let edit = run("edit_loop", &cfg).expect("known workload");
    let build = run("cold_build", &cfg).expect("known workload");
    let value = |r: &Report, name: &str| {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("`{name}` reported"))
            .value
    };
    // Parsing is a large share of a warm edit and a small share of a
    // cold build; type checking is the reverse.
    assert!(value(&edit, "syntax.parse_share") > value(&build, "syntax.parse_share"));
    assert!(value(&edit, "typeck.check_ms") < value(&build, "typeck.check_ms"));
    assert!(value(&edit, "core.cache_misses") < value(&build, "core.cache_misses"));
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    use anvil_perfbench::{END_TO_END, PER_LAYER};
    use anvild::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    };
    let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
