//! Two runs at one seed must agree exactly on every seed-determined
//! count, and the metric names must match `BENCHMARK.json`.

use perfbench::{metric_values, run, Counts, RunConfig, Workload, END_TO_END, PER_LAYER};

/// The shortest traced run (its minimum op count), so the per-layer
/// counts are filled too.
fn counts(workload: Workload) -> Counts {
    let config = RunConfig::new(workload, 3, 0.0, true);
    let report = run(workload, &config);
    assert!(
        report.correct(),
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    report.counts
}

fn assert_repeats(workload: Workload) {
    let first = counts(workload);
    assert_eq!(first, counts(workload), "{}", workload.name());
    assert!(first.two_qubit_gates > 0 && first.depth > 0, "{first:?}");
    assert!(first.success_geomean > 0.0, "{first:?}");
}

#[test]
fn paper_compile_counts_repeat() {
    assert_repeats(Workload::PaperCompile);
}

#[test]
fn kiloqubit_compile_counts_repeat() {
    assert_repeats(Workload::KiloqubitCompile);
}

#[test]
fn serve_mix_counts_repeat() {
    assert_repeats(Workload::ServeMix);
}

#[test]
fn verify_width_counts_repeat() {
    let workload = Workload::VerifyWidth;
    assert_repeats(workload);
    let c = counts(workload);
    assert!(
        c.dense_verdicts > 0 && c.sparse_verdicts > 0 && c.stabilizer_verdicts > 0,
        "{c:?}"
    );
}

/// Every metric a run prints is listed in `BENCHMARK.json`, in order,
/// with the same unit and direction, and so are the workloads.
#[test]
fn benchmark_json_lists_what_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let defined = |defs: &[perfbench::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), defined(END_TO_END));
    assert_eq!(listed("per_layer"), defined(PER_LAYER));
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|v| v.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    let defined: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, defined);

    // And a report prints exactly those names in both modes.
    let report = perfbench::Report::default();
    let printed = |trace| -> Vec<&str> {
        metric_values(Workload::PaperCompile, &report, trace)
            .into_iter()
            .map(|(d, _)| d.name)
            .collect()
    };
    assert_eq!(
        printed(false),
        END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    assert_eq!(
        printed(true),
        PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
    );
}
