//! Every workload end to end at smoke size, and the metric lists against
//! `BENCHMARK.json`.

use perfbench::{run, Opts, Workload, END_TO_END, PER_LAYER};
use serde::Value;

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
        _ => panic!("{key}: not an object"),
    }
}

fn names(value: &Value) -> Vec<String> {
    match value {
        Value::Array(items) => items
            .iter()
            .map(|i| match field(i, "name") {
                Value::String(s) => s.clone(),
                other => panic!("name is not a string: {other:?}"),
            })
            .collect(),
        _ => panic!("not an array"),
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("valid JSON");
    let listed =
        |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(field(&spec, "end_to_end")), listed(END_TO_END));
    assert_eq!(names(field(&spec, "per_layer")), listed(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names(field(&spec, "workloads")), workloads);
}

#[test]
fn every_workload_runs_and_passes_its_checks_at_smoke_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Opts {
                workload,
                seed: 3,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let outcome = run(&opts);
            assert!(
                outcome.failures.is_empty(),
                "{} trace {trace}: {:?}",
                workload.name(),
                outcome.failures
            );
            let line: Value = serde_json::from_str(&outcome.result_line(trace)).expect("JSON line");
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            match field(&line, "metrics") {
                Value::Object(metrics) => assert_eq!(metrics.len(), expected),
                other => panic!("metrics is not an object: {other:?}"),
            }
            assert_eq!(field(&line, "correct"), &Value::Bool(true));
            if trace {
                assert!(outcome.spans.is_some(), "a traced run keeps its spans");
            }
        }
    }
}
