//! A scaled-down run of all five workloads (`SystemConfig::small`, short
//! plans), both passes: the names the benchmark emits are exactly the
//! names `BENCHMARK.json` declares, each once, and nothing fails.

use erapid_benchmark::adapter::{Size, Workload, DEFAULT_SEED};
use erapid_benchmark::json::{self, Value};
use erapid_benchmark::results::contract_line;
use erapid_benchmark::run::{self, Options};
use std::path::PathBuf;

fn declared(doc: &Value, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The metric names of a pass, read back from the line the driver parses.
fn emitted(line: &str) -> Vec<String> {
    let doc = json::parse(line).expect("result line is JSON");
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Value::Bool(true)), "{line}");
    assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(doc.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = doc.get("metrics").expect("metrics").fields();
    for (name, m) in metrics {
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn tiny_run_emits_exactly_the_declared_names() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        json::parse(&std::fs::read_to_string(manifest).expect("read BENCHMARK.json")).unwrap();
    let workloads = declared(&doc, "workloads");
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert_eq!(
        (workloads.len(), end_to_end.len(), per_layer.len()),
        (5, 7, 54)
    );
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(well_formed(name), "{name:?}");
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("test-tiny");
    std::fs::create_dir_all(&out_dir).unwrap();
    for workload in Workload::ALL {
        let opts = Options {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            size: Size::Tiny,
            min_repeats: 2,
            out_dir: out_dir.clone(),
        };
        let untraced = run::untraced(&opts).expect("untraced pass");
        assert_eq!(untraced.repeats, 2);
        assert_eq!(
            emitted(&contract_line(&untraced)),
            end_to_end,
            "{}",
            workload.name()
        );

        let traced = run::traced(&opts).expect("traced pass");
        assert_eq!(
            emitted(&contract_line(&traced)),
            per_layer,
            "{}",
            workload.name()
        );
        assert_eq!(
            traced.digest,
            untraced.digest,
            "{}: profiled run changed the simulation",
            workload.name()
        );
        let spans = out_dir.join(format!("trace_{}.json", workload.name()));
        let spans = json::parse(&std::fs::read_to_string(spans).expect("span file")).unwrap();
        let spans = spans.get("spans").and_then(Value::as_arr).unwrap();
        let roots = spans
            .iter()
            .filter(|s| s.get("parent") == Some(&Value::Null))
            .count();
        assert_eq!(roots, 1, "one root span per workload");
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("setup")));
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("point[0]")));
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
