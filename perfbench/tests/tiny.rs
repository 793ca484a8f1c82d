//! Runs every workload in tiny mode, untraced and traced, and checks the
//! result lines against the metric and workload lists in the repository's
//! `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_gossip-perfbench");

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"name"` values listed under `section` (up to the next section).
fn names(json: &str, section: &str, next: Option<&str>) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = next.map_or(json.len(), |n| json.find(&format!("\"{n}\"")).unwrap());
    json[start..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = &rest[rest.find('"').unwrap() + 1..];
            value[..value.find('"').unwrap()].to_string()
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark runs");
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn tiny_mode_runs_every_workload_its_checks_and_the_traced_pass() {
    let json = benchmark_json();
    let workloads = names(&json, "workloads", Some("end_to_end"));
    let end_to_end = names(&json, "end_to_end", Some("per_layer"));
    let per_layer = names(&json, "per_layer", None);
    assert_eq!(workloads.len(), 4);
    let spans_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    for workload in &workloads {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let spans = spans_dir.join(format!("spans-{workload}.jsonl"));
            let (ok, stdout) = run(&[
                "--workload",
                workload,
                "--seed",
                "5",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--tiny",
            ]);
            assert!(ok, "{workload} trace {trace} failed");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,\"attempted\":")
                    && last.contains("\"failed\":0,"),
                "{workload} trace {trace}: {last}"
            );
            for metric in metrics.iter() {
                assert!(
                    last.contains(&format!("\"{metric}\":{{\"value\":")),
                    "{workload} trace {trace} lacks {metric}"
                );
            }
            let reported = last.matches("{\"value\":").count();
            assert_eq!(
                reported,
                metrics.len(),
                "{workload} trace {trace}: extra metrics"
            );
            if trace == "1" {
                let written = std::fs::read_to_string(&spans).unwrap();
                assert!(written.lines().count() > 10, "{workload}: spans written");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[][..],
        &["--workload", "no-such-workload"],
        &["--workload", "sweep-small", "--trace", "2"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok && stdout.is_empty(), "{args:?}");
    }
}
