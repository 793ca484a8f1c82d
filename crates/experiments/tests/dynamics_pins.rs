//! Byte-for-byte pins of dynamic runs. Every scenario here mutates its
//! topology (churn under both rejoin policies, edge fading, waypoint
//! mobility, churn under the HyParView overlay), and each one's
//! [`to_json`] result must equal its line in
//! `golden/dynamics_pins.jsonl` exactly — on the sync engine, and on the
//! sliced async engine at one and at four worker threads. The thread
//! suites only check that thread counts agree with each other; these pins
//! catch a change to how mutations land that moves every count alike.
//!
//! Regenerate (only when a result is meant to change):
//!
//! ```sh
//! BLESS_DYNAMICS_PINS=1 cargo test -p gossip-experiments --test dynamics_pins
//! ```

use gossip_experiments::{to_json, ScenarioBuilder};

const GOLDEN: &str = "tests/golden/dynamics_pins.jsonl";

/// The dynamic knobs of each pinned case, over a small RGG.
const CASES: &[(&str, &[(&str, &str)])] = &[
    (
        "churn-keep",
        &[("nodes", "400"), ("churn-rate", "0.1"), ("rejoin", "keep")],
    ),
    (
        "churn-lose",
        &[
            ("nodes", "300"),
            ("protocol", "uniform"),
            ("churn-rate", "0.05"),
            ("rejoin", "lose"),
            ("max-rounds", "200"),
        ],
    ),
    ("fading", &[("nodes", "500"), ("fade-prob", "0.2")]),
    ("waypoint", &[("nodes", "600"), ("mobility", "true")]),
    (
        "churn-hyparview",
        &[
            ("nodes", "400"),
            ("churn-rate", "0.1"),
            ("rejoin", "keep"),
            ("membership", "hyparview"),
        ],
    ),
];

/// `(scheduler, threads)` legs; every case runs on each.
const LEGS: &[(&str, &str)] = &[("sync", "1"), ("async", "1"), ("async", "4")];

fn run(knobs: &[(&str, &str)], scheduler: &str, threads: &str) -> String {
    let mut builder = ScenarioBuilder::new();
    builder
        .set("topology", "rgg")
        .set("protocol", "advert")
        .set("messages", "2")
        .set("seed", "5")
        .set("scheduler", scheduler)
        .set("threads", threads);
    for (key, value) in knobs {
        builder.set(key, value);
    }
    let scenario = builder.finish().expect("valid pinned scenario");
    to_json(&scenario.run())
}

#[test]
fn dynamic_runs_match_their_golden_lines() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let mut lines = Vec::new();
    for (name, knobs) in CASES {
        for (scheduler, threads) in LEGS {
            lines.push((
                format!("{name} {scheduler} t{threads}"),
                run(knobs, scheduler, threads),
            ));
        }
    }
    if std::env::var_os("BLESS_DYNAMICS_PINS").is_some() {
        // One golden line per (case, scheduler): the async legs must agree.
        let mut out = String::new();
        for chunk in lines.chunks(LEGS.len()) {
            out.push_str(&chunk[0].1);
            out.push('\n');
            out.push_str(&chunk[1].1);
            out.push('\n');
        }
        std::fs::write(&path, out).expect("write golden pins");
    }
    let golden = std::fs::read_to_string(&path).expect("read golden pins");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        CASES.len() * 2,
        "one line per case and scheduler"
    );
    for (i, (leg, line)) in lines.iter().enumerate() {
        // Legs are sync, async t1, async t4: both async legs share a line.
        let want = golden[i / LEGS.len() * 2 + (i % LEGS.len()).min(1)];
        assert_eq!(line, want, "{leg} drifted from its golden line");
    }
}
