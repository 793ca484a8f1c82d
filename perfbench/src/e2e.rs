//! The untraced pass: scenarios run to completion through the public
//! experiment API (`Scenario::run`, or `execute_grid` on the sweep) in a
//! closed loop for the run's measuring time, every output checked.

use std::hint::black_box;
use std::time::Instant;

use gossip_experiments::{execute_grid, run_line_json, to_json, PoolSummary, RunMeta, Scenario};

use crate::check::{differs, field_u64, line_failures, result_failures, strip_meta, Checks};
use crate::report::Metrics;
use crate::setup::{setup, setup_secs};
use crate::stats::{median, peak_rss_mb, spread};
use crate::workload::{pool_cores, Workload};

/// Timed scenarios (or grids) per run, whatever the measuring time.
const MIN_SAMPLES: usize = 3;
/// A fixed set of scenarios is set up over and over, in blocks of passes
/// lasting at least this long, one block before every timed sample, and
/// at least `MIN_SETUP_PASSES` passes in all. Each scenario's set-up time
/// is the fastest of its passes, and `setup_s` is the median over the
/// set. The host slows this single-threaded, cache-bound work by up to 2x
/// for minutes at a time, but lets it run at full speed for moments even
/// then; the fastest pass of a scenario spread over the run finds such a
/// moment, where a median over passes would report the host's state.
const SETUP_BLOCK_SECONDS: f64 = 0.12;
const MIN_SETUP_PASSES: usize = 5;
/// Scenarios in the set on the single-scenario workloads (the run's
/// first ones; the first grid's cells on the sweep). The adaptive RGG
/// builder retries with a larger radius on some seeds, so set-up time
/// differs by seed and the median takes several.
const SETUP_SCENARIOS: u64 = 4;

pub struct E2e {
    pub metrics: Metrics,
    /// Interquartile range over median, per sampled metric.
    pub spread: Vec<(&'static str, f64)>,
    /// Host seconds of every timed sample, in run order.
    pub sample_s: Vec<f64>,
}

/// Run the untraced pass. It must be the first work of its process: the
/// warm-up's memory peak is read as `peak_rss_mb`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    tiny: bool,
    checks: &mut Checks,
) -> Result<E2e, String> {
    if w.is_sweep() {
        sweep(w, seed, seconds, tiny, checks)
    } else {
        single(w, seed, seconds, tiny, checks)
    }
}

fn single(
    w: Workload,
    seed: u64,
    seconds: f64,
    tiny: bool,
    checks: &mut Checks,
) -> Result<E2e, String> {
    let first = w.scenario(seed, 0, tiny);
    let warm = first.run();
    let peak_rss_mb = peak_rss_mb()?;
    checks.record("warm-up", result_failures(&warm));
    let warm_json = to_json(&warm);

    let mut setup = SetupBest::new(
        (0..SETUP_SCENARIOS)
            .map(|i| w.scenario(seed, i, tiny))
            .collect(),
    );

    let threads = first.scheduler.effective_threads();
    let mut completion = Vec::new();
    let mut node_rounds = Vec::new();
    let window = Instant::now();
    while completion.len() < MIN_SAMPLES || window.elapsed().as_secs_f64() < seconds {
        setup.block(tiny);
        let scenario = w.scenario(seed, completion.len() as u64, tiny);
        let started = Instant::now();
        let result = scenario.run();
        let meta = RunMeta {
            threads,
            wall_ms: started.elapsed().as_millis() as u64,
        };
        black_box(run_line_json(&scenario.scenario_id(), &result, &meta));
        let secs = started.elapsed().as_secs_f64();

        let work = (result.nodes * result.rounds_executed) as f64;
        completion.push(secs);
        node_rounds.push(work / secs);
        let mut failures = result_failures(&result);
        if completion.len() == 1 {
            failures.extend(differs(
                "repeat of the warm-up",
                &warm_json,
                &to_json(&result),
            ));
        }
        checks.record(&scenario.scenario_id(), failures);
    }

    let per_second: Vec<f64> = completion.iter().map(|s| 1.0 / s).collect();
    Ok(finish(
        completion,
        &node_rounds,
        &per_second,
        setup.finish(tiny),
        peak_rss_mb,
    ))
}

fn sweep(
    w: Workload,
    seed: u64,
    seconds: f64,
    tiny: bool,
    checks: &mut Checks,
) -> Result<E2e, String> {
    let (warm_lines, _) = execute(&w.grid(seed, 0, tiny));
    let peak_rss_mb = peak_rss_mb()?;
    for line in &warm_lines {
        checks.record("warm-up grid", line_failures(line));
    }

    let mut setup = SetupBest::new(w.grid(seed, 0, tiny));
    let mut walls = Vec::new();
    let mut per_second = Vec::new();
    let mut node_rounds = Vec::new();
    let window = Instant::now();
    while walls.len() < MIN_SAMPLES || window.elapsed().as_secs_f64() < seconds {
        setup.block(tiny);
        let cells = w.grid(seed, walls.len() as u64, tiny);
        let started = Instant::now();
        let (lines, _) = execute(&cells);
        let secs = started.elapsed().as_secs_f64();

        let mut work = 0.0;
        for (k, line) in lines.iter().enumerate() {
            let field = |key| field_u64(line, key).unwrap_or(0) as f64;
            work += field("nodes") * field("rounds_executed");
            let mut failures = line_failures(line);
            if walls.is_empty() {
                let warm = warm_lines.get(k).map_or("", |l| strip_meta(l));
                failures.extend(differs(
                    "repeat of the warm-up grid",
                    warm,
                    strip_meta(line),
                ));
            }
            checks.record("sweep run", failures);
        }
        walls.push(secs);
        per_second.push(lines.len() as f64 / secs);
        node_rounds.push(work / secs);
    }

    Ok(finish(
        walls,
        &node_rounds,
        &per_second,
        setup.finish(tiny),
        peak_rss_mb,
    ))
}

/// Run one grid on the pool into memory; its lines in cell order.
pub fn execute(cells: &[Scenario]) -> (Vec<String>, PoolSummary) {
    let mut out = Vec::new();
    let summary = execute_grid(cells, pool_cores(), Vec::new(), None, false, &mut out)
        .expect("writing to memory cannot fail");
    let text = String::from_utf8(out).expect("run lines are UTF-8");
    (text.lines().map(str::to_string).collect(), summary)
}

/// The fastest set-up seen of each scenario in a fixed set.
struct SetupBest {
    scenarios: Vec<Scenario>,
    best: Vec<f64>,
    passes: usize,
}

impl SetupBest {
    fn new(scenarios: Vec<Scenario>) -> Self {
        let best = vec![f64::INFINITY; scenarios.len()];
        SetupBest {
            scenarios,
            best,
            passes: 0,
        }
    }

    /// One pass: every scenario of the set is set up once.
    fn pass(&mut self) {
        for (scenario, best) in self.scenarios.iter().zip(&mut self.best) {
            let (parts, calls) = setup(scenario);
            drop(parts);
            *best = best.min(setup_secs(&calls));
        }
        self.passes += 1;
    }

    /// One block of passes: at least one, for at least
    /// `SETUP_BLOCK_SECONDS` (exactly one in tiny mode).
    fn block(&mut self, tiny: bool) {
        let budget = if tiny { 0.0 } else { SETUP_BLOCK_SECONDS };
        let started = Instant::now();
        loop {
            self.pass();
            if started.elapsed().as_secs_f64() >= budget {
                return;
            }
        }
    }

    /// Each scenario's fastest set-up, after at least `MIN_SETUP_PASSES`.
    fn finish(mut self, tiny: bool) -> Vec<f64> {
        while self.passes < MIN_SETUP_PASSES {
            self.block(tiny);
        }
        self.best
    }
}

/// The end-to-end metrics from a run's samples (each sample's seconds,
/// node-rounds per second and scenarios per second) and its set-up
/// scenarios' fastest set-ups. Every rate is the median over samples, so
/// one sample slowed by the host moves none.
fn finish(
    sample_s: Vec<f64>,
    node_rounds: &[f64],
    per_second: &[f64],
    setup: Vec<f64>,
    peak_rss_mb: f64,
) -> E2e {
    let mut metrics = Metrics::default();
    metrics.set("completion_s.p50", median(&sample_s));
    metrics.set("node_rounds_per_s", median(node_rounds));
    metrics.set("scenarios_per_s", median(per_second));
    metrics.set("setup_s", median(&setup));
    metrics.set("peak_rss_mb", peak_rss_mb);
    let spread = vec![
        ("completion_s.p50", spread(&sample_s)),
        ("node_rounds_per_s", spread(node_rounds)),
        ("scenarios_per_s", spread(per_second)),
        ("setup_s", spread(&setup)),
    ];
    E2e {
        metrics,
        spread,
        sample_s,
    }
}
