//! The traced pass: each layer timed from outside, by calling its public
//! functions on the workload's inputs.
//!
//! Every traced scenario runs twice through the same calls — set-up,
//! engine, emission — once untraced (the engines' timing APIs with the
//! no-op probe) and once with a [`SpanProbe`]. The untraced leg gives the
//! layer timings; the traced leg gives the round/slice spans and event
//! counts, and the ratio of the two legs is the tracing overhead. Layers
//! without a timing hook (the mutation drain and the membership tick)
//! are replayed from their own public calls on the run's inputs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gossip_core::time::TICKS_PER_ROUND;
use gossip_core::{
    resolve_connections_sharded, DynamicTopology, Intent, MessageMatrix, NodeId, Rng, SimTime,
    MATCH_REGIONS,
};
use gossip_dynamics::{dynamics_seed, MutationKind};
use gossip_experiments::{run_line_json, to_json, RunMeta, Scenario, SchedulerSpec};
use gossip_membership::Membership;
use gossip_sim::{AsyncScheduler, PhaseTimings, SimConfig, SimResult, SliceTimings, SyncScheduler};
use gossip_telemetry::metrics::regions_for;
use gossip_telemetry::{NoopProbe, Probe};

use crate::check::{differs, field_u64, line_failures, result_failures, strip_meta, Checks};
use crate::e2e::execute;
use crate::report::Metrics;
use crate::setup::{setup, Parts, SETUP_CALLS};
use crate::spans::{SpanProbe, Spans};
use crate::stats::{median, quantile};
use crate::workload::{pool_cores, with_threads, Workload, THREADS};

/// Scenarios traced per run on the single-scenario workloads.
const TRACE_SCENARIOS: u64 = 2;
/// Seeds traced per grid cell on the sweep.
const TRACE_CELL_SEEDS: u64 = 4;
/// Repetitions of each kernel; the reported time is their median.
const KERNEL_REPS: u64 = 15;
/// Renderings of each result when timing emission.
const EMIT_REPS: u32 = 64;
/// Message universe of the transfer kernel's rows.
const KERNEL_MESSAGES: usize = 16;
const KERNEL_SALT: u64 = 0x6b65_726e;

/// Sums over the traced scenarios.
#[derive(Default)]
struct Acc {
    scenarios: f64,
    topology_ms: f64,
    untraced_s: f64,
    traced_s: f64,
    trace_events: u64,
    round_ms: Vec<f64>,
    rounds: u64,
    connections: u64,
    productive: u64,
    emit_us: Vec<f64>,
    sync_runs: f64,
    sync: PhaseTimings,
    sync_imbalance: f64,
    async_runs: f64,
    slices: SliceTimings,
    async_engine_s: f64,
    async_imbalance: f64,
    async_dropped: u64,
    async_connections: u64,
    mutations: u64,
    drain_ms: f64,
    tick_ms: f64,
    shuffles: u64,
    probes: u64,
    evictions: u64,
}

enum Timings {
    Sync(PhaseTimings),
    Async(SliceTimings),
    Untimed,
}

/// Run the traced pass; the per-layer metrics and every span recorded.
pub fn run(w: Workload, seed: u64, tiny: bool, checks: &mut Checks) -> (Metrics, Spans) {
    let mut spans = Spans::new();
    let mut acc = Acc::default();
    let mut pool = (0.0, 0.0);
    let kernel_scenario;
    if w.is_sweep() {
        let cells = w.grid(seed, 0, tiny);
        // The pool pass doubles as the warm-up; its lines are the
        // reference every traced re-run must reproduce.
        let started = Instant::now();
        let (lines, summary) = execute(&cells);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let busy_ms: f64 = lines
            .iter()
            .map(|l| field_u64(l, "wall_ms").unwrap_or(0) as f64)
            .sum();
        pool = (
            (1.0 - busy_ms / (summary.workers.max(1) as f64 * wall_ms)).max(0.0),
            summary.stolen as f64,
        );
        for line in &lines {
            checks.record("pool run", line_failures(line));
        }
        // The first cell's first run, standalone with a sharded engine,
        // against its single-threaded line from the pool.
        let sharded = with_threads(&cells[0], THREADS).run();
        let meta = RunMeta {
            threads: THREADS,
            wall_ms: 0,
        };
        let line = run_line_json(&cells[0].scenario_id(), &sharded, &meta);
        let mut failures = result_failures(&sharded);
        failures.extend(differs(
            "threads 2 vs pooled threads 1",
            strip_meta(&lines[0]),
            strip_meta(&line),
        ));
        checks.record("threads-2 re-run", failures);
        let seeds = Workload::sweep_seeds(tiny) as u64;
        for (c, cell) in cells.iter().enumerate() {
            for s in 0..TRACE_CELL_SEEDS.min(seeds) {
                let scenario = cell.with_seed(cell.seed.wrapping_add(s));
                let pooled = strip_meta(&lines[c * seeds as usize + s as usize]).to_string();
                trace_scenario(&scenario, &mut spans, &mut acc, checks, |_, line| {
                    differs("layer calls vs pooled run", &pooled, strip_meta(line))
                });
            }
        }
        kernel_scenario = cells[0].clone();
    } else {
        let first = w.scenario(seed, 0, tiny);
        let warm = to_json(&first.run());
        let serial = with_threads(&first, 1).run();
        let mut failures = result_failures(&serial);
        failures.extend(differs("threads 1 vs 2", &warm, &to_json(&serial)));
        checks.record("threads-1 re-run", failures);
        for i in 0..TRACE_SCENARIOS {
            let scenario = w.scenario(seed, i, tiny);
            trace_scenario(&scenario, &mut spans, &mut acc, checks, |result, _| {
                (i == 0)
                    .then(|| differs("layer calls vs Scenario::run", &warm, &to_json(result)))
                    .flatten()
            });
        }
        kernel_scenario = first;
    }
    let (resolve_ms, union_ms) = kernels(&kernel_scenario, &mut spans);
    (metrics(&acc, resolve_ms, union_ms, pool), spans)
}

/// Trace one scenario: the untraced leg, the traced leg, and (under
/// dynamics and membership) the replay; `reference` compares the result
/// and run line with an independent run of the same scenario.
fn trace_scenario(
    scenario: &Scenario,
    spans: &mut Spans,
    acc: &mut Acc,
    checks: &mut Checks,
    reference: impl Fn(&SimResult, &str) -> Option<String>,
) {
    let id = scenario.scenario_id();
    let sid = spans.scenario(id.clone());
    let cfg = scenario.sim_config();

    let leg = spans.open("leg.untraced", sid, None);
    let (parts, calls) = setup(scenario);
    for (name, (start, end)) in SETUP_CALLS.iter().zip(calls) {
        spans.push(name, sid, Some(leg), start, end);
    }
    let engine = spans.open("sim.engine", sid, Some(leg));
    let (result, timings) = run_engine(scenario, &parts, &cfg, None);
    spans.close(engine);
    let line = emit(scenario, &id, &result, spans, sid, leg);
    spans.close(leg);
    drop(parts);
    let engine_s = spans.spans[engine].ms() / 1e3;
    acc.untraced_s += spans.spans[leg].ms() / 1e3;
    acc.topology_ms += (calls[0].1 - calls[0].0).as_secs_f64() * 1e3;
    acc.emit_us.push(emit_us(&id, &result));

    let leg = spans.open("leg.traced", sid, None);
    let (parts, calls) = setup(scenario);
    for (name, (start, end)) in SETUP_CALLS.iter().zip(calls) {
        spans.push(name, sid, Some(leg), start, end);
    }
    let engine = spans.open("sim.engine", sid, Some(leg));
    let mut probe = SpanProbe::new(spans, sid, engine);
    let (traced, _) = run_engine(scenario, &parts, &cfg, Some(&mut probe));
    let (events, last_mutate_round) = (probe.events(), probe.last_mutate_round);
    acc.round_ms.append(&mut probe.round_ms);
    spans.close(engine);
    emit(scenario, &id, &traced, spans, sid, leg);
    spans.close(leg);
    drop(parts);
    acc.traced_s += spans.spans[leg].ms() / 1e3;
    acc.trace_events += events;

    let mut failures = result_failures(&result);
    failures.extend(differs(
        "traced vs untraced",
        &to_json(&result),
        &to_json(&traced),
    ));
    failures.extend(reference(&result, &line));

    acc.scenarios += 1.0;
    acc.rounds += result.rounds_executed as u64;
    acc.connections += result.total_connections as u64;
    acc.productive += result.productive_connections as u64;
    match timings {
        Timings::Sync(t) => {
            acc.sync_runs += 1.0;
            acc.sync.advertise += t.advertise;
            acc.sync.decide += t.decide;
            acc.sync.matching += t.matching;
            acc.sync.transfer += t.transfer;
            acc.sync.confined_proposals += t.confined_proposals;
            acc.sync.boundary_proposals += t.boundary_proposals;
            acc.sync_imbalance += t
                .connections_by_region
                .summary(regions_for(scenario.nodes))
                .imbalance;
        }
        Timings::Async(t) => {
            acc.async_runs += 1.0;
            acc.slices.execute += t.execute;
            acc.slices.merge += t.merge;
            acc.slices.sweep += t.sweep;
            acc.slices.events += t.events;
            acc.async_engine_s += engine_s;
            acc.async_imbalance += t
                .events_by_region
                .summary(regions_for(scenario.nodes))
                .imbalance;
            acc.async_dropped += result.dropped_proposals;
            acc.async_connections += result.total_connections as u64;
        }
        Timings::Untimed => {}
    }
    if scenario.is_dynamic() && !scenario.membership.is_full() {
        let drain_rounds = (result.rounds_executed as u64).max(last_mutate_round);
        failures.extend(replay(scenario, &result, drain_rounds, spans, sid, acc));
    }
    checks.record(&id, failures);
}

/// One emission as `Scenario::run`'s callers do it: id plus run line.
fn emit(
    scenario: &Scenario,
    id: &str,
    result: &SimResult,
    spans: &mut Spans,
    sid: usize,
    leg: usize,
) -> String {
    let span = spans.open("experiments.emit", sid, Some(leg));
    let meta = RunMeta {
        threads: scenario.scheduler.effective_threads(),
        wall_ms: 0,
    };
    let line = run_line_json(id, result, &meta);
    spans.close(span);
    line
}

/// Microseconds per `run_line_json` call on `result`.
fn emit_us(id: &str, result: &SimResult) -> f64 {
    let meta = RunMeta {
        threads: 1,
        wall_ms: 0,
    };
    let started = Instant::now();
    for _ in 0..EMIT_REPS {
        black_box(run_line_json(black_box(id), result, &meta));
    }
    started.elapsed().as_secs_f64() * 1e6 / EMIT_REPS as f64
}

/// The engine call `Scenario::run` would make, through the timing API
/// where the engine has one (untraced static runs).
fn run_engine(
    scenario: &Scenario,
    parts: &Parts,
    cfg: &SimConfig,
    probe: Option<&mut dyn Probe>,
) -> (SimResult, Timings) {
    let (topology, protocol, sources, seed) = (
        &parts.topology,
        parts.protocol.as_ref(),
        &parts.sources[..],
        scenario.seed,
    );
    let threads = scenario.scheduler.effective_threads();
    let membership = scenario.membership.to_config();
    let is_static = parts.dynamics.is_none() && membership.is_none();
    match (scenario.scheduler, probe) {
        (SchedulerSpec::Sync { .. }, probe) if is_static => {
            let mut noop = NoopProbe;
            let probe = probe.unwrap_or(&mut noop);
            let (r, t) = SyncScheduler::with_threads(threads)
                .run_with_timings_probed(topology, protocol, sources, seed, cfg, probe);
            (r, Timings::Sync(t))
        }
        (SchedulerSpec::Async { timing, .. }, None) if is_static => {
            let engine = AsyncScheduler { timing, threads };
            let (r, t) = engine.run_with_slice_timings(topology, protocol, sources, seed, cfg);
            (r, Timings::Async(t))
        }
        (_, probe) => {
            let mut noop = NoopProbe;
            let probe = probe.unwrap_or(&mut noop);
            let engine = scenario.scheduler.build();
            let r = match (parts.dynamics.as_deref(), membership.as_ref()) {
                (None, None) => engine.run_probed(topology, protocol, sources, seed, cfg, probe),
                (Some(d), None) => {
                    engine.run_dynamic_probed(topology, d, protocol, sources, seed, cfg, probe)
                }
                (None, Some(m)) => {
                    engine.run_membership_probed(topology, m, protocol, sources, seed, cfg, probe)
                }
                (Some(d), Some(m)) => engine.run_dynamic_membership_probed(
                    topology, d, m, protocol, sources, seed, cfg, probe,
                ),
            };
            (r, Timings::Untimed)
        }
    }
}

/// Replay the run's mutation stream and overlay ticks from their public
/// calls — `DynamicsModel::stream` drained to each round horizon through
/// `MutationKind::apply`, then `Membership::tick` over the replayed
/// underlay and alive mask — and check the replay reproduces the run's
/// counters exactly. `drain_rounds` counts the drains the engine made:
/// one per executed round, plus one when a drain itself completed the
/// run before that round's gossip.
fn replay(
    scenario: &Scenario,
    result: &SimResult,
    drain_rounds: u64,
    spans: &mut Spans,
    sid: usize,
    acc: &mut Acc,
) -> Vec<String> {
    let leg = spans.open("replay", sid, None);
    let (topology, geometry) = scenario.topology.build(scenario.nodes, scenario.seed);
    let model = scenario
        .dynamics
        .build(geometry.as_ref())
        .expect("replayed scenarios are dynamic");
    let cfg = scenario
        .membership
        .to_config()
        .expect("replayed scenarios run an overlay");
    let mut topo = DynamicTopology::new(&topology);
    let mut stream = model.stream(&topology, dynamics_seed(scenario.seed));
    let mut overlay = Membership::new(scenario.nodes, cfg);
    let (mut departures, mut rejoins) = (0usize, 0usize);
    let (mut drain, mut tick) = (Duration::ZERO, Duration::ZERO);
    for round in 1..=drain_rounds {
        let horizon = SimTime(round * TICKS_PER_ROUND);
        let span = spans.open("dynamics.drain", sid, Some(leg));
        while stream.peek_time().is_some_and(|t| t < horizon) {
            let mutation = stream.next().expect("peeked mutation must pop");
            if mutation.kind.apply(&mut topo) {
                acc.mutations += 1;
                match mutation.kind {
                    MutationKind::Depart(_) => departures += 1,
                    MutationKind::Rejoin { .. } => rejoins += 1,
                    _ => {}
                }
            }
        }
        spans.close(span);
        drain += spans.spans[span].end - spans.spans[span].start;
        if round <= result.rounds_executed as u64 {
            let span = spans.open("membership.tick", sid, Some(leg));
            overlay.tick(
                &topo,
                Some(topo.alive_mask()),
                scenario.seed,
                round,
                &mut NoopProbe,
            );
            spans.close(span);
            tick += spans.spans[span].end - spans.spans[span].start;
        }
    }
    spans.close(leg);
    acc.drain_ms += drain.as_secs_f64() * 1e3;
    acc.tick_ms += tick.as_secs_f64() * 1e3;

    let stats = overlay.finish(Some(topo.alive_mask()));
    acc.shuffles += stats.shuffles;
    acc.probes += stats.probes;
    acc.evictions += stats.evictions;
    let (Some(run_dyn), Some(run_mem)) = (&result.dynamics, &result.membership) else {
        return vec!["run reported no dynamics or membership stats".to_string()];
    };
    let pairs = [
        ("departures", departures as u64, run_dyn.departures as u64),
        ("rejoins", rejoins as u64, run_dyn.rejoins as u64),
        (
            "final_alive",
            topo.alive_count() as u64,
            run_dyn.final_alive as u64,
        ),
        ("joins", stats.joins, run_mem.joins),
        ("shuffles", stats.shuffles, run_mem.shuffles),
        ("probes", stats.probes, run_mem.probes),
        ("suspicions", stats.suspicions, run_mem.suspicions),
        ("evictions", stats.evictions, run_mem.evictions),
    ];
    pairs
        .iter()
        .filter(|(_, replayed, run)| replayed != run)
        .map(|(name, replayed, run)| format!("replayed {name} {replayed} != run's {run}"))
        .collect()
}

/// Time the matcher and the transfer kernel on `scenario`'s topology:
/// a seeded, uniform-shaped intent vector (each node with neighbours
/// proposes to a random one or listens, evenly), resolved at the pool's
/// thread count, then unioned over seeded 16-message rows.
fn kernels(scenario: &Scenario, spans: &mut Spans) -> (f64, f64) {
    let sid = spans.scenario(format!("{}-kernels", scenario.scenario_id()));
    let (topology, _) = scenario.topology.build(scenario.nodes, scenario.seed);
    let n = topology.num_nodes();
    let threads = pool_cores();
    let mut rng = Rng::new(scenario.seed ^ KERNEL_SALT);
    let intents: Vec<Intent> = (0..n)
        .map(|u| {
            let nbrs = topology.neighbors(NodeId(u as u32));
            if nbrs.is_empty() {
                Intent::Idle
            } else if rng.gen_bool() {
                Intent::Propose(nbrs[rng.gen_range(nbrs.len())])
            } else {
                Intent::Listen
            }
        })
        .collect();
    let mut rows = MessageMatrix::new(n, KERNEL_MESSAGES);
    for u in 0..n {
        for m in 0..KERNEL_MESSAGES {
            if rng.gen_bool() {
                rows.insert(u, m);
            }
        }
    }
    let (mut resolve_ms, mut union_ms) = (Vec::new(), Vec::new());
    for round in 1..=KERNEL_REPS {
        let span = spans.open("core.resolve_sharded", sid, None);
        let resolution = resolve_connections_sharded(
            &topology,
            &intents,
            scenario.seed,
            round,
            MATCH_REGIONS,
            threads,
        );
        spans.close(span);
        resolve_ms.push(spans.spans[span].ms());
        let mut matrix = rows.clone();
        let span = spans.open("core.union_pairs", sid, None);
        black_box(matrix.union_pairs_parallel(&resolution.connections, threads));
        spans.close(span);
        union_ms.push(spans.spans[span].ms());
    }
    (median(&resolve_ms), median(&union_ms))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Share of `part` in `whole`, 0 when there is no whole.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn metrics(acc: &Acc, resolve_ms: f64, union_ms: f64, pool: (f64, f64)) -> Metrics {
    let per = |v: f64, runs: f64| share(v, runs);
    let mut m = Metrics::default();
    m.set(
        "core.topology_build_ms",
        per(acc.topology_ms, acc.scenarios),
    );
    m.set("core.resolve_sharded_ms", resolve_ms);
    m.set("core.union_pairs_ms", union_ms);

    let (s, n) = (&acc.sync, acc.sync_runs);
    m.set("sim.sync.advertise_ms", per(ms(s.advertise), n));
    m.set("sim.sync.decide_ms", per(ms(s.decide), n));
    m.set("sim.sync.match_ms", per(ms(s.matching), n));
    m.set("sim.sync.transfer_ms", per(ms(s.transfer), n));
    let proposals = (s.confined_proposals + s.boundary_proposals) as f64;
    m.set(
        "sim.sync.boundary_share",
        share(s.boundary_proposals as f64, proposals),
    );
    m.set("sim.sync.region_imbalance", per(acc.sync_imbalance, n));

    let (a, n) = (&acc.slices, acc.async_runs);
    m.set("sim.async.execute_ms", per(ms(a.execute), n));
    m.set("sim.async.merge_ms", per(ms(a.merge), n));
    m.set("sim.async.sweep_ms", per(ms(a.sweep), n));
    m.set("sim.async.events", a.events as f64);
    m.set(
        "sim.async.events_per_s",
        share(a.events as f64, acc.async_engine_s),
    );
    m.set("sim.async.region_imbalance", per(acc.async_imbalance, n));
    let attempts = (acc.async_dropped + acc.async_connections) as f64;
    m.set(
        "sim.async.drop_ratio",
        share(acc.async_dropped as f64, attempts),
    );

    m.set("sim.round_ms.p50", quantile(&acc.round_ms, 0.5));
    m.set("sim.round_ms.p99", quantile(&acc.round_ms, 0.99));
    m.set("sim.rounds_executed", acc.rounds as f64);
    m.set("sim.connections", acc.connections as f64);
    m.set(
        "sim.productive_ratio",
        share(acc.productive as f64, acc.connections as f64),
    );

    m.set("dynamics.mutations", acc.mutations as f64);
    m.set("dynamics.drain_ms", per(acc.drain_ms, acc.scenarios));
    m.set("membership.tick_ms", per(acc.tick_ms, acc.scenarios));
    m.set("membership.shuffles", acc.shuffles as f64);
    m.set("membership.probes", acc.probes as f64);
    m.set("membership.evictions", acc.evictions as f64);

    m.set("experiments.emit_us_per_line", median(&acc.emit_us));
    m.set("experiments.pool_idle_frac", pool.0);
    m.set("experiments.cells_stolen", pool.1);
    m.set(
        "telemetry.trace_overhead",
        share(acc.traced_s, acc.untraced_s),
    );
    m.set("telemetry.trace_events", acc.trace_events as f64);
    m
}
