//! End-to-end and per-layer benchmark of the gossip simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! With `--trace 0` it runs the workload's scenarios to completion for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it
//! runs the traced pass and reports the per-layer metrics. Either way
//! every output is checked. The last stdout line is the result object;
//! the line before it is the run's record (machine, spreads, checks).
//! See `perfbench/README.md`.

mod check;
mod e2e;
mod layers;
mod report;
mod setup;
mod spans;
mod stats;
mod workload;

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use check::Checks;
use report::{object, result_line, Metrics, END_TO_END, PER_LAYER};
use workload::Workload;

/// The seed a plain run uses.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: perfbench --workload <sync-grid-uniform|async-rgg-advert|\
churn-membership|sweep-small> [--seed N] [--seconds N] [--trace 0|1] [--tiny]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::SyncGridUniform,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let mut checks = Checks::default();
    let (metrics, table, detail) = if args.trace {
        let (metrics, spans) = layers::run(args.workload, args.seed, args.tiny, &mut checks);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", args.workload.name()));
        write_spans(&spans, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let self_ms: Vec<(&str, f64)> = spans
            .layer_times()
            .into_iter()
            .map(|(name, t)| (name, t.self_ms))
            .collect();
        let detail = format!(
            "\"spans\":{},\"spans_file\":\"{}\",\"self_ms\":{}",
            spans.spans.len(),
            path.display(),
            object(&self_ms)
        );
        (metrics, PER_LAYER, detail)
    } else {
        let e2e = e2e::run(
            args.workload,
            args.seed,
            args.seconds,
            args.tiny,
            &mut checks,
        )?;
        let sample_s: Vec<String> = e2e.sample_s.iter().map(|s| report::num(*s)).collect();
        let detail = format!(
            "\"sample_s\":[{}],\"spread\":{}",
            sample_s.join(","),
            object(&e2e.spread)
        );
        (e2e.metrics, END_TO_END, detail)
    };
    // Calibrated last: the untraced pass reads its memory peak first.
    let calibration = stats::calibration_score();
    print_result(
        args,
        &metrics,
        table,
        &detail,
        &checks,
        calibration,
        started,
    )
}

fn write_spans(spans: &spans::Spans, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    spans.write_jsonl(&mut out)?;
    out.flush()
}

fn print_result(
    args: &Args,
    metrics: &Metrics,
    table: &[(&'static str, &str, &str)],
    detail: &str,
    checks: &Checks,
    calibration: f64,
    started: Instant,
) -> Result<(), String> {
    eprintln!(
        "{} seed {} ({}):\n{}",
        args.workload.name(),
        args.seed,
        if args.trace {
            "per-layer, traced"
        } else {
            "end-to-end, untraced"
        },
        metrics.table(table)
    );
    let machine = object(&[
        (
            "available_parallelism",
            stats::available_parallelism() as f64,
        ),
        ("calibration_mops", calibration),
    ]);
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"tiny\":{},\"machine\":{machine},{detail},\"failed_frac\":{},\"elapsed_s\":{}}}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        args.tiny,
        report::num(checks.failed_frac()),
        report::num(started.elapsed().as_secs_f64()),
    );
    let result = result_line(
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        &metrics.to_json(table),
    );
    let mut out = io::stdout().lock();
    writeln!(out, "{record}\n{result}").map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = parse("--workload sweep-small --seed 9 --seconds 3 --trace 1 --tiny").unwrap();
        assert_eq!(a.workload, Workload::SweepSmall);
        assert_eq!((a.seed, a.seconds, a.trace, a.tiny), (9, 3.0, true, true));
        assert_eq!(
            parse("--workload churn-membership").unwrap().seed,
            DEFAULT_SEED
        );
        for bad in [
            "",
            "--workload nope",
            "--workload sweep-small --trace 2",
            "--workload sweep-small --seconds -1",
            "--workload sweep-small --seed",
            "--workload sweep-small --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
