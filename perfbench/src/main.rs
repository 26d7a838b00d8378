//! perfbench: measured wall-clock benchmark of gSampler-rs.
//!
//! ```text
//! perfbench --workload <sage-pd|ladies-pd|walk-lj|serve-lj> [--seed N]
//!           [--seconds S] [--trace 0|1] [--scale F]
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up several times, checks
//! the program's outputs, and measures for `--seconds`. The last line of
//! standard output is `{"correct", "attempted", "failed", "metrics"}`:
//! end-to-end metrics untraced, per-layer metrics with `--trace 1`. The
//! line before it is a detailed report (host, checks, fingerprints, and
//! every metric with its kind). A traced run also writes its spans to
//! `perfbench/out/`.

mod checks;
mod epoch;
mod report;
mod serve;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use gsampler_graphs::DatasetKind;
use gsampler_runtime::{ArenaMetrics, PoolMetrics};

use report::{Host, Report};
use spans::Spans;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

const WORKLOADS: [&str; 4] = ["sage-pd", "ladies-pd", "walk-lj", "serve-lj"];

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Dataset scale (1.0 = the presets' default size); the smoke test
    /// shrinks it.
    pub scale: f64,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| w == value)
                    .ok_or_else(|| bad(&format!("expected one of {WORKLOADS:?}")))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 3600]"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                args.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| bad("expected a scale in (0, 1]"))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Measurement phases of a run. An untraced run measures one plain
/// phase; a traced run splits its seconds into a plain phase (the base
/// for the overhead ratios), a phase with the benchmark's spans on, and
/// one with the program's own tracing (`gsampler_obs`) on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Plain,
    Traced,
    Obs,
}

pub fn phases(args: &Args) -> Vec<(Phase, f64)> {
    if args.trace {
        let s = args.seconds / 3.0;
        vec![(Phase::Plain, s), (Phase::Traced, s), (Phase::Obs, s)]
    } else {
        vec![(Phase::Plain, args.seconds)]
    }
}

/// Set the runtime pool and arena metrics from per-unit deltas; `n` is
/// the number of units of work they cover.
pub fn set_runtime(
    report: &mut Report,
    deltas: impl Iterator<Item = (PoolMetrics, ArenaMetrics)>,
    n: f64,
) {
    let mut pool = PoolMetrics::default();
    let mut arena = ArenaMetrics::default();
    for (p, a) in deltas {
        pool.accumulate(&p);
        arena.accumulate(&a);
    }
    report.set("runtime.pool.regions", pool.regions as f64 / n);
    report.set("runtime.pool.busy_ms", pool.busy_ns as f64 / 1e6 / n);
    report.set(
        "runtime.pool.idle_ms",
        pool.capacity_ns.saturating_sub(pool.busy_ns) as f64 / 1e6 / n,
    );
    report.set("runtime.pool.efficiency", pool.efficiency());
    report.set("runtime.arena.takes", arena.takes as f64 / n);
    report.set("runtime.arena.hit_rate", arena.hit_rate());
}

/// Record the process's peak resident set so far (`VmHWM`). Workloads
/// call this when timing ends, before the after-timing checks.
pub fn record_peak_rss(report: &mut Report) {
    let peak = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match peak {
        Some(kib) => report.set("peak_rss_mib", kib / 1024.0),
        None => report.check("peak_rss_readable", false, || {
            "no VmHWM in /proc/self/status".into()
        }),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = gsampler_runtime::num_threads();
    if threads > nproc {
        eprintln!(
            "perfbench: the pool would run {threads} threads on {nproc} cores; \
             unset GSAMPLER_THREADS or set it to at most {nproc}"
        );
        return ExitCode::from(2);
    }
    let host = Host {
        nproc,
        threads,
        rustc: env!("PERFBENCH_RUSTC"),
    };
    let origin = Instant::now();
    let run_id = args.seed ^ u64::from(std::process::id()).rotate_left(32);
    let mut spans = Spans::new(origin, run_id);
    let mut report = Report::new(args.workload, args.seed, args.trace, host);
    match args.workload {
        "sage-pd" => epoch::run(
            &args,
            epoch::Algo::Sage,
            DatasetKind::OgbnProducts,
            &mut report,
            &mut spans,
        ),
        "ladies-pd" => epoch::run(
            &args,
            epoch::Algo::Ladies,
            DatasetKind::OgbnProducts,
            &mut report,
            &mut spans,
        ),
        "walk-lj" => epoch::run(
            &args,
            epoch::Algo::Walk,
            DatasetKind::LiveJournal,
            &mut report,
            &mut spans,
        ),
        "serve-lj" => serve::run(&args, &mut report, &mut spans),
        _ => unreachable!("parse admits listed workloads only"),
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{}-seed{}-spans.json",
            args.workload, args.seed
        ));
        if let Err(e) = spans.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let missing = report.missing();
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {missing:?}");
        return ExitCode::from(1);
    }
    eprint!("{}", report.summary());
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
