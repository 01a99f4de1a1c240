//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload crawl_paper --seed 1 --seconds 40 --trace 0
//! ```
//!
//! With `--trace 0` it runs the workload's timed pass for `--seconds`
//! seconds (at least once) and prints the end-to-end metrics; with
//! `--trace 1` it runs untraced passes for half the time, then a
//! single-threaded replay that times every call into each layer and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. A failed output check exits with code 1. See
//! `perfbench/README.md` for the metrics and what moves them.

mod check;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Metrics;
use stats::FailCount;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Pass, Workload};

/// Set-ups measured before each pass on top of the pass's own, so
/// `setup_s` is a median of many samples spread over the whole run.
const SETUP_REPS: usize = 17;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = check::DEFAULT_SEED;
    let mut seconds = 40;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The passes of one run and the set-up samples taken around them.
pub struct Run {
    /// Every timed pass, in order.
    pub passes: Vec<Pass>,
    /// Set-up samples: the dedicated repetitions plus each pass's own.
    pub setups: Vec<f64>,
    /// Peak RSS once the first pass ended: a process that has run this
    /// workload once and nothing else. Later passes only add allocator
    /// fragmentation, which would tie the figure to the pass count.
    pub peak_rss_mib: f64,
}

impl Run {
    /// The first failed check, including digests that differ between
    /// passes of the same seed.
    pub fn verdict(&self) -> Result<(), String> {
        for p in &self.passes {
            p.verdict.clone()?;
        }
        let first = self.passes[0].digest;
        check::ensure(self.passes.iter().all(|p| p.digest == first), || {
            "digest differs between passes of the same seed".into()
        })
    }

    /// Median wall clock of the passes.
    pub fn wall_s(&self) -> f64 {
        stats::median(
            &self
                .passes
                .iter()
                .map(|p| p.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    }
}

/// Run timed passes until the next one would overrun `budget` (at least
/// one).
fn timed_passes(w: Workload, seed: u64, budget: Duration, scratch: &std::path::Path) -> Run {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut rss = 0.0;
    loop {
        setups.extend((0..SETUP_REPS).map(|_| workloads::setup_only(w, seed).as_secs_f64()));
        let t = Instant::now();
        let pass = workloads::run_pass(w, seed, scratch);
        let took = t.elapsed();
        eprintln!(
            "pass {}: wall {:.3} s",
            passes.len() + 1,
            pass.wall.as_secs_f64()
        );
        if passes.is_empty() {
            rss = peak_rss_mib();
        }
        setups.push(pass.setup.as_secs_f64());
        let failed = pass.verdict.is_err();
        passes.push(pass);
        if failed || start.elapsed() + took > budget {
            break;
        }
    }
    Run {
        passes,
        setups,
        peak_rss_mib: rss,
    }
}

/// The end-to-end metrics of an untraced run, the verdict of the serving
/// latency pass, and the failure accounting of one pass.
fn end_to_end(w: Workload, seed: u64, run: &Run) -> (Metrics, Result<(), String>, FailCount) {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        stats::median(&run.passes.iter().map(f).collect::<Vec<_>>())
    };
    let last = run.passes.last().expect("at least one pass");
    let (latencies, verdict, fail) = if w == Workload::ServeSoak {
        let (ms, digest) = workloads::serve_latencies(seed);
        let same = check::ensure(digest == last.digest, || {
            "collecting outcomes changed the serving digest".into()
        });
        // Only the collected outcomes tell how many auctions were
        // answered after their budget (the structural check already
        // fails the run if any was).
        let budget_ms = workloads::serve_config(seed).budget.as_micros() as f64 / 1_000.0;
        let late = ms.iter().filter(|&&l| l > budget_ms).count() as u64;
        let fail = FailCount::serve(last.fail.attempted, last.fail.failed, late);
        (ms, same, fail)
    } else {
        (last.latencies_ms.clone(), Ok(()), last.fail)
    };
    let (p50, p99, p9999) = report::auction_quantiles(&latencies);
    let mut m = Metrics::default();
    m.push("setup_s", stats::median(&run.setups), "s");
    m.push("wall_s", run.wall_s(), "s");
    m.push(
        "visits_per_s",
        per_pass(&|p| p.visits as f64 / p.wall.as_secs_f64()),
        "1/s",
    );
    m.push(
        "auctions_per_s",
        per_pass(&|p| p.auctions as f64 / p.wall.as_secs_f64()),
        "1/s",
    );
    m.push("peak_rss_mib", run.peak_rss_mib, "MiB");
    m.push("ok_share", fail.ok_share(), "ratio");
    m.push("auction_p50_ms", p50, "ms");
    m.push("auction_p99_ms", p99, "ms");
    m.push("auction_p9999_ms", p9999, "ms");
    (m, verdict, fail)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload crawl_paper|distd_stressed|serve_soak \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Scratch space (the distd spool) lives inside the working directory.
    let scratch = PathBuf::from(".bench_scratch").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let budget = Duration::from_secs(args.seconds.max(1));
    let (run, metrics, verdict, fail) = if args.trace {
        let run = timed_passes(args.workload, args.seed, budget / 2, &scratch);
        let verdict = run.verdict();
        let (metrics, trace_verdict) = trace::traced(args.workload, args.seed, &run, &scratch);
        let fail = run.passes.last().expect("at least one pass").fail;
        (run, metrics, verdict.and(trace_verdict), fail)
    } else {
        let run = timed_passes(args.workload, args.seed, budget, &scratch);
        let verdict = run.verdict();
        let (metrics, latency_verdict, fail) = end_to_end(args.workload, args.seed, &run);
        (run, metrics, verdict.and(latency_verdict), fail)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_scratch");

    metrics.print_table();
    eprintln!("digest {:016x}", run.passes[0].digest);
    if let Err(e) = &verdict {
        eprintln!("perfbench: output check failed: {e}");
    }
    println!(
        "{}",
        metrics.to_json(verdict.is_ok(), fail.attempted.max(1), fail.failed)
    );
    if verdict.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
