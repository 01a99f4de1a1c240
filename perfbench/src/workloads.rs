//! The three workloads, each as one timed pass: set up, run, fold,
//! render, check.

use crate::check::{check_golden, ensure, golden_of, render_digest, ScheduleCheck};
use crate::stats::FailCount;
use hb_adtech::{Net, RobustnessPolicy};
use hb_analysis::{
    fault_reports, indexed_reports, DatasetIndex, DatasetIndexBuilder, FigureReport,
};
use hb_crawler::{run_campaign_streamed, CampaignConfig, VisitChunk};
use hb_distd::{run_worker, CoordConfig, CoordStats, Coordinator, WorkerConfig, WorkerStats};
use hb_ecosystem::{EcosystemConfig, ScenarioConfig, SiteFactory};
use hb_serve::{serve_load_with, Decision, LoadGenConfig, ServeConfig, ServeReport};
use hb_simnet::{Dist, HostFaultProfile, LatencyModel, SimDuration};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Visits per block and sealed chunk, as the campaign default.
pub const CHUNK_VISITS: usize = 256;
/// Crawl workers of `distd_stressed` (the box has two cores).
pub const DISTD_WORKERS: usize = 2;
/// Auctions in one `serve_soak` stream.
pub const SERVE_AUCTIONS: u64 = 1_000_000;
/// Serving worker threads claiming the fixed shards.
pub const SERVE_WORKERS: usize = 2;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper universe, healthy, streamed path on one crawl worker.
    CrawlPaper,
    /// Paper universe under the stressed all-axes scenario, through the
    /// distd fabric with the durable spool.
    DistdStressed,
    /// A long `LoadGen` stream through the serving orchestrator.
    ServeSoak,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "crawl_paper" => Some(Workload::CrawlPaper),
            "distd_stressed" => Some(Workload::DistdStressed),
            "serve_soak" => Some(Workload::ServeSoak),
            _ => None,
        }
    }
}

/// Counters of the real distd run that the traced run reports.
#[derive(Clone, Debug, Default)]
pub struct DistdRun {
    /// Coordinator counters.
    pub coord: CoordStats,
    /// Per-worker counters.
    pub workers: Vec<WorkerStats>,
    /// Time the coordinator's sink sat idle between chunks.
    pub fold_wait: Duration,
}

/// What one timed pass measured and produced.
pub struct Pass {
    /// Set-up time: universe build plus net / coordinator bind.
    pub setup: Duration,
    /// First input to last report rendered and checked (serving: first
    /// to last auction resolved, checked).
    pub wall: Duration,
    /// Visits crawled (serving: ad requests, one per page view).
    pub visits: u64,
    /// Auctions resolved (crawl: HB auctions whose latency the crawler
    /// measured; serving: admitted auctions).
    pub auctions: u64,
    /// Failure accounting.
    pub fail: FailCount,
    /// Output digest (report CSVs, or the serving digest).
    pub digest: u64,
    /// Every check's verdict.
    pub verdict: Result<(), String>,
    /// Sorted simulated auction latencies in ms: the detector's per-visit
    /// HB latency (empty for serving; see [`serve_latencies`]).
    pub latencies_ms: Vec<f64>,
    /// distd counters (distd only).
    pub distd: Option<DistdRun>,
}

/// The healthy paper universe.
pub fn crawl_config(seed: u64) -> EcosystemConfig {
    EcosystemConfig::paper_scale().with_seed(seed)
}

/// The paper universe under the stressed all-axes scenario: one partner
/// lossy, one hard-down from day 1, a congested link to a third, and the
/// degraded robustness posture.
pub fn stressed_config(seed: u64) -> EcosystemConfig {
    let base = crawl_config(seed);
    let specs = hb_ecosystem::catalog::catalog();
    let scenario = ScenarioConfig::healthy()
        .with_host_profile(
            specs[0].host(),
            HostFaultProfile {
                drop_chance: 0.20,
                slow_chance: 0.30,
                slow_penalty_ms: Dist::Const(900.0),
            },
        )
        .with_outage(specs[1].host(), 1, base.crawl_days)
        .with_degraded_link(specs[2].host(), LatencyModel::constant(1_200.0))
        .with_robustness(RobustnessPolicy::degraded_defaults());
    base.with_scenario(scenario)
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 29)
}

/// The universe `serve_soak` serves: the paper universe at its own seed
/// for every benchmark seed. The benchmark seed picks the request stream
/// and the orchestrator's randomness, so run-to-run differences in the
/// latency percentiles come from a million sampled auctions, not from a
/// different universe each run.
pub fn serve_universe() -> EcosystemConfig {
    EcosystemConfig::paper_scale()
}

/// Serving tuning: the default orchestrator on 8 fixed shards.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed: mix(seed, 1),
        shards: 8,
        ..ServeConfig::default()
    }
}

/// The open-loop stream: zipf site choice over the paper universe, one
/// arrival per 400 µs of simulated time on average.
pub fn load_config(seed: u64, n_sites: u32) -> LoadGenConfig {
    LoadGenConfig {
        seed: mix(seed, 2),
        n_requests: SERVE_AUCTIONS,
        n_sites: n_sites as u64,
        mean_gap: SimDuration::from_micros(400),
        ..LoadGenConfig::default()
    }
}

/// The serving net: the factory's, with the first four non-ad-server
/// providers on a lossy, slow profile so breakers trip and hedges fire.
pub fn serve_net(f: &SiteFactory) -> Net {
    let lossy = HostFaultProfile {
        drop_chance: 0.45,
        slow_chance: 0.35,
        slow_penalty_ms: Dist::Const(220.0),
    };
    let slice: Vec<String> = f
        .gen()
        .specs
        .iter()
        .filter(|s| !s.is_ad_server)
        .take(4)
        .map(|s| s.host())
        .collect();
    let scenario = ScenarioConfig::healthy().with_provider_slice(slice, lossy);
    let inj = scenario.injector_for_day(&f.faults(), 0);
    Net::new(f.router(), f.latency(), Arc::new(inj))
}

/// Set up a workload once and drop it; returns the set-up time.
pub fn setup_only(w: Workload, seed: u64) -> Duration {
    let t = Instant::now();
    match w {
        Workload::CrawlPaper => drop(std::hint::black_box(SiteFactory::new(crawl_config(seed)))),
        Workload::DistdStressed => {
            let (factory, coord) = distd_setup(CoordConfig::new(stressed_config(seed)));
            drop(std::hint::black_box((factory, coord)));
        }
        Workload::ServeSoak => {
            let f = SiteFactory::new(serve_universe());
            drop(std::hint::black_box(serve_net(&f)));
        }
    }
    t.elapsed()
}

/// The set-up of one fabric node: the stressed universe build every
/// worker performs on start, plus the coordinator bind.
fn distd_setup(cfg: CoordConfig) -> (SiteFactory, Coordinator) {
    let factory = SiteFactory::new(cfg.eco.clone());
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind coordinator");
    (factory, coordinator)
}

/// Run one timed pass of a workload.
pub fn run_pass(w: Workload, seed: u64, scratch: &Path) -> Pass {
    match w {
        Workload::CrawlPaper => crawl_pass(seed),
        Workload::DistdStressed => distd_pass(seed, scratch),
        Workload::ServeSoak => serve_pass(seed),
    }
}

/// Every report of a crawl campaign: the 21 paper reports, then the
/// Z1/Z2 fault slices.
fn campaign_reports(ix: &DatasetIndex) -> Vec<FigureReport> {
    let mut reports = indexed_reports(ix);
    reports.extend(fault_reports(ix));
    reports
}

/// The crawler-measured HB latencies of an index, sorted.
fn index_latencies(ix: &DatasetIndex) -> Vec<f64> {
    let mut v: Vec<f64> = ix
        .v_latency
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn crawl_pass(seed: u64) -> Pass {
    let t0 = Instant::now();
    let factory = SiteFactory::new(crawl_config(seed));
    let setup = t0.elapsed();

    let t1 = Instant::now();
    let cfg = factory.config();
    let camp = CampaignConfig {
        parallelism: 1,
        chunk_visits: CHUNK_VISITS,
        ..CampaignConfig::default()
    };
    let mut builder = DatasetIndexBuilder::new(cfg.n_sites, cfg.crawl_days);
    let mut sched = ScheduleCheck::new(cfg.n_sites, cfg.crawl_days, CHUNK_VISITS);
    run_campaign_streamed(&factory, &camp, &mut |chunk: VisitChunk| {
        sched.push(&chunk);
        builder.push_chunk(&chunk);
    });
    let ix = builder.finish();
    let digest = render_digest(&campaign_reports(&ix));
    let verdict = sched
        .verdict()
        .and_then(|()| check_golden("crawl_paper", golden_of(seed).map(|g| g.crawl), digest));
    let wall = t1.elapsed();

    let latencies_ms = index_latencies(&ix);
    Pass {
        setup,
        wall,
        visits: sched.folded,
        auctions: latencies_ms.len() as u64,
        fail: FailCount::crawl(sched.scheduled(), sched.folded),
        digest,
        verdict,
        latencies_ms,
        distd: None,
    }
}

/// A fresh spool directory for one distd pass.
fn fresh_spool(scratch: &Path) -> PathBuf {
    let dir = scratch.join("spool");
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn distd_pass(seed: u64, scratch: &Path) -> Pass {
    let spool = fresh_spool(scratch);
    let t0 = Instant::now();
    let cfg = CoordConfig {
        spool_dir: Some(spool.clone()),
        ..CoordConfig::new(stressed_config(seed))
    };
    let (_, coordinator) = distd_setup(cfg.clone());
    let setup = t0.elapsed();

    let t1 = Instant::now();
    let addr = coordinator
        .local_addr()
        .expect("coordinator address")
        .to_string();
    let eco = &cfg.eco;
    let mut builder = DatasetIndexBuilder::new(eco.n_sites, eco.crawl_days);
    let mut sched = ScheduleCheck::new(eco.n_sites, eco.crawl_days, cfg.chunk_visits);
    let mut fold_wait = Duration::ZERO;
    let mut idle_since = Instant::now();
    let (coord, workers) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DISTD_WORKERS)
            .map(|_| {
                let wcfg = WorkerConfig {
                    shards: cfg.shards,
                    chunk_visits: cfg.chunk_visits,
                    session: cfg.session.clone(),
                    ..WorkerConfig::new(addr.clone(), cfg.eco.clone())
                };
                scope.spawn(move || run_worker(&wcfg))
            })
            .collect();
        let coord = coordinator.run(&mut |chunk: VisitChunk| {
            fold_wait += idle_since.elapsed();
            sched.push(&chunk);
            builder.push_chunk(&chunk);
            idle_since = Instant::now();
        });
        let workers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (coord, workers)
    });
    let ix = builder.finish();
    let digest = render_digest(&campaign_reports(&ix));
    let mut verdict = sched.verdict();
    let coord = match coord {
        Ok(c) => c,
        Err(e) => {
            verdict = Err(format!("coordinator: {e}"));
            CoordStats::default()
        }
    };
    let mut worker_stats = Vec::new();
    for w in workers {
        match w {
            Ok(s) => worker_stats.push(s),
            Err(e) => verdict = verdict.and(Err(format!("worker: {e}"))),
        }
    }
    let verdict = verdict
        .and_then(|()| {
            ensure(coord.chunks_folded as u64 == sched.blocks(), || {
                format!(
                    "coordinator folded {} of {} blocks",
                    coord.chunks_folded,
                    sched.blocks()
                )
            })
        })
        .and_then(|()| {
            ensure(coord.blocks_total == coord.chunks_folded, || {
                format!(
                    "blocks_total {} != chunks_folded {}",
                    coord.blocks_total, coord.chunks_folded
                )
            })
        })
        .and_then(|()| check_golden("distd_stressed", golden_of(seed).map(|g| g.distd), digest));
    let wall = t1.elapsed();
    let _ = std::fs::remove_dir_all(&spool);

    let latencies_ms = index_latencies(&ix);
    Pass {
        setup,
        wall,
        visits: sched.folded,
        auctions: latencies_ms.len() as u64,
        fail: FailCount::crawl(sched.scheduled(), sched.folded),
        digest,
        verdict,
        latencies_ms,
        distd: Some(DistdRun {
            coord,
            workers: worker_stats,
            fold_wait,
        }),
    }
}

/// The simulated latency of every admitted auction of the seed's
/// stream, in ms, sorted. Collecting 1M outcomes costs memory and time
/// the timed passes do not pay, so this is its own, untimed pass; its
/// digest must equal the timed passes'.
pub fn serve_latencies(seed: u64) -> (Vec<f64>, u64) {
    let factory = SiteFactory::new(serve_universe());
    let net = serve_net(&factory);
    let cfg = serve_config(seed);
    let load = load_config(seed, factory.config().n_sites);
    let report = serve_load_with(factory.gen(), &net, &cfg, &load, SERVE_WORKERS, true);
    let mut ms: Vec<f64> = report
        .shards
        .iter()
        .flat_map(|sh| &sh.outcomes)
        .filter(|o| o.decision != Decision::Shed)
        .map(|o| o.latency.as_micros() as f64 / 1_000.0)
        .collect();
    ms.sort_by(f64::total_cmp);
    (ms, report.digest())
}

/// Structural checks of a serving run: every request reached the
/// orchestrator and was admitted or shed, every admitted auction was
/// answered (fill or passback) within its budget, and no shard ran past
/// its last arrival plus the budget.
pub fn check_serve(
    report: &ServeReport,
    cfg: &ServeConfig,
    load: &LoadGenConfig,
) -> Result<(), String> {
    let s = &report.stats;
    ensure(s.auctions == load.n_requests, || {
        format!(
            "{} of {} requests reached the orchestrator",
            s.auctions, load.n_requests
        )
    })?;
    ensure(s.admitted + s.sheds == s.auctions, || {
        format!(
            "admitted {} + shed {} != {} auctions",
            s.admitted, s.sheds, s.auctions
        )
    })?;
    ensure(s.fills() + s.passbacks == s.admitted, || {
        format!(
            "fills {} + passbacks {} != {} admitted",
            s.fills(),
            s.passbacks,
            s.admitted
        )
    })?;
    ensure(report.hist.count() == s.admitted, || {
        format!(
            "{} latencies for {} admitted auctions",
            report.hist.count(),
            s.admitted
        )
    })?;
    let budget_us = cfg.budget.as_micros();
    ensure(report.hist.max() <= budget_us, || {
        format!(
            "an auction took {} µs, over the {budget_us} µs budget",
            report.hist.max()
        )
    })?;
    let shards = cfg.shards.max(1) as u64;
    for sh in &report.shards {
        let last = (load.n_requests - 1 - sh.shard as u64) / shards * shards + sh.shard as u64;
        let bound = load.request(last).arrival.saturating_add(cfg.budget);
        ensure(sh.end <= bound, || {
            format!(
                "shard {} went idle at {:?}, after its last deadline {bound:?}",
                sh.shard, sh.end
            )
        })?;
    }
    Ok(())
}

fn serve_pass(seed: u64) -> Pass {
    let t0 = Instant::now();
    let factory = SiteFactory::new(serve_universe());
    let net = serve_net(&factory);
    let setup = t0.elapsed();

    let cfg = serve_config(seed);
    let load = load_config(seed, factory.config().n_sites);
    let t1 = Instant::now();
    let report = serve_load_with(factory.gen(), &net, &cfg, &load, SERVE_WORKERS, false);
    let digest = report.digest();
    let verdict = check_serve(&report, &cfg, &load)
        .and_then(|()| check_golden("serve_soak", golden_of(seed).map(|g| g.serve), digest));
    let wall = t1.elapsed();

    let s = report.stats;
    Pass {
        setup,
        wall,
        visits: s.auctions,
        auctions: s.admitted,
        // Late answers are counted from the collected outcomes of
        // `serve_latencies`; the timed pass only knows the sheds.
        fail: FailCount::serve(s.auctions, s.sheds, 0),
        digest,
        verdict,
        latencies_ms: Vec::new(),
        distd: None,
    }
}
