//! The traced run: a single-threaded, layer-by-layer replay of the
//! workload through each crate's public functions, timing every call
//! from here (the crates carry no spans of their own yet).
//!
//! * Crawl (`crawl_paper`, `distd_stressed`): per day, ranks in blocks of
//!   256; per visit `runtime_shared` + `visit_rng` (ecosystem) then
//!   `crawl_site_into` (crawler). Each block is sealed into a
//!   `VisitChunk`, encoded, for distd sent as one `Msg::SubmitChunk`
//!   through `write_msg`/`read_msg` on a loopback pair and spooled with
//!   `spool_write`, then decoded and folded; the index is finished and
//!   every report rendered one by one.
//! * Serve: the `LoadGen` stream, a derive of every request's site on a
//!   fresh factory, then `serve_load_with` on one worker over another
//!   fresh factory, so the orchestrator is not pre-warmed.
//!
//! The replay must reproduce the untraced passes' digest (the golden one
//! for the default seed); anything else fails the run.

use crate::check::{csv_digest, ensure};
use crate::report::Metrics;
use crate::stats::summarize;
use crate::workloads::{
    crawl_config, load_config, serve_config, serve_net, serve_universe, stressed_config, Workload,
    CHUNK_VISITS,
};
use crate::Run;
use hb_analysis::{DatasetIndex, DatasetIndexBuilder, FigureReport};
use hb_core::{Interner, VisitColumns};
use hb_crawler::session::{crawl_site_into, VisitScratch};
use hb_crawler::{SessionConfig, VisitChunk};
use hb_distd::{read_msg, spool_write, write_msg, Msg};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use hb_serve::{serve_load_with, ServeStats};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

type ReportFn = fn(&DatasetIndex) -> FigureReport;

/// Every report the crawl workloads render, with its id: the 21 paper
/// reports in `indexed_reports` order, then Z1/Z2 in `fault_reports`
/// order.
const REPORTS: [(&str, ReportFn); 23] = [
    ("T1", hb_analysis::summary::t1_summary),
    ("A1", hb_analysis::summary::adoption_bands),
    ("A2", hb_analysis::summary::facet_breakdown),
    ("F8", hb_analysis::partners::f08_top_partners),
    ("F9", hb_analysis::partners::f09_partners_per_site),
    ("F10", hb_analysis::partners::f10_combinations),
    ("F11", hb_analysis::partners::f11_bids_by_facet),
    ("F12", hb_analysis::latency::f12_latency_ecdf),
    ("F13", hb_analysis::latency::f13_latency_vs_rank),
    ("F14", hb_analysis::latency::f14_partner_latency),
    ("F15", hb_analysis::latency::f15_latency_vs_partners),
    ("F16", hb_analysis::latency::f16_latency_vs_popularity),
    ("F17", hb_analysis::late::f17_late_ecdf),
    ("F18", hb_analysis::late::f18_late_by_partner),
    ("F19", hb_analysis::slots::f19_slots_ecdf),
    ("F20", hb_analysis::slots::f20_latency_vs_slots),
    ("F21", hb_analysis::slots::f21_sizes),
    ("F22", hb_analysis::prices::f22_price_ecdf),
    ("F23", hb_analysis::prices::f23_price_by_size),
    ("F24", hb_analysis::prices::f24_price_by_popularity),
    ("X1", hb_analysis::waterfall_cmp::x01_waterfall_compare),
    ("Z1", hb_analysis::faults::z01_fault_slices),
    ("Z2", hb_analysis::faults::z02_fault_timeline),
];

/// Ground-truth facet labels, in metric order.
const FACETS: [&str; 4] = ["client-side", "server-side", "hybrid", "none"];

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Everything the replay timed or counted.
#[derive(Default)]
struct Layers {
    derive_sweep: Vec<f64>,
    derive_revisit: Vec<f64>,
    derive_serve: Vec<f64>,
    visit_sweep: Vec<f64>,
    visit_revisit: Vec<f64>,
    visit_facet: [Vec<f64>; 4],
    pages_incomplete: u64,
    frames: u64,
    frame_bytes: u64,
    encode: Duration,
    decode: Duration,
    socket: Duration,
    spool: Duration,
    fold: Duration,
    finish: Duration,
    render: Vec<(&'static str, Duration)>,
    loadgen: Duration,
    orchestrate: Duration,
    serve: ServeStats,
}

fn seconds(samples_us: &[f64]) -> f64 {
    samples_us.iter().fold(0.0, |a, b| a + b) / 1e6
}

impl Layers {
    fn derive_s(&self) -> f64 {
        seconds(&self.derive_sweep) + seconds(&self.derive_revisit) + seconds(&self.derive_serve)
    }

    fn visit_s(&self) -> f64 {
        seconds(&self.visit_sweep) + seconds(&self.visit_revisit)
    }

    fn render_s(&self) -> f64 {
        self.render
            .iter()
            .fold(0.0, |a, (_, d)| a + d.as_secs_f64())
    }

    /// Summed self time of every layer call the replay made.
    fn self_s(&self) -> f64 {
        self.derive_s()
            + self.visit_s()
            + [
                self.encode,
                self.decode,
                self.socket,
                self.spool,
                self.fold,
                self.finish,
                self.loadgen,
                self.orchestrate,
            ]
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>()
            + self.render_s()
    }
}

/// One `Msg::SubmitChunk` per frame over a loopback TCP pair: a writer
/// thread plays the worker, this thread reads as the coordinator would.
struct Loopback {
    to_writer: Option<mpsc::Sender<(u64, Vec<u8>)>>,
    reader: TcpStream,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl Loopback {
    fn open() -> std::io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut client = TcpStream::connect(listener.local_addr()?)?;
        let (reader, _) = listener.accept()?;
        client.set_nodelay(true)?;
        reader.set_nodelay(true)?;
        let (to_writer, frames) = mpsc::channel::<(u64, Vec<u8>)>();
        let writer = std::thread::spawn(move || {
            for (lease_id, frame) in frames {
                if write_msg(&mut client, &Msg::SubmitChunk { lease_id, frame }).is_err() {
                    return;
                }
            }
        });
        Ok(Loopback {
            to_writer: Some(to_writer),
            reader,
            writer: Some(writer),
        })
    }

    /// Send a frame across and return it as received.
    fn round_trip(&mut self, lease_id: u64, frame: Vec<u8>) -> Result<Vec<u8>, String> {
        let tx = self.to_writer.as_ref().expect("open loopback");
        tx.send((lease_id, frame))
            .map_err(|_| "loopback writer gone".to_string())?;
        match read_msg(&mut self.reader) {
            Ok(Msg::SubmitChunk {
                lease_id: got,
                frame,
            }) if got == lease_id => Ok(frame),
            Ok(other) => Err(format!(
                "loopback delivered an unexpected message: {other:?}"
            )),
            Err(e) => Err(format!("loopback read: {e}")),
        }
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        // Close the reading end first so a writer stuck mid-frame (after
        // a failed read) errors out instead of blocking the join.
        let _ = self.reader.shutdown(Shutdown::Both);
        self.to_writer.take();
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

/// Replay a campaign layer by layer; returns the report digest.
fn replay_campaign(
    eco: EcosystemConfig,
    distd: Option<&Path>,
    l: &mut Layers,
) -> Result<u64, String> {
    let mut wire = match distd {
        Some(_) => Some(Loopback::open().map_err(|e| format!("loopback: {e}"))?),
        None => None,
    };
    let factory = SiteFactory::new(eco);
    let cfg = factory.config().clone();
    let session = SessionConfig::default();
    let mut builder = DatasetIndexBuilder::new(cfg.n_sites, cfg.crawl_days);
    let sweep: Vec<u32> = (1..=cfg.n_sites).collect();
    let mut detected: Vec<u32> = Vec::new();
    for day in 0..=cfg.crawl_days {
        let ranks = if day == 0 {
            sweep.clone()
        } else {
            detected.clone()
        };
        let net = factory.net_for_day(day);
        let mut scratch = VisitScratch::new(factory.partner_list());
        for (seq, block) in ranks.chunks(CHUNK_VISITS).enumerate() {
            let mut strings = Interner::new();
            let mut visits = VisitColumns::with_capacity(block.len());
            let mut truths = Vec::with_capacity(block.len());
            for &rank in block {
                let t0 = Instant::now();
                let runtime = factory.runtime_shared(rank);
                let rng = factory.visit_rng(rank, day);
                let t1 = Instant::now();
                let outcome = crawl_site_into(
                    net.clone(),
                    runtime,
                    rng,
                    day,
                    &session,
                    &mut strings,
                    &mut scratch,
                    &mut visits,
                    &mut truths,
                );
                let t2 = Instant::now();
                let (derive, visit) = (us(t1 - t0), us(t2 - t1));
                if day == 0 {
                    l.derive_sweep.push(derive);
                    l.visit_sweep.push(visit);
                } else {
                    l.derive_revisit.push(derive);
                    l.visit_revisit.push(visit);
                }
                let facet = truths
                    .last()
                    .map_or("none", |t: &hb_crawler::TruthRecord| t.facet);
                let slot = FACETS.iter().position(|f| *f == facet).unwrap_or(3);
                l.visit_facet[slot].push(visit);
                l.pages_incomplete += u64::from(!outcome.page_completed);
            }
            let chunk = VisitChunk {
                day,
                shard: 0,
                seq: seq as u32,
                visits,
                truths,
                strings,
            };
            if day == 0 {
                detected.extend(
                    chunk
                        .visits
                        .iter()
                        .filter(|v| v.hb_detected)
                        .map(|v| v.rank),
                );
            }
            let key = chunk.key();

            let t = Instant::now();
            let mut frame = chunk.encode();
            l.encode += t.elapsed();
            drop(chunk);
            l.frames += 1;
            l.frame_bytes += frame.len() as u64;

            if let (Some(wire), Some(dir)) = (wire.as_mut(), distd) {
                let t = Instant::now();
                frame = wire.round_trip(l.frames, frame)?;
                l.socket += t.elapsed();
                let t = Instant::now();
                spool_write(dir, key, &frame).map_err(|e| format!("spool: {e}"))?;
                l.spool += t.elapsed();
            }

            let t = Instant::now();
            let chunk = VisitChunk::decode(&frame).map_err(|e| format!("decode {key:?}: {e:?}"))?;
            l.decode += t.elapsed();
            let t = Instant::now();
            builder.push_chunk(&chunk);
            l.fold += t.elapsed();
        }
    }
    drop(wire);

    let t = Instant::now();
    let ix = builder.finish();
    l.finish += t.elapsed();
    let mut csvs = Vec::new();
    for (id, build) in REPORTS {
        let t = Instant::now();
        let r = build(&ix);
        std::hint::black_box(r.render());
        let csv = r.to_csv();
        l.render.push((id, t.elapsed()));
        ensure(r.id == id, || {
            format!("report {} built where {id} was expected", r.id)
        })?;
        csvs.push((r.id, csv));
    }
    Ok(csv_digest(
        csvs.iter().map(|(id, csv)| (id.as_str(), csv.as_str())),
    ))
}

/// Replay the serving soak; returns `ServeReport::digest`.
fn replay_serve(seed: u64, l: &mut Layers) -> u64 {
    let cold = SiteFactory::new(serve_universe());
    let cfg = serve_config(seed);
    let load = load_config(seed, cold.config().n_sites);

    let t = Instant::now();
    let ranks: Vec<u32> = (0..load.n_requests).map(|n| load.request(n).rank).collect();
    l.loadgen += t.elapsed();

    l.derive_serve.reserve(ranks.len());
    for &rank in &ranks {
        let t = Instant::now();
        std::hint::black_box(cold.runtime_shared(rank));
        l.derive_serve.push(us(t.elapsed()));
    }
    drop(cold);

    let fresh = SiteFactory::new(serve_universe());
    let net = serve_net(&fresh);
    let t = Instant::now();
    let report = serve_load_with(fresh.gen(), &net, &cfg, &load, 1, false);
    l.orchestrate += t.elapsed();
    l.serve = report.stats;
    report.digest()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the traced replay after the untraced passes in `run`, and print
/// every per-layer metric (0 where the workload does not run the layer).
pub fn traced(w: Workload, seed: u64, run: &Run, scratch: &Path) -> (Metrics, Result<(), String>) {
    let mut l = Layers::default();
    let spool = scratch.join("trace-spool");
    let t = Instant::now();
    let replay = match w {
        Workload::CrawlPaper => replay_campaign(crawl_config(seed), None, &mut l),
        Workload::DistdStressed => replay_campaign(stressed_config(seed), Some(&spool), &mut l),
        Workload::ServeSoak => Ok(replay_serve(seed, &mut l)),
    };
    let traced_wall = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&spool);
    // The untraced passes' digest is itself checked against the golden
    // value for the default seed, so equality here proves the replay did
    // the workload's work.
    let expected = run.passes[0].digest;
    let verdict = replay.and_then(|digest| {
        ensure(digest == expected, || {
            format!(
                "traced replay digest {digest:016x} differs from the workload's {expected:016x}"
            )
        })
    });

    let mut m = Metrics::default();
    let summary = |name: &str, samples: &mut Vec<f64>, m: &mut Metrics| {
        m.push_summary(name, summarize(samples), "us");
    };

    // ecosystem
    let derive_calls = l.derive_sweep.len() + l.derive_revisit.len() + l.derive_serve.len();
    m.push("ecosystem.derive_calls", derive_calls as f64, "count");
    m.push("ecosystem.derive_s", l.derive_s(), "s");
    summary("ecosystem.derive_us.sweep", &mut l.derive_sweep, &mut m);
    summary("ecosystem.derive_us.revisit", &mut l.derive_revisit, &mut m);
    summary("ecosystem.derive_us.serve", &mut l.derive_serve, &mut m);

    // crawler
    let visits = l.visit_sweep.len() + l.visit_revisit.len();
    m.push("crawler.visits", visits as f64, "count");
    m.push("crawler.visit_s", l.visit_s(), "s");
    summary("crawler.visit_us.sweep", &mut l.visit_sweep, &mut m);
    summary("crawler.visit_us.revisit", &mut l.visit_revisit, &mut m);
    for (facet, samples) in FACETS.iter().zip(l.visit_facet.iter_mut()) {
        summary(&format!("crawler.visit_us.{facet}"), samples, &mut m);
    }
    m.push(
        "crawler.page_incomplete_share",
        ratio(l.pages_incomplete as f64, visits as f64),
        "ratio",
    );

    // core
    m.push("core.frames", l.frames as f64, "count");
    m.push("core.frame_bytes", l.frame_bytes as f64, "bytes");
    m.push("core.encode_s", l.encode.as_secs_f64(), "s");
    m.push("core.decode_s", l.decode.as_secs_f64(), "s");

    // distd: the replay's socket and spool legs, the real run's counters
    let real = run
        .passes
        .last()
        .and_then(|p| p.distd.clone())
        .unwrap_or_default();
    let c = real.coord;
    let sum = |f: fn(&hb_distd::WorkerStats) -> u64| real.workers.iter().map(f).sum::<u64>();
    let worker_visits: Vec<u64> = real.workers.iter().map(|s| s.visits).collect();
    let skew = match (worker_visits.iter().max(), worker_visits.iter().min()) {
        (Some(&hi), Some(&lo)) => ratio(hi as f64, lo as f64),
        _ => 0.0,
    };
    m.push("distd.socket_s", l.socket.as_secs_f64(), "s");
    m.push("distd.spool_write_s", l.spool.as_secs_f64(), "s");
    m.push("distd.leases_issued", c.leases_issued as f64, "count");
    m.push("distd.leases_reissued", c.leases_reissued as f64, "count");
    m.push("distd.chunks_folded", c.chunks_folded as f64, "count");
    m.push(
        "distd.chunks_duplicate_dropped",
        c.chunks_duplicate_dropped as f64,
        "count",
    );
    m.push("distd.frames_rejected", c.frames_rejected as f64, "count");
    m.push("distd.conn_breaks", sum(|s| s.conn_breaks) as f64, "count");
    m.push(
        "distd.leases_abandoned",
        sum(|s| s.leases_abandoned) as f64,
        "count",
    );
    let folded = c.chunks_folded as f64;
    m.push(
        "distd.useful_share",
        ratio(folded, folded + c.chunks_duplicate_dropped as f64),
        "ratio",
    );
    m.push("distd.worker_skew", skew, "ratio");
    m.push("distd.fold_wait_s", real.fold_wait.as_secs_f64(), "s");

    // analysis
    m.push("analysis.fold_s", l.fold.as_secs_f64(), "s");
    m.push("analysis.finish_s", l.finish.as_secs_f64(), "s");
    m.push("analysis.render_s", l.render_s(), "s");
    for (id, _) in REPORTS {
        let d = l
            .render
            .iter()
            .find(|(r, _)| *r == id)
            .map_or(Duration::ZERO, |(_, d)| *d);
        m.push(format!("analysis.render_s.{id}"), d.as_secs_f64(), "s");
    }

    // serve
    let s = l.serve;
    m.push("serve.loadgen_s", l.loadgen.as_secs_f64(), "s");
    m.push("serve.orchestrate_s", l.orchestrate.as_secs_f64(), "s");
    for (name, v) in [
        ("serve.admitted", s.admitted),
        ("serve.sheds", s.sheds),
        ("serve.fills", s.fills()),
        ("serve.passbacks", s.passbacks),
        ("serve.degraded_fills", s.degraded_fills),
        ("serve.provider_timeouts", s.provider_timeouts),
        ("serve.hedges_fired", s.hedges_fired),
        ("serve.hedge_wins", s.hedge_wins),
    ] {
        m.push(name, v as f64, "count");
    }
    m.push(
        "serve.hedge_win_share",
        ratio(s.hedge_wins as f64, s.hedges_fired as f64),
        "ratio",
    );
    for (name, v) in [
        ("serve.breaker_trips", s.breaker_trips),
        ("serve.breaker_skips", s.breaker_skips),
        ("serve.wf_aborts", s.wf_aborts),
        ("serve.budget_exhausted", s.budget_exhausted),
    ] {
        m.push(name, v as f64, "count");
    }

    // the trace itself
    m.push("trace.wall_s", traced_wall, "s");
    m.push("trace.coverage", ratio(l.self_s(), traced_wall), "ratio");
    m.push("trace.overhead", traced_wall / run.wall_s() - 1.0, "ratio");
    (m, verdict)
}
