//! Run a crawl campaign and persist the dataset as CSV.
//!
//! Usage: `crawl [tiny|test|medium|paper] [--out DIR] [--shards N]`
//!
//! Writes `visits.csv`, `bids.csv` and `truth.csv` under the output
//! directory (default `results/dataset/`), ready for external analysis
//! tooling. Every shard runs locally and the chunks stream day-major in
//! `(day, shard, seq)` order straight into the CSV writer, so no chunk is
//! kept after it is written and `--shards 4` produces byte-identical CSVs
//! to an unsharded run. The reported visits/sec covers crawling and CSV
//! writing together. A malformed command line prints one line plus the
//! usage text and exits 2.

use hb_bench::{stderr_progress, Scale};
use hb_crawler::{run_campaign_streamed, CampaignConfig, DatasetWriter};
use hb_distd::cli::{flag_parse, flag_value, EXIT_USAGE};
use hb_ecosystem::SiteFactory;
use std::collections::HashSet;
use std::path::PathBuf;

const USAGE: &str = "usage: crawl [tiny|test|medium|paper] [--out DIR] [--shards N]";

fn die(msg: String) -> ! {
    eprintln!("crawl: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE);
}

fn main() {
    let mut scale = Scale::Test;
    let mut out = PathBuf::from("results/dataset");
    let mut shards: u32 = 1;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let r = match flag {
            "--out" => flag_value(&mut args, flag).map(|v| out = PathBuf::from(v)),
            "--shards" => flag_parse(&mut args, flag).and_then(|n: u32| {
                if n == 0 {
                    return Err("--shards: needs a positive integer, got 0".to_string());
                }
                shards = n;
                Ok(())
            }),
            word => Scale::parse(word)
                .map(|s| scale = s)
                .ok_or_else(|| format!("unknown scale {word:?}; use tiny|test|medium|paper")),
        };
        if let Err(e) = r {
            die(e);
        }
    }
    eprintln!("crawling at {scale:?} scale over {shards} shard(s)…");
    let config = scale.config();
    let factory = SiteFactory::new(config.clone());
    let cfg = CampaignConfig {
        shards,
        progress_every: 5_000,
        progress: Some(stderr_progress()),
        ..CampaignConfig::default()
    };
    let write_failed = |e: std::io::Error| -> ! {
        eprintln!("crawl: writing {}: {e}", out.display());
        std::process::exit(1);
    };
    let mut writer = DatasetWriter::create(&out).unwrap_or_else(|e| write_failed(e));
    let started = std::time::Instant::now();
    let mut shard_visits = vec![0usize; shards as usize];
    let mut hb_domains: HashSet<String> = HashSet::new();
    let (mut auctions, mut bids) = (0u64, 0u64);
    run_campaign_streamed(&factory, &cfg, &mut |chunk| {
        shard_visits[chunk.shard as usize] += chunk.len();
        for v in chunk.visits.iter().filter(|v| v.hb_detected) {
            let domain = chunk.strings.resolve(v.domain);
            if !hb_domains.contains(domain) {
                hb_domains.insert(domain.to_string());
            }
            auctions += u64::from(v.slots_auctioned);
            bids += v.bids.len() as u64;
        }
        writer
            .write_chunk(&chunk)
            .unwrap_or_else(|e| write_failed(e));
    });
    writer.finish().unwrap_or_else(|e| write_failed(e));
    let elapsed = started.elapsed();
    for (shard, visits) in shard_visits.iter().enumerate() {
        eprintln!("  shard {shard}: {visits} visits");
    }
    let visits: usize = shard_visits.iter().sum();
    let visits_per_sec = visits as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "done: {visits} visits over {} sites in {elapsed:.1?} ({visits_per_sec:.0} visits/sec)",
        config.n_sites,
    );
    if let Some(kb) = peak_rss_kb() {
        eprintln!("peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }
    eprintln!(
        "dataset written to {} ({} HB domains, {auctions} auctions, {bids} bids)",
        out.display(),
        hb_domains.len(),
    );
}

/// Peak resident set size in KiB, read from /proc (Linux) — `None` when
/// the platform does not expose it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
