//! Regenerate every table and figure of the paper.
//!
//! Usage: `figures [tiny|test|medium|paper] [--csv DIR]`
//!
//! Runs the Wayback adoption study, then streams the full crawl campaign
//! over the lazy universe chunk by chunk into the analysis index, and
//! prints each `FigureReport` with the paper's stated expectation next to
//! the regenerated numbers. With `--csv DIR`, every report's table is
//! additionally written as `DIR/<id>.csv`. A malformed command line
//! prints one line plus the usage text and exits 2.

use hb_analysis::{all_reports, DatasetIndex};
use hb_bench::{stderr_progress, Scale};
use hb_crawler::{adoption_study, overlap_study, CampaignConfig};
use hb_distd::cli::{flag_value, EXIT_USAGE};
use hb_ecosystem::SiteFactory;
use std::path::PathBuf;

const USAGE: &str = "usage: figures [tiny|test|medium|paper] [--csv DIR]";

fn die(msg: String) -> ! {
    eprintln!("figures: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE);
}

fn main() {
    let mut scale = Scale::Test;
    let mut csv_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let r = match flag {
            "--csv" => flag_value(&mut args, flag).map(|v| csv_dir = Some(PathBuf::from(v))),
            word => Scale::parse(word)
                .map(|s| scale = s)
                .ok_or_else(|| format!("unknown scale {word:?}; use tiny|test|medium|paper")),
        };
        if let Err(e) = r {
            die(e);
        }
    }

    eprintln!("[1/3] historical adoption study (Wayback substitute)…");
    let config = scale.config();
    let adoption = adoption_study(config.seed, 1_000);
    let overlaps = overlap_study(config.seed, 5_000);

    eprintln!("[2/3] crawling and indexing the campaign at {scale:?} scale…");
    let started = std::time::Instant::now();
    let cfg = CampaignConfig {
        progress_every: 5_000,
        progress: Some(stderr_progress()),
        ..CampaignConfig::default()
    };
    let index = DatasetIndex::from_campaign(&SiteFactory::new(config), &cfg);
    eprintln!(
        "      campaign done: {} HB visits in {:.1?}",
        index.n_hb_visits(),
        started.elapsed()
    );

    eprintln!("[3/3] building reports…");
    let reports = all_reports(&index, &adoption, &overlaps);
    for r in &reports {
        print!("{}", r.render());
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{}.csv", r.id));
            std::fs::write(&path, r.to_csv()).expect("write csv");
        }
    }
    if let Some(dir) = &csv_dir {
        eprintln!("CSV written to {}", dir.display());
    }
}
