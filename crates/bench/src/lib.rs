//! # hb-bench
//!
//! Shared harness for the benchmark suite and the `crawl` / `figures`
//! binaries: scale selection, opt-in progress printing, and the cached
//! test-scale campaign chunks and index every figure bench reuses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hb_analysis::{DatasetIndex, DatasetIndexBuilder};
use hb_crawler::{run_campaign_streamed, CampaignConfig, CampaignProgress, ProgressFn, VisitChunk};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::sync::OnceLock;

/// Scale selector for harness runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// 200 sites x 1 day - CI-friendly smoke runs.
    Tiny,
    /// 1,400 sites x 3 days - default for tests/examples.
    Test,
    /// 7,000 sites x 10 days - heavier shape-check runs.
    Medium,
    /// 35,000 sites x 34 days - the paper's full workload.
    Paper,
}

impl Scale {
    /// Parse from a CLI word.
    pub fn parse(s: &str) -> Option<Scale> {
        Some(match s {
            "tiny" => Scale::Tiny,
            "test" => Scale::Test,
            "medium" => Scale::Medium,
            "paper" => Scale::Paper,
            _ => return None,
        })
    }

    /// The ecosystem configuration for this scale.
    pub fn config(self) -> EcosystemConfig {
        match self {
            Scale::Tiny => EcosystemConfig::tiny_scale(),
            Scale::Test => EcosystemConfig::test_scale(),
            Scale::Medium => EcosystemConfig::paper_scale().with_sites(7_000).with_days(10),
            Scale::Paper => EcosystemConfig::paper_scale(),
        }
    }
}

/// A progress callback printing to stderr — the old hardwired behaviour of
/// the crawl library, now opt-in at the harness layer.
pub fn stderr_progress() -> ProgressFn {
    Box::new(|p: CampaignProgress| {
        eprintln!(
            "  [shard {}] day {}: crawled {}/{} visits",
            p.shard, p.day, p.done, p.total
        )
    })
}

/// The test-scale campaign's chunks in stream order, crawled once and
/// cached: the input `figure/INDEX_build` folds.
pub fn cached_test_chunks() -> &'static [VisitChunk] {
    static CHUNKS: OnceLock<Vec<VisitChunk>> = OnceLock::new();
    CHUNKS.get_or_init(|| {
        let factory = SiteFactory::new(Scale::Test.config());
        let mut chunks = Vec::new();
        run_campaign_streamed(&factory, &CampaignConfig::default(), &mut |c| {
            chunks.push(c)
        });
        chunks
    })
}

/// Fold [`cached_test_chunks`] into a fresh index, exactly as a streamed
/// consumer does.
pub fn fold_test_chunks() -> DatasetIndex {
    let config = Scale::Test.config();
    let mut builder = DatasetIndexBuilder::new(config.n_sites, config.crawl_days);
    for chunk in cached_test_chunks() {
        builder.push_chunk(chunk);
    }
    builder.finish()
}

/// Cached columnar index over [`cached_test_chunks`] (built once, shared
/// by every figure bench — the index's build-once/read-many contract).
pub fn cached_test_index() -> &'static DatasetIndex {
    static IX: OnceLock<DatasetIndex> = OnceLock::new();
    IX.get_or_init(fold_test_chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn tiny_dataset_builds() {
        let config = Scale::Tiny.config();
        let ix = DatasetIndex::from_campaign(&SiteFactory::new(config), &CampaignConfig::default());
        assert_eq!(ix.n_sites, 200);
        assert!(ix.v_slots_auctioned.iter().sum::<u32>() > 0);
    }
}
