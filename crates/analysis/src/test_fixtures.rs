//! Shared test fixture: one test-scale campaign, indexed once per process.

use crate::index::DatasetIndex;
use hb_crawler::{run_campaign_streamed, CampaignConfig, VisitChunk};
use hb_ecosystem::{EcosystemConfig, SiteFactory};
use std::sync::OnceLock;

fn small_factory() -> SiteFactory {
    SiteFactory::new(EcosystemConfig::test_scale())
}

/// The cached columnar index over the test-scale campaign.
pub fn small_index() -> &'static DatasetIndex {
    static IX: OnceLock<DatasetIndex> = OnceLock::new();
    IX.get_or_init(|| DatasetIndex::from_campaign(&small_factory(), &CampaignConfig::default()))
}

/// Re-crawl the [`small_index`] campaign, handing each chunk to `f`: the
/// raw visit views unit tests cross-check the index against.
pub fn for_each_small_chunk(mut f: impl FnMut(&VisitChunk)) {
    run_campaign_streamed(&small_factory(), &CampaignConfig::default(), &mut |c| f(&c));
}
