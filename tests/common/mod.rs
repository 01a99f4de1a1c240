//! Shared integration-test fixtures: one test-scale campaign per process,
//! plus the all-axes stressed scenario.

use hb_repro::prelude::*;
use std::sync::OnceLock;

/// The test-scale universe (1,400 sites × 3 days), built once.
pub fn universe() -> &'static SiteFactory {
    static UNIVERSE: OnceLock<SiteFactory> = OnceLock::new();
    UNIVERSE.get_or_init(|| SiteFactory::new(EcosystemConfig::test_scale()))
}

/// Stream the [`universe`] campaign, handing each sealed chunk to `f`:
/// the raw visit views tests check against ground truth.
#[allow(dead_code)]
pub fn for_each_chunk(mut f: impl FnMut(&VisitChunk)) {
    run_campaign_streamed(universe(), &CampaignConfig::default(), &mut |c| f(&c));
}

/// The columnar index over the [`universe`] campaign, built once (the
/// figure builders consume the index).
#[allow(dead_code)]
pub fn index() -> &'static DatasetIndex {
    static IX: OnceLock<DatasetIndex> = OnceLock::new();
    IX.get_or_init(|| DatasetIndex::from_campaign(universe(), &CampaignConfig::default()))
}

/// A stressed scenario touching every axis: one partner tier with a lossy
/// ambient profile, one partner hard-down on day 1, a congested link to a
/// third, and the ad path running its degraded robustness posture.
#[allow(dead_code)]
pub fn stressed_scenario(eco_cfg: &EcosystemConfig) -> ScenarioConfig {
    use hb_repro::simnet::{Dist, HostFaultProfile};
    let specs = hb_repro::ecosystem::catalog::catalog();
    ScenarioConfig::healthy()
        .with_host_profile(
            specs[0].host(),
            HostFaultProfile {
                drop_chance: 0.20,
                slow_chance: 0.30,
                slow_penalty_ms: Dist::Const(900.0),
            },
        )
        .with_outage(specs[1].host(), 1, eco_cfg.crawl_days)
        .with_degraded_link(
            specs[2].host(),
            hb_repro::simnet::LatencyModel::constant(1_200.0),
        )
        .with_robustness(RobustnessPolicy::degraded_defaults())
}
