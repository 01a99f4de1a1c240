//! Reproducibility guarantees: identical seeds yield identical universes,
//! crawls and reports, regardless of parallelism, sharding and memo
//! eviction. The exact bytes themselves are pinned by `golden_digests.rs`.

use hb_repro::prelude::*;

/// Every sealed chunk frame of a campaign, in stream order.
fn frames(factory: &SiteFactory, cfg: &CampaignConfig) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    run_campaign_streamed(factory, cfg, &mut |chunk| out.push(chunk.encode()));
    out
}

/// Every rendered dataset report of an index.
fn render_index(ix: &DatasetIndex) -> Vec<String> {
    indexed_reports(ix)
        .into_iter()
        .map(|r| r.render())
        .collect()
}

/// Every rendered dataset report of a campaign.
fn render(factory: &SiteFactory, cfg: &CampaignConfig) -> Vec<String> {
    render_index(&DatasetIndex::from_campaign(factory, cfg))
}

/// The index builder numbers symbols in stream order, so two folds of the
/// same campaign share their interner entry for entry and every symbol
/// column agrees on raw ids, not just on resolved text.
fn assert_same_symbols(a: &DatasetIndex, b: &DatasetIndex) {
    assert!(a.strings.iter().eq(b.strings.iter()), "interners differ");
    assert_eq!(a.b_bidder, b.b_bidder);
    assert_eq!(a.b_partner, b.b_partner);
    assert_eq!(a.b_size, b.b_size);
    assert_eq!(a.l_partner, b.l_partner);
    assert_eq!(a.s_size, b.s_size);
}

#[test]
fn same_seed_same_dataset() {
    let run = || {
        let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
        frames(&factory, &CampaignConfig::default())
    };
    let a = run();
    assert!(!a.is_empty());
    assert_eq!(a, run());
}

#[test]
fn parallelism_does_not_change_results() {
    // Worker count changes only who crawls a block, never the stream
    // order the index builder folds in, so symbol numbering is fixed.
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let at = |parallelism: usize| {
        DatasetIndex::from_campaign(
            &factory,
            &CampaignConfig {
                parallelism,
                chunk_visits: 23,
                ..CampaignConfig::default()
            },
        )
    };
    let serial = at(1);
    assert!(!serial.b_bidder.is_empty());
    assert_same_symbols(&serial, &at(4));
}

#[test]
fn figure_outputs_identical_across_parallelism() {
    // End-to-end determinism of the streamed fold: every rendered figure
    // must be byte-identical between a serial and an 8-way campaign.
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let at = |parallelism: usize| {
        render(
            &factory,
            &CampaignConfig {
                parallelism,
                ..CampaignConfig::default()
            },
        )
    };
    assert_eq!(at(1), at(8));
}

#[test]
fn memo_clear_mid_campaign_does_not_change_figures() {
    // The shared derivation memo is pure in (seed, rank): evicting it —
    // here, aggressively clearing it from the progress callback while 4
    // workers crawl — costs re-derivations but can never change what a
    // visit observes. Every rendered figure must stay byte-identical to
    // the undisturbed campaign's.
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let baseline = render(&factory, &CampaignConfig::default());
    let gen = factory.gen().clone();
    let clearing = CampaignConfig {
        parallelism: 4,
        progress_every: 50,
        progress: Some(Box::new(move |_| gen.clear_memos())),
        ..CampaignConfig::default()
    };
    assert_eq!(baseline, render(&factory, &clearing));
}

#[test]
fn reports_are_deterministic() {
    let build = || {
        let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
        render(&factory, &CampaignConfig::default())
    };
    assert_eq!(build(), build());
}

#[test]
fn figure_outputs_identical_across_shard_counts() {
    // Sharding restructures scheduling, interning and chunk boundaries —
    // none of it may leak into results: the index builder's symbol
    // numbering and every rendered figure must be identical between an
    // unsharded and a 4-shard campaign.
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let at = |shards: u32, chunk_visits: usize| {
        DatasetIndex::from_campaign(
            &factory,
            &CampaignConfig {
                shards,
                chunk_visits,
                ..CampaignConfig::default()
            },
        )
    };
    let (one, four) = (at(1, 256), at(4, 23));
    assert_same_symbols(&one, &four);
    assert_eq!(render_index(&one), render_index(&four));
}

#[test]
fn different_seeds_give_different_worlds() {
    let hb_ranks = |seed: u64| -> Vec<u32> {
        SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(seed))
            .sites()
            .filter(|s| s.facet.is_some())
            .map(|s| s.rank)
            .collect()
    };
    let (hb_a, hb_b) = (hb_ranks(100), hb_ranks(200));
    assert_ne!(hb_a, hb_b, "different seeds must differ");
}

#[test]
fn adoption_and_overlap_studies_are_deterministic() {
    assert_eq!(adoption_study(9, 400), adoption_study(9, 400));
    assert_eq!(overlap_study(9, 400), overlap_study(9, 400));
}
