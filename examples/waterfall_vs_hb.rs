//! Protocol head-to-head: run the *same* publisher through header bidding
//! and through the waterfall daisy chain, tracing both visits, then show
//! the population-level comparison.
//!
//! Run with: `cargo run --release --example waterfall_vs_hb`

use hb_repro::adtech::HbFacet;
use hb_repro::analysis::waterfall_cmp;
use hb_repro::core::Interner;
use hb_repro::prelude::*;

fn main() {
    let factory = SiteFactory::new(EcosystemConfig::test_scale());

    // Pick a client-side HB site and clone its runtime into a
    // waterfall-only variant: same page, same slots, same tiers.
    let site = factory
        .sites()
        .find(|s| s.facet == Some(HbFacet::ClientSide) && s.client_partner_ids.len() >= 2)
        .expect("client-side site with fan-out");
    let hb_runtime = factory.runtime_for(&site);
    let mut wf_runtime = hb_runtime.clone();
    wf_runtime.facet = None; // force the waterfall path

    println!(
        "site {} (rank {}): {} client partners, {} slots\n",
        site.domain,
        site.rank,
        hb_runtime.client_partners.len(),
        hb_runtime.ad_units.len()
    );

    let mut strings = Interner::new();
    let hb = crawl_site(
        factory.net(),
        hb_runtime,
        factory.partner_list(),
        factory.visit_rng(site.rank, 0),
        0,
        &SessionConfig::default(),
        &mut strings,
    );
    let wf = crawl_site(
        factory.net(),
        wf_runtime,
        factory.partner_list(),
        factory.visit_rng(site.rank, 0),
        0,
        &SessionConfig::default(),
        &mut strings,
    );

    println!("header bidding visit:");
    println!(
        "  detected: {} / facet {:?}",
        hb.record.hb_detected,
        hb.record.facet.map(|f| f.label())
    );
    println!(
        "  HB latency {:.0} ms, {} bids ({} late), {} partners",
        hb.record.hb_latency_ms.unwrap_or(f64::NAN),
        hb.record.bids.len(),
        hb.record.late_bids(),
        hb.record.partner_count(),
    );
    println!("\nwaterfall visit (same page, same slots):");
    println!(
        "  detected as HB: {} (the detector must NOT flag waterfall)",
        wf.record.hb_detected
    );
    println!(
        "  fill latency {:.0} ms via tier {:?}",
        wf.truth
            .waterfall_latency
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN),
        wf.truth.waterfall_fill_tier
    );
    assert!(!wf.record.hb_detected);

    // Population-level comparison over a full campaign.
    println!("\nrunning the full campaign for the population comparison…");
    let ix = DatasetIndex::from_campaign(&factory, &CampaignConfig::default());
    print!("{}", waterfall_cmp::x01_waterfall_compare(&ix).render());
}
