//! Detector-vs-ground-truth validation across many sites: facet accuracy,
//! latency agreement, bid and late-bid accounting.

mod common;

use common::{for_each_chunk, universe};
use hb_repro::core::Interner;
use hb_repro::prelude::*;

#[test]
fn facet_classification_is_accurate() {
    let factory = universe();
    let truth: std::collections::BTreeMap<String, &str> = factory
        .sites()
        .filter(|s| s.facet.is_some())
        .map(|s| (s.domain.to_string(), s.facet.unwrap().label()))
        .collect();
    let mut checked = 0;
    let mut correct = 0;
    for_each_chunk(|c| {
        for v in c.visits.iter().filter(|v| v.day == 0 && v.hb_detected) {
            if let (Some(expected), Some(got)) = (truth.get(c.strings.resolve(v.domain)), v.facet) {
                checked += 1;
                if got.label() == *expected {
                    correct += 1;
                }
            }
        }
    });
    assert!(checked > 100, "checked {checked}");
    let accuracy = correct as f64 / checked as f64;
    assert!(accuracy > 0.97, "facet accuracy {accuracy}");
}

#[test]
fn latency_measurements_agree_with_truth() {
    let factory = universe();
    let mut strings = Interner::new();
    let mut diffs = Vec::new();
    for site in factory.sites().filter(|s| s.facet.is_some()).take(40) {
        let visit = crawl_site(
            factory.net(),
            factory.runtime_for(&site),
            factory.partner_list(),
            factory.visit_rng(site.rank, 7),
            7,
            &SessionConfig::default(),
            &mut strings,
        );
        if let (Some(det), Some(truth)) = (
            visit.record.hb_latency_ms,
            visit.truth.hb_latency().map(|d| d.as_millis_f64()),
        ) {
            diffs.push((det - truth).abs());
        }
    }
    assert!(diffs.len() > 20, "measured {} sites", diffs.len());
    let max = diffs.iter().cloned().fold(0.0, f64::max);
    // The detector reads network completion; ground truth marks the JS
    // handler — they differ by at most the JS service noise.
    assert!(max < 25.0, "max detector/truth divergence {max} ms");
}

#[test]
fn bid_counts_match_truth_for_client_side() {
    let factory = universe();
    let mut strings = Interner::new();
    let mut compared = 0;
    for site in factory
        .sites()
        .filter(|s| s.facet == Some(hb_repro::adtech::HbFacet::ClientSide))
        .take(25)
    {
        let visit = crawl_site(
            factory.net(),
            factory.runtime_for(&site),
            factory.partner_list(),
            factory.visit_rng(site.rank, 3),
            3,
            &SessionConfig::default(),
            &mut strings,
        );
        // Client-side: every client bid is visible to the detector.
        let client_bids = visit
            .record
            .bids
            .iter()
            .filter(|b| b.source == hb_repro::core::BidSource::ClientVisible)
            .count();
        assert_eq!(
            client_bids, visit.truth.client_bids,
            "{}: detector {} vs truth {}",
            site.domain, client_bids, visit.truth.client_bids
        );
        compared += 1;
    }
    assert!(compared > 5, "compared {compared} client-side sites");
}

#[test]
fn late_bid_accounting_matches_truth() {
    let factory = universe();
    let mut strings = Interner::new();
    let mut total_det = 0usize;
    let mut total_truth = 0usize;
    for site in factory.sites().filter(|s| s.facet.is_some()).take(60) {
        let visit = crawl_site(
            factory.net(),
            factory.runtime_for(&site),
            factory.partner_list(),
            factory.visit_rng(site.rank, 5),
            5,
            &SessionConfig::default(),
            &mut strings,
        );
        total_det += visit.record.late_bids();
        total_truth += visit.truth.late_bids;
    }
    assert!(total_truth > 0, "fixture produced no late bids");
    let diff = (total_det as f64 - total_truth as f64).abs() / total_truth as f64;
    assert!(
        diff < 0.25,
        "late-bid totals diverge: detector {total_det} vs truth {total_truth}"
    );
}

#[test]
fn server_side_reveals_only_winners() {
    let factory = universe();
    let mut strings = Interner::new();
    for site in factory
        .sites()
        .filter(|s| s.facet == Some(hb_repro::adtech::HbFacet::ServerSide))
        .take(20)
    {
        let visit = crawl_site(
            factory.net(),
            factory.runtime_for(&site),
            factory.partner_list(),
            factory.visit_rng(site.rank, 2),
            2,
            &SessionConfig::default(),
            &mut strings,
        );
        // No client-visible bids on pure server-side sites.
        assert!(visit
            .record
            .bids
            .iter()
            .all(|b| b.source == hb_repro::core::BidSource::ServerReported));
        // The only request-level partner is the provider.
        assert_eq!(visit.record.partner_count(), 1, "{}", site.domain);
    }
}

#[test]
fn event_counts_are_facet_consistent() {
    let factory = universe();
    let mut strings = Interner::new();
    for site in factory.sites().filter(|s| s.facet.is_some()).take(30) {
        let visit = crawl_site(
            factory.net(),
            factory.runtime_for(&site),
            factory.partner_list(),
            factory.visit_rng(site.rank, 1),
            1,
            &SessionConfig::default(),
            &mut strings,
        );
        let count = |name: &str| {
            visit
                .record
                .event_counts
                .iter()
                .find(|(n, _)| strings.resolve(*n) == name)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        match site.facet.unwrap() {
            hb_repro::adtech::HbFacet::ServerSide => {
                assert_eq!(count("auctionInit"), 0, "{}", site.domain);
                assert_eq!(count("bidResponse"), 0, "{}", site.domain);
            }
            _ => {
                assert_eq!(count("auctionInit"), 1, "{}", site.domain);
                assert_eq!(count("auctionEnd"), 1, "{}", site.domain);
            }
        }
    }
}
