//! Property tests for the ad-tech protocol layer.

use hb_adtech::{
    first_price_winner, AdSize, BidPayload, Cpm, FillChannel, InternalAuction, WinnerPayload,
};
use hb_adtech::protocol::{bid_response_body, parse_bid_response};
use hb_simnet::{Dist, Rng};
use proptest::prelude::*;

fn arb_size() -> impl Strategy<Value = AdSize> {
    (1u32..2000, 1u32..2000).prop_map(|(w, h)| AdSize::new(w, h))
}

fn arb_cpm() -> impl Strategy<Value = Cpm> {
    (0.0f64..50.0).prop_map(|v| Cpm((v * 10_000.0).round() / 10_000.0))
}

fn arb_code() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9_]{1,14}").unwrap()
}

fn arb_bid() -> impl Strategy<Value = BidPayload> {
    (arb_code(), arb_code(), arb_cpm(), arb_size()).prop_map(|(bidder, slot, cpm, size)| {
        BidPayload {
            bidder: bidder.into(),
            slot: slot.into(),
            cpm,
            size,
            ad_id: "cr-1".into(),
            currency: "USD".into(),
        }
    })
}

proptest! {
    /// AdSize string form always parses back.
    #[test]
    fn adsize_roundtrip(size in arb_size()) {
        prop_assert_eq!(AdSize::parse(&size.to_string()), Some(size));
    }

    /// Price buckets never exceed the raw price and are idempotent.
    #[test]
    fn bucket_is_monotone_floor(v in 0.0f64..100.0, g in 0.001f64..1.0) {
        let c = Cpm(v);
        let b = c.bucket(g);
        prop_assert!(b.0 <= c.0 + 1e-12);
        prop_assert!(c.0 - b.0 < g + 1e-9);
        let bb = b.bucket(g);
        prop_assert!((bb.0 - b.0).abs() < 1e-9, "idempotent: {} vs {}", bb.0, b.0);
    }

    /// Bid payloads round-trip through JSON.
    #[test]
    fn bid_payload_roundtrip(bid in arb_bid()) {
        let back = BidPayload::from_json(&bid.to_json()).unwrap();
        prop_assert_eq!(back.bidder, bid.bidder);
        prop_assert_eq!(back.slot, bid.slot);
        prop_assert!((back.cpm.0 - bid.cpm.0).abs() < 1e-9);
        prop_assert_eq!(back.size, bid.size);
    }

    /// Bid-response bodies round-trip with arbitrary bid lists.
    #[test]
    fn bid_response_roundtrip(bids in proptest::collection::vec(arb_bid(), 0..8)) {
        let body = bid_response_body("auc-x", &bids);
        let (auction, back) = parse_bid_response(&body).unwrap();
        prop_assert_eq!(auction, "auc-x");
        prop_assert_eq!(back.len(), bids.len());
    }

    /// Winner payloads round-trip for every channel.
    #[test]
    fn winner_roundtrip(
        channel_idx in 0usize..4,
        size in arb_size(),
        pb in arb_cpm(),
        bidder in arb_code(),
    ) {
        let channel = [
            FillChannel::HeaderBid,
            FillChannel::DirectOrder,
            FillChannel::Fallback,
            FillChannel::Unfilled,
        ][channel_idx];
        let w = WinnerPayload {
            slot: "s1".into(),
            bidder: if channel == FillChannel::HeaderBid { bidder.into() } else { hb_http::HStr::EMPTY },
            pb: if channel == FillChannel::HeaderBid { Cpm((pb.0 * 100.0).round() / 100.0) } else { Cpm::ZERO },
            size,
            ad_id: if channel == FillChannel::HeaderBid { "a".into() } else { hb_http::HStr::EMPTY },
            channel,
        };
        let back = WinnerPayload::from_json(&w.to_json()).unwrap();
        prop_assert_eq!(back.channel, w.channel);
        prop_assert_eq!(back.slot, w.slot);
        prop_assert_eq!(back.size, w.size);
        if channel == FillChannel::HeaderBid {
            prop_assert_eq!(back.bidder, w.bidder);
        }
    }

    /// Second-price auctions never charge above the winning bid, and the
    /// clearing price equals one of the submitted bids.
    #[test]
    fn second_price_invariants(seed in any::<u64>(), seats in 1u32..12, price_mid in 0.01f64..2.0) {
        let d = Dist::LogNormal { mu: price_mid.ln(), sigma: 0.7 };
        let a = InternalAuction::new(seats, &d);
        let mut rng = Rng::new(seed);
        if let Some(out) = a.run_detailed(&mut rng) {
            prop_assert!(out.clearing_price.0 <= out.winner.price.0 + 1e-12);
            prop_assert!(out.n_bids >= 1);
            prop_assert!(out.clearing_price.0 > 0.0);
        }
    }

    /// First-price winner selection returns the maximum.
    #[test]
    fn first_price_max(prices in proptest::collection::vec(0.0f64..10.0, 1..12)) {
        let candidates: Vec<(usize, Cpm)> =
            prices.iter().enumerate().map(|(i, &p)| (i, Cpm(p))).collect();
        let (_, won) = first_price_winner(&candidates).unwrap();
        let max = prices.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((won.0 - max).abs() < 1e-12);
    }

    /// Cpm::parse accepts what to_param produces.
    #[test]
    fn cpm_param_roundtrip(c in arb_cpm()) {
        let parsed = Cpm::parse(&c.to_param()).unwrap();
        prop_assert!((parsed.0 - c.0).abs() < 0.005 + 1e-9);
    }
}

/// Widths and heights of the catalog sizes, crossed: about one pair in
/// six is a catalog size with a static label, the rest take the
/// `Display` fallback.
const SIDES_W: [u32; 9] = [100, 120, 160, 300, 320, 336, 468, 728, 970];
const SIDES_H: [u32; 9] = [50, 60, 90, 100, 200, 250, 280, 320, 600];

fn arb_any_size() -> impl Strategy<Value = AdSize> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(w, h)| AdSize::new(w, h)),
        (0u32..1000, 0u32..1000).prop_map(|(w, h)| AdSize::new(w, h)),
        (0usize..SIDES_W.len(), 0usize..SIDES_H.len())
            .prop_map(|(i, j)| AdSize::new(SIDES_W[i], SIDES_H[j])),
    ]
}

/// The parser before its plain-digits fast path: the reference both
/// paths together must agree with.
fn parse_reference(s: &str) -> Option<AdSize> {
    let (w, h) = s.split_once('x')?;
    Some(AdSize::new(w.trim().parse().ok()?, h.trim().parse().ok()?))
}

fn arb_price() -> impl Strategy<Value = f64> {
    prop_oneof![
        // Bucketed cent prices, the common wire case.
        (0.0f64..500.0).prop_map(|v| Cpm(v).bucket(0.01).0),
        // Exact half-cent ties, rounded by the formatter.
        (0u64..200_000).prop_map(|k| (2 * k + 1) as f64 / 200.0),
        // Raw prices and floors.
        0.0f64..1_000.0,
        // Any magnitude and sign.
        any::<f64>(),
        // Huge values past the fast path's bound.
        (1e9f64..1e20).prop_map(|v| v),
    ]
}

proptest! {
    /// `AdSize::label` is the `Display` rendering for every size, and a
    /// static catalog label, when there is one, agrees with it.
    #[test]
    fn adsize_label_matches_display(size in arb_any_size()) {
        prop_assert_eq!(size.label(), size.to_string());
        if let Some(label) = size.catalog_label() {
            prop_assert_eq!(label, size.to_string());
        }
    }

    /// `parse(label())` round-trips for every size.
    #[test]
    fn adsize_parse_label_roundtrips(size in arb_any_size()) {
        prop_assert_eq!(AdSize::parse(&size.label()), Some(size));
    }

    /// The fast path accepts exactly what the trimming parser accepts.
    #[test]
    fn adsize_parse_matches_reference(
        s in proptest::string::string_regex("[0-9x +-]{0,12}").unwrap()
    ) {
        prop_assert_eq!(AdSize::parse(&s), parse_reference(&s));
    }

    /// `Cpm::to_param` writes the bytes of `format!("{:.2}")`.
    #[test]
    fn cpm_to_param_matches_format(v in arb_price()) {
        prop_assert_eq!(Cpm(v).to_param(), format!("{v:.2}"));
        prop_assert_eq!(Cpm(-v).to_param(), format!("{:.2}", -v));
    }
}
