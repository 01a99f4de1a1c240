//! Diagnostic microbenches for the simulated wire: the per-message JSON
//! work every visit repeats — building a bid-request body, building and
//! parsing the ad server's winners reply, and the detector's response
//! tap reading that reply. They localize a change in `hb_http::json` or
//! the payload builders; the end-to-end number stays the repository
//! benchmark's `crawl_paper`.

use criterion::{criterion_group, criterion_main, Criterion};
use hb_adtech::partner::bid_request_body;
use hb_adtech::protocol::{ad_server_response_body, parse_ad_server_response};
use hb_adtech::{AdSize, Cpm, FillChannel, WinnerPayload};
use hb_core::{HbDetector, PartnerList};
use hb_dom::Browser;
use hb_http::{HStr, Request, Response, Url};
use hb_simnet::SimTime;
use std::hint::black_box;

/// A three-slot page, the paper's typical client-side setup.
fn slots() -> Vec<(HStr, AdSize)> {
    vec![
        (HStr::from_static("ad-slot-1"), AdSize::MEDIUM_RECT),
        (HStr::from_static("ad-slot-2"), AdSize::LEADERBOARD),
        (HStr::from_static("ad-slot-3"), AdSize::HALF_PAGE),
    ]
}

/// Two HB winners and one direct order: every winner shape the ad
/// server writes.
fn winners() -> Vec<WinnerPayload> {
    let hb = |slot: &'static str, bidder: &'static str, pb: f64, size: AdSize| WinnerPayload {
        slot: HStr::from_static(slot),
        bidder: HStr::from_static(bidder),
        pb: Cpm(pb),
        size,
        ad_id: HStr::new(&format!("cr-{bidder}-4242")),
        channel: FillChannel::HeaderBid,
    };
    vec![
        hb("ad-slot-1", "appnexus", 0.42, AdSize::MEDIUM_RECT),
        hb("ad-slot-2", "rubicon", 0.17, AdSize::LEADERBOARD),
        WinnerPayload {
            slot: HStr::from_static("ad-slot-3"),
            bidder: HStr::EMPTY,
            pb: Cpm(0.3),
            size: AdSize::HALF_PAGE,
            ad_id: HStr::EMPTY,
            channel: FillChannel::DirectOrder,
        },
    ]
}

/// Build the slot-list body a wrapper POSTs to each partner; the tree is
/// recycled as a dispatched request's body is.
fn build_bid_request(c: &mut Criterion) {
    let slots = slots();
    c.bench_function("wire/bid_request_body", |b| {
        b.iter(|| {
            let body = bid_request_body(black_box(&slots));
            black_box(&body);
            body.recycle();
        })
    });
}

/// Build the ad server's winners reply.
fn build_ad_server_response(c: &mut Criterion) {
    let winners = winners();
    c.bench_function("wire/ad_server_response_build", |b| {
        b.iter(|| {
            let body = ad_server_response_body(black_box("auc-1234-987654321"), &winners);
            black_box(&body);
            body.recycle();
        })
    });
}

/// Parse the winners reply back into payloads (the wrapper's side).
fn parse_ad_server_reply(c: &mut Criterion) {
    let body = ad_server_response_body("auc-1234-987654321", &winners());
    c.bench_function("wire/ad_server_response_parse", |b| {
        b.iter(|| black_box(parse_ad_server_response(black_box(&body))))
    });
}

/// The detector's webRequest tap on an ad-server call: classify the
/// request, then read the winners body of its response.
fn detector_response_tap(c: &mut Criterion) {
    let det = HbDetector::new(PartnerList::demo());
    let mut browser = Browser::open_untraced(
        Url::parse("https://pub.example/").expect("page url"),
        SimTime::ZERO,
    );
    det.attach(&mut browser);
    let id = browser.next_request_id();
    let req = Request::get(
        id,
        Url::parse(
            "https://doubleclick-adnet.example/gampad/ads?account=pub-1&hb_auction=auc-1\
             &hb_source=client&hb_slot=ad-slot-1&hb_slot=ad-slot-2&hb_slot=ad-slot-3",
        )
        .expect("ad server url"),
    );
    let rsp = Response::json(id, ad_server_response_body("auc-1", &winners()));
    c.bench_function("wire/detector_response_tap", |b| {
        b.iter(|| {
            det.reset();
            browser.note_request_out(&req, SimTime::from_millis(100));
            browser.note_response_in(&req, &rsp, SimTime::from_millis(160));
        })
    });
}

criterion_group!(
    name = wire;
    config = Criterion::default().sample_size(20);
    targets = build_bid_request, build_ad_server_response, parse_ad_server_reply,
        detector_response_tap
);
criterion_main!(wire);
