//! Provider adapters: the demand-side legs of an auction, extracted
//! from the crawl-side wrapper/waterfall flows so a serving-side
//! orchestrator can drive the same endpoints without a browser.
//!
//! The crawl builds its bid/RTB/ad-server requests inline in
//! [`wrapper`](crate::wrapper) and [`waterfall`](crate::waterfall),
//! entangled with `PageWorld` state. This module lifts the provider
//! surface into plain data + pure request builders/response parsers:
//!
//! * [`ProviderSpec`] — one demand leg (code, host, kind) derived
//!   deterministically from a [`SiteRuntime`] by [`providers_for`];
//! * request builders ([`hb_bid_request`], [`mediation_request`],
//!   [`tier_request`]) producing the same wire shapes the crawl-side
//!   endpoints already parse;
//! * response parsers ([`hb_bids_from`], [`mediation_winner`],
//!   [`tier_fill`]) folding raw [`Response`]s into bid data.
//!
//! `hb-serve` composes these with its own deadline/breaker/hedge layer;
//! the adapters themselves know nothing about budgets or retries.

use crate::partner::bid_request_body;
use crate::protocol::{self, params, paths, BidPayload, WinnerPayload};
use crate::types::{AdSize, AdUnit, Cpm};
use crate::wrapper::SiteRuntime;
use hb_http::hstr::Piece;
use hb_http::{Body, QueryParams, Request, RequestId, Response, Status, Url};
use hb_simnet::HStr;

/// How a provider leg is driven by the orchestrator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProviderKind {
    /// Prebid-style client partner: queried in parallel with the other
    /// `ParallelHb` legs, eligible for hedging.
    ParallelHb,
    /// The ad server's server-side mediation: one call that decisions
    /// client bids and fans out to s2s seats internally.
    S2sMediation,
    /// One sequential waterfall tier with its negotiated floor.
    Waterfall {
        /// Floor the tier must beat to fill.
        floor: Cpm,
    },
}

/// One demand leg of an auction.
#[derive(Clone, Debug, PartialEq)]
pub struct ProviderSpec {
    /// Stable provider code (bidder code, account id, or tier code);
    /// used for labels and reporting.
    pub code: HStr,
    /// Host the leg's requests target — also the failure domain a
    /// circuit breaker should key on (waterfall tiers live on the
    /// `rtb.`-prefixed edge of their partner host, so a dead RTB edge
    /// trips separately from the same partner's HB endpoint).
    pub host: HStr,
    /// How the orchestrator drives this leg.
    pub kind: ProviderKind,
}

/// Derive the provider legs of a site, in deterministic drive order:
/// parallel HB partners first (site order), then the ad-server
/// mediation leg for HB sites, then waterfall tiers (tier order) for
/// waterfall sites. Purely a function of the runtime, so identical
/// `(seed, rank)` derivations yield identical legs.
pub fn providers_for(rt: &SiteRuntime) -> Vec<ProviderSpec> {
    let mut out = Vec::with_capacity(rt.client_partners.len() + 1 + rt.waterfall_tiers.len());
    for p in &rt.client_partners {
        out.push(ProviderSpec {
            code: p.code.clone(),
            host: p.host.clone(),
            kind: ProviderKind::ParallelHb,
        });
    }
    if rt.facet.is_some() {
        // Every HB flavor resolves through the ad server; for
        // server-side/hybrid facets the same call also runs the s2s
        // fan-out inside the account.
        out.push(ProviderSpec {
            code: rt.account_id.clone(),
            host: rt.ad_server_host.clone(),
            kind: ProviderKind::S2sMediation,
        });
    }
    for t in &rt.waterfall_tiers {
        out.push(ProviderSpec {
            code: t.partner.code.clone(),
            host: HStr::concat(&[Piece::Text("rtb."), Piece::Text(&t.partner.host)]),
            kind: ProviderKind::Waterfall { floor: t.floor },
        });
    }
    out
}

/// Build the parallel-HB bid request for one provider: POST
/// `/hb/bid` with the slot list body and the client-side query
/// parameters the partner endpoint parses. `hedge` marks the backup
/// copy of a hedged pair (carried as `hb_retry`, which the endpoint
/// ignores but the wire log keeps honest).
pub fn hb_bid_request(
    id: RequestId,
    host: &HStr,
    bidder: &HStr,
    auction_id: &str,
    units: &[AdUnit],
    hedge: bool,
) -> Request {
    let slots: Vec<(HStr, AdSize)> = units
        .iter()
        .map(|u| (u.code.clone(), u.primary_size()))
        .collect();
    let mut q = protocol::bid_request_params(auction_id, bidder.as_str(), units.len());
    if hedge {
        q.append(params::HB_RETRY, "1");
    }
    let url = Url::https_pooled(host.clone(), HStr::from_static(paths::BID), q);
    Request::post(id, url, Body::Json(bid_request_body(&slots))).from_initiator("hb-serve")
}

/// Build the mediation request: POST the collected client bids to the
/// site's ad server, which decisions them against direct orders and
/// (for server-side/hybrid accounts) its s2s seats.
pub fn mediation_request(
    id: RequestId,
    ad_server_host: &HStr,
    account_id: &HStr,
    auction_id: &str,
    client_bids: &[BidPayload],
) -> Request {
    let mut q = QueryParams::new();
    q.append("account", account_id.clone());
    q.append(params::HB_AUCTION, auction_id);
    q.append(params::HB_SOURCE, "client");
    let url = Url::https_pooled(
        ad_server_host.clone(),
        HStr::from_static(paths::AD_SERVER),
        q,
    );
    Request::post(
        id,
        url,
        Body::Json(protocol::bid_response_body(auction_id, client_bids)),
    )
    .from_initiator("hb-serve")
}

/// Build a waterfall tier request: GET the partner's RTB edge with the
/// tier floor and creative size (`cb` is the cache-buster the crawl
/// sends too; any deterministic nonce works).
pub fn tier_request(id: RequestId, rtb_host: &HStr, floor: Cpm, size: AdSize, cb: u64) -> Request {
    let mut q = QueryParams::new();
    q.append("floor", floor.to_param());
    q.append("size", size.label());
    q.append("cb", HStr::concat(&[Piece::Int(cb)]));
    let url = Url::https_pooled(rtb_host.clone(), HStr::from_static(paths::RTB_AD), q);
    Request::get(id, url).from_initiator("hb-serve")
}

/// Parse an HB bid response into payloads. `None` for no-bid (204),
/// non-OK statuses, or malformed bodies; `Some(vec)` may still be
/// empty when the partner answered with zero bids.
pub fn hb_bids_from(rsp: &Response) -> Option<Vec<BidPayload>> {
    if rsp.status != Status::OK {
        return None;
    }
    let body = rsp.body.json()?;
    protocol::parse_bid_response(body).map(|(_, bids)| bids)
}

/// Parse a mediation response into the best winner: the filled slot
/// with the highest price bucket (first such slot on ties, so the
/// pick is deterministic). `None` when nothing filled.
pub fn mediation_winner(rsp: &Response) -> Option<WinnerPayload> {
    if rsp.status != Status::OK {
        return None;
    }
    let body = rsp.body.json()?;
    let (_, winners) = protocol::parse_ad_server_response(body)?;
    let mut best: Option<WinnerPayload> = None;
    for w in winners {
        if w.channel == protocol::FillChannel::Unfilled {
            continue;
        }
        let better = match &best {
            None => true,
            Some(b) => w.pb.0 > b.pb.0,
        };
        if better {
            best = Some(w);
        }
    }
    best
}

/// Parse a waterfall tier response into a fill price. `None` on
/// passback (204) or malformed bodies.
pub fn tier_fill(rsp: &Response) -> Option<Cpm> {
    if rsp.status != Status::OK {
        return None;
    }
    let body = rsp.body.json()?;
    body.get("price").and_then(|p| p.as_f64()).map(Cpm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_http::Json;
    use crate::protocol::FillChannel;
    use crate::waterfall::WaterfallTier;
    use crate::wrapper::{PartnerRef, RobustnessPolicy, WrapperConfig};
    use crate::HbFacet;
    use std::sync::Arc;

    fn runtime(facet: Option<HbFacet>, partners: usize, tiers: usize) -> SiteRuntime {
        let units: Arc<[AdUnit]> = vec![AdUnit::new(
            "ad-slot-1",
            AdSize::MEDIUM_RECT,
            Cpm(0.1),
        )]
        .into();
        let partner = |i: usize| PartnerRef {
            code: HStr::from_display(format_args!("bidder{i}")),
            name: HStr::from_display(format_args!("Bidder {i}")),
            host: HStr::from_display(format_args!("bidder{i}.example")),
        };
        SiteRuntime {
            page_url: Url::https("pub1.example", "/"),
            rank: 1,
            facet,
            ad_units: units,
            client_partners: (0..partners).map(partner).collect(),
            ad_server_host: "ads.gam.example".into(),
            account_id: "acct-1".into(),
            wrapper: WrapperConfig::default(),
            waterfall_tiers: (0..tiers)
                .map(|i| WaterfallTier {
                    partner: partner(10 + i),
                    floor: Cpm(1.0 + i as f64),
                })
                .collect(),
            cdn_host: "cdn.example".into(),
            render_fail_rate: 0.0,
            net_quality: 1.0,
            robustness: RobustnessPolicy::off(),
        }
    }

    #[test]
    fn providers_follow_site_shape() {
        // Hybrid HB site: partners then mediation, no tiers.
        let specs = providers_for(&runtime(Some(HbFacet::Hybrid), 3, 0));
        assert_eq!(specs.len(), 4);
        assert!(specs[..3]
            .iter()
            .all(|s| s.kind == ProviderKind::ParallelHb));
        assert_eq!(specs[3].kind, ProviderKind::S2sMediation);
        assert_eq!(specs[3].host.as_str(), "ads.gam.example");

        // Waterfall-only site: tiers only, on the rtb edge.
        let specs = providers_for(&runtime(None, 0, 2));
        assert_eq!(specs.len(), 2);
        assert_eq!(
            specs[0].kind,
            ProviderKind::Waterfall { floor: Cpm(1.0) }
        );
        assert_eq!(specs[0].host.as_str(), "rtb.bidder10.example");

        // Server-side site: no client partners, mediation only.
        let specs = providers_for(&runtime(Some(HbFacet::ServerSide), 0, 0));
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].kind, ProviderKind::S2sMediation);
    }

    #[test]
    fn bid_request_matches_partner_wire_shape() {
        let rt = runtime(Some(HbFacet::ClientSide), 1, 0);
        let spec = &providers_for(&rt)[0];
        let req = hb_bid_request(
            RequestId(1),
            &spec.host,
            &spec.code,
            "srv-42",
            &rt.ad_units,
            false,
        );
        assert_eq!(req.url.path.as_str(), paths::BID);
        assert_eq!(req.url.query.get(params::HB_AUCTION), Some("srv-42"));
        assert_eq!(req.url.query.get(params::HB_SOURCE), Some("client"));
        assert!(!req.url.query.contains(params::HB_RETRY));
        let slots = req.body.json().unwrap().get("slots").unwrap();
        assert_eq!(slots.as_arr().unwrap().len(), 1);

        let hedged = hb_bid_request(
            RequestId(2),
            &spec.host,
            &spec.code,
            "srv-42",
            &rt.ad_units,
            true,
        );
        assert_eq!(hedged.url.query.get(params::HB_RETRY), Some("1"));
    }

    #[test]
    fn parsers_roundtrip_protocol_bodies() {
        let bids = vec![BidPayload {
            bidder: "bidder0".into(),
            slot: "ad-slot-1".into(),
            cpm: Cpm(1.25),
            size: AdSize::MEDIUM_RECT,
            ad_id: "cr-1".into(),
            currency: "USD".into(),
        }];
        let rsp = Response::json(RequestId(1), protocol::bid_response_body("srv-1", &bids));
        assert_eq!(hb_bids_from(&rsp).unwrap(), bids);
        assert!(hb_bids_from(&Response::no_content(RequestId(2))).is_none());

        let winners = vec![
            WinnerPayload {
                slot: "ad-slot-1".into(),
                bidder: "bidder0".into(),
                pb: Cpm(1.20),
                size: AdSize::MEDIUM_RECT,
                ad_id: "cr-1".into(),
                channel: FillChannel::HeaderBid,
            },
            WinnerPayload {
                slot: "ad-slot-2".into(),
                bidder: HStr::EMPTY,
                pb: Cpm(2.00),
                size: AdSize::MEDIUM_RECT,
                ad_id: HStr::EMPTY,
                channel: FillChannel::DirectOrder,
            },
        ];
        let rsp = Response::json(
            RequestId(3),
            protocol::ad_server_response_body("srv-1", &winners),
        );
        // Non-HB fills carry no `hb_pb` on the wire (it round-trips as
        // zero), so the HB winner's explicit bucket takes the pick.
        let best = mediation_winner(&rsp).unwrap();
        assert_eq!(best.channel, FillChannel::HeaderBid);
        assert_eq!(best.pb, Cpm(1.20));

        let fill = Response::json(
            RequestId(4),
            Json::obj([("price", Json::num(3.5)), ("size", Json::str("300x250"))]),
        );
        assert_eq!(tier_fill(&fill), Some(Cpm(3.5)));
        assert_eq!(tier_fill(&Response::no_content(RequestId(5))), None);
    }
}
