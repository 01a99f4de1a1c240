//! HB DOM event taxonomy.
//!
//! Mirrors the event list the paper reverse-engineered from prebid.js (and
//! gpt.js / pubfood.js): the detector keeps its *own* copy of these names —
//! it must not share code with the wrapper, exactly as the real extension
//! is independent from the libraries it observes.

use hb_dom::DomEvent;
use std::fmt;

/// The HB events the detector recognizes (paper §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HbEventKind {
    /// The auction has started.
    AuctionInit,
    /// Bids have been requested.
    RequestBids,
    /// A bid was requested from a specific partner.
    BidRequested,
    /// A response has arrived.
    BidResponse,
    /// The auction has ended.
    AuctionEnd,
    /// A bid has won.
    BidWon,
    /// The ad's code is injected into a slot.
    SlotRenderEnded,
    /// An ad failed to render.
    AdRenderFailed,
    /// A passback / house ad filled the slots because every demand source
    /// failed (graceful degradation under network faults).
    Passback,
}

impl HbEventKind {
    /// All recognized kinds.
    pub const ALL: [HbEventKind; 9] = [
        HbEventKind::AuctionInit,
        HbEventKind::RequestBids,
        HbEventKind::BidRequested,
        HbEventKind::BidResponse,
        HbEventKind::AuctionEnd,
        HbEventKind::BidWon,
        HbEventKind::SlotRenderEnded,
        HbEventKind::AdRenderFailed,
        HbEventKind::Passback,
    ];

    /// The DOM event name this kind corresponds to.
    pub fn event_name(&self) -> &'static str {
        match self {
            HbEventKind::AuctionInit => "auctionInit",
            HbEventKind::RequestBids => "requestBids",
            HbEventKind::BidRequested => "bidRequested",
            HbEventKind::BidResponse => "bidResponse",
            HbEventKind::AuctionEnd => "auctionEnd",
            HbEventKind::BidWon => "bidWon",
            HbEventKind::SlotRenderEnded => "slotRenderEnded",
            HbEventKind::AdRenderFailed => "adRenderFailed",
            HbEventKind::Passback => "passbackServed",
        }
    }

    /// Parse a DOM event name.
    pub fn parse(name: &str) -> Option<HbEventKind> {
        Self::ALL.iter().copied().find(|k| k.event_name() == name)
    }

    /// Events that *prove* an HB auction is running in the browser.
    /// `slotRenderEnded` alone does not qualify: ad-manager tags fire it
    /// for any programmatic fill, including waterfall. `passbackServed`
    /// likewise: any tag setup can fall back to a house ad.
    pub fn proves_hb(&self) -> bool {
        !matches!(
            self,
            HbEventKind::SlotRenderEnded
                | HbEventKind::AdRenderFailed
                | HbEventKind::Passback
        )
    }
}

impl fmt::Display for HbEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.event_name())
    }
}

/// A recognized HB event, as captured by the tap: which event fired and
/// when. Reconstruction reads only the kind (HB proof, passback flag and
/// per-name counts), so the tap copies nothing out of the event payload —
/// bid, slot and price evidence comes from the webRequest tap instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapturedEvent {
    /// Which event.
    pub kind: HbEventKind,
    /// When it fired (simulated time, ms).
    pub at_ms: f64,
}

impl CapturedEvent {
    /// Try to capture a DOM event as an HB event; `None` for events
    /// outside the HB taxonomy.
    pub fn from_dom(ev: &DomEvent) -> Option<CapturedEvent> {
        Some(CapturedEvent {
            kind: HbEventKind::parse(ev.name)?,
            at_ms: ev.at.as_millis_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_http::Json;
    use hb_simnet::SimTime;

    fn dom<'a>(name: &'a str, payload: &'a Json) -> DomEvent<'a> {
        DomEvent {
            name,
            payload,
            at: SimTime::from_millis(250),
        }
    }

    #[test]
    fn all_names_roundtrip() {
        for kind in HbEventKind::ALL {
            assert_eq!(HbEventKind::parse(kind.event_name()), Some(kind));
        }
        assert_eq!(HbEventKind::parse("click"), None);
        assert_eq!(HbEventKind::parse("AuctionInit"), None, "case sensitive");
    }

    #[test]
    fn proof_semantics() {
        assert!(HbEventKind::AuctionEnd.proves_hb());
        assert!(HbEventKind::BidWon.proves_hb());
        assert!(HbEventKind::BidResponse.proves_hb());
        assert!(!HbEventKind::SlotRenderEnded.proves_hb());
        assert!(!HbEventKind::AdRenderFailed.proves_hb());
        assert!(!HbEventKind::Passback.proves_hb());
    }

    #[test]
    fn capture_keeps_kind_and_time() {
        let payload = Json::obj([
            ("bidder", Json::str("rubicon")),
            ("hb_auction", Json::str("auc-1")),
            ("cpm", Json::num(0.37)),
        ]);
        let c = CapturedEvent::from_dom(&dom("bidResponse", &payload)).unwrap();
        assert_eq!(
            c,
            CapturedEvent {
                kind: HbEventKind::BidResponse,
                at_ms: 250.0,
            }
        );
    }

    #[test]
    fn non_hb_events_ignored() {
        let ev = dom("scroll", &Json::Null);
        assert!(CapturedEvent::from_dom(&ev).is_none());
    }

    #[test]
    fn hb_bidder_fallback_key() {
        // A payload naming its bidder only under `hb_bidder` still captures
        // as kind and time; the payload is not read.
        let payload = Json::obj([("hb_bidder", Json::str("appnexus"))]);
        let c = CapturedEvent::from_dom(&dom("bidWon", &payload)).unwrap();
        assert_eq!(c.kind, HbEventKind::BidWon);
        assert_eq!(c.at_ms, 250.0);
    }

    #[test]
    fn missing_fields_are_none() {
        // Empty and non-object payloads capture like populated ones.
        for payload in [Json::obj([]), Json::Null] {
            let c = CapturedEvent::from_dom(&dom("bidWon", &payload)).unwrap();
            assert_eq!(c.kind, HbEventKind::BidWon);
            assert_eq!(c.at_ms, 250.0);
        }
    }
}
