//! Shared ad-tech domain types: ad sizes, CPM prices, facets, ad units.

use hb_http::hstr::Piece;
use hb_http::HStr;
use std::fmt;

/// An ad creative size in pixels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AdSize {
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl AdSize {
    /// Construct a size.
    pub const fn new(w: u32, h: u32) -> AdSize {
        AdSize { w, h }
    }

    /// Area in square pixels.
    pub fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// Parse from `"300x250"` notation. Plain `digitsxdigits` text (every
    /// label this crate writes) is read byte by byte; anything else —
    /// padding, signs, overlong numbers — goes through the general
    /// trimming parser, so both paths accept exactly the same inputs.
    pub fn parse(s: &str) -> Option<AdSize> {
        if let Some(size) = Self::parse_plain(s.as_bytes()) {
            return Some(size);
        }
        let (w, h) = s.split_once('x')?;
        Some(AdSize {
            w: w.trim().parse().ok()?,
            h: h.trim().parse().ok()?,
        })
    }

    /// `WxH` with both sides 1–9 ASCII digits (no `u32` overflow
    /// possible); `None` sends the caller to the general parser.
    fn parse_plain(b: &[u8]) -> Option<AdSize> {
        fn digits(b: &[u8]) -> Option<u32> {
            if b.is_empty() || b.len() > 9 {
                return None;
            }
            b.iter().try_fold(0u32, |n, &c| {
                c.is_ascii_digit().then(|| n * 10 + u32::from(c - b'0'))
            })
        }
        let x = b.iter().position(|&c| c == b'x')?;
        Some(AdSize {
            w: digits(&b[..x])?,
            h: digits(&b[x + 1..])?,
        })
    }

    /// The `"WxH"` wire label as a static string, for every size the
    /// ecosystem's size tables and this type's constants produce;
    /// `None` for any other size.
    pub const fn catalog_label(&self) -> Option<&'static str> {
        Some(match (self.w, self.h) {
            (300, 250) => "300x250",
            (728, 90) => "728x90",
            (300, 600) => "300x600",
            (320, 50) => "320x50",
            (970, 250) => "970x250",
            (160, 600) => "160x600",
            (336, 280) => "336x280",
            (970, 90) => "970x90",
            (320, 100) => "320x100",
            (468, 60) => "468x60",
            (320, 320) => "320x320",
            (100, 200) => "100x200",
            (120, 600) => "120x600",
            (300, 50) => "300x50",
            _ => return None,
        })
    }

    /// The `"WxH"` wire label: the static [`catalog_label`] when there
    /// is one, the [`Display`](fmt::Display) rendering otherwise. Equal
    /// to `self.to_string()` for every size.
    ///
    /// [`catalog_label`]: AdSize::catalog_label
    pub fn label(&self) -> HStr {
        match self.catalog_label() {
            Some(label) => HStr::from_static(label),
            None => HStr::from_display(self),
        }
    }

    /// The medium rectangle (side banner) — the web's most common slot.
    pub const MEDIUM_RECT: AdSize = AdSize::new(300, 250);
    /// The leaderboard (top banner).
    pub const LEADERBOARD: AdSize = AdSize::new(728, 90);
    /// Half page.
    pub const HALF_PAGE: AdSize = AdSize::new(300, 600);
    /// Mobile banner.
    pub const MOBILE_BANNER: AdSize = AdSize::new(320, 50);
    /// Billboard.
    pub const BILLBOARD: AdSize = AdSize::new(970, 250);
    /// Wide skyscraper.
    pub const SKYSCRAPER: AdSize = AdSize::new(160, 600);
}

impl fmt::Display for AdSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.w, self.h)
    }
}

/// A price in CPM (cost per thousand impressions, USD).
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Cpm(pub f64);

impl Cpm {
    /// Zero price.
    pub const ZERO: Cpm = Cpm(0.0);

    /// Is this price positive?
    pub fn is_positive(&self) -> bool {
        self.0 > 0.0
    }

    /// Round **down** to a price bucket of the given granularity — the
    /// `hb_pb` key-value prebid sends to the ad server. Buckets are floored
    /// so the publisher is never over-reported. A small epsilon keeps the
    /// operation idempotent under floating-point division (re-bucketing an
    /// already-bucketed price must not drop it a bucket).
    pub fn bucket(&self, granularity: f64) -> Cpm {
        if granularity <= 0.0 {
            return *self;
        }
        Cpm((self.0 / granularity + 1e-9).floor() * granularity)
    }

    /// Render as the ad-server string form (2 decimals, the bytes of
    /// `format!("{:.2}")`). Stays on the stack: the rendered form is at
    /// most a few bytes.
    ///
    /// `{:.2}` rounds the exact binary value `x` to the nearest cent,
    /// so a non-negative price is written as `k` cents directly whenever
    /// the computed `x * 100` lies within 0.499 of an integer `k < 1e12`:
    /// the product's rounding error there is below 0.0001, so the exact
    /// cent count is strictly closer to `k` than to any half-cent tie,
    /// and `{:.2}` prints `k / 100` too. Anything else (near-ties,
    /// negatives including `-0.0`, NaN, huge values) is formatted.
    pub fn to_param(&self) -> HStr {
        let cents = self.0 * 100.0;
        let k = cents.round();
        if self.0.is_sign_positive() && k < 1e12 && (cents - k).abs() < 0.499 {
            let k = k as u64;
            let point = if k % 100 < 10 { ".0" } else { "." };
            return HStr::concat(&[Piece::Int(k / 100), Piece::Text(point), Piece::Int(k % 100)]);
        }
        HStr::from_display(format_args!("{:.2}", self.0))
    }

    /// Parse from a parameter string.
    pub fn parse(s: &str) -> Option<Cpm> {
        let v: f64 = s.trim().parse().ok()?;
        if v.is_finite() && v >= 0.0 {
            Some(Cpm(v))
        } else {
            None
        }
    }
}

impl fmt::Display for Cpm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.4} CPM", self.0)
    }
}

/// The three deployment facets of header bidding identified by the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HbFacet {
    /// The auction runs entirely in the browser (Fig. 5).
    ClientSide,
    /// A single provider runs the auction server-side (Fig. 6).
    ServerSide,
    /// Client fan-out plus a server-side auction at the ad server (Fig. 7).
    Hybrid,
}

impl HbFacet {
    /// Stable label used in records and tables.
    pub fn label(&self) -> &'static str {
        match self {
            HbFacet::ClientSide => "client-side",
            HbFacet::ServerSide => "server-side",
            HbFacet::Hybrid => "hybrid",
        }
    }

    /// All facets, in the paper's market-share order.
    pub fn all() -> [HbFacet; 3] {
        [HbFacet::ServerSide, HbFacet::Hybrid, HbFacet::ClientSide]
    }
}

impl fmt::Display for HbFacet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accepted creative sizes of one ad unit, stored inline. Real-world
/// units accept a handful of sizes (the generator assigns one); the
/// former one-element `Vec<AdSize>` per unit was the dominant cold-
/// derivation allocation for unit-heavy sites, so the list lives on the
/// stack — `AdUnit` is now allocation-free apart from its (usually
/// inline) slot code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeList {
    len: u8,
    sizes: [AdSize; 4],
}

impl Default for SizeList {
    fn default() -> SizeList {
        SizeList::empty()
    }
}

impl SizeList {
    /// No sizes.
    pub const fn empty() -> SizeList {
        SizeList {
            len: 0,
            sizes: [AdSize { w: 0, h: 0 }; 4],
        }
    }

    /// A single-size list.
    pub fn one(size: AdSize) -> SizeList {
        let mut l = SizeList::empty();
        l.push(size);
        l
    }

    /// Append a size; silently ignores overflow past the inline capacity
    /// (four sizes — beyond anything the generator or paper describe).
    pub fn push(&mut self, size: AdSize) {
        if (self.len as usize) < self.sizes.len() {
            self.sizes[self.len as usize] = size;
            self.len += 1;
        }
    }

    /// First (primary) size, if any.
    pub fn first(&self) -> Option<AdSize> {
        (self.len > 0).then(|| self.sizes[0])
    }

    /// Number of sizes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no sizes are listed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the sizes.
    pub fn iter(&self) -> impl Iterator<Item = AdSize> + '_ {
        self.sizes[..self.len as usize].iter().copied()
    }
}

impl From<AdSize> for SizeList {
    fn from(size: AdSize) -> SizeList {
        SizeList::one(size)
    }
}

/// An ad slot a publisher puts up for auction.
#[derive(Clone, Debug, PartialEq)]
pub struct AdUnit {
    /// Slot code (matches the page's `div` id).
    pub code: HStr,
    /// Accepted creative sizes (first is primary).
    pub sizes: SizeList,
    /// Floor price agreed with the publisher.
    pub floor: Cpm,
}

impl AdUnit {
    /// Construct an ad unit with one size.
    pub fn new(code: impl Into<HStr>, size: AdSize, floor: Cpm) -> AdUnit {
        AdUnit {
            code: code.into(),
            sizes: SizeList::one(size),
            floor,
        }
    }

    /// Primary size.
    pub fn primary_size(&self) -> AdSize {
        self.sizes.first().unwrap_or(AdSize::MEDIUM_RECT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adsize_parse_display_roundtrip() {
        let s = AdSize::parse("300x250").unwrap();
        assert_eq!(s, AdSize::MEDIUM_RECT);
        assert_eq!(format!("{s}"), "300x250");
        assert_eq!(AdSize::parse("x"), None);
        assert_eq!(AdSize::parse("300"), None);
        assert_eq!(AdSize::parse(" 728 x 90 ").unwrap(), AdSize::LEADERBOARD);
    }

    #[test]
    fn adsize_area() {
        assert_eq!(AdSize::MEDIUM_RECT.area(), 75_000);
        assert_eq!(AdSize::new(0, 10).area(), 0);
    }

    #[test]
    fn cpm_bucketing_floors() {
        assert_eq!(Cpm(0.57).bucket(0.10).0, 0.5);
        assert_eq!(Cpm(0.57).bucket(0.05).0, 0.55);
        let exact = Cpm(1.0).bucket(0.5);
        assert!((exact.0 - 1.0).abs() < 1e-12);
        // Degenerate granularity leaves the price untouched.
        assert_eq!(Cpm(0.37).bucket(0.0).0, 0.37);
    }

    #[test]
    fn cpm_param_roundtrip() {
        let c = Cpm(0.5);
        assert_eq!(c.to_param(), "0.50");
        assert_eq!(Cpm::parse("0.50"), Some(Cpm(0.5)));
        assert_eq!(Cpm::parse("-1"), None);
        assert_eq!(Cpm::parse("nan"), None);
        assert_eq!(Cpm::parse("abc"), None);
    }

    #[test]
    fn cpm_param_matches_format_on_every_cent_and_tie() {
        let special = [
            0.0,
            -0.0,
            0.005,
            0.015,
            0.125,
            1e12,
            1e15,
            f64::NAN,
            f64::INFINITY,
        ];
        let cents = (0..200_000u32).flat_map(|k| {
            let k = f64::from(k);
            [
                k / 100.0,
                k * 0.01,
                (k / 100.0).next_up(),
                (2.0 * k + 1.0) / 200.0,
            ]
        });
        for v in special.into_iter().chain(cents) {
            assert_eq!(Cpm(v).to_param(), format!("{v:.2}"), "price {v:e}");
        }
    }

    #[test]
    fn adsize_catalog_labels() {
        for size in [
            AdSize::MEDIUM_RECT,
            AdSize::LEADERBOARD,
            AdSize::HALF_PAGE,
            AdSize::MOBILE_BANNER,
            AdSize::BILLBOARD,
            AdSize::SKYSCRAPER,
        ] {
            assert_eq!(size.catalog_label(), Some(size.to_string().as_str()));
        }
        assert_eq!(AdSize::new(301, 250).catalog_label(), None);
        assert_eq!(AdSize::new(301, 250).label(), "301x250");
    }

    #[test]
    fn facet_labels() {
        assert_eq!(HbFacet::ClientSide.label(), "client-side");
        assert_eq!(HbFacet::all().len(), 3);
        assert_eq!(HbFacet::all()[0], HbFacet::ServerSide);
    }

    #[test]
    fn ad_unit_primary_size() {
        let u = AdUnit::new("ad-slot-1", AdSize::LEADERBOARD, Cpm(0.05));
        assert_eq!(u.primary_size(), AdSize::LEADERBOARD);
        let empty = AdUnit {
            code: "x".into(),
            sizes: SizeList::empty(),
            floor: Cpm::ZERO,
        };
        assert_eq!(empty.primary_size(), AdSize::MEDIUM_RECT);
    }
}
