//! Ad-slot size popularity per HB facet (Figure 21 calibration).
//!
//! The medium rectangle (300x250) dominates every facet, followed by the
//! leaderboard (728x90) and the half page (300x600); a few sizes are
//! facet-specific (e.g. 320x320 / 100x200 / 120x600 appear in the paper's
//! client-side panel).

use hb_adtech::{AdSize, HbFacet};
use hb_simnet::Rng;

/// Weighted size table for one facet.
pub fn size_table(facet: HbFacet) -> Vec<(AdSize, f64)> {
    match facet {
        HbFacet::ServerSide => vec![
            (AdSize::new(300, 250), 0.40),
            (AdSize::new(728, 90), 0.17),
            (AdSize::new(300, 600), 0.11),
            (AdSize::new(320, 50), 0.09),
            (AdSize::new(970, 250), 0.07),
            (AdSize::new(160, 600), 0.05),
            (AdSize::new(336, 280), 0.04),
            (AdSize::new(970, 90), 0.03),
            (AdSize::new(320, 100), 0.02),
            (AdSize::new(468, 60), 0.02),
        ],
        HbFacet::ClientSide => vec![
            (AdSize::new(300, 250), 0.34),
            (AdSize::new(300, 600), 0.16),
            (AdSize::new(728, 90), 0.14),
            (AdSize::new(970, 250), 0.08),
            (AdSize::new(320, 320), 0.07),
            (AdSize::new(320, 50), 0.06),
            (AdSize::new(160, 600), 0.05),
            (AdSize::new(100, 200), 0.04),
            (AdSize::new(120, 600), 0.03),
            (AdSize::new(320, 100), 0.03),
        ],
        HbFacet::Hybrid => vec![
            (AdSize::new(300, 250), 0.38),
            (AdSize::new(728, 90), 0.16),
            (AdSize::new(300, 600), 0.12),
            (AdSize::new(320, 50), 0.08),
            (AdSize::new(970, 250), 0.07),
            (AdSize::new(160, 600), 0.05),
            (AdSize::new(320, 100), 0.04),
            (AdSize::new(336, 280), 0.04),
            (AdSize::new(300, 50), 0.03),
            (AdSize::new(120, 600), 0.03),
        ],
    }
}

/// Sample one size for a slot on a site with the given facet.
pub fn sample_size(facet: HbFacet, rng: &mut Rng) -> AdSize {
    let table = size_table(facet);
    let weights: Vec<f64> = table.iter().map(|(_, w)| *w).collect();
    match rng.weighted_index(&weights) {
        Some(i) => table[i].0,
        None => AdSize::MEDIUM_RECT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medium_rect_dominates_every_facet() {
        for facet in [HbFacet::ClientSide, HbFacet::ServerSide, HbFacet::Hybrid] {
            let t = size_table(facet);
            let (top, w) = t[0];
            assert_eq!(top, AdSize::MEDIUM_RECT);
            assert!(t.iter().skip(1).all(|(_, ww)| *ww <= w));
        }
    }

    #[test]
    fn tables_are_normalized_ish() {
        for facet in [HbFacet::ClientSide, HbFacet::ServerSide, HbFacet::Hybrid] {
            let total: f64 = size_table(facet).iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "{facet}: {total}");
        }
    }

    #[test]
    fn sampling_respects_weights() {
        let mut rng = Rng::new(1);
        let n = 20_000;
        let medium = (0..n)
            .filter(|_| sample_size(HbFacet::ServerSide, &mut rng) == AdSize::MEDIUM_RECT)
            .count();
        let frac = medium as f64 / n as f64;
        assert!((frac - 0.40).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn every_table_size_has_a_static_wire_label() {
        for facet in [HbFacet::ClientSide, HbFacet::ServerSide, HbFacet::Hybrid] {
            for (size, _) in size_table(facet) {
                let text = size.to_string();
                assert_eq!(size.catalog_label(), Some(text.as_str()), "{facet}");
                assert_eq!(size.label(), text);
                assert_eq!(AdSize::parse(&size.label()), Some(size));
            }
        }
    }

    #[test]
    fn client_panel_has_facet_specific_sizes() {
        let t = size_table(HbFacet::ClientSide);
        assert!(t.iter().any(|(s, _)| *s == AdSize::new(320, 320)));
        assert!(t.iter().any(|(s, _)| *s == AdSize::new(100, 200)));
    }
}
