//! # hb-ecosystem
//!
//! The synthetic web + ad-tech universe the crawler measures: the
//! 84-partner catalog with per-partner calibration ([`catalog`]),
//! rank-banded publisher profiles ([`publisher`]), Alexa-style toplists
//! with yearly churn ([`toplist`]), Wayback-style historical snapshots
//! ([`wayback`]), ad-size popularity tables ([`sizes`]), and the world
//! assembly wiring everything into one routable simulated Internet
//! ([`world`]).
//!
//! [`SiteFactory`] is the universe: built from one [`EcosystemConfig`] in
//! O(catalog) time, it derives any site purely from `(seed, rank)` and
//! hands the crawler everything it needs: a `Send + Sync` router, the
//! latency directory, the detector's partner list, and per-site runtimes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod config;
pub mod factory;
pub mod publisher;
pub mod scenario;
pub mod sizes;
pub mod toplist;
pub mod wayback;
pub mod world;

pub use catalog::PartnerSpec;
pub use config::EcosystemConfig;
pub use factory::{SiteFactory, SiteGen};
pub use scenario::{OutageWindow, ScenarioConfig};
pub use publisher::{DeriveCtx, DeriveScratch, SiteProfile};
pub use toplist::{site_domain, site_domain_hstr, TopList, YEARLY_OVERLAPS};
pub use wayback::{snapshot, yearly_archive, Snapshot, YEARLY_ADOPTION};
pub use world::{
    build_lazy_world, page_html, render_page_html, site_runtime_with, RuntimeCtx, CDN_HOST,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_tiny_universe() {
        let f = SiteFactory::new(EcosystemConfig::tiny_scale());
        assert_eq!(f.sites().count(), 200);
        assert_eq!(f.specs().len(), 84);
        assert_eq!(f.partner_list().len(), 84);
        let hb = f.sites().filter(|s| s.facet.is_some()).count();
        assert!(hb > 10 && hb < 60, "hb sites {hb}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SiteFactory::new(EcosystemConfig::tiny_scale());
        let b = SiteFactory::new(EcosystemConfig::tiny_scale());
        for (sa, sb) in a.sites().zip(b.sites()) {
            assert_eq!(sa.domain, sb.domain);
            assert_eq!(sa.facet, sb.facet);
            assert_eq!(sa.client_partner_ids, sb.client_partner_ids);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(1));
        let b = SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(2));
        let facets_a: Vec<_> = a.sites().map(|s| s.facet).collect();
        let facets_b: Vec<_> = b.sites().map(|s| s.facet).collect();
        assert_ne!(facets_a, facets_b);
    }

    #[test]
    fn visit_rng_streams_are_stable_and_distinct() {
        let f = SiteFactory::new(EcosystemConfig::tiny_scale());
        let mut a = f.visit_rng(5, 2);
        let mut b = f.visit_rng(5, 2);
        let mut c = f.visit_rng(5, 3);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn net_handle_resolves_universe_hosts() {
        let f = SiteFactory::new(EcosystemConfig::tiny_scale());
        let net = f.net();
        assert!(net.router.resolve("pub1.example").is_some());
        assert!(net.router.resolve(CDN_HOST).is_some());
        assert!(net.router.resolve("appnexus-adnet.example").is_some());
    }
}
