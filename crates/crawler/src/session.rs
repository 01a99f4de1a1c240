//! One crawl session: a clean-slate browser visit to one site with the
//! detector attached.
//!
//! Reproduces the paper's §3.2 methodology: a fresh browser instance per
//! visit (no cookies, no history), a 60-second page-load timeout, and an
//! extra 5-second settle window after load for pending responses.

use crate::dataset::TruthRecord;
use hb_adtech::{begin_visit, Net, PageWorld, SiteRuntime, VisitGroundTruth};
use hb_core::{HbDetector, Interner, PartnerList, VisitColumns, VisitRecord};
use hb_dom::Browser;
use hb_http::MsgScratch;
use hb_simnet::{Rng, SimDuration, Simulation, SimTime};
use std::sync::Arc;

/// Session policy knobs (paper defaults).
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Hard page timeout (paper: 60 s).
    pub page_timeout: SimDuration,
    /// Extra settle window after load (paper: 5 s).
    pub settle: SimDuration,
    /// Event budget guarding against runaway simulations.
    pub max_events: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            page_timeout: SimDuration::from_secs(60),
            settle: SimDuration::from_secs(5),
            max_events: 100_000,
        }
    }
}

/// The outcome of one visit: what the detector saw and what actually
/// happened (ground truth, used for validation and the waterfall baseline).
#[derive(Clone, Debug)]
pub struct SiteVisit {
    /// The detector's record.
    pub record: VisitRecord,
    /// Simulation ground truth.
    pub truth: VisitGroundTruth,
    /// Whether the page finished loading within the timeout.
    pub page_completed: bool,
}

/// Per-worker visit execution state, reused across visits: one pooled
/// [`Simulation`] whose world holds the browser (with the detector's taps
/// attached once) and the HTTP-layer buffer pool, plus the detector's
/// accumulation buffers. One `VisitScratch` per crawl worker turns the
/// per-visit setup — simulation construction (event slab, heap, callback
/// pool), browser construction, tap registration, request-map allocation,
/// query-buffer churn — into amortized one-time cost: a steady-state
/// visit re-arms everything in place via [`Simulation::reset_in_place`].
pub struct VisitScratch {
    sim: Option<Simulation<PageWorld>>,
    detector: HbDetector,
}

impl VisitScratch {
    /// Build a worker's scratch around the campaign's shared partner list.
    pub fn new(list: Arc<PartnerList>) -> VisitScratch {
        VisitScratch {
            sim: None,
            detector: HbDetector::with_list(list),
        }
    }
}

/// Outcome flags of one visit appended through [`crawl_site_into`].
#[derive(Clone, Copy, Debug)]
pub struct VisitOutcome {
    /// Whether the page finished loading within the timeout.
    pub page_completed: bool,
}

/// Drive one visit's simulation on the pooled scratch, leaving the
/// detector's observation state and the world's ground truth populated.
/// Returns the page-timing facts every finisher needs.
fn simulate_visit(
    net: Net,
    runtime: &Arc<SiteRuntime>,
    rng: Rng,
    cfg: &SessionConfig,
    scratch: &mut VisitScratch,
) -> VisitOutcome {
    let detector = &scratch.detector;
    let sim = match &mut scratch.sim {
        Some(sim) => {
            // Steady state: re-arm the pooled simulation and its world in
            // place. `reset_in_place` rewinds the clock and recycles the
            // event slab + callback pool; the world keeps its browser
            // (taps attached) and buffer pools.
            let w = sim.reset_in_place();
            w.browser.reset_for_visit(runtime.page_url.clone(), SimTime::ZERO);
            w.reset_for_visit(net, rng);
            detector.reset();
            sim
        }
        None => {
            let mut b = Browser::open_untraced(runtime.page_url.clone(), SimTime::ZERO);
            detector.attach(&mut b);
            let world = PageWorld::from_parts(b, net, rng, MsgScratch::new());
            scratch.sim.insert(Simulation::new(world))
        }
    };
    {
        let rt = runtime.clone();
        sim.scheduler()
            .after(SimDuration::ZERO, move |w: &mut PageWorld, s| {
                begin_visit(w, s, rt);
            });
    }
    // Phase 1: run until the page deadline.
    sim.run_until(SimTime::ZERO + cfg.page_timeout, cfg.max_events);
    // Phase 2: settle window — the crawler waits a bit longer after load
    // for pending responses (this is what surfaces late bids).
    let loaded_at = sim.world().browser.page.loaded.unwrap_or_else(|| sim.now());
    let settle_deadline = (loaded_at + cfg.settle).max(sim.now());
    sim.run_until(settle_deadline.min(SimTime::ZERO + cfg.page_timeout + cfg.settle), cfg.max_events);
    VisitOutcome {
        page_completed: sim.world().browser.page.loaded.is_some(),
    }
}

/// Crawl one site once, on a fresh [`VisitScratch`], and return the
/// detector's row together with the full simulation ground truth.
///
/// This is the one-visit inspection API (tests, examples, validation):
/// unlike the campaign's columnar path it keeps fields the columns do not
/// carry, such as the winners and the ad-server response time. Strings in
/// the record are interned into `strings`.
pub fn crawl_site(
    net: Net,
    runtime: SiteRuntime,
    list: Arc<PartnerList>,
    rng: Rng,
    day: u32,
    cfg: &SessionConfig,
    strings: &mut Interner,
) -> SiteVisit {
    let mut scratch = VisitScratch::new(list);
    let runtime = Arc::new(runtime);
    let outcome = simulate_visit(net, &runtime, rng, cfg, &mut scratch);
    let world = scratch.sim.as_mut().expect("simulated").world_mut();
    let page_load_ms = world
        .browser
        .page
        .page_load_time()
        .map(|d| d.as_millis_f64());
    let record = scratch.detector.finish(
        &runtime.page_url.host,
        runtime.rank,
        day,
        page_load_ms,
        strings,
    );
    SiteVisit {
        record,
        truth: std::mem::take(&mut world.flow.truth),
        page_completed: outcome.page_completed,
    }
}

/// The campaign hot path: crawl one site on the pooled scratch and append
/// the outcome **directly into columnar storage** — the detector streams
/// bids/slots/latencies into `cols` through a
/// [`VisitBuilder`](hb_core::VisitBuilder) row, and the ground truth is
/// flattened into `truths` straight from the world (no owned
/// [`SiteVisit`]/[`VisitRecord`] is ever materialized, so nothing escapes
/// the visit but the column tails themselves).
#[allow(clippy::too_many_arguments)]
pub fn crawl_site_into(
    net: Net,
    runtime: Arc<SiteRuntime>,
    rng: Rng,
    day: u32,
    cfg: &SessionConfig,
    strings: &mut Interner,
    scratch: &mut VisitScratch,
    cols: &mut VisitColumns,
    truths: &mut Vec<TruthRecord>,
) -> VisitOutcome {
    let rank = runtime.rank;
    let domain = runtime.page_url.host.clone();
    let outcome = simulate_visit(net, &runtime, rng, cfg, scratch);
    let world = scratch.sim.as_mut().expect("simulated").world_mut();
    let page_load_ms = world
        .browser
        .page
        .page_load_time()
        .map(|d| d.as_millis_f64());
    scratch
        .detector
        .finish_into(&domain, rank, day, page_load_ms, strings, cols);
    // Flatten the truth by reference — the winners vector and the rest of
    // the world's per-visit state stay in the pooled world for reuse.
    truths.push(TruthRecord::from_truth(rank, day, &world.flow.truth));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ecosystem::{EcosystemConfig, SiteFactory};

    fn tiny() -> SiteFactory {
        SiteFactory::new(EcosystemConfig::tiny_scale())
    }

    #[test]
    fn hb_site_detected_with_correct_facet() {
        let factory = tiny();
        let mut strings = Interner::new();
        let mut checked = 0;
        for site in factory.sites().filter(|s| s.facet.is_some()).take(12) {
            let visit = crawl_site(
                factory.net(),
                factory.runtime_for(&site),
                factory.partner_list(),
                factory.visit_rng(site.rank, 0),
                0,
                &SessionConfig::default(),
                &mut strings,
            );
            assert!(visit.record.hb_detected, "{} not detected", site.domain);
            let truth_label = site.facet.unwrap().label();
            let detected_label = visit.record.facet.map(|f| f.label()).unwrap_or("none");
            assert_eq!(
                truth_label, detected_label,
                "facet mismatch on {}",
                site.domain
            );
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn waterfall_site_not_detected() {
        let factory = tiny();
        let mut strings = Interner::new();
        let site = factory.sites().find(|s| s.facet.is_none()).unwrap();
        let visit = crawl_site(
            factory.net(),
            factory.runtime_for(&site),
            factory.partner_list(),
            factory.visit_rng(site.rank, 0),
            0,
            &SessionConfig::default(),
            &mut strings,
        );
        assert!(!visit.record.hb_detected);
        assert!(visit.truth.waterfall_latency.is_some());
        assert!(visit.page_completed);
    }

    #[test]
    fn pooled_visits_match_one_shot_visits() {
        // The invariant behind the campaign's pooled path: a worker's
        // Nth reused-scratch visit must append exactly the row and truth
        // a fresh scratch appends for the same (site, day). Catches any
        // state a future Browser/HbDetector field leaks across
        // reset_for_visit / reset.
        let factory = tiny();
        let cfg = SessionConfig::default();
        let mut reused = VisitScratch::new(factory.partner_list());
        let sites: Vec<_> = factory
            .sites()
            .filter(|s| s.facet.is_some())
            .take(3)
            .chain(factory.sites().filter(|s| s.facet.is_none()).take(2))
            .collect();
        let crawl = |rank: u32, day: u32, scratch: &mut VisitScratch| {
            let mut strings = Interner::new();
            let mut cols = VisitColumns::new();
            let mut truths = Vec::new();
            let outcome = crawl_site_into(
                factory.net(),
                factory.runtime_shared(rank),
                factory.visit_rng(rank, day),
                day,
                &cfg,
                &mut strings,
                scratch,
                &mut cols,
                &mut truths,
            );
            assert_eq!(cols.len(), 1);
            assert_eq!(truths.len(), 1);
            (
                outcome.page_completed,
                format!("{:?}", cols.get(0).to_record()),
                format!("{:?}", truths[0]),
                strings,
            )
        };
        for (day, site) in sites.into_iter().enumerate() {
            let day = day as u32;
            let (done_a, row_a, truth_a, strings_a) = crawl(site.rank, day, &mut reused);
            let mut fresh = VisitScratch::new(factory.partner_list());
            let (done_b, row_b, truth_b, strings_b) = crawl(site.rank, day, &mut fresh);
            assert_eq!(done_a, done_b, "{}", site.domain);
            // Both sides interned into fresh interners, so identical rows
            // carry identical symbol ids — and the tables agree too.
            assert_eq!(row_a, row_b, "{}", site.domain);
            assert_eq!(truth_a, truth_b, "{}", site.domain);
            assert!(strings_a.iter().eq(strings_b.iter()));
        }
    }

    #[test]
    fn visits_are_deterministic() {
        let factory = tiny();
        let site = factory.sites().filter(|s| s.facet.is_some()).next().unwrap();
        let run = || {
            crawl_site(
                factory.net(),
                factory.runtime_for(&site),
                factory.partner_list(),
                factory.visit_rng(site.rank, 1),
                1,
                &SessionConfig::default(),
                &mut Interner::new(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.record.hb_latency_ms, b.record.hb_latency_ms);
        assert_eq!(a.record.bids.len(), b.record.bids.len());
        assert_eq!(
            a.truth.adserver_response_at,
            b.truth.adserver_response_at
        );
    }

    #[test]
    fn different_days_differ() {
        let factory = tiny();
        let mut strings = Interner::new();
        // Latency samples differ day to day for at least one site.
        let mut any_diff = false;
        for site in factory.sites().filter(|s| s.facet.is_some()).take(5) {
            let a = crawl_site(
                factory.net(),
                factory.runtime_for(&site),
                factory.partner_list(),
                factory.visit_rng(site.rank, 0),
                0,
                &SessionConfig::default(),
                &mut strings,
            );
            let b = crawl_site(
                factory.net(),
                factory.runtime_for(&site),
                factory.partner_list(),
                factory.visit_rng(site.rank, 1),
                1,
                &SessionConfig::default(),
                &mut strings,
            );
            if a.record.hb_latency_ms != b.record.hb_latency_ms {
                any_diff = true;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn detector_latency_close_to_ground_truth() {
        let factory = tiny();
        let mut strings = Interner::new();
        for site in factory.sites().filter(|s| s.facet.is_some()).take(8) {
            let visit = crawl_site(
                factory.net(),
                factory.runtime_for(&site),
                factory.partner_list(),
                factory.visit_rng(site.rank, 2),
                2,
                &SessionConfig::default(),
                &mut strings,
            );
            let (Some(det), Some(truth)) = (
                visit.record.hb_latency_ms,
                visit.truth.hb_latency().map(|d| d.as_millis_f64()),
            ) else {
                continue;
            };
            // The detector measures network-level completion; ground truth
            // marks the JS handler; they must agree within the JS service
            // noise (~10ms).
            assert!(
                (det - truth).abs() < 20.0,
                "{}: detector {det} vs truth {truth}",
                site.domain
            );
        }
    }
}
