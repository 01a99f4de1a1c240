//! The columnar analysis index: folded incrementally from the streamed
//! campaign chunks, read by every figure.
//!
//! ## Why
//!
//! A visit row nests bid/latency/slot vectors, and figures used to
//! re-walk rows — visiting ~20 pointer-chasing fields to extract the two
//! or three columns they actually needed, and re-deriving the same
//! per-site partner unions and popularity rankings up to five times per
//! report run. [`DatasetIndex`] hoists all of that into flat, parallel
//! arrays (struct-of-arrays) plus the shared derived tables, so figure
//! builders become tight scans over contiguous memory.
//!
//! ## One way to build
//!
//! [`DatasetIndexBuilder`] consumes [`VisitChunk`]s as the sharded
//! campaign (or the distd coordinator) produces them, re-interning
//! chunk-local symbols into its own table. Chunks are folded and dropped
//! one at a time, so no campaign-sized dataset is ever resident. Feed
//! chunks in `(day, shard, seq)` order (what [`run_campaign_streamed`]
//! emits) and the builder's symbol numbering — hence every figure byte —
//! is identical for every parallelism and shard count.
//! [`DatasetIndex::from_campaign`] is that loop for an in-process crawl.
//!
//! ## Contract: build once, read many
//!
//! * The index is immutable after build; share it freely (`Sync`, fully
//!   owned — no borrow of the dataset remains).
//! * Figure builders take `&DatasetIndex` and never see visit rows;
//!   everything order-sensitive (site tables sorted by domain, partner
//!   tables sorted by name, popularity sorted by count desc / name asc)
//!   is precomputed here so ported figures stay byte-identical to their
//!   row-scan ancestors.
//!
//! Every column below is consumed by at least one figure builder — when a
//! figure stops needing a column, delete it here too; fold cost (tracked
//! by the `figure/INDEX_build` bench) is paid per column.
//!
//! Column groups, all parallel within their group:
//!
//! | group | arrays | one row per |
//! |---|---|---|
//! | HB visits | `v_*` | visit with `hb_detected` |
//! | day-0 visits | `d0_*` | visit with `day == 0` (HB or not) |
//! | bids | `b_*` | detected bid in an HB visit |
//! | latency observations | `l_*` | partner latency sample |
//! | slot decisions | `s_*` | slot decision in an HB visit |
//! | ground truth | `t_*` | truth record with a measured latency |

use hb_core::{DetectedFacet, Interner, Symbol};
use hb_crawler::{run_campaign_streamed, CampaignConfig, VisitChunk};
use hb_ecosystem::SiteFactory;
use std::collections::HashMap;
use std::sync::Arc;

/// One HB site (distinct domain) with its cross-visit aggregates.
#[derive(Clone, Debug)]
pub struct SiteRow {
    /// Site domain.
    pub domain: Symbol,
    /// Union of partner names over all visits, sorted by resolved name.
    pub partners: Vec<Symbol>,
    /// Every measured per-visit HB latency of this site, in visit order.
    pub latencies: Vec<f64>,
}

/// Columnar view over one campaign. See the module docs for the
/// build-once/read-many contract.
#[derive(Default)]
pub struct DatasetIndex {
    /// The interner every symbol column resolves against.
    pub strings: Arc<Interner>,
    /// Number of sites in the crawled universe.
    pub n_sites: u32,
    /// Number of crawl days (excluding the day-0 sweep).
    pub n_days: u32,

    // --- HB-visit columns (one row per hb_detected visit) -----------------
    /// Site rank.
    pub v_rank: Vec<u32>,
    /// Crawl day.
    pub v_day: Vec<u32>,
    /// Facet verdict.
    pub v_facet: Vec<Option<DetectedFacet>>,
    /// Total HB latency ms (`NaN` when unmeasured).
    pub v_latency: Vec<f64>,
    /// Slots auctioned.
    pub v_slots_auctioned: Vec<u32>,
    /// Number of bids.
    pub v_n_bids: Vec<u32>,
    /// Number of late bids.
    pub v_n_late: Vec<u32>,
    /// Bid/ad requests lost to network faults.
    pub v_bids_dropped: Vec<u32>,
    /// Deadline-triggered retries issued.
    pub v_retries: Vec<u32>,
    /// Demand sources given up on after deadline/retry exhaustion.
    pub v_timed_out: Vec<u32>,
    /// Passback / house-ad fill after total demand failure.
    pub v_passback: Vec<bool>,

    // --- day-0 sweep columns (every visit, HB or not) ---------------------
    /// Site rank.
    pub d0_rank: Vec<u32>,
    /// Detector verdict.
    pub d0_hb: Vec<bool>,
    /// Facet of detected sites (`None` otherwise).
    pub d0_facet: Vec<Option<DetectedFacet>>,

    // --- bid columns ------------------------------------------------------
    /// Row index into the HB-visit columns.
    pub b_visit: Vec<u32>,
    /// Bidder code.
    pub b_bidder: Vec<Symbol>,
    /// Partner display name.
    pub b_partner: Vec<Symbol>,
    /// Size string.
    pub b_size: Vec<Symbol>,
    /// CPM price.
    pub b_cpm: Vec<f64>,

    // --- partner latency observation columns ------------------------------
    /// Partner display name.
    pub l_partner: Vec<Symbol>,
    /// Late flag.
    pub l_late: Vec<bool>,

    // --- slot decision columns --------------------------------------------
    /// Row index into the HB-visit columns.
    pub s_visit: Vec<u32>,
    /// Size string.
    pub s_size: Vec<Symbol>,

    // --- ground-truth latency columns (waterfall baseline, X1) ------------
    /// Measured HB latency of every truth record with an HB facet, in
    /// truth order.
    pub t_hb_latency: Vec<f64>,
    /// Measured waterfall fill latency of every facet-less truth record,
    /// in truth order.
    pub t_wf_latency: Vec<f64>,

    // --- derived tables ---------------------------------------------------
    /// Distinct HB sites sorted by domain name.
    pub sites: Vec<SiteRow>,
    /// Partner popularity `(name, distinct sites)`, count desc / name asc.
    pub partner_popularity: Vec<(Symbol, usize)>,
    /// Per-partner latency samples, sorted by partner name; samples keep
    /// visit order.
    pub partner_latency: Vec<(Symbol, Vec<f64>)>,
    /// Lookup from partner symbol to its `partner_latency` row.
    pub partner_latency_by_sym: HashMap<Symbol, u32>,
}

impl DatasetIndex {
    /// Crawl the campaign and fold it into an index:
    /// [`run_campaign_streamed`] into a [`DatasetIndexBuilder`], each
    /// chunk dropped as soon as it is folded.
    pub fn from_campaign(factory: &SiteFactory, cfg: &CampaignConfig) -> DatasetIndex {
        let config = factory.config();
        let mut builder = DatasetIndexBuilder::new(config.n_sites, config.crawl_days);
        run_campaign_streamed(factory, cfg, &mut |chunk| builder.push_chunk(&chunk));
        builder.finish()
    }

    /// Resolve a symbol against the index interner.
    pub fn str(&self, sym: Symbol) -> &str {
        self.strings.resolve(sym)
    }

    /// Number of HB-visit rows.
    pub fn n_hb_visits(&self) -> usize {
        self.v_rank.len()
    }

    /// Number of distinct HB sites.
    pub fn n_hb_sites(&self) -> usize {
        self.sites.len()
    }

    /// Latency samples for one partner, if any were observed.
    pub fn latency_samples_of(&self, partner: Symbol) -> Option<&[f64]> {
        self.partner_latency_by_sym
            .get(&partner)
            .map(|&i| &self.partner_latency[i as usize].1[..])
    }
}

/// Incremental index construction from streamed shard chunks.
///
/// Chunks are folded in arrival order and can be dropped immediately —
/// the builder keeps only the columnar state, never the row records, so
/// peak memory for a figures run is the index itself plus one in-flight
/// chunk.
pub struct DatasetIndexBuilder {
    /// The index under construction: every column grows in place, and
    /// [`DatasetIndexBuilder::finish`] adds the derived tables.
    ix: DatasetIndex,
    site_rows: HashMap<Symbol, SiteRow>,
    partner_samples: HashMap<Symbol, Vec<f64>>,
}

impl DatasetIndexBuilder {
    /// Start a builder for a campaign over `n_sites` × `n_days`.
    pub fn new(n_sites: u32, n_days: u32) -> DatasetIndexBuilder {
        DatasetIndexBuilder {
            ix: DatasetIndex {
                n_sites,
                n_days,
                ..DatasetIndex::default()
            },
            site_rows: HashMap::new(),
            partner_samples: HashMap::new(),
        }
    }

    /// Fold one chunk: visits are appended in chunk order with their
    /// symbols re-interned from the chunk-local table into the index's.
    /// Symbols are interned in field order (domain, partners, each bid's
    /// bidder/partner/size, latency partners, slot sizes), which fixes the
    /// index's symbol numbering for a given chunk stream.
    pub fn push_chunk(&mut self, chunk: &VisitChunk) {
        let ix = &mut self.ix;
        let strings = Arc::get_mut(&mut ix.strings).expect("interner is unshared until finish");
        let local = &chunk.strings;
        let mut intern = |sym: Symbol| strings.intern(local.resolve(sym));
        for v in chunk.visits.iter() {
            if v.day == 0 {
                ix.d0_rank.push(v.rank);
                ix.d0_hb.push(v.hb_detected);
                ix.d0_facet.push(v.facet);
            }
            if !v.hb_detected {
                continue;
            }
            let vrow = ix.v_rank.len() as u32;
            ix.v_rank.push(v.rank);
            ix.v_day.push(v.day);
            ix.v_facet.push(v.facet);
            ix.v_latency.push(v.hb_latency_ms.unwrap_or(f64::NAN));
            ix.v_slots_auctioned.push(v.slots_auctioned);
            ix.v_n_bids.push(v.bids.len() as u32);
            ix.v_n_late.push(v.late_bids() as u32);
            ix.v_bids_dropped.push(v.bids_dropped);
            ix.v_retries.push(v.retries);
            ix.v_timed_out.push(v.timed_out_partners);
            ix.v_passback.push(v.passback_served);

            let domain = intern(v.domain);
            let site = self.site_rows.entry(domain).or_insert_with(|| SiteRow {
                domain,
                partners: Vec::new(),
                latencies: Vec::new(),
            });
            for p in v.partners {
                let p = intern(*p);
                if !site.partners.contains(&p) {
                    site.partners.push(p);
                }
            }
            if let Some(lat) = v.hb_latency_ms {
                site.latencies.push(lat);
            }

            for b in v.bids {
                ix.b_visit.push(vrow);
                ix.b_bidder.push(intern(b.bidder_code));
                ix.b_partner.push(intern(b.partner_name));
                ix.b_size.push(intern(b.size));
                ix.b_cpm.push(b.cpm);
            }
            for pl in v.partner_latencies {
                let partner = intern(pl.partner_name);
                ix.l_partner.push(partner);
                ix.l_late.push(pl.late);
                self.partner_samples
                    .entry(partner)
                    .or_default()
                    .push(pl.latency_ms);
            }
            for s in v.slots {
                ix.s_visit.push(vrow);
                ix.s_size.push(intern(s.size));
            }
        }
        // Ground truth: only the latency columns are kept.
        for t in &chunk.truths {
            if t.facet != "none" {
                if let Some(ms) = t.hb_latency_ms {
                    ix.t_hb_latency.push(ms);
                }
            } else if let Some(ms) = t.waterfall_latency_ms {
                ix.t_wf_latency.push(ms);
            }
        }
    }

    /// Seal the index: sort the derived tables.
    pub fn finish(self) -> DatasetIndex {
        let mut ix = self.ix;
        let strings = &ix.strings;
        // Sites sorted by domain name; partner sets sorted by name.
        let mut sites: Vec<SiteRow> = self.site_rows.into_values().collect();
        for site in &mut sites {
            site.partners
                .sort_unstable_by(|a, b| strings.resolve(*a).cmp(strings.resolve(*b)));
        }
        sites.sort_unstable_by(|a, b| {
            strings.resolve(a.domain).cmp(strings.resolve(b.domain))
        });

        // Partner popularity: distinct sites per partner, from the sorted
        // site table; ranked count desc, name asc.
        let mut pop: HashMap<Symbol, usize> = HashMap::new();
        for site in &sites {
            for p in &site.partners {
                *pop.entry(*p).or_insert(0) += 1;
            }
        }
        let mut partner_popularity: Vec<(Symbol, usize)> = pop.into_iter().collect();
        partner_popularity.sort_unstable_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| strings.resolve(a.0).cmp(strings.resolve(b.0)))
        });

        // Per-partner latency samples sorted by name, with a reverse map.
        let mut partner_latency: Vec<(Symbol, Vec<f64>)> =
            self.partner_samples.into_iter().collect();
        partner_latency
            .sort_unstable_by(|a, b| strings.resolve(a.0).cmp(strings.resolve(b.0)));
        ix.partner_latency_by_sym = partner_latency
            .iter()
            .enumerate()
            .map(|(i, (sym, _))| (*sym, i as u32))
            .collect();

        ix.sites = sites;
        ix.partner_popularity = partner_popularity;
        ix.partner_latency = partner_latency;
        ix
    }
}

#[cfg(test)]
mod tests {
    use crate::test_fixtures::{for_each_small_chunk, small_index};
    use std::collections::BTreeSet;

    #[test]
    fn columns_are_consistent() {
        let ix = small_index();
        let n = ix.n_hb_visits();
        assert!(n > 100);
        assert_eq!(ix.v_latency.len(), n);
        assert_eq!(ix.v_n_bids.len(), n);
        assert_eq!(ix.b_visit.len(), ix.b_cpm.len());
        assert_eq!(ix.l_partner.len(), ix.l_late.len());
        assert_eq!(ix.s_visit.len(), ix.s_size.len());
        // Bid rows point at valid visit rows.
        assert!(ix.b_visit.iter().all(|&v| (v as usize) < n));
        // Totals line up with the raw visit views the index was folded from.
        let mut bids = 0;
        let mut hb_visits = 0;
        for_each_small_chunk(|c| {
            for v in c.visits.iter().filter(|v| v.hb_detected) {
                hb_visits += 1;
                bids += v.bids.len();
            }
        });
        let total_bids: u32 = ix.v_n_bids.iter().sum();
        assert_eq!(total_bids as usize, ix.b_visit.len());
        assert_eq!(total_bids as usize, bids);
        assert_eq!(n, hb_visits);
    }

    #[test]
    fn sites_sorted_by_domain() {
        let ix = small_index();
        assert!(ix.n_hb_sites() > 10);
        let domains: Vec<&str> = ix.sites.iter().map(|s| ix.str(s.domain)).collect();
        let mut distinct = BTreeSet::new();
        for_each_small_chunk(|c| {
            for v in c.visits.iter().filter(|v| v.hb_detected) {
                distinct.insert(c.strings.resolve(v.domain).to_string());
            }
        });
        // Sorted and deduplicated: exactly the distinct HB domains.
        assert!(domains
            .iter()
            .copied()
            .eq(distinct.iter().map(String::as_str)));
    }

    #[test]
    fn popularity_ranked_desc() {
        let ix = small_index();
        for w in ix.partner_popularity.windows(2) {
            assert!(w[0].1 >= w[1].1);
            if w[0].1 == w[1].1 {
                assert!(ix.str(w[0].0) < ix.str(w[1].0));
            }
        }
    }

    #[test]
    fn partner_latency_lookup_consistent() {
        let ix = small_index();
        assert!(!ix.partner_latency.is_empty());
        for (sym, samples) in &ix.partner_latency {
            assert_eq!(ix.latency_samples_of(*sym).unwrap(), &samples[..]);
        }
        let total: usize = ix.partner_latency.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, ix.l_partner.len());
    }

    #[test]
    fn truth_latency_columns_match_dataset() {
        let ix = small_index();
        let mut hb = Vec::new();
        let mut wf = Vec::new();
        for_each_small_chunk(|c| {
            for t in &c.truths {
                if t.facet != "none" {
                    hb.extend(t.hb_latency_ms);
                } else {
                    wf.extend(t.waterfall_latency_ms);
                }
            }
        });
        assert_eq!(ix.t_hb_latency, hb);
        assert_eq!(ix.t_wf_latency, wf);
    }
}
