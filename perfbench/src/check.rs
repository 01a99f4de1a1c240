//! Output checks: report digests, the golden values recorded for a set
//! of seeds, and the structural checks every seed gets.

use hb_analysis::FigureReport;
use hb_core::columns::wire::xxh64;

/// The seed the benchmark runs when none is given: the paper-scale
/// universe's own seed (`EcosystemConfig::paper_scale().seed`).
pub const DEFAULT_SEED: u64 = 0x4845_4144_4552;

/// Output digests recorded for one seed.
pub struct Golden {
    /// The benchmark seed.
    pub seed: u64,
    /// `crawl_paper`: XXH64 over the 21 paper report CSVs plus Z1/Z2.
    pub crawl: u64,
    /// `distd_stressed`: the same digest; the traced replay reproduces
    /// it in-process.
    pub distd: u64,
    /// `serve_soak`: `ServeReport::digest`.
    pub serve: u64,
}

/// Golden digests for the default seed and seeds 0 to 20.
pub const GOLDEN: &[Golden] = &[
    Golden {
        seed: DEFAULT_SEED,
        crawl: 0xc343_dcb7_cc4a_af4d,
        distd: 0xae4d_174f_9196_05ec,
        serve: 0xa7af_457d_841d_08e8,
    },
    Golden {
        seed: 0,
        crawl: 0xbf77_9469_39f3_ff74,
        distd: 0x93b9_c859_73c5_96b2,
        serve: 0xfc7b_b824_9529_a7a9,
    },
    Golden {
        seed: 1,
        crawl: 0x5a3d_4f58_3973_3a90,
        distd: 0xa314_85a8_4e36_f1d5,
        serve: 0x8c51_4c1b_0ad5_65b1,
    },
    Golden {
        seed: 2,
        crawl: 0x8021_561c_9e24_2a5b,
        distd: 0xb3de_c129_b70c_fda3,
        serve: 0x36a4_5c47_1feb_8ed7,
    },
    Golden {
        seed: 3,
        crawl: 0xfcbf_c9fd_8dbb_1bfa,
        distd: 0xd35d_f04c_fd46_31d4,
        serve: 0xb86f_6cb3_4e45_ff47,
    },
    Golden {
        seed: 4,
        crawl: 0x5185_88a4_ed26_e242,
        distd: 0xeb8e_de58_a0db_ae86,
        serve: 0xd815_af4b_25af_d760,
    },
    Golden {
        seed: 5,
        crawl: 0x88f8_06f7_120a_db73,
        distd: 0x6455_3c58_2040_e948,
        serve: 0xcd73_5396_9d82_c45a,
    },
    Golden {
        seed: 6,
        crawl: 0xce35_4595_615b_46f3,
        distd: 0xea2a_e80c_0c77_d56d,
        serve: 0x52ff_fa37_62c0_2992,
    },
    Golden {
        seed: 7,
        crawl: 0xfd0d_2a8e_b18c_718f,
        distd: 0x4574_70c8_0e96_7748,
        serve: 0xc797_9ba1_d8e6_b425,
    },
    Golden {
        seed: 8,
        crawl: 0xe08c_7b32_9b1c_cc0a,
        distd: 0x3cae_2b27_9ad5_3fee,
        serve: 0x8b83_be62_3dad_1471,
    },
    Golden {
        seed: 9,
        crawl: 0xab49_73ac_e8b8_3b9c,
        distd: 0x98a0_9cd0_3247_10f4,
        serve: 0xabc2_8835_dbb6_574c,
    },
    Golden {
        seed: 10,
        crawl: 0xe99c_a146_78c5_0828,
        distd: 0x096c_9636_081a_d58d,
        serve: 0x72a9_d0ab_a9b9_837a,
    },
    Golden {
        seed: 11,
        crawl: 0x07ed_5c1d_d9b2_222e,
        distd: 0x8c2e_746f_bff4_84d5,
        serve: 0xc09d_3d8e_e82e_25cf,
    },
    Golden {
        seed: 12,
        crawl: 0xa581_c019_313d_9dd1,
        distd: 0x868b_0686_1f4d_c8e3,
        serve: 0xaa4d_a052_92d8_ebd0,
    },
    Golden {
        seed: 13,
        crawl: 0x0ad7_ebf9_ff63_d765,
        distd: 0xade6_d588_f283_4bff,
        serve: 0x1755_64e8_3442_262c,
    },
    Golden {
        seed: 14,
        crawl: 0xc64b_6b0e_999c_0a14,
        distd: 0x63eb_24c5_a7e4_b38b,
        serve: 0x1faa_d541_e19c_fcdd,
    },
    Golden {
        seed: 15,
        crawl: 0x7ee5_703e_2c75_1016,
        distd: 0xfa10_21ab_0d3d_e2f0,
        serve: 0x56ea_5aec_6f98_b2f6,
    },
    Golden {
        seed: 16,
        crawl: 0xdace_a2b3_86d4_debb,
        distd: 0xd005_5a29_510d_451b,
        serve: 0x302e_7e4a_8775_2743,
    },
    Golden {
        seed: 17,
        crawl: 0xabf2_f06e_a178_c911,
        distd: 0x104e_5e36_a02d_c705,
        serve: 0x5cb8_ebaa_9572_17bd,
    },
    Golden {
        seed: 18,
        crawl: 0xf17b_70a3_9ef6_d875,
        distd: 0x1f61_9db3_74bd_3496,
        serve: 0xab14_f69e_4983_fcc2,
    },
    Golden {
        seed: 19,
        crawl: 0x0f24_ea31_277c_10e6,
        distd: 0x98b3_1509_4391_4999,
        serve: 0x8a68_bc39_ee12_1e8f,
    },
    Golden {
        seed: 20,
        crawl: 0x7e8b_9dcc_e5ec_c507,
        distd: 0xc89e_d8aa_3711_390d,
        serve: 0x3380_654c_85ba_2f4b,
    },
];

/// The golden digests recorded for `seed`, if any.
pub fn golden_of(seed: u64) -> Option<&'static Golden> {
    GOLDEN.iter().find(|g| g.seed == seed)
}

/// Digest of rendered reports: XXH64 over `id '\n' csv '\n'` for each
/// report, in order.
pub fn csv_digest<'a>(reports: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
    let mut bytes = Vec::new();
    for (id, csv) in reports {
        bytes.extend_from_slice(id.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(csv.as_bytes());
        bytes.push(b'\n');
    }
    xxh64(&bytes)
}

/// Render every report (text and CSV, as a figures run does) and digest
/// the CSVs.
pub fn render_digest(reports: &[FigureReport]) -> u64 {
    let csvs: Vec<(String, String)> = reports
        .iter()
        .map(|r| {
            std::hint::black_box(r.render());
            (r.id.clone(), r.to_csv())
        })
        .collect();
    csv_digest(csvs.iter().map(|(id, csv)| (id.as_str(), csv.as_str())))
}

/// Compare a digest with the golden value recorded for the run's seed;
/// a seed without one passes this check (its structural checks still
/// apply).
pub fn check_golden(what: &str, golden: Option<u64>, digest: u64) -> Result<(), String> {
    match golden {
        Some(g) if g != digest => Err(format!(
            "{what}: digest {digest:016x} differs from the golden {g:016x} recorded for this seed"
        )),
        _ => Ok(()),
    }
}

/// Fail with `msg` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Tracks that a campaign's chunks arrive exactly as scheduled: every
/// day-0 rank once in order, then each detected HB site once per crawl
/// day, in `(day, seq)` order. Counting only visits that match the
/// schedule means a duplicate or a gap shows up as a failure.
pub struct ScheduleCheck {
    n_sites: u32,
    n_days: u32,
    chunk_visits: usize,
    detected: Vec<u32>,
    day: u32,
    pos: usize,
    seq: u32,
    /// Visits folded at their scheduled position.
    pub folded: u64,
    /// Chunks folded.
    pub chunks: u64,
    error: Option<String>,
}

impl ScheduleCheck {
    /// A check for a campaign over `n_sites` × `n_days` in blocks of
    /// `chunk_visits`.
    pub fn new(n_sites: u32, n_days: u32, chunk_visits: usize) -> ScheduleCheck {
        ScheduleCheck {
            n_sites,
            n_days,
            chunk_visits,
            detected: Vec::new(),
            day: 0,
            pos: 0,
            seq: 0,
            folded: 0,
            chunks: 0,
            error: None,
        }
    }

    fn day_len(&self, day: u32) -> usize {
        if day == 0 {
            self.n_sites as usize
        } else {
            self.detected.len()
        }
    }

    fn expected_rank(&self) -> u32 {
        if self.day == 0 {
            self.pos as u32 + 1
        } else {
            self.detected[self.pos]
        }
    }

    /// Record one folded chunk.
    pub fn push(&mut self, chunk: &hb_crawler::VisitChunk) {
        if self.error.is_some() {
            return;
        }
        // Skip past days with nothing scheduled (no HB site detected).
        while self.day <= self.n_days && self.pos == self.day_len(self.day) {
            self.day += 1;
            self.pos = 0;
            self.seq = 0;
        }
        if chunk.key() != (self.day, 0, self.seq) {
            self.error = Some(format!(
                "chunk {:?} arrived where ({}, 0, {}) was scheduled",
                chunk.key(),
                self.day,
                self.seq
            ));
            return;
        }
        let want = self.chunk_visits.min(self.day_len(self.day) - self.pos);
        if chunk.len() != want {
            self.error = Some(format!(
                "chunk {:?} holds {} visits, {want} scheduled",
                chunk.key(),
                chunk.len()
            ));
            return;
        }
        for v in chunk.visits.iter() {
            let rank = self.expected_rank();
            if v.rank != rank || v.day != self.day {
                self.error = Some(format!(
                    "visit (rank {}, day {}) folded where (rank {rank}, day {}) was scheduled",
                    v.rank, v.day, self.day
                ));
                return;
            }
            if self.day == 0 && v.hb_detected {
                self.detected.push(v.rank);
            }
            self.pos += 1;
            self.folded += 1;
        }
        self.seq += 1;
        self.chunks += 1;
    }

    /// Visits the campaign scheduled (known once day 0 is folded).
    pub fn scheduled(&self) -> u64 {
        self.n_sites as u64 + self.detected.len() as u64 * self.n_days as u64
    }

    /// Blocks the campaign scheduled.
    pub fn blocks(&self) -> u64 {
        let per = self.chunk_visits.max(1);
        (self.n_sites as usize).div_ceil(per) as u64
            + self.detected.len().div_ceil(per) as u64 * self.n_days as u64
    }

    /// The structural verdict: no out-of-schedule chunk, every scheduled
    /// visit and block folded.
    pub fn verdict(&self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        ensure(self.folded == self.scheduled(), || {
            format!(
                "{} of {} scheduled visits folded",
                self.folded,
                self.scheduled()
            )
        })?;
        ensure(self.chunks == self.blocks(), || {
            format!(
                "{} of {} scheduled blocks folded",
                self.chunks,
                self.blocks()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::FailCount;
    use hb_analysis::{indexed_reports, DatasetIndexBuilder};
    use hb_crawler::{run_campaign_streamed, CampaignConfig, VisitChunk};
    use hb_ecosystem::{EcosystemConfig, SiteFactory};

    fn tiny_campaign() -> (Vec<VisitChunk>, EcosystemConfig) {
        let cfg = EcosystemConfig::tiny_scale().with_days(2);
        let factory = SiteFactory::new(cfg.clone());
        let mut chunks = Vec::new();
        let camp = CampaignConfig {
            parallelism: 1,
            chunk_visits: 32,
            ..CampaignConfig::default()
        };
        run_campaign_streamed(&factory, &camp, &mut |c| chunks.push(c));
        (chunks, cfg)
    }

    #[test]
    fn one_byte_change_in_one_report_csv_is_rejected() {
        let (chunks, cfg) = tiny_campaign();
        let mut b = DatasetIndexBuilder::new(cfg.n_sites, cfg.crawl_days);
        for c in &chunks {
            b.push_chunk(c);
        }
        let reports = indexed_reports(&b.finish());
        assert_eq!(reports.len(), 21);
        let mut csvs: Vec<(String, String)> =
            reports.iter().map(|r| (r.id.clone(), r.to_csv())).collect();
        let view =
            |c: &[(String, String)]| csv_digest(c.iter().map(|(i, s)| (i.as_str(), s.as_str())));
        let golden = view(&csvs);
        assert_eq!(golden, render_digest(&reports));
        assert!(check_golden("crawl", Some(golden), view(&csvs)).is_ok());
        // Flip one byte of one report's CSV.
        let mut bytes = std::mem::take(&mut csvs[7].1).into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        csvs[7].1 = String::from_utf8(bytes).expect("ascii csv");
        let tampered = view(&csvs);
        assert_ne!(tampered, golden);
        let err = check_golden("crawl", Some(golden), tampered).unwrap_err();
        assert!(err.contains("differs from the golden"), "{err}");
        // Seeds without a recorded digest are judged structurally only.
        assert!(check_golden("crawl", None, tampered).is_ok());
    }

    #[test]
    fn schedule_check_accepts_a_full_campaign_and_rejects_gaps() {
        let (chunks, cfg) = tiny_campaign();
        let mut ok = ScheduleCheck::new(cfg.n_sites, cfg.crawl_days, 32);
        for c in &chunks {
            ok.push(c);
        }
        assert!(ok.verdict().is_ok(), "{:?}", ok.verdict());
        assert_eq!(
            ok.folded as usize,
            chunks.iter().map(VisitChunk::len).sum::<usize>()
        );
        assert_eq!(ok.chunks as usize, chunks.len());
        assert_eq!(FailCount::crawl(ok.scheduled(), ok.folded).failed, 0);

        // A chunk lost in transit.
        let mut gap = ScheduleCheck::new(cfg.n_sites, cfg.crawl_days, 32);
        for (i, c) in chunks.iter().enumerate() {
            if i != 2 {
                gap.push(c);
            }
        }
        assert!(gap.verdict().is_err());

        // A duplicate delivery.
        let mut dup = ScheduleCheck::new(cfg.n_sites, cfg.crawl_days, 32);
        dup.push(&chunks[0]);
        for c in &chunks {
            dup.push(c);
        }
        assert!(dup.verdict().is_err());

        // A campaign cut short after day 0.
        let mut short = ScheduleCheck::new(cfg.n_sites, cfg.crawl_days, 32);
        for c in chunks.iter().filter(|c| c.day == 0) {
            short.push(c);
        }
        assert!(short.verdict().is_err());
        let f = FailCount::crawl(short.scheduled(), short.folded);
        assert_eq!(f.failed, short.scheduled() - short.folded);
        assert!(f.failed > 0);
    }
}
