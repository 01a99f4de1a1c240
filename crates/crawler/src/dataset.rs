//! The crawl dataset on disk: flattened ground truth plus a streaming CSV
//! writer for campaign chunks.

use crate::chunk::VisitChunk;
use hb_adtech::{FillChannel, VisitGroundTruth};
use hb_core::BidSource;
use hb_stats::csv_escape;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Flattened ground truth for one visit (thread-transferable, CSV-friendly).
#[derive(Clone, Debug, Default)]
pub struct TruthRecord {
    /// Site rank.
    pub rank: u32,
    /// Crawl day.
    pub day: u32,
    /// Ground-truth facet label (`client-side`/`server-side`/`hybrid`/`none`).
    /// Static: the label set is closed, so flattening a visit's truth
    /// never allocates for it.
    pub facet: &'static str,
    /// Slots auctioned.
    pub slots: u32,
    /// Client-visible bids.
    pub client_bids: u32,
    /// Late bids.
    pub late_bids: u32,
    /// HB latency ms (first bid request → ad-server response).
    pub hb_latency_ms: Option<f64>,
    /// Waterfall fill latency ms (waterfall sites).
    pub waterfall_latency_ms: Option<f64>,
    /// Number of slots filled by an HB bid.
    pub hb_wins: u32,
    /// Revenue proxy: sum of clearing price buckets.
    pub revenue_cpm: f64,
    /// Bid/ad requests lost to network faults (drops, dead hosts).
    pub bids_dropped: u32,
    /// Deadline-triggered retries issued (HB partners + waterfall tiers).
    pub retries: u32,
    /// Demand sources given up on after deadline/retry exhaustion.
    pub timed_out_partners: u32,
    /// Did the wrapper fall back to house ads after total demand failure?
    pub passback_served: bool,
}

impl TruthRecord {
    /// Flatten a visit's ground truth.
    pub fn from_truth(rank: u32, day: u32, t: &VisitGroundTruth) -> TruthRecord {
        TruthRecord {
            rank,
            day,
            facet: t.facet.map(|f| f.label()).unwrap_or("none"),
            slots: t.slots_auctioned as u32,
            client_bids: t.client_bids as u32,
            late_bids: t.late_bids as u32,
            hb_latency_ms: t.hb_latency().map(|d| d.as_millis_f64()),
            waterfall_latency_ms: t.waterfall_latency.map(|d| d.as_millis_f64()),
            hb_wins: t
                .winners
                .iter()
                .filter(|w| w.channel == FillChannel::HeaderBid)
                .count() as u32,
            revenue_cpm: t.winners.iter().map(|w| w.pb.0).sum(),
            bids_dropped: t.bids_dropped as u32,
            retries: t.retries as u32,
            timed_out_partners: t.timed_out_partners as u32,
            passback_served: t.passback_served,
        }
    }
}

/// `{:.prec$}` of a present value; an absent one writes nothing.
struct OptMs(Option<f64>, usize);

impl fmt::Display for OptMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(x) => write!(f, "{:.*}", self.1, x),
            None => Ok(()),
        }
    }
}

/// Streams campaign chunks into the three dataset CSVs: `visits.csv`
/// (one row per visit), `bids.csv` (one row per bid of an HB visit) and
/// `truth.csv` (one ground-truth row per visit).
///
/// Each chunk's rows are appended as it arrives, with symbols resolved
/// against that chunk's own interner, so no chunk outlives its write.
/// Fed the [`run_campaign_streamed`](crate::run_campaign_streamed)
/// stream, which arrives in `(day, shard, seq)` order, the files are a
/// pure function of the seed: identical for every `parallelism` and
/// `shards` setting. Call [`finish`](Self::finish): dropping the writer
/// instead discards any buffered write error.
pub struct DatasetWriter<W: Write> {
    visits: W,
    bids: W,
    truths: W,
    /// Reused `partners` cell: resolved names joined with `|`.
    partners: String,
}

impl DatasetWriter<BufWriter<File>> {
    /// Create `dir` and buffered `visits.csv` / `bids.csv` / `truth.csv`
    /// files under it, headers written.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let open = |name: &str| File::create(dir.join(name)).map(BufWriter::new);
        DatasetWriter::new(open("visits.csv")?, open("bids.csv")?, open("truth.csv")?)
    }
}

impl<W: Write> DatasetWriter<W> {
    /// Wrap three sinks and write each table's header.
    pub fn new(mut visits: W, mut bids: W, mut truths: W) -> io::Result<Self> {
        visits.write_all(
            b"domain,rank,day,hb_detected,facet,partners,slots,hb_latency_ms,n_bids,n_late,page_load_ms\n",
        )?;
        bids.write_all(
            b"domain,rank,day,facet,bidder,partner,slot,cpm,size,late,latency_ms,source\n",
        )?;
        truths.write_all(
            b"rank,day,facet,slots,client_bids,late_bids,hb_latency_ms,waterfall_latency_ms,hb_wins,revenue_cpm,bids_dropped,retries,timed_out_partners,passback_served\n",
        )?;
        Ok(DatasetWriter {
            visits,
            bids,
            truths,
            partners: String::new(),
        })
    }

    /// Append one chunk's visits, bids and truths.
    pub fn write_chunk(&mut self, chunk: &VisitChunk) -> io::Result<()> {
        let s = |sym| chunk.strings.resolve(sym);
        for v in chunk.visits.iter() {
            let domain = csv_escape(s(v.domain));
            let facet = v.facet.map(|f| f.label()).unwrap_or("none");
            self.partners.clear();
            for (i, p) in v.partners.iter().enumerate() {
                if i > 0 {
                    self.partners.push('|');
                }
                self.partners.push_str(s(*p));
            }
            writeln!(
                self.visits,
                "{},{},{},{},{},{},{},{},{},{},{}",
                domain,
                v.rank,
                v.day,
                v.hb_detected,
                facet,
                csv_escape(&self.partners),
                v.slots_auctioned,
                OptMs(v.hb_latency_ms, 3),
                v.bids.len(),
                v.late_bids(),
                OptMs(v.page_load_ms, 1),
            )?;
            if !v.hb_detected {
                continue;
            }
            for b in v.bids {
                writeln!(
                    self.bids,
                    "{},{},{},{},{},{},{},{:.6},{},{},{},{}",
                    domain,
                    v.rank,
                    v.day,
                    facet,
                    csv_escape(s(b.bidder_code)),
                    csv_escape(s(b.partner_name)),
                    csv_escape(s(b.slot)),
                    b.cpm,
                    s(b.size),
                    b.late,
                    OptMs(b.latency_ms, 3),
                    match b.source {
                        BidSource::ClientVisible => "client",
                        BidSource::ServerReported => "server",
                    },
                )?;
            }
        }
        for t in &chunk.truths {
            writeln!(
                self.truths,
                "{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{}",
                t.rank,
                t.day,
                t.facet,
                t.slots,
                t.client_bids,
                t.late_bids,
                OptMs(t.hb_latency_ms, 3),
                OptMs(t.waterfall_latency_ms, 3),
                t.hb_wins,
                t.revenue_cpm,
                t.bids_dropped,
                t.retries,
                t.timed_out_partners,
                t.passback_served,
            )?;
        }
        Ok(())
    }

    /// Flush all three sinks and hand them back (visits, bids, truths).
    pub fn finish(mut self) -> io::Result<(W, W, W)> {
        self.visits.flush()?;
        self.bids.flush()?;
        self.truths.flush()?;
        Ok((self.visits, self.bids, self.truths))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::{DetectedBid, DetectedFacet, Interner, VisitRecord};

    fn mk_visit(strings: &mut Interner, domain: &str, rank: u32, detected: bool) -> VisitRecord {
        VisitRecord {
            domain: strings.intern(domain),
            rank,
            day: 0,
            hb_detected: detected,
            facet: detected.then_some(DetectedFacet::Client),
            partners: vec![strings.intern("AppNexus"), strings.intern("Criteo, Inc.")],
            slots_auctioned: 3,
            hb_latency_ms: Some(512.0),
            bids: vec![DetectedBid {
                bidder_code: strings.intern("appnexus"),
                partner_name: strings.intern("AppNexus"),
                slot: strings.intern("s1"),
                cpm: 0.21,
                size: strings.intern("300x250"),
                late: false,
                latency_ms: Some(230.0),
                source: BidSource::ClientVisible,
            }],
            page_load_ms: Some(1400.0),
            ..VisitRecord::default()
        }
    }

    fn write(chunk: &VisitChunk) -> [String; 3] {
        let mut w = DatasetWriter::new(Vec::new(), Vec::new(), Vec::new()).unwrap();
        w.write_chunk(chunk).unwrap();
        let (v, b, t) = w.finish().unwrap();
        [v, b, t].map(|bytes| String::from_utf8(bytes).unwrap())
    }

    fn chunk(visits: Vec<VisitRecord>, truths: Vec<TruthRecord>, strings: Interner) -> VisitChunk {
        VisitChunk {
            day: 0,
            shard: 0,
            seq: 0,
            visits: visits.into_iter().collect(),
            truths,
            strings,
        }
    }

    #[test]
    fn visit_csv_has_header_and_rows() {
        let mut strings = Interner::new();
        let visits = vec![
            mk_visit(&mut strings, "a.example", 1, true),
            mk_visit(&mut strings, "b.example", 2, false),
        ];
        let [visits, bids, _] = write(&chunk(visits, vec![], strings));
        // Symbols resolve against the chunk's own interner; a partner
        // name with a comma is quoted.
        assert_eq!(
            visits,
            "domain,rank,day,hb_detected,facet,partners,slots,hb_latency_ms,n_bids,n_late,page_load_ms\n\
             a.example,1,0,true,client-side,\"AppNexus|Criteo, Inc.\",3,512.000,1,0,1400.0\n\
             b.example,2,0,false,none,\"AppNexus|Criteo, Inc.\",3,512.000,1,0,1400.0\n"
        );
        // Only HB visits contribute bid rows.
        assert_eq!(
            bids.lines().collect::<Vec<_>>(),
            [
                "domain,rank,day,facet,bidder,partner,slot,cpm,size,late,latency_ms,source",
                "a.example,1,0,client-side,appnexus,AppNexus,s1,0.210000,300x250,false,230.000,client",
            ]
        );
    }

    #[test]
    fn csv_roundtrip_truths() {
        let truths = vec![
            TruthRecord {
                rank: 5,
                day: 2,
                facet: "hybrid",
                slots: 4,
                client_bids: 3,
                late_bids: 1,
                hb_latency_ms: Some(612.5),
                waterfall_latency_ms: None,
                hb_wins: 2,
                revenue_cpm: 0.61,
                bids_dropped: 2,
                retries: 1,
                timed_out_partners: 1,
                passback_served: true,
            },
            TruthRecord {
                rank: 9,
                facet: "none",
                slots: 1,
                waterfall_latency_ms: Some(210.0),
                revenue_cpm: 0.02,
                ..TruthRecord::default()
            },
        ];
        let [_, _, csv] = write(&chunk(vec![], truths.clone(), Interner::new()));
        let rows = hb_stats::parse_csv(&csv);
        assert_eq!(rows.len(), truths.len() + 1);
        assert_eq!(rows[0].len(), 14);
        for (row, t) in rows[1..].iter().zip(&truths) {
            let opt = |cell: &str| cell.parse::<f64>().ok();
            assert_eq!(row[0].parse::<u32>().unwrap(), t.rank);
            assert_eq!(row[1].parse::<u32>().unwrap(), t.day);
            assert_eq!(row[2], t.facet);
            assert_eq!(row[3].parse::<u32>().unwrap(), t.slots);
            assert_eq!(row[4].parse::<u32>().unwrap(), t.client_bids);
            assert_eq!(row[5].parse::<u32>().unwrap(), t.late_bids);
            assert_eq!(opt(&row[6]), t.hb_latency_ms);
            assert_eq!(opt(&row[7]), t.waterfall_latency_ms);
            assert_eq!(row[8].parse::<u32>().unwrap(), t.hb_wins);
            assert_eq!(row[9].parse::<f64>().unwrap(), t.revenue_cpm);
            assert_eq!(row[10].parse::<u32>().unwrap(), t.bids_dropped);
            assert_eq!(row[11].parse::<u32>().unwrap(), t.retries);
            assert_eq!(row[12].parse::<u32>().unwrap(), t.timed_out_partners);
            assert_eq!(row[13] == "true", t.passback_served);
        }
    }
}
