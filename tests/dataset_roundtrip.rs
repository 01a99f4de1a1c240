//! Dataset persistence: the streamed CSV writer's files and their shape.

use hb_repro::crawler::TruthRecord;
use hb_repro::prelude::*;
use hb_repro::stats::parse_csv;

/// The tiny campaign streamed through an in-memory [`DatasetWriter`]:
/// `(visits.csv, bids.csv, truth.csv, chunks)`.
fn tiny_csvs() -> (String, String, String, Vec<VisitChunk>) {
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let mut writer = DatasetWriter::new(Vec::new(), Vec::new(), Vec::new()).unwrap();
    let mut chunks = Vec::new();
    run_campaign_streamed(&factory, &CampaignConfig::default(), &mut |chunk| {
        writer.write_chunk(&chunk).unwrap();
        chunks.push(chunk);
    });
    let (v, b, t) = writer.finish().unwrap();
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
    (text(v), text(b), text(t), chunks)
}

#[test]
fn save_writes_three_csv_files() {
    let dir = std::env::temp_dir().join(format!("hb-repro-test-{}", std::process::id()));
    let factory = SiteFactory::new(EcosystemConfig::tiny_scale());
    let mut writer = DatasetWriter::create(&dir).expect("create dataset files");
    run_campaign_streamed(&factory, &CampaignConfig::default(), &mut |chunk| {
        writer.write_chunk(&chunk).unwrap()
    });
    writer.finish().expect("flush dataset");
    let (visits, bids, truths, _) = tiny_csvs();
    for (f, want) in [
        ("visits.csv", visits),
        ("bids.csv", bids),
        ("truth.csv", truths),
    ] {
        let content = std::fs::read_to_string(dir.join(f)).expect("file exists");
        assert!(content.lines().count() > 1, "{f} has data rows");
        assert_eq!(
            content, want,
            "{f}: buffered file differs from in-memory bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truth_csv_roundtrip_preserves_every_record() {
    let (_, _, csv, chunks) = tiny_csvs();
    let rows = parse_csv(&csv);
    let truths: Vec<&TruthRecord> = chunks.iter().flat_map(|c| &c.truths).collect();
    assert_eq!(rows.len(), truths.len() + 1);
    for (row, t) in rows.iter().skip(1).zip(truths) {
        assert_eq!(row.len(), 14, "row width");
        assert_eq!(row[0].parse::<u32>().unwrap(), t.rank);
        assert_eq!(row[1].parse::<u32>().unwrap(), t.day);
        assert_eq!(row[2], t.facet);
        assert_eq!(row[3].parse::<u32>().unwrap(), t.slots);
        assert_eq!(row[4].parse::<u32>().unwrap(), t.client_bids);
        assert_eq!(row[5].parse::<u32>().unwrap(), t.late_bids);
        assert_eq!(row[8].parse::<u32>().unwrap(), t.hb_wins);
        match (row[6].parse::<f64>().ok(), t.hb_latency_ms) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 0.01),
            (None, None) => {}
            other => panic!("latency mismatch {other:?}"),
        }
        assert_eq!(row[13] == "true", t.passback_served);
    }
}

#[test]
fn visits_csv_is_well_formed() {
    let (csv, _, _, chunks) = tiny_csvs();
    let rows = parse_csv(&csv);
    let visits: usize = chunks.iter().map(VisitChunk::len).sum();
    assert_eq!(rows[0].len(), 11, "11 header columns");
    assert_eq!(rows.len(), visits + 1);
    for row in rows.iter().skip(1) {
        assert_eq!(row.len(), 11, "row width");
        assert!(row[1].parse::<u32>().is_ok(), "rank parses");
        assert!(matches!(
            row[4].as_str(),
            "none" | "client-side" | "server-side" | "hybrid"
        ));
    }
}

#[test]
fn bids_csv_rows_match_bid_count() {
    let (_, csv, _, chunks) = tiny_csvs();
    let rows = parse_csv(&csv);
    let bids: usize = chunks
        .iter()
        .flat_map(|c| c.visits.iter())
        .filter(|v| v.hb_detected)
        .map(|v| v.bids.len())
        .sum();
    assert!(bids > 0);
    assert_eq!(rows.len(), bids + 1);
}
