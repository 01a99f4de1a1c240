//! Checked-in golden digests: the oracle for every refactor of the crawl →
//! fold → render path.
//!
//! Each entry is the XXH64 (`hb_core::columns::wire::xxh64`) of one output
//! file:
//!
//! * every paper-registry report CSV plus the Z1/Z2 fault family, at tiny
//!   and test scale, under `ScenarioConfig::healthy()` and under the
//!   all-axes stressed scenario (`common::stressed_scenario`) — exactly
//!   what `figures <scale> --csv DIR` writes, plus Z1/Z2;
//! * the `visits.csv` / `bids.csv` / `truth.csv` bytes of `crawl tiny`;
//! * `ServeReport::digest` of the fixed degraded `LoadGen` stream of
//!   `crates/serve/tests/serving.rs::determinism_across_worker_counts`.
//!
//! The table is never regenerated to make a change pass. A change that
//! alters output on purpose edits the table entries that the mismatch
//! message lists, and says why in CHANGES.md.

mod common;

use hb_repro::adtech::Net;
use hb_repro::core::columns::wire::xxh64;
use hb_repro::prelude::*;
use hb_repro::serve::serve_load_with;
use hb_repro::simnet::{Dist, HostFaultProfile};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `(file, xxh64)` for every pinned output.
const GOLDEN: &[(&str, u64)] = &[
    ("crawl/tiny/visits.csv", 0xdbd511ca48978d9b),
    ("crawl/tiny/bids.csv", 0x364f5cc09fa8872f),
    ("crawl/tiny/truth.csv", 0x09ffff580d9a2ee3),
    ("serve/determinism_across_worker_counts", 0xef6b21720ae3e199),
    ("test/healthy/F4.csv", 0xafb6969705e1a91f),
    ("test/healthy/F4b.csv", 0xbc80249ffd15f4d9),
    ("test/healthy/T1.csv", 0x99ef28c97ae64f37),
    ("test/healthy/A1.csv", 0xf4f62da8727dc46a),
    ("test/healthy/A2.csv", 0xed2946082ab2d8c1),
    ("test/healthy/F8.csv", 0x91dcd242f08c6416),
    ("test/healthy/F9.csv", 0x3261d3073287f0f0),
    ("test/healthy/F10.csv", 0x1ca10459883dfd4d),
    ("test/healthy/F11.csv", 0xa20cc8cc2cc40503),
    ("test/healthy/F12.csv", 0x783bb38b06b87545),
    ("test/healthy/F13.csv", 0xe5bd026729c6a202),
    ("test/healthy/F14.csv", 0x2dff272e85274e4c),
    ("test/healthy/F15.csv", 0xaec1ca1f17323409),
    ("test/healthy/F16.csv", 0xa554023427bf162f),
    ("test/healthy/F17.csv", 0xa4e3ba87c7051c82),
    ("test/healthy/F18.csv", 0x500fe5661ce2a0b8),
    ("test/healthy/F19.csv", 0x4cac53fab2a77fd9),
    ("test/healthy/F20.csv", 0x770aff3ef123f3de),
    ("test/healthy/F21.csv", 0x1e10d67ce925b4ec),
    ("test/healthy/F22.csv", 0x39d459e035510128),
    ("test/healthy/F23.csv", 0xdf0c3448b7c7a86a),
    ("test/healthy/F24.csv", 0x0d0bd6fcc0d99da3),
    ("test/healthy/X1.csv", 0xbcf4d351832ef579),
    ("test/healthy/Z1.csv", 0x4978e662ac1216b5),
    ("test/healthy/Z2.csv", 0x6692ef7fe40bcec6),
    ("test/stressed/F4.csv", 0xafb6969705e1a91f),
    ("test/stressed/F4b.csv", 0xbc80249ffd15f4d9),
    ("test/stressed/T1.csv", 0x28816135d41d49be),
    ("test/stressed/A1.csv", 0xf4f62da8727dc46a),
    ("test/stressed/A2.csv", 0xed2946082ab2d8c1),
    ("test/stressed/F8.csv", 0x91dcd242f08c6416),
    ("test/stressed/F9.csv", 0x3261d3073287f0f0),
    ("test/stressed/F10.csv", 0x1ca10459883dfd4d),
    ("test/stressed/F11.csv", 0x074fe467123bcbd1),
    ("test/stressed/F12.csv", 0x4dbe067a632990f2),
    ("test/stressed/F13.csv", 0x8c5e552fcbeb3582),
    ("test/stressed/F14.csv", 0x73bbfe3628a48316),
    ("test/stressed/F15.csv", 0xc81d1639791f7bb4),
    ("test/stressed/F16.csv", 0xb962418cb39339e4),
    ("test/stressed/F17.csv", 0xc8627a1c6b83bf48),
    ("test/stressed/F18.csv", 0xf7d5d9c6aa5282d9),
    ("test/stressed/F19.csv", 0x4cac53fab2a77fd9),
    ("test/stressed/F20.csv", 0x9bd37818e9146516),
    ("test/stressed/F21.csv", 0xca941e07260d87f9),
    ("test/stressed/F22.csv", 0x6070f8066b9f9727),
    ("test/stressed/F23.csv", 0x05c761f9217f0688),
    ("test/stressed/F24.csv", 0x2294090d5a045c41),
    ("test/stressed/X1.csv", 0x00f74865a141219f),
    ("test/stressed/Z1.csv", 0x3c7ab476a94ec812),
    ("test/stressed/Z2.csv", 0x996760030bea0fd4),
    ("tiny/healthy/F4.csv", 0xafb6969705e1a91f),
    ("tiny/healthy/F4b.csv", 0xbc80249ffd15f4d9),
    ("tiny/healthy/T1.csv", 0xbb8e44f578a3dd7a),
    ("tiny/healthy/A1.csv", 0xc7c5667ab77e8890),
    ("tiny/healthy/A2.csv", 0xd0431f87a5464d20),
    ("tiny/healthy/F8.csv", 0x4ebd862e89e35bf9),
    ("tiny/healthy/F9.csv", 0x807775a169ea258d),
    ("tiny/healthy/F10.csv", 0xb1c7c4b311e50c73),
    ("tiny/healthy/F11.csv", 0x35e0cca3808f87ac),
    ("tiny/healthy/F12.csv", 0xde27738de19bffd3),
    ("tiny/healthy/F13.csv", 0xf8a70a53f97e2197),
    ("tiny/healthy/F14.csv", 0x9d3667a7a4db7ec0),
    ("tiny/healthy/F15.csv", 0xe28cbcac89802812),
    ("tiny/healthy/F16.csv", 0x227abdf15c6a7724),
    ("tiny/healthy/F17.csv", 0xb118c018bda67c88),
    ("tiny/healthy/F18.csv", 0x31c36e354ba8e764),
    ("tiny/healthy/F19.csv", 0x28233c605f6d5d07),
    ("tiny/healthy/F20.csv", 0x7102194f0180dd7f),
    ("tiny/healthy/F21.csv", 0x6afe9b46eaf7a559),
    ("tiny/healthy/F22.csv", 0xceb563407ccfcf20),
    ("tiny/healthy/F23.csv", 0xbf3be257921f7309),
    ("tiny/healthy/F24.csv", 0xb53f6547edd9d65e),
    ("tiny/healthy/X1.csv", 0xd2f8f1ba559c4d02),
    ("tiny/healthy/Z1.csv", 0x27e8401fe2d65bae),
    ("tiny/healthy/Z2.csv", 0xc32152a6d386446f),
    ("tiny/stressed/F4.csv", 0xafb6969705e1a91f),
    ("tiny/stressed/F4b.csv", 0xbc80249ffd15f4d9),
    ("tiny/stressed/T1.csv", 0xe94ed8711ea92f97),
    ("tiny/stressed/A1.csv", 0xc7c5667ab77e8890),
    ("tiny/stressed/A2.csv", 0xd0431f87a5464d20),
    ("tiny/stressed/F8.csv", 0x4ebd862e89e35bf9),
    ("tiny/stressed/F9.csv", 0x807775a169ea258d),
    ("tiny/stressed/F10.csv", 0xb1c7c4b311e50c73),
    ("tiny/stressed/F11.csv", 0xbace1fb069c5b6c4),
    ("tiny/stressed/F12.csv", 0xb9aab9ce1849d241),
    ("tiny/stressed/F13.csv", 0xc67619e981a588b9),
    ("tiny/stressed/F14.csv", 0x5295ba5eb44eb8a0),
    ("tiny/stressed/F15.csv", 0xfb4ef1fb631da832),
    ("tiny/stressed/F16.csv", 0x1bd9b1f956683206),
    ("tiny/stressed/F17.csv", 0xb186bc327e675d34),
    ("tiny/stressed/F18.csv", 0xf3db2c82b57fac63),
    ("tiny/stressed/F19.csv", 0x2909f8d6aac54fec),
    ("tiny/stressed/F20.csv", 0x14451833d7fe790d),
    ("tiny/stressed/F21.csv", 0x6854bddefe2a01c1),
    ("tiny/stressed/F22.csv", 0x0c554e2cf4e0a637),
    ("tiny/stressed/F23.csv", 0x876a0f9065d5e63f),
    ("tiny/stressed/F24.csv", 0xf72afdf0ee7dc99f),
    ("tiny/stressed/X1.csv", 0xa8e6c6cc854ced66),
    ("tiny/stressed/Z1.csv", 0xaf7882ec2639feb8),
    ("tiny/stressed/Z2.csv", 0x971193eb3db2a3f2),
];

/// Same inputs as the `figures` bin: its Wayback study sizes and the
/// default campaign configuration.
fn report_digests(group: &str, config: EcosystemConfig) -> Vec<(String, u64)> {
    let seed = config.seed;
    let adoption = adoption_study(seed, 1_000);
    let overlaps = overlap_study(seed, 5_000);
    let ix = DatasetIndex::from_campaign(&SiteFactory::new(config), &CampaignConfig::default());
    all_reports(&ix, &adoption, &overlaps)
        .into_iter()
        .chain(fault_reports(&ix))
        .map(|r| {
            (
                format!("{group}/{}.csv", r.id),
                xxh64(r.to_csv().as_bytes()),
            )
        })
        .collect()
}

/// Same path as the `crawl` bin: the chunk stream into a [`DatasetWriter`].
fn crawl_digests(group: &str, config: EcosystemConfig) -> Vec<(String, u64)> {
    let factory = SiteFactory::new(config);
    let mut writer = DatasetWriter::new(Vec::new(), Vec::new(), Vec::new()).unwrap();
    run_campaign_streamed(&factory, &CampaignConfig::default(), &mut |chunk| {
        writer.write_chunk(&chunk).unwrap()
    });
    let (visits, bids, truths) = writer.finish().unwrap();
    [
        ("visits.csv", visits),
        ("bids.csv", bids),
        ("truth.csv", truths),
    ]
    .into_iter()
    .map(|(file, bytes)| (format!("{group}/{file}"), xxh64(&bytes)))
    .collect()
}

/// The fixed degraded stream of `determinism_across_worker_counts` in
/// `crates/serve/tests/serving.rs`, served by one worker.
fn serve_digests() -> Vec<(String, u64)> {
    let f = SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(0x5EE_D10));
    let slice: Vec<String> = f
        .gen()
        .specs
        .iter()
        .filter(|s| !s.is_ad_server)
        .take(4)
        .map(|s| s.host())
        .collect();
    let lossy = HostFaultProfile {
        drop_chance: 0.45,
        slow_chance: 0.35,
        slow_penalty_ms: Dist::Const(220.0),
    };
    let scenario = ScenarioConfig::healthy().with_provider_slice(slice, lossy);
    let inj = scenario.injector_for_day(&f.faults(), 0);
    let net = Net::new(f.router(), f.latency(), Arc::new(inj));
    let cfg = ServeConfig {
        shards: 8,
        ..ServeConfig::default()
    };
    let load = LoadGenConfig {
        n_requests: 1_600,
        n_sites: f.config().n_sites as u64,
        mean_gap: SimDuration::from_micros(400),
        ..LoadGenConfig::default()
    };
    let report = serve_load_with(f.gen(), &net, &cfg, &load, 1, true);
    vec![(
        "serve/determinism_across_worker_counts".to_string(),
        report.digest(),
    )]
}

/// Compare `computed` with the table entries under `group/`: the same
/// file set, and the same digest for each file.
fn check(group: &str, computed: Vec<(String, u64)>) {
    let prefix = format!("{group}/");
    let want: BTreeMap<&str, u64> = GOLDEN
        .iter()
        .filter(|(file, _)| file.starts_with(&prefix))
        .map(|&(file, digest)| (file, digest))
        .collect();
    let got: BTreeMap<&str, u64> = computed.iter().map(|(f, d)| (f.as_str(), *d)).collect();
    let mismatches: Vec<String> = want
        .keys()
        .chain(got.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .filter(|file| want.get(*file) != got.get(*file))
        .map(|file| {
            format!(
                "{file}: golden {:016x?}, computed {:016x?}",
                want.get(file),
                got.get(file)
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} golden digest mismatch(es):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn tiny_healthy_reports() {
    check(
        "tiny/healthy",
        report_digests("tiny/healthy", EcosystemConfig::tiny_scale()),
    );
}

#[test]
fn tiny_stressed_reports() {
    let base = EcosystemConfig::tiny_scale();
    let config = base.clone().with_scenario(common::stressed_scenario(&base));
    check("tiny/stressed", report_digests("tiny/stressed", config));
}

#[test]
fn test_healthy_reports() {
    check(
        "test/healthy",
        report_digests("test/healthy", EcosystemConfig::test_scale()),
    );
}

#[test]
fn test_stressed_reports() {
    let base = EcosystemConfig::test_scale();
    let config = base.clone().with_scenario(common::stressed_scenario(&base));
    check("test/stressed", report_digests("test/stressed", config));
}

#[test]
fn crawl_tiny_csvs() {
    check(
        "crawl/tiny",
        crawl_digests("crawl/tiny", EcosystemConfig::tiny_scale()),
    );
}

#[test]
fn serve_determinism_stream() {
    check("serve", serve_digests());
}
