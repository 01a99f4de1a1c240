//! Multi-day crawl campaigns over the ecosystem — sharded and streaming.
//!
//! The paper's methodology, mechanized: a day-0 sweep over the full
//! toplist (detecting which sites run HB at all), followed by daily
//! revisits of the detected HB sites for `crawl_days` days.
//!
//! ## Architecture
//!
//! The toplist is split into `shards` contiguous rank slices. Each shard
//! crawls its slice with a pool of workers that claim fixed-size *blocks*
//! of ranks: a worker derives each site lazily from the
//! [`SiteFactory`], crawls it, flattens the ground truth immediately, and
//! interns strings into a block-local interner — sealing the block as a
//! self-contained columnar [`VisitChunk`] keyed `(day, shard, seq)`.
//! Chunks stream to the caller in deterministic key order the moment they
//! are sealed (a bounded slot ring hands them over without reordering).
//!
//! Determinism: every `(site, day)` visit derives its own RNG stream from
//! the master seed, block boundaries are a pure function of the job list,
//! and [`run_campaign_streamed`] emits chunks day-major in
//! `(day, shard, seq)` order — which, because shard slices are contiguous,
//! is exactly the global `(day, rank)` visit order. A consumer that
//! interns in arrival order (the analysis index builder, the dataset CSV
//! writer) therefore produces identical symbol numbering and bytes for
//! every `parallelism` *and* every `shards` setting.

use crate::chunk::VisitChunk;
use crate::ring::SlotRing;
use crate::session::{crawl_site_into, SessionConfig, VisitScratch};
use hb_core::{Interner, VisitColumns};
use hb_ecosystem::SiteFactory;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A progress observation delivered to [`CampaignConfig::progress`].
#[derive(Clone, Copy, Debug)]
pub struct CampaignProgress {
    /// Shard reporting progress.
    pub shard: u32,
    /// Day of the batch being crawled (0 = adoption sweep).
    pub day: u32,
    /// Visits finished in the current batch.
    pub done: usize,
    /// Total visits in the current batch.
    pub total: usize,
}

/// Progress callback: called from crawl worker threads, so it must be
/// `Send + Sync`. Library users decide what to do with it — nothing is
/// ever printed by the library itself.
pub type ProgressFn = Box<dyn Fn(CampaignProgress) + Send + Sync>;

/// Campaign tuning.
pub struct CampaignConfig {
    /// Worker threads per shard batch (0 = available parallelism).
    pub parallelism: usize,
    /// Session policy.
    pub session: SessionConfig,
    /// Number of contiguous toplist shards (1 = unsharded). Every shard
    /// runs locally, interleaved day-major; multi-machine operation leases
    /// blocks through `hb-distd` instead.
    pub shards: u32,
    /// Visits per sealed chunk (block size of the worker scheduler).
    pub chunk_visits: usize,
    /// Progress callback interval in visits; 0 disables progress entirely.
    pub progress_every: usize,
    /// Progress callback (replaces the stderr printing of earlier
    /// versions; `None` = silent).
    pub progress: Option<ProgressFn>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            parallelism: 0,
            session: SessionConfig::default(),
            shards: 1,
            chunk_visits: 256,
            progress_every: 0,
            progress: None,
        }
    }
}

impl fmt::Debug for CampaignConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignConfig")
            .field("parallelism", &self.parallelism)
            .field("session", &self.session)
            .field("shards", &self.shards)
            .field("chunk_visits", &self.chunk_visits)
            .field("progress_every", &self.progress_every)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .finish()
    }
}

/// One shard of a campaign: which contiguous slice of the toplist it owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Total shard count.
    pub shards: u32,
    /// This shard's index (`0..shards`).
    pub shard_id: u32,
}

impl ShardSpec {
    /// Build a spec; panics when `shard_id >= shards` or `shards == 0`.
    pub fn new(shards: u32, shard_id: u32) -> ShardSpec {
        assert!(shards > 0, "shards must be positive");
        assert!(shard_id < shards, "shard_id {shard_id} out of range 0..{shards}");
        ShardSpec { shards, shard_id }
    }

    /// The contiguous half-open range of 1-based ranks this shard crawls.
    /// Slices are contiguous so that `(day, shard, rank)` order equals the
    /// global `(day, rank)` order — the stream-order invariant.
    pub fn rank_range(&self, n_sites: u32) -> std::ops::Range<u32> {
        let base = n_sites / self.shards;
        let rem = n_sites % self.shards;
        let lo = 1 + self.shard_id * base + self.shard_id.min(rem);
        let len = base + u32::from(self.shard_id < rem);
        lo..lo + len
    }
}

/// Crawl one block of ranks into a sealed, self-contained chunk — the
/// unit of lease-based distribution.
///
/// This is the exact iteration the in-process scheduler runs per claimed
/// block (`run_batch` delegates here), exposed so a remote worker
/// holding a `(day, shard, seq)` lease produces byte-identical chunks: a
/// block-local interner, direct-to-column visits via [`crawl_site_into`],
/// ground truth flattened in place. `on_visit` fires after every finished
/// visit with the count of visits completed in this block (progress
/// callbacks, lease heartbeats).
#[allow(clippy::too_many_arguments)] // mirrors crawl_site_into's shape
pub fn crawl_block_into(
    factory: &SiteFactory,
    ranks: &[u32],
    day: u32,
    shard: u32,
    seq: u32,
    session: &SessionConfig,
    scratch: &mut VisitScratch,
    net: &hb_adtech::Net,
    on_visit: &mut dyn FnMut(usize),
) -> VisitChunk {
    crawl_block_until(
        factory,
        ranks,
        day,
        shard,
        seq,
        session,
        scratch,
        net,
        &mut |i| {
            on_visit(i);
            true
        },
    )
    .expect("an always-true keep_going never abandons the block")
}

/// [`crawl_block_into`], but abortable: `keep_going` fires after every
/// finished visit (with the count of visits completed in this block) and
/// returns whether to continue. Returning `false` abandons the block —
/// `None` comes back and no partial chunk exists anywhere. A distributed
/// worker whose lease expired, or whose coordinator stopped answering
/// heartbeats, uses this to stop burning CPU on a block that will be
/// re-crawled elsewhere (visits are pure in `(seed, rank, day)`, so the
/// abandoned work is perfectly reproducible).
#[allow(clippy::too_many_arguments)] // mirrors crawl_site_into's shape
pub fn crawl_block_until(
    factory: &SiteFactory,
    ranks: &[u32],
    day: u32,
    shard: u32,
    seq: u32,
    session: &SessionConfig,
    scratch: &mut VisitScratch,
    net: &hb_adtech::Net,
    keep_going: &mut dyn FnMut(usize) -> bool,
) -> Option<VisitChunk> {
    let mut strings = Interner::new();
    let mut visits = VisitColumns::with_capacity(ranks.len());
    let mut truths = Vec::with_capacity(ranks.len());
    for (i, &rank) in ranks.iter().enumerate() {
        // Direct-to-column: the detector appends the finished row
        // straight into the chunk's columns and the ground truth is
        // flattened in place — no owned SiteVisit per visit.
        let _ = crawl_site_into(
            net.clone(),
            factory.runtime_shared(rank),
            factory.visit_rng(rank, day),
            day,
            session,
            &mut strings,
            scratch,
            &mut visits,
            &mut truths,
        );
        if !keep_going(i + 1) {
            return None;
        }
    }
    Some(VisitChunk {
        day,
        shard,
        seq,
        visits,
        truths,
        strings,
    })
}

fn worker_count(cfg: &CampaignConfig) -> usize {
    if cfg.parallelism == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        cfg.parallelism
    }
}

/// Crawl one `(day, rank-set)` batch, streaming sealed chunks to `sink`
/// in `seq` order.
///
/// Workers claim fixed-size blocks of the rank list via an atomic cursor;
/// each block is crawled in rank order into its own columnar chunk with a
/// block-local interner, so no symbol state is shared between threads.
/// Ground truth is flattened to [`TruthRecord`]s as visits finish — the
/// heavyweight simulation state never outlives the visit.
fn run_batch(
    factory: &SiteFactory,
    ranks: &[u32],
    day: u32,
    shard_id: u32,
    cfg: &CampaignConfig,
    sink: &mut dyn FnMut(VisitChunk),
) {
    if ranks.is_empty() {
        return;
    }
    let workers = worker_count(cfg);
    let chunk_size = cfg.chunk_visits.max(1);
    let n_blocks = ranks.len().div_ceil(chunk_size);
    let total = ranks.len();
    let done = AtomicUsize::new(0);

    // One worker's block body: crawl block `b` into a sealed chunk via
    // the shared lease-block iteration.
    let crawl_block = |b: usize, scratch: &mut VisitScratch, net: &hb_adtech::Net| {
        let lo = b * chunk_size;
        let hi = (lo + chunk_size).min(total);
        crawl_block_into(
            factory,
            &ranks[lo..hi],
            day,
            shard_id,
            b as u32,
            &cfg.session,
            scratch,
            net,
            &mut |_| {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                if cfg.progress_every > 0 && n % cfg.progress_every == 0 {
                    if let Some(cb) = &cfg.progress {
                        cb(CampaignProgress {
                            shard: shard_id,
                            day,
                            done: n,
                            total,
                        });
                    }
                }
            },
        )
    };

    if workers.min(n_blocks) == 1 {
        // Single-worker batch (one core, or one block): run inline on the
        // calling thread. No scope, no spawn, no channel hand-off — on a
        // single-core box the cross-thread chunk relay alone costs more
        // than a sealed chunk is worth. Blocks run in `seq` order by
        // construction, so the sink sees the identical chunk stream.
        let net = factory.net_for_day(day);
        let mut scratch = VisitScratch::new(factory.partner_list());
        for b in 0..n_blocks {
            sink(crawl_block(b, &mut scratch, &net));
        }
        return;
    }

    // Multi-worker batch: chunks hand off through a bounded slot ring —
    // block `b` travels through slot `b % capacity`, so the consumer
    // drains in `seq` order with no reorder window, nothing allocates per
    // hand-off, and at most `capacity` sealed chunks are ever in flight
    // (the mpsc relay was unbounded and allocated a node per chunk).
    let producers = workers.min(n_blocks);
    let ring: SlotRing<VisitChunk> = SlotRing::new(producers * 2, producers);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let next = &next;
        let ring = &ring;
        let crawl_block = &crawl_block;
        for _ in 0..producers {
            scope.spawn(move || {
                // Mark this producer finished on any exit — and abort the
                // batch on panic — so neither the consumer nor a sibling
                // blocked on ring capacity ever waits on a dead worker.
                let _guard = ring.producer_guard();
                let net = factory.net_for_day(day);
                // Per-worker scratch: pooled simulation, browser, detector
                // buffers and message pools live for the whole batch, not
                // one visit.
                let mut scratch = VisitScratch::new(factory.partner_list());
                loop {
                    let b = next.fetch_add(1, Ordering::Relaxed);
                    if b >= n_blocks {
                        break;
                    }
                    if !ring.publish(b, crawl_block(b, &mut scratch, &net)) {
                        break; // batch aborted
                    }
                }
            });
        }
        // The guard aborts the batch when the consumer stops for any
        // reason (sink panic included), releasing producers blocked on
        // ring capacity; after a fully drained batch it is a no-op.
        let _consumer = ring.consumer_guard();
        for b in 0..n_blocks {
            match ring.consume(b) {
                Some(chunk) => sink(chunk),
                // The batch aborted (a producer died before publishing
                // `b`); stop consuming — the scope join below propagates
                // its panic.
                None => break,
            }
        }
    });
}

/// Run the full campaign — day-0 sweep, then daily revisits of the
/// detected HB sites — over every shard locally, streaming chunks to
/// `sink` in `(day, shard, seq)` order (day-major across shards).
/// Consumers like the analysis layer's incremental index builder or the
/// dataset CSV writer fold each chunk as it arrives and drop it, so no
/// campaign-sized dataset is ever resident.
pub fn run_campaign_streamed(
    factory: &SiteFactory,
    cfg: &CampaignConfig,
    sink: &mut dyn FnMut(VisitChunk),
) {
    let shards = cfg.shards.max(1);
    let config = factory.config();
    let specs: Vec<ShardSpec> = (0..shards).map(|i| ShardSpec::new(shards, i)).collect();
    let mut detected: Vec<Vec<u32>> = vec![Vec::new(); shards as usize];
    // Day 0: the adoption sweep, shard by shard.
    for spec in &specs {
        let ranks: Vec<u32> = spec.rank_range(config.n_sites).collect();
        let det = &mut detected[spec.shard_id as usize];
        run_batch(factory, &ranks, 0, spec.shard_id, cfg, &mut |chunk| {
            det.extend(
                chunk
                    .visits
                    .iter()
                    .filter(|v| v.hb_detected)
                    .map(|v| v.rank),
            );
            sink(chunk);
        });
    }
    // Days 1..=crawl_days: daily revisits of each shard's detected sites.
    for day in 1..=config.crawl_days {
        for spec in &specs {
            run_batch(
                factory,
                &detected[spec.shard_id as usize],
                day,
                spec.shard_id,
                cfg,
                sink,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ecosystem::EcosystemConfig;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn tiny() -> SiteFactory {
        SiteFactory::new(EcosystemConfig::tiny_scale())
    }

    fn chunks(factory: &SiteFactory, cfg: &CampaignConfig) -> Vec<VisitChunk> {
        let mut out = Vec::new();
        run_campaign_streamed(factory, cfg, &mut |c| out.push(c));
        out
    }

    /// Every visit as `(rank, day, resolved domain, HB latency, bids)`,
    /// plus every truth as `(rank, day, revenue)`, in stream order.
    type Rows = (
        Vec<(u32, u32, String, Option<f64>, usize)>,
        Vec<(u32, u32, f64)>,
    );

    fn rows(chunks: &[VisitChunk]) -> Rows {
        let mut visits = Vec::new();
        let mut truths = Vec::new();
        for c in chunks {
            for v in c.visits.iter() {
                let domain = c.strings.resolve(v.domain).to_string();
                visits.push((v.rank, v.day, domain, v.hb_latency_ms, v.bids.len()));
            }
            truths.extend(c.truths.iter().map(|t| (t.rank, t.day, t.revenue_cpm)));
        }
        (visits, truths)
    }

    #[test]
    fn campaign_covers_sweep_plus_daily() {
        let factory = tiny();
        let chunks = chunks(&factory, &CampaignConfig::default());
        let hb_day0 = chunks
            .iter()
            .flat_map(|c| c.visits.iter())
            .filter(|v| v.day == 0 && v.hb_detected)
            .count();
        let visits: usize = chunks.iter().map(VisitChunk::len).sum();
        let config = factory.config();
        assert_eq!(
            visits,
            config.n_sites as usize + hb_day0 * config.crawl_days as usize
        );
        for c in &chunks {
            assert_eq!(c.truths.len(), c.len());
        }
        // Keys arrive in (day, shard, seq) order.
        assert!(chunks.windows(2).all(|w| w[0].key() < w[1].key()));
    }

    #[test]
    fn detector_matches_ground_truth_adoption() {
        let factory = tiny();
        let chunks = chunks(&factory, &CampaignConfig::default());
        let truth_hb: BTreeSet<String> = factory
            .sites()
            .filter(|s| s.facet.is_some())
            .map(|s| s.domain.to_string())
            .collect();
        let detected: BTreeSet<&str> = chunks
            .iter()
            .flat_map(|c| {
                c.visits
                    .iter()
                    .filter(|v| v.day == 0 && v.hb_detected)
                    .map(|v| c.strings.resolve(v.domain))
            })
            .collect();
        // 100% precision (paper §4.1): nothing detected that is not HB.
        for d in &detected {
            assert!(truth_hb.contains(*d), "{d} is a false positive");
        }
        // Near-100% recall in the simulated world (page loads can fail
        // under fault injection, so allow a small gap).
        let recall = detected.len() as f64 / truth_hb.len() as f64;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn campaign_is_deterministic_across_parallelism() {
        // Block boundaries depend only on the job list, never on the
        // worker count, so the sealed frames — keys, chunk-local symbol
        // numbering, columns and truths — are byte-identical.
        let factory = tiny();
        for chunk_visits in [23, 37] {
            let frames = |parallelism: usize| -> Vec<Vec<u8>> {
                let cfg = CampaignConfig {
                    parallelism,
                    chunk_visits,
                    ..CampaignConfig::default()
                };
                chunks(&factory, &cfg)
                    .iter()
                    .map(VisitChunk::encode)
                    .collect()
            };
            let serial = frames(1);
            assert!(serial.len() > 1, "want multiple chunks");
            assert_eq!(serial, frames(4), "chunk_visits {chunk_visits}");
        }
    }

    #[test]
    fn sharding_does_not_change_results() {
        let factory = tiny();
        let one = rows(&chunks(&factory, &CampaignConfig::default()));
        let four = rows(&chunks(
            &factory,
            &CampaignConfig {
                shards: 4,
                chunk_visits: 17, // odd block size to stress the hand-off
                ..CampaignConfig::default()
            },
        ));
        assert_eq!(one, four, "visit order or content differs under sharding");
    }

    #[test]
    fn single_shard_crawl_matches_its_slice_of_the_campaign() {
        // Shard 1 of 4 crawls exactly its contiguous rank slice, and each
        // of its visits equals the same visit of the unsharded campaign.
        let factory = tiny();
        let sharded = chunks(
            &factory,
            &CampaignConfig {
                shards: 4,
                ..CampaignConfig::default()
            },
        );
        let shard1: Vec<VisitChunk> = sharded.into_iter().filter(|c| c.shard == 1).collect();
        let range = ShardSpec::new(4, 1).rank_range(factory.config().n_sites);
        let (got, _) = rows(&shard1);
        assert!(got.iter().all(|v| range.contains(&v.0)));
        let (full, _) = rows(&chunks(&factory, &CampaignConfig::default()));
        let want: Vec<_> = full.into_iter().filter(|v| range.contains(&v.0)).collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);
    }

    #[test]
    fn shard_slices_partition_the_toplist() {
        for (n, shards) in [(200u32, 4u32), (7u32, 3), (5, 8), (1, 1)] {
            let mut seen = Vec::new();
            for id in 0..shards {
                seen.extend(ShardSpec::new(shards, id).rank_range(n));
            }
            let want: Vec<u32> = (1..=n).collect();
            assert_eq!(seen, want, "n={n} shards={shards}");
        }
    }

    #[test]
    fn progress_callback_fires_off_stderr() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let cfg = CampaignConfig {
            progress_every: 10,
            progress: Some(Box::new(move |p: CampaignProgress| {
                assert!(p.done <= p.total);
                h.fetch_add(1, Ordering::Relaxed);
            })),
            ..CampaignConfig::default()
        };
        run_campaign_streamed(&tiny(), &cfg, &mut drop);
        assert!(hits.load(Ordering::Relaxed) > 0, "callback never fired");
    }

    #[test]
    fn panicking_progress_callback_aborts_not_hangs() {
        // A ProgressFn that panics does so on a crawl worker thread while
        // the batch's slot ring is live. The producer guard must abort the
        // batch (releasing the consumer and any sibling blocked on ring
        // capacity) and the panic must surface to the campaign caller —
        // the failure mode this pins down is a silently hung campaign.
        use std::sync::mpsc;
        use std::time::Duration;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let cfg = CampaignConfig {
                parallelism: 4,
                chunk_visits: 8, // many blocks so producers race ahead
                progress_every: 1,
                progress: Some(Box::new(|_| panic!("observer dies"))),
                ..CampaignConfig::default()
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_campaign_streamed(&tiny(), &cfg, &mut drop)
            }));
            let _ = tx.send(result.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("campaign hung on a panicking ProgressFn");
        assert!(panicked, "the ProgressFn panic must surface to the caller");
    }

    #[test]
    fn panicking_progress_callback_single_worker_surfaces() {
        // The single-worker batch path runs inline with no ring; the panic
        // must still propagate (and not poison later campaigns).
        let factory = tiny();
        let cfg = CampaignConfig {
            parallelism: 1,
            progress_every: 1,
            progress: Some(Box::new(|_| panic!("observer dies"))),
            ..CampaignConfig::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign_streamed(&factory, &cfg, &mut drop)
        }));
        assert!(result.is_err());
        // The factory is untouched by the failed campaign: a clean run
        // afterwards still works.
        assert!(!chunks(&factory, &CampaignConfig::default()).is_empty());
    }

    #[test]
    fn dataset_statistics_plausible() {
        let chunks = chunks(&tiny(), &CampaignConfig::default());
        let hb = || {
            chunks
                .iter()
                .flat_map(|c| c.visits.iter())
                .filter(|v| v.hb_detected)
        };
        let auctions: u64 = hb().map(|v| v.slots_auctioned as u64).sum();
        let bids: u64 = hb().map(|v| v.bids.len() as u64).sum();
        assert!(auctions > 0);
        assert!(bids > 0);
        assert!(hb().any(|v| !v.partners.is_empty()));
        // Bids per auction should be well below 1 for clean profiles.
        let ratio = bids as f64 / auctions as f64;
        assert!(ratio < 1.5, "bids/auction {ratio}");
    }
}
