//! Serving-plane benches: auctions/sec through the orchestrator and the
//! raw synthetic-traffic generation rate.
//!
//! `serve/auction_mixed` drives a mixed workload — zipf site preference
//! over the tiny-scale ecosystem, a degraded provider slice so breakers
//! trip and hedges fire — through 4 serving workers and reports
//! auctions/sec. The p50/p99/p999 auction latency of the same workload
//! lands in the BENCH snapshot's `serving` section (sim-time quantiles
//! are deterministic; the bench throughput is the wall-clock number).
//!
//! `serve/loadgen_throughput` is the pure load-model rate: how fast
//! [`LoadGenConfig::request`] maps request numbers to requests. It
//! bounds the orchestration overhead measurable above it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hb_ecosystem::{EcosystemConfig, ScenarioConfig, SiteFactory};
use hb_serve::{serve_load_with, LoadGenConfig, ServeConfig};
use hb_simnet::{Dist, HostFaultProfile, SimDuration};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// The bench workload shared with `bench_snapshot`'s serving section:
/// tiny-scale universe, four degraded providers, 8 shards.
pub fn bench_setup() -> (SiteFactory, ServeConfig, LoadGenConfig) {
    let f = SiteFactory::new(EcosystemConfig::tiny_scale().with_seed(0x5EE_D10));
    let cfg = ServeConfig {
        shards: 8,
        ..ServeConfig::default()
    };
    let load = LoadGenConfig {
        n_requests: 4_000,
        n_sites: f.config().n_sites as u64,
        mean_gap: SimDuration::from_micros(400),
        ..LoadGenConfig::default()
    };
    (f, cfg, load)
}

fn serve_bench(c: &mut Criterion) {
    let (f, cfg, load) = bench_setup();
    let lossy = HostFaultProfile {
        drop_chance: 0.45,
        slow_chance: 0.35,
        slow_penalty_ms: Dist::Const(220.0),
    };
    let slice: Vec<String> = f
        .gen()
        .specs
        .iter()
        .filter(|s| !s.is_ad_server)
        .take(4)
        .map(|s| s.host())
        .collect();
    let scenario = ScenarioConfig::healthy().with_provider_slice(slice, lossy);
    let inj = scenario.injector_for_day(&f.faults(), 0);
    let net = hb_adtech::Net::new(f.router(), f.latency(), Arc::new(inj));

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    group.throughput(Throughput::Elements(load.n_requests));
    group.bench_function("auction_mixed", |b| {
        b.iter(|| black_box(serve_load_with(f.gen(), &net, &cfg, &load, 4, false)))
    });
    group.finish();
}

fn loadgen_bench(c: &mut Criterion) {
    let load = LoadGenConfig {
        n_requests: 100_000,
        ..LoadGenConfig::default()
    };
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(load.n_requests));
    group.bench_function("loadgen_throughput", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for n in 0..load.n_requests {
                let r = load.request(n);
                acc = acc.wrapping_add(r.user).wrapping_add(r.rank as u64);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, serve_bench, loadgen_bench);
criterion_main!(benches);
