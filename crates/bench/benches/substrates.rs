//! Microbenchmarks of the substrate layers: spatial indexes, clustering
//! algorithms and PrefixSpan — the building blocks whose constants decide
//! whether the pipeline scales to a 2.2e7-journey corpus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pervasive_miner::cluster::{
    dbscan, mean_shift, DbscanParams, MeanShiftParams, Optics, OpticsParams,
};
use pervasive_miner::geo::{GridIndex, KdTree, LocalPoint};
use pervasive_miner::seqmine::{prefixspan, PrefixSpanParams};

/// Deterministic pseudo-random points: venue-like blobs over a city extent.
fn blobby_points(n: usize) -> Vec<LocalPoint> {
    let mut pts = Vec::with_capacity(n);
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let n_blobs = (n / 100).max(1);
    for i in 0..n {
        let blob = i % n_blobs;
        let cx = (blob % 10) as f64 * 1_000.0;
        let cy = (blob / 10) as f64 * 1_000.0;
        pts.push(LocalPoint::new(cx + next() * 60.0, cy + next() * 60.0));
    }
    pts
}

fn spatial_indexes(c: &mut Criterion) {
    let mut group = c.benchmark_group("index");
    for n in [1_000usize, 10_000] {
        let pts = blobby_points(n);
        group.bench_with_input(BenchmarkId::new("grid_build", n), &(), |b, _| {
            b.iter(|| GridIndex::build(&pts, 100.0))
        });
        let grid = GridIndex::build(&pts, 100.0);
        group.bench_with_input(BenchmarkId::new("grid_range_100m", n), &(), |b, _| {
            b.iter(|| grid.range(pts[n / 2], 100.0))
        });
        group.bench_with_input(BenchmarkId::new("kdtree_build", n), &(), |b, _| {
            b.iter(|| KdTree::build(&pts))
        });
        let kd = KdTree::build(&pts);
        group.bench_with_input(BenchmarkId::new("kdtree_knn5", n), &(), |b, _| {
            b.iter(|| kd.k_nearest(pts[n / 2], 5))
        });
    }
    group.finish();
}

fn clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster");
    group.sample_size(20);
    for n in [1_000usize, 5_000] {
        let pts = blobby_points(n);
        group.bench_with_input(BenchmarkId::new("dbscan", n), &(), |b, _| {
            b.iter(|| dbscan(&pts, DbscanParams::new(80.0, 10)))
        });
        group.bench_with_input(BenchmarkId::new("optics_run", n), &(), |b, _| {
            b.iter(|| Optics::run(&pts, OpticsParams::new(1_000.0, 20)))
        });
        let optics = Optics::run(&pts, OpticsParams::new(1_000.0, 20));
        group.bench_with_input(BenchmarkId::new("optics_extract_auto", n), &(), |b, _| {
            b.iter(|| optics.extract_auto())
        });
        group.bench_with_input(BenchmarkId::new("mean_shift", n), &(), |b, _| {
            b.iter(|| mean_shift(&pts, MeanShiftParams::new(100.0)))
        });
    }
    group.finish();
}

fn sequence_mining(c: &mut Criterion) {
    // Category sequences shaped like the taxi corpus: mostly length 2,
    // some linked chains, alphabet of 15.
    let mut seqs: Vec<Vec<u32>> = Vec::new();
    let mut state = 12345u64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    for i in 0..20_000 {
        let len = if i % 5 == 0 { 4 } else { 2 };
        seqs.push((0..len).map(|_| next(15) as u32).collect());
    }
    c.bench_function("seqmine/prefixspan_20k", |b| {
        b.iter(|| prefixspan(&seqs, PrefixSpanParams::new(50, 2, 5)))
    });
}

criterion_group!(benches, spatial_indexes, clustering, sequence_mining);
criterion_main!(benches);
