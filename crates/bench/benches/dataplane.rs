//! Wall-clock benchmarks of the real shared-memory data plane: rendezvous
//! collectives over thread-ranks, including the 3-stage hierarchical
//! all-gather and the coalesced APIs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mics_collectives::HierarchicalLayout;
use mics_dataplane::hierarchical::split_hierarchical;
use mics_dataplane::{run_ranks, try_hierarchical_all_gather};

const WORLD: usize = 8;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataplane");
    g.sample_size(20);

    for len in [1024usize, 65536] {
        g.bench_with_input(BenchmarkId::new("all_gather", len), &len, |b, &len| {
            b.iter(|| {
                run_ranks(WORLD, |comm| {
                    let v = vec![comm.rank() as f32; len];
                    comm.all_gather(&v).len()
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("reduce_scatter", len), &len, |b, &len| {
            b.iter(|| {
                run_ranks(WORLD, |comm| {
                    let v = vec![comm.rank() as f32; len * WORLD];
                    comm.reduce_scatter(&v).len()
                })
            })
        });
    }

    g.bench_function("hierarchical_all_gather/8ranks_4x2", |b| {
        let layout = HierarchicalLayout::new(8, 2).unwrap();
        b.iter(|| {
            run_ranks(8, |mut comm| {
                let rank = comm.rank();
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                let shard = vec![rank as f32; 4096];
                try_hierarchical_all_gather(&channel, &node, &layout, &shard, None)
                    .expect("healthy world")
                    .len()
            })
        })
    });

    g.bench_function("all_gather_coalesced/8x8buffers", |b| {
        b.iter(|| {
            run_ranks(WORLD, |comm| {
                let bufs: Vec<Vec<f32>> = (0..8).map(|p| vec![p as f32; 512]).collect();
                let refs: Vec<&[f32]> = bufs.iter().map(|b| b.as_slice()).collect();
                comm.try_all_gather_coalesced(&refs, None).expect("healthy world").len()
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
