//! Criterion benchmarks of the sharded execution layer: the same query on
//! the same data at 1/2/4/8 shards, hash vs range routing. The interesting
//! curve is worker-phase shrinkage vs merge overhead — the §4.6 trade the
//! `shards` experiment sweeps at report granularity.

use cheetah_bench::run_barrier;
use cheetah_core::ShardPartitioner;
use cheetah_db::{Cluster, DbQuery, ShardSpec};
use cheetah_runtime::ShardLayout;
use cheetah_workloads::SkewedTableConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_sharding(c: &mut Criterion) {
    let table = Arc::new(
        SkewedTableConfig {
            rows: 30_000,
            partitions: 8,
            partition_skew: 1.0,
            keys: 300,
            key_skew: 1.1,
            seed: 0xBE7C,
        }
        .build(),
    );
    let cluster = Cluster::default();
    let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    // Routing is inside the timed region: these rows price a sharded run
    // from raw table to merged answer.
    let sharded = |spec| run_barrier(&cluster, &q, &table, None, ShardLayout::Fixed(spec));

    let mut g = c.benchmark_group("sharding");
    g.sample_size(10);
    g.bench_function("unsharded", |b| {
        b.iter(|| black_box(cluster.run_cheetah(&q, &table, None).unwrap()))
    });
    for shards in [1usize, 2, 4, 8] {
        let spec = ShardSpec::new(shards, ShardPartitioner::Hash);
        g.bench_function(format!("hash_{shards}shards"), |b| b.iter(|| black_box(sharded(spec))));
    }
    let range = ShardSpec::new(4, ShardPartitioner::Range);
    g.bench_function("range_4shards", |b| b.iter(|| black_box(sharded(range))));
    g.finish();
}

criterion_group!(benches, bench_sharding);
criterion_main!(benches);
