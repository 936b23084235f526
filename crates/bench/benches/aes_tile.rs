//! Criterion bench: one AES-128 block encryption as a compiled ISA job on
//! the fast simulator path (packed OSCAR pipelines + analog MixColumns),
//! prepared once and rerun per iteration, plus the golden software
//! implementation for reference.

use criterion::{criterion_group, criterion_main, Criterion};
use darth_apps::aes::golden::Aes;
use darth_apps::aes::AesExec;
use darth_pum::eval::Executable;
use darth_sim::FastExecutor;
use std::hint::black_box;

fn bench_aes(c: &mut Criterion) {
    let key = *b"benchmark-key-16";
    let block = *b"benchmark-block!";
    let golden = Aes::new_128(&key);
    c.bench_function("aes_golden_block", |b| {
        b.iter(|| black_box(golden.encrypt_block(black_box(&block))))
    });
    let job = AesExec::aes128("bench", &key, block)
        .job()
        .expect("compiles");
    let executor = FastExecutor::new();
    let prepared = executor.prepare(&job).expect("prepares");
    c.bench_function("aes_hybrid_tile_block", |b| {
        b.iter(|| black_box(executor.run_prepared(&prepared).expect("encrypts")))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_aes
}
criterion_main!(benches);
