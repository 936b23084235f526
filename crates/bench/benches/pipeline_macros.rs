//! Criterion bench: RACER pipeline macro operations — the cell-accurate
//! reference, plus the packed fast path's element-wise loads in the three
//! shapes an AES body issues and an MVM term landing.

use criterion::{criterion_group, criterion_main, Criterion};
use darth_digital::logic::LogicFamily;
use darth_digital::pipeline::{Pipeline, PipelineConfig};
use darth_digital::{BoolOp, DcePipeline, PackedPipeline};
use std::hint::black_box;

fn pipeline() -> Pipeline {
    let mut p = Pipeline::new(PipelineConfig {
        depth: 32,
        elements: 64,
        vr_count: 16,
        scratch_cols: 12,
        family: LogicFamily::Oscar,
    })
    .expect("valid");
    p.write_vector(0, &vec![0xDEAD; 64]).expect("fits");
    p.write_vector(1, &vec![0xBEEF; 64]).expect("fits");
    p
}

/// The AES tile's pipeline geometry: 16-bit depth, 64 elements, 40
/// registers.
fn aes_pipeline() -> PackedPipeline {
    PackedPipeline::new(PipelineConfig {
        depth: 16,
        elements: 64,
        vr_count: 40,
        scratch_cols: 12,
        family: LogicFamily::Oscar,
    })
    .expect("valid")
}

/// A deterministic stream of `n` values below `bound`.
fn values(seed: u64, n: usize, bound: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        })
        .collect()
}

/// Element-wise loads in the AES body's three shapes, over a table
/// pipeline whose 40 registers all hold data.
fn bench_packed_eload(c: &mut Criterion) {
    let mut table = aes_pipeline();
    for vr in 0..40 {
        table
            .write_vector(vr, &values(vr as u64, 64, 1 << 16))
            .expect("fits");
    }
    let capacity = 40 * 64;
    let mut p = aes_pipeline();
    // S-box: 16 live state bytes address the 256-entry table in registers
    // 0..4 and the result replaces the state (address = destination), so
    // each iteration first restores the addresses with a vector write.
    let mut sbox = values(1, 16, 256);
    sbox.resize(64, 0);
    c.bench_function("packed_eload_sbox_16_live", |b| {
        b.iter(|| {
            p.write_vector(0, &sbox).expect("fits");
            p.elementwise_load(0, &table, 0).expect("in range")
        })
    });
    // MVM input: 32 addresses spread over the staged bit-plane registers.
    let mut spread = values(2, 32, capacity);
    spread.resize(64, 0);
    p.write_vector(1, &spread).expect("fits");
    c.bench_function("packed_eload_mvm_input_32_spread", |b| {
        b.iter(|| p.elementwise_load(1, &table, 2).expect("in range"))
    });
    // Pack: 16 addresses into the four landed parity registers.
    let mut pack: Vec<u64> = values(3, 16, 4 * 64).iter().map(|a| 36 * 64 + a).collect();
    pack.resize(64, 0);
    p.write_vector(3, &pack).expect("fits");
    c.bench_function("packed_eload_pack_16_live", |b| {
        b.iter(|| p.elementwise_load(3, &table, 4).expect("in range"))
    });
    // One MVM term landing: a full 64-element 16-bit vector write.
    let term = values(4, 64, 1 << 16);
    c.bench_function("packed_write_vector_64x16b", |b| {
        b.iter(|| p.write_vector(5, &term).expect("fits"))
    });
    let _ = black_box(&p);
}

fn bench_macros(c: &mut Criterion) {
    let mut p = pipeline();
    c.bench_function("pipeline_xor_64x32b", |b| {
        b.iter(|| p.bool_op(BoolOp::Xor, 2, 0, 1).expect("runs"))
    });
    c.bench_function("pipeline_add_64x32b", |b| {
        b.iter(|| p.add(3, 0, 1).expect("runs"))
    });
    c.bench_function("pipeline_shl_64x32b", |b| {
        b.iter(|| p.shl(4, 0, 3).expect("runs"))
    });
    c.bench_function("pipeline_relu_64x32b", |b| {
        b.iter(|| p.relu(5, 0).expect("runs"))
    });
    let _ = black_box(&p);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_macros, bench_packed_eload
}
criterion_main!(benches);
