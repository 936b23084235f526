//! Criterion bench: analog crossbar MVM with full non-ideality modelling.
//!
//! The dense case drives two thirds of a 64×64 array and reads every
//! bitline. The tile-shaped case is what a GEMM vACore issues: 12 of 64
//! wordlines driven and 10 live bitlines, so the masked read noise
//! evaluates the Gaussian transform for 240 of its 8 192 draws.
//!
//! The ideal case is the same dense read on a noise-free array through
//! the ACE, which takes the integer exact-read path; the clone case
//! copies a programmed two-array ACE, whose arrays are shared rather than
//! copied.

use criterion::{criterion_group, criterion_main, Criterion};
use darth_analog::ace::AceConfig;
use darth_analog::crossbar::{Crossbar, CrossbarConfig};
use darth_analog::{AnalogComputeElement, InputDriver};
use darth_reram::NoiseRng;
use std::hint::black_box;

fn bench_mvm(c: &mut Criterion) {
    let mut rng = NoiseRng::seed_from(42);
    let config = CrossbarConfig::evaluation(2).expect("valid");
    let mut xbar = Crossbar::new(config).expect("valid");
    let matrix: Vec<Vec<i64>> = (0..64)
        .map(|r| (0..64).map(|cc| ((r * cc) % 7) as i64 - 3).collect())
        .collect();
    xbar.program(&matrix, &mut rng).expect("programs");
    let input: Vec<bool> = (0..64).map(|i| i % 3 != 0).collect();
    c.bench_function("crossbar_mvm_64x64_noisy", |b| {
        b.iter(|| {
            black_box(
                xbar.mvm_currents(black_box(&input), &mut rng)
                    .expect("runs"),
            )
        })
    });
    let tile_input: Vec<bool> = (0..64).map(|i| i < 12).collect();
    c.bench_function("crossbar_mvm_64x64_noisy_12rows_10cols", |b| {
        b.iter(|| {
            black_box(
                xbar.mvm_live_currents(black_box(&tile_input), 10, &mut rng)
                    .expect("runs"),
            )
        })
    });
    c.bench_function("crossbar_mvm_64x64_exact", |b| {
        b.iter(|| black_box(xbar.mvm_exact(black_box(&input)).expect("runs")))
    });

    let mut ace = AnalogComputeElement::new(AceConfig::ideal(2, 64, 64), 42).expect("valid");
    for array in 0..2 {
        ace.program_matrix(array, &matrix).expect("programs");
    }
    assert!(ace.crossbar(0).expect("exists").reads_exactly());
    let driver = InputDriver::new(1, false).expect("valid");
    let ace_input: Vec<i64> = input.iter().map(|&on| i64::from(on)).collect();
    c.bench_function("crossbar_mvm_64x64_ideal", |b| {
        b.iter(|| {
            black_box(
                ace.mvm(0, black_box(&ace_input), driver, None)
                    .expect("runs"),
            )
        })
    });
    c.bench_function("ace_clone_programmed_2x64x64", |b| {
        b.iter(|| black_box(black_box(&ace).clone()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mvm
}
criterion_main!(benches);
