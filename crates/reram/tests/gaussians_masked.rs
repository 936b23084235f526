//! Stream exactness of the masked batch Gaussian draw.
//!
//! `NoiseRng::gaussians_masked` is the read-noise primitive of the analog
//! MVM: it must be indistinguishable from `need.len()` consecutive
//! `gaussian()` calls — every needed sample bit-identical, and the
//! generator (xoshiro state *and* cached Box–Muller spare) `==` afterwards
//! — whatever the batch length's parity, the mask, or whether a spare was
//! cached on entry.

use darth_reram::NoiseRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn masked_batch_equals_per_call_stream(
        seed in 0u64..u64::MAX,
        mask_seed in 0u64..u64::MAX,
        len in 0usize..150,
        density in 0usize..5,
        warmup in 0usize..4,
        mean_milli in -2000i64..2000,
        sigma_milli in 1i64..5000,
    ) {
        let mean = mean_milli as f64 / 1000.0;
        let sigma = sigma_milli as f64 / 1000.0;
        // Odd warmups leave a cached spare on entry, even ones do not.
        let mut per_call = NoiseRng::seed_from(seed);
        for _ in 0..warmup {
            per_call.gaussian(0.0, 1.0);
        }
        let mut batched = per_call.clone();

        // density 0 = all-false, 4 = all-true, else about density/4 set.
        let mut mask_rng = NoiseRng::seed_from(mask_seed);
        let need: Vec<bool> = (0..len).map(|_| mask_rng.index(4) < density).collect();

        let expected: Vec<f64> = (0..len).map(|_| per_call.gaussian(mean, sigma)).collect();
        let mut out = vec![f64::NAN; len];
        batched.gaussians_masked(mean, sigma, &need, &mut out);

        for i in 0..len {
            if need[i] {
                prop_assert!(
                    out[i].to_bits() == expected[i].to_bits(),
                    "draw {}: {} != {}",
                    i,
                    out[i],
                    expected[i]
                );
            } else {
                prop_assert!(out[i].is_nan(), "unneeded slot {} was written", i);
            }
        }
        prop_assert_eq!(&batched, &per_call);
        // And the two streams keep agreeing afterwards.
        prop_assert_eq!(
            batched.gaussian(0.0, 1.0).to_bits(),
            per_call.gaussian(0.0, 1.0).to_bits()
        );
    }

    #[test]
    fn split_batches_compose(seed in 0u64..u64::MAX, len in 1usize..100, cut in 0usize..100) {
        // Any split of one batch into two is the same stream, so a caller
        // may draw one bitline at a time across planes and columns.
        let cut = cut % (len + 1);
        let need = vec![true; len];
        let mut whole = NoiseRng::seed_from(seed);
        let mut split = whole.clone();
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        whole.gaussians_masked(0.0, 1.0, &need, &mut a);
        split.gaussians_masked(0.0, 1.0, &need[..cut], &mut b[..cut]);
        split.gaussians_masked(0.0, 1.0, &need[cut..], &mut b[cut..]);
        for i in 0..len {
            prop_assert!(a[i].to_bits() == b[i].to_bits(), "draw {}", i);
        }
        prop_assert_eq!(&whole, &split);
    }
}

#[test]
fn non_positive_sigma_fills_the_mean_and_consumes_nothing() {
    for warmup in 0..2 {
        let mut rng = NoiseRng::seed_from(5);
        for _ in 0..warmup {
            rng.gaussian(0.0, 1.0);
        }
        let before = rng.clone();
        let need = [true, false, true];
        let mut out = [9.0; 3];
        rng.gaussians_masked(1.5, 0.0, &need, &mut out);
        rng.gaussians_masked(1.5, -2.0, &need, &mut out);
        assert_eq!(out, [1.5, 9.0, 1.5]);
        assert_eq!(rng, before);
    }
}

#[test]
fn empty_batch_keeps_the_cached_spare() {
    let mut rng = NoiseRng::seed_from(11);
    rng.gaussian(0.0, 1.0);
    let before = rng.clone();
    rng.gaussians_masked(0.0, 1.0, &[], &mut []);
    assert_eq!(rng, before);
}
