//! The integer exact-read path of `AnalogComputeElement::mvm_group`
//! against the `f64` conductance read it replaces, the rules that keep a
//! crossbar on the `f64` path, and copy-on-write sharing of programmed
//! arrays between cloned ACEs.

use darth_analog::ace::AceConfig;
use darth_analog::{AnalogComputeElement, Crossbar, CrossbarConfig, InputDriver, Representation};
use darth_reram::{DeviceParams, NoiseRng};
use proptest::prelude::*;

/// The codes `mvm_group` must return, built only from the public `f64`
/// read and the ADC's quantizer: per input bit, each array's first `live`
/// bitline currents in weight units, quantized and concatenated.
fn reference_codes(
    ace: &AnalogComputeElement,
    arrays: &[usize],
    live: usize,
    input: &[i64],
    driver: InputDriver,
) -> Vec<Vec<i64>> {
    driver
        .slice(input)
        .expect("inputs fit the driver")
        .iter()
        .map(|bits| {
            arrays
                .iter()
                .flat_map(|&a| {
                    let xbar = ace.crossbar(a).expect("array exists");
                    let unit = xbar.unit_current();
                    xbar.mvm_live_currents(bits, live, &mut NoiseRng::seed_from(0))
                        .expect("reads")
                        .into_iter()
                        .map(move |c| ace.adc().quantize_units(c / unit))
                })
                .collect()
        })
        .collect()
}

/// A random matrix of representable weights for `config`.
fn random_matrix(config: &CrossbarConfig, rng: &mut NoiseRng) -> Vec<Vec<i64>> {
    let max = config.max_magnitude();
    (0..config.rows)
        .map(|_| {
            (0..config.cols)
                .map(|_| rng.index(2 * max as usize + 1) as i64 - max)
                .collect()
        })
        .collect()
}

/// A random input vector in `driver`'s range.
fn random_input(rows: usize, driver: InputDriver, rng: &mut NoiseRng) -> Vec<i64> {
    let span = (driver.max_value() - driver.min_value()) as usize + 1;
    (0..rows)
        .map(|_| driver.min_value() + rng.index(span) as i64)
        .collect()
}

/// A two-array ACE over `crossbar` with an ideal `adc_bits` SAR ADC.
fn ace_with(crossbar: CrossbarConfig, adc_bits: u8, lsb: f64) -> AnalogComputeElement {
    let config = AceConfig {
        crossbar,
        adc_bits,
        adc_lsb_units: lsb,
        ..AceConfig::ideal(2, 1, 1)
    };
    AnalogComputeElement::new(config, 5).expect("valid ACE")
}

/// An ideal crossbar configuration of the given shape and cell width.
fn ideal_config(rows: usize, cols: usize, bits: u8, offset: bool) -> CrossbarConfig {
    CrossbarConfig {
        bits_per_cell: bits,
        device: DeviceParams::ideal(bits).expect("valid"),
        representation: if offset {
            Representation::OffsetSubtraction
        } else {
            Representation::DifferentialPair
        },
        ..CrossbarConfig::ideal(rows, cols)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn exact_codes_match_the_f64_read(
        rows in 1usize..65,
        cols in 1usize..65,
        bits in 1u8..9,
        offset in 0u8..2,
        adc_bits in 1u8..17,
        input_bits in 1u8..9,
        signed in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = NoiseRng::seed_from(seed);
        let mut ace = ace_with(ideal_config(rows, cols, bits, offset == 1), adc_bits, 1.0);
        let config = ace.config().crossbar.clone();
        for array in 0..2 {
            ace.program_matrix(array, &random_matrix(&config, &mut rng))
                .expect("programs");
            prop_assert!(ace.crossbar(array).expect("exists").reads_exactly());
        }
        let driver = InputDriver::new(input_bits, signed == 1).expect("valid driver");
        let input = random_input(rows, driver, &mut rng);
        let live = rng.index(cols + 1);
        let arrays = if rng.chance(0.5) { vec![1, 0] } else { vec![0] };
        let got = ace
            .mvm_group(&arrays, live, &input, driver, None)
            .expect("runs");
        prop_assert_eq!(got.partial_products, reference_codes(&ace, &arrays, live, &input, driver));
        prop_assert_eq!(ace.rng(), &NoiseRng::seed_from(5));
    }
}

#[test]
fn saturating_adc_clamps_exact_codes_like_the_f64_read() {
    // Full-magnitude weights on every driven row push far past a 4-bit
    // ADC's rails: even columns negative, odd columns positive.
    for offset in [false, true] {
        let mut ace = ace_with(ideal_config(64, 8, 8, offset), 4, 1.0);
        let max = ace.config().crossbar.max_magnitude();
        let matrix: Vec<Vec<i64>> = (0..64)
            .map(|_| {
                (0..8)
                    .map(|c| if c % 2 == 0 { -max } else { max })
                    .collect()
            })
            .collect();
        ace.program_matrix(0, &matrix).expect("programs");
        let driver = InputDriver::new(8, false).expect("valid");
        let input = vec![255; 64];
        let got = ace.mvm_group(&[0], 8, &input, driver, None).expect("runs");
        let codes = &got.partial_products[0];
        assert!(codes.contains(&7) && (offset || codes.contains(&-8)));
        assert_eq!(
            got.partial_products,
            reference_codes(&ace, &[0], 8, &input, driver)
        );
    }
}

#[test]
fn fallback_rules_are_pinned() {
    let mut rng = NoiseRng::seed_from(42);
    let base = ideal_config(16, 8, 4, false);
    let program = |config: CrossbarConfig, rng: &mut NoiseRng| {
        let mut xbar = Crossbar::new(config.clone()).expect("valid");
        xbar.program(&random_matrix(&config, rng), rng)
            .expect("programs");
        xbar
    };

    assert!(!Crossbar::new(base.clone()).expect("valid").reads_exactly());
    assert!(program(base.clone(), &mut rng).reads_exactly());
    let offset = CrossbarConfig {
        representation: Representation::OffsetSubtraction,
        ..base.clone()
    };
    assert!(program(offset, &mut rng).reads_exactly());

    let half_range = CrossbarConfig {
        range_scale: 0.5,
        ..base.clone()
    };
    let ir_drop = CrossbarConfig {
        ir_drop_alpha: 0.001,
        ..base.clone()
    };
    let mut program_noise = base.clone();
    program_noise.device.program_sigma = 0.01;
    let mut read_noise = base.clone();
    read_noise.device.read_sigma = 0.001;
    let mut stuck_rate = base.clone();
    stuck_rate.device.stuck_at_rate = 0.01;
    for (name, config) in [
        ("range_scale 0.5", half_range),
        ("IR drop", ir_drop),
        ("program sigma", program_noise),
        ("read sigma", read_noise),
        ("stuck-at rate", stuck_rate),
    ] {
        assert!(!program(config, &mut rng).reads_exactly(), "{name}");
    }

    let mut faulted = program(base.clone(), &mut rng);
    faulted.inject_stuck_at_faults(&mut rng);
    assert!(!faulted.reads_exactly(), "after stuck-at injection");
    let mut drifted = program(base.clone(), &mut rng);
    drifted.drift(1.0);
    assert!(!drifted.reads_exactly(), "after drift");
    drifted.update_row(0, &[1; 8], &mut rng).expect("updates");
    assert!(
        !drifted.reads_exactly(),
        "a row update keeps a drifted array inexact"
    );
    drifted
        .program(&random_matrix(&base, &mut rng), &mut rng)
        .expect("programs");
    assert!(
        drifted.reads_exactly(),
        "a full reprogram restores exactness"
    );
}

#[test]
fn fallback_configurations_still_match_the_reference() {
    let mut rng = NoiseRng::seed_from(7);
    let base = ideal_config(32, 16, 4, false);
    let mut cases = vec![
        ("LSB 0.5", base.clone(), 0.5),
        ("LSB 2", base.clone(), 2.0),
        (
            "range_scale 0.5",
            CrossbarConfig {
                range_scale: 0.5,
                ..base.clone()
            },
            1.0,
        ),
        (
            "IR drop",
            CrossbarConfig {
                ir_drop_alpha: 0.001,
                ..base.clone()
            },
            1.0,
        ),
    ];
    let mut offset_half = base.clone();
    offset_half.representation = Representation::OffsetSubtraction;
    cases.push(("offset, LSB 0.5", offset_half, 0.5));
    for (name, config, lsb) in cases {
        let mut ace = ace_with(config.clone(), 10, lsb);
        for array in 0..2 {
            ace.program_matrix(array, &random_matrix(&config, &mut rng))
                .expect("programs");
        }
        let driver = InputDriver::new(4, false).expect("valid");
        let input = random_input(32, driver, &mut rng);
        let got = ace
            .mvm_group(&[0, 1], 11, &input, driver, None)
            .expect("runs");
        assert_eq!(
            got.partial_products,
            reference_codes(&ace, &[0, 1], 11, &input, driver),
            "{name}"
        );
    }
}

#[test]
fn cloned_aces_share_arrays_until_one_writes() {
    let mut rng = NoiseRng::seed_from(3);
    let mut original = ace_with(ideal_config(8, 8, 4, false), 10, 1.0);
    let config = original.config().crossbar.clone();
    let (m0, m1) = (
        random_matrix(&config, &mut rng),
        random_matrix(&config, &mut rng),
    );
    original.program_matrix(0, &m0).expect("programs");
    original.program_matrix(1, &m1).expect("programs");
    let driver = InputDriver::new(3, false).expect("valid");
    let input = random_input(8, driver, &mut rng);
    let read = |ace: &mut AnalogComputeElement| {
        ace.mvm_group(&[0, 1], 8, &input, driver, None)
            .expect("runs")
            .partial_products
    };
    let original_codes = read(&mut original);

    // Writing the clone leaves the original untouched and copies only
    // the array it writes.
    let mut copy = original.clone();
    let shared = |a: &AnalogComputeElement, b: &AnalogComputeElement, i: usize| {
        std::ptr::eq(
            a.crossbar(i).expect("exists"),
            b.crossbar(i).expect("exists"),
        )
    };
    assert!(shared(&original, &copy, 0) && shared(&original, &copy, 1));
    let replacement = random_matrix(&config, &mut rng);
    copy.program_matrix(0, &replacement).expect("programs");
    assert!(!shared(&original, &copy, 0) && shared(&original, &copy, 1));
    assert_eq!(original.crossbar(0).expect("exists").weights(), &m0[..]);
    assert_eq!(
        copy.crossbar(0).expect("exists").weights(),
        &replacement[..]
    );
    assert_eq!(read(&mut original), original_codes);
    assert_eq!(
        read(&mut copy),
        reference_codes(&copy, &[0, 1], 8, &input, driver)
    );
    assert_ne!(read(&mut copy), original_codes);

    // And the reverse: a row update on the original leaves the clone.
    let copy_codes = read(&mut copy);
    original.update_row(1, 3, &[1; 8]).expect("updates");
    assert!(!shared(&original, &copy, 1));
    assert_eq!(copy.crossbar(1).expect("exists").weights(), &m1[..]);
    assert_eq!(read(&mut copy), copy_codes);
    assert_eq!(
        original.crossbar(1).expect("exists").weights()[3],
        vec![1; 8]
    );
    assert_eq!(
        read(&mut original),
        reference_codes(&original, &[0, 1], 8, &input, driver)
    );
    assert!(original.crossbar(1).expect("exists").reads_exactly());
}
