//! The analog crossbar: conductance-programmed MVM with non-idealities.
//!
//! Figure 1 of the paper: matrix values are programmed as conductances; an
//! input voltage vector applied to the wordlines produces, per bitline, a
//! current equal to the dot product of the inputs with that column's
//! conductances. This module models the crossbar with:
//!
//! * **Number representations** (Figure 3): differential cell pairs (two
//!   physical devices per logical weight, opposite-polarity contributions)
//!   or offset subtraction (a single device per weight, with the zero point
//!   shifted to mid-range and subtracted after the ADC).
//! * **Programming noise** from the ReRAM substrate's write–verify model.
//! * **Read noise** per device per MVM.
//! * **IR drop** (parasitic resistance): current flowing down a bitline
//!   sees distributed wire resistance, attenuating large accumulated
//!   currents quadratically — the effect the §4.3 remapping suppresses.

use crate::{Error, Result};
use darth_reram::{DeviceParams, NoiseRng, ReramArray};
use serde::{Deserialize, Serialize};

/// How signed weights map onto strictly positive conductances (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Representation {
    /// Two devices per weight; the bitline pair is subtracted in analog.
    /// More resilient to parasitics (§2.2.1); DARTH-PUM's default.
    DifferentialPair,
    /// One device per weight, programmed to `weight + offset`; the offset
    /// is subtracted digitally after the ADC.
    OffsetSubtraction,
}

/// Crossbar geometry, device configuration and parasitic coefficients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Wordlines (matrix rows).
    pub rows: usize,
    /// Logical bitlines (matrix columns).
    pub cols: usize,
    /// Bits per cell for weight storage (1 = SLC).
    pub bits_per_cell: u8,
    /// Signed-weight representation.
    pub representation: Representation,
    /// Device population parameters (noise sigmas live here).
    pub device: DeviceParams,
    /// IR-drop coefficient: fractional current loss per unit of
    /// accumulated line current (normalised to `g_on`), applied
    /// quadratically. Zero disables the parasitic model.
    pub ir_drop_alpha: f64,
    /// Conductance range scale factor in `(0, 1]`; the §4.3 scheme halves
    /// the range (0.5) to shrink noise magnitude.
    pub range_scale: f64,
}

impl CrossbarConfig {
    /// A noise-free configuration for functional verification.
    pub fn ideal(rows: usize, cols: usize) -> Self {
        CrossbarConfig {
            rows,
            cols,
            bits_per_cell: 4,
            representation: Representation::DifferentialPair,
            device: DeviceParams::ideal(4).expect("4 bits per cell is valid"),
            ir_drop_alpha: 0.0,
            range_scale: 1.0,
        }
    }

    /// The paper's evaluation configuration: 64×64, MILO-style noise,
    /// differential pairs, IR drop enabled.
    pub fn evaluation(bits_per_cell: u8) -> Result<Self> {
        let mut device = DeviceParams::mlc(bits_per_cell).map_err(Error::Reram)?;
        device.program_sigma = 0.02;
        device.read_sigma = 0.005;
        Ok(CrossbarConfig {
            rows: 64,
            cols: 64,
            bits_per_cell,
            representation: Representation::DifferentialPair,
            device,
            ir_drop_alpha: 0.0008,
            range_scale: 1.0,
        })
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for unusable values.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            return Err(Error::InvalidConfig("crossbar dimensions must be nonzero"));
        }
        if self.bits_per_cell == 0 || self.bits_per_cell > 8 {
            return Err(Error::InvalidConfig("bits per cell must be in 1..=8"));
        }
        if !(self.range_scale > 0.0 && self.range_scale <= 1.0) {
            return Err(Error::InvalidConfig("range_scale must be in (0, 1]"));
        }
        if self.ir_drop_alpha < 0.0 {
            return Err(Error::InvalidConfig("ir_drop_alpha must be non-negative"));
        }
        Ok(())
    }

    /// Largest representable weight magnitude.
    pub fn max_magnitude(&self) -> i64 {
        let levels = (1i64 << self.bits_per_cell) - 1;
        match self.representation {
            Representation::DifferentialPair => levels,
            // offset subtraction splits the level range into +/- halves
            Representation::OffsetSubtraction => levels / 2,
        }
    }

    /// The digital offset added before programming under offset
    /// subtraction (zero for differential pairs).
    pub fn offset(&self) -> i64 {
        match self.representation {
            Representation::DifferentialPair => 0,
            Representation::OffsetSubtraction => ((1i64 << self.bits_per_cell) - 1) / 2,
        }
    }
}

/// A conductance-programmed crossbar.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Crossbar {
    config: CrossbarConfig,
    /// Positive-polarity devices (the only plane under offset subtraction).
    positive: ReramArray,
    /// Negative-polarity devices (differential pairs only).
    negative: Option<ReramArray>,
    /// The logical weights as programmed (for verification / re-slicing).
    weights: Vec<Vec<i64>>,
    programmed: bool,
}

impl Crossbar {
    /// Creates an erased crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid configuration.
    pub fn new(config: CrossbarConfig) -> Result<Self> {
        config.validate()?;
        let mut device = config.device.clone();
        // Bits per cell of the device population must match the config.
        if device.bits_per_cell() != config.bits_per_cell {
            device = if device.program_sigma == 0.0 && device.read_sigma == 0.0 {
                DeviceParams::ideal(config.bits_per_cell).map_err(Error::Reram)?
            } else {
                let mut d = DeviceParams::mlc(config.bits_per_cell).map_err(Error::Reram)?;
                d.program_sigma = device.program_sigma;
                d.read_sigma = device.read_sigma;
                d.drift_nu = device.drift_nu;
                d.stuck_at_rate = device.stuck_at_rate;
                d
            };
        }
        let positive = ReramArray::new(config.rows, config.cols, device.clone())?;
        let negative = match config.representation {
            Representation::DifferentialPair => {
                Some(ReramArray::new(config.rows, config.cols, device)?)
            }
            Representation::OffsetSubtraction => None,
        };
        Ok(Crossbar {
            config,
            positive,
            negative,
            weights: Vec::new(),
            programmed: false,
        })
    }

    /// The crossbar's configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Whether a matrix has been programmed.
    pub fn is_programmed(&self) -> bool {
        self.programmed
    }

    /// The logical weights as last programmed (empty before programming).
    pub fn weights(&self) -> &[Vec<i64>] {
        &self.weights
    }

    /// The bitline current of one weight unit at *full* conductance range —
    /// the fixed reference an ADC's LSB is designed against. Deliberately
    /// excludes [`CrossbarConfig::range_scale`]: when the §4.3 scheme halves
    /// the range, measured values shrink relative to this unit, and the
    /// digital compensation factor restores them.
    pub fn unit_current(&self) -> f64 {
        let p = self.positive.params();
        (p.g_on - p.g_off) / ((p.levels() - 1) as f64).max(1.0)
    }

    /// Programs a signed weight matrix.
    ///
    /// Under differential pairs, `w >= 0` programs the positive device to
    /// level `w` and the negative device to 0, and vice versa. Under offset
    /// subtraction, `w + offset` is programmed into the single plane.
    ///
    /// # Errors
    ///
    /// * [`Error::ShapeMismatch`] for wrong matrix dimensions.
    /// * [`Error::WeightOutOfRange`] for unrepresentable weights.
    pub fn program(&mut self, matrix: &[Vec<i64>], rng: &mut NoiseRng) -> Result<()> {
        if matrix.len() != self.config.rows || matrix.iter().any(|r| r.len() != self.config.cols) {
            return Err(Error::ShapeMismatch {
                expected_rows: self.config.rows,
                expected_cols: self.config.cols,
                got_rows: matrix.len(),
                got_cols: matrix.first().map_or(0, |r| r.len()),
            });
        }
        let max = self.config.max_magnitude();
        for row in matrix {
            for &w in row {
                // `unsigned_abs`, not `abs`: `abs(i64::MIN)` overflows
                // (debug panic / release wrap) instead of rejecting.
                if w.unsigned_abs() > max as u64 {
                    return Err(Error::WeightOutOfRange {
                        weight: w,
                        max_magnitude: max,
                    });
                }
            }
        }
        for (r, row) in matrix.iter().enumerate() {
            for (c, &w) in row.iter().enumerate() {
                self.program_cell(r, c, w, rng)?;
            }
        }
        self.weights = matrix.to_vec();
        self.programmed = true;
        Ok(())
    }

    /// The checked device level(s) for one signed weight: `(positive
    /// plane, negative plane)` under differential pairs, the single
    /// offset-shifted plane level otherwise.
    ///
    /// The conversions are `try_from`, not `as`: a weight whose level
    /// leaves `u16` — in particular a negative post-offset level under
    /// offset subtraction — returns [`Error::WeightOutOfRange`] instead
    /// of wrapping into a huge device level. The public entry points'
    /// magnitude checks make such weights unreachable today; this keeps
    /// them errors rather than silent corruption if those checks drift.
    fn weight_levels(&self, w: i64) -> Result<(u16, Option<u16>)> {
        let out_of_range = || Error::WeightOutOfRange {
            weight: w,
            max_magnitude: self.config.max_magnitude(),
        };
        match self.config.representation {
            Representation::DifferentialPair => {
                let magnitude = u16::try_from(w.unsigned_abs()).map_err(|_| out_of_range())?;
                Ok(if w >= 0 {
                    (magnitude, Some(0))
                } else {
                    (0, Some(magnitude))
                })
            }
            Representation::OffsetSubtraction => {
                let level = w
                    .checked_add(self.config.offset())
                    .and_then(|level| u16::try_from(level).ok())
                    .ok_or_else(out_of_range)?;
                Ok((level, None))
            }
        }
    }

    /// Programs one logical weight into the device plane(s).
    fn program_cell(&mut self, row: usize, col: usize, w: i64, rng: &mut NoiseRng) -> Result<()> {
        let (positive_level, negative_level) = self.weight_levels(w)?;
        self.positive
            .program_level(row, col, positive_level, rng)
            .map_err(Error::Reram)?;
        if let Some(level) = negative_level {
            self.negative
                .as_mut()
                .expect("differential pairs have a negative plane")
                .program_level(row, col, level, rng)
                .map_err(Error::Reram)?;
        }
        Ok(())
    }

    /// Updates a single row of the programmed matrix (the `updateRow`
    /// library call).
    ///
    /// # Errors
    ///
    /// Returns shape/range errors as in [`Crossbar::program`].
    pub fn update_row(&mut self, row: usize, values: &[i64], rng: &mut NoiseRng) -> Result<()> {
        if row >= self.config.rows || values.len() != self.config.cols {
            return Err(Error::ShapeMismatch {
                expected_rows: self.config.rows,
                expected_cols: self.config.cols,
                got_rows: row + 1,
                got_cols: values.len(),
            });
        }
        // Validate the whole row before touching any device, as `program`
        // does, so a bad value cannot leave the row half rewritten.
        let max = self.config.max_magnitude();
        for &w in values {
            // `unsigned_abs`, not `abs`: see `Crossbar::program`.
            if w.unsigned_abs() > max as u64 {
                return Err(Error::WeightOutOfRange {
                    weight: w,
                    max_magnitude: max,
                });
            }
        }
        // Reprogram only the affected row's devices.
        for (c, &w) in values.iter().enumerate() {
            self.program_cell(row, c, w, rng)?;
        }
        if self.weights.is_empty() {
            self.weights = vec![vec![0; self.config.cols]; self.config.rows];
        }
        self.weights[row] = values.to_vec();
        Ok(())
    }

    /// One analog MVM cycle: applies a Boolean wordline vector (the 1-bit
    /// DAC output of input bit-slicing) and returns the net bitline
    /// currents in amperes.
    ///
    /// Under offset subtraction the returned current still contains the
    /// offset term; the ADC-side post-processing removes it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputLengthMismatch`] for a wrong-sized input.
    pub fn mvm_currents(&self, input: &[bool], rng: &mut NoiseRng) -> Result<Vec<f64>> {
        self.mvm_live_currents(input, self.config.cols, rng)
    }

    /// [`Crossbar::mvm_currents`] for the first `live` bitlines only.
    ///
    /// With read noise on, the stream still advances by one Gaussian per
    /// physical device — column-major, positive plane before negative,
    /// rows ascending — so the result and the generator afterwards are
    /// bit-identical to a full read truncated to `live` columns. Only the
    /// driven rows of live bitlines pay the Gaussian transform; the
    /// bitlines past `live` just advance the stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputLengthMismatch`] for a wrong-sized input and
    /// [`Error::InvalidConfig`] when `live` exceeds the column count.
    pub fn mvm_live_currents(
        &self,
        input: &[bool],
        live: usize,
        rng: &mut NoiseRng,
    ) -> Result<Vec<f64>> {
        let rows = self.config.rows;
        if input.len() != rows {
            return Err(Error::InputLengthMismatch {
                expected: rows,
                got: input.len(),
            });
        }
        if live > self.config.cols {
            return Err(Error::InvalidConfig(
                "live bitlines exceed the column count",
            ));
        }
        let params = self.positive.params();
        let g_off = params.g_off;
        let scale = self.config.range_scale;
        // Deterministic fast path: with zero read noise the per-device
        // noise model is an identity that consumes no RNG, so one
        // row-major pass per plane produces bit-identical line currents.
        if params.read_sigma == 0.0 {
            let pos = self
                .positive
                .masked_col_signals(input, live, g_off, scale)
                .map_err(Error::Reram)?;
            let neg = match &self.negative {
                Some(plane) => Some(
                    plane
                        .masked_col_signals(input, live, g_off, scale)
                        .map_err(Error::Reram)?,
                ),
                None => None,
            };
            return Ok(pos
                .iter()
                .enumerate()
                .map(|(c, &p)| {
                    let n = neg.as_ref().map_or(0.0, |v| v[c]);
                    self.apply_ir_drop(p) - self.apply_ir_drop(n)
                })
                .collect());
        }
        let mut noise = vec![0.0; rows];
        let idle = vec![false; rows];
        let mut currents = Vec::with_capacity(live);
        for c in 0..self.config.cols {
            let driven = if c < live { input } else { &idle[..] };
            let mut line = |plane: &ReramArray| {
                plane
                    .noisy_col_signal(c, driven, g_off, scale, rng, &mut noise)
                    .map_err(Error::Reram)
            };
            let pos = line(&self.positive)?;
            let neg = match &self.negative {
                Some(plane) => line(plane)?,
                None => 0.0,
            };
            if c < live {
                currents.push(self.apply_ir_drop(pos) - self.apply_ir_drop(neg));
            }
        }
        Ok(currents)
    }

    /// Attenuates one accumulated line current by the distributed-wire
    /// IR-drop model (quadratic loss in line units); shared by the noisy
    /// and deterministic bitline paths so they cannot diverge.
    fn apply_ir_drop(&self, line: f64) -> f64 {
        if self.config.ir_drop_alpha > 0.0 {
            let unit = self.unit_current();
            if unit > 0.0 {
                let line_units = line / unit;
                let loss = self.config.ir_drop_alpha * line_units * line_units * unit;
                return (line - loss).max(0.0);
            }
        }
        line
    }

    /// The exact (noise-free, parasitic-free) MVM result in weight units,
    /// for verification: `result[c] = Σ_r input[r] · weight[r][c]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputLengthMismatch`] for a wrong-sized input.
    pub fn mvm_exact(&self, input: &[bool]) -> Result<Vec<i64>> {
        if input.len() != self.config.rows {
            return Err(Error::InputLengthMismatch {
                expected: self.config.rows,
                got: input.len(),
            });
        }
        let mut out = vec![0i64; self.config.cols];
        for (r, &active) in input.iter().enumerate() {
            if !active {
                continue;
            }
            if let Some(row) = self.weights.get(r) {
                for (c, &w) in row.iter().enumerate() {
                    out[c] += w;
                }
            }
        }
        Ok(out)
    }

    /// Injects stuck-at faults into both device planes, returning the
    /// number of faulted devices.
    pub fn inject_stuck_at_faults(&mut self, rng: &mut NoiseRng) -> usize {
        let mut n = self.positive.inject_stuck_at_faults(rng);
        if let Some(neg) = &mut self.negative {
            n += neg.inject_stuck_at_faults(rng);
        }
        n
    }

    /// Total writes across both device planes that railed outside the
    /// conductance window and were clamped to an endpoint (the Monte-Carlo
    /// saturation counter; see `darth_reram::device::Cell::program`).
    pub fn saturated_writes(&self) -> u64 {
        self.positive.saturated_writes()
            + self
                .negative
                .as_ref()
                .map_or(0, darth_reram::ReramArray::saturated_writes)
    }

    /// Applies retention drift to both planes.
    pub fn drift(&mut self, decades: f64) {
        self.positive.drift_all(decades);
        if let Some(neg) = &mut self.negative {
            neg.drift_all(decades);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> NoiseRng {
        NoiseRng::seed_from(2024)
    }

    fn ideal_xbar(rows: usize, cols: usize, bits: u8) -> Crossbar {
        let config = CrossbarConfig {
            bits_per_cell: bits,
            device: DeviceParams::ideal(bits).expect("valid"),
            ..CrossbarConfig::ideal(rows, cols)
        };
        Crossbar::new(CrossbarConfig {
            rows,
            cols,
            ..config
        })
        .expect("valid config")
    }

    #[test]
    fn config_validation() {
        assert!(CrossbarConfig {
            rows: 0,
            ..CrossbarConfig::ideal(2, 2)
        }
        .validate()
        .is_err());
        assert!(CrossbarConfig {
            bits_per_cell: 0,
            ..CrossbarConfig::ideal(2, 2)
        }
        .validate()
        .is_err());
        assert!(CrossbarConfig {
            range_scale: 0.0,
            ..CrossbarConfig::ideal(2, 2)
        }
        .validate()
        .is_err());
        assert!(CrossbarConfig::ideal(2, 2).validate().is_ok());
    }

    #[test]
    fn paper_figure1_example_exact() {
        // Figure 1: [[2,9],[7,5]]^T style 2x2 with input [2,7] — here we
        // check the per-bit building block: binary inputs, exact weights.
        let mut xbar = ideal_xbar(2, 2, 4);
        xbar.program(&[vec![5, 9], vec![8, 7]], &mut rng())
            .expect("programs");
        let exact = xbar.mvm_exact(&[true, true]).expect("shape ok");
        assert_eq!(exact, vec![13, 16]);
        let one_row = xbar.mvm_exact(&[false, true]).expect("shape ok");
        assert_eq!(one_row, vec![8, 7]);
    }

    #[test]
    fn ideal_currents_match_exact_in_weight_units() {
        let mut xbar = ideal_xbar(4, 3, 4);
        let m = vec![
            vec![1, -2, 3],
            vec![4, 5, -6],
            vec![0, 7, 1],
            vec![-1, -1, -1],
        ];
        xbar.program(&m, &mut rng()).expect("programs");
        for input in [
            vec![true, true, true, true],
            vec![true, false, true, false],
            vec![false, false, false, false],
        ] {
            let exact = xbar.mvm_exact(&input).expect("shape ok");
            let currents = xbar.mvm_currents(&input, &mut rng()).expect("shape ok");
            for (c, &e) in exact.iter().enumerate() {
                let units = currents[c] / xbar.unit_current();
                assert!((units - e as f64).abs() < 1e-9, "col {c}: {units} vs {e}");
            }
        }
    }

    #[test]
    fn weight_out_of_range_is_rejected() {
        let mut xbar = ideal_xbar(2, 2, 2); // max magnitude 3
        let err = xbar
            .program(&[vec![4, 0], vec![0, 0]], &mut rng())
            .unwrap_err();
        assert!(matches!(
            err,
            Error::WeightOutOfRange {
                max_magnitude: 3,
                ..
            }
        ));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut xbar = ideal_xbar(2, 2, 4);
        assert!(matches!(
            xbar.program(&[vec![1, 2]], &mut rng()),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(matches!(
            xbar.mvm_currents(&[true], &mut rng()),
            Err(Error::InputLengthMismatch { .. })
        ));
    }

    #[test]
    fn offset_subtraction_range_is_halved() {
        let config = CrossbarConfig {
            representation: Representation::OffsetSubtraction,
            ..CrossbarConfig::ideal(2, 2)
        };
        // 4 bits per cell: levels 0..15, offset 7, magnitude limit 7
        assert_eq!(config.max_magnitude(), 7);
        assert_eq!(config.offset(), 7);
        let mut xbar = Crossbar::new(config).expect("valid");
        xbar.program(&[vec![-7, 7], vec![0, 1]], &mut rng())
            .expect("programs");
        // net current includes the offset: col0 = (-7+7) + (0+7) = 7 offsets
        let currents = xbar
            .mvm_currents(&[true, true], &mut rng())
            .expect("shape ok");
        let units0 = currents[0] / xbar.unit_current();
        // raw = (0) + (7)  [levels] = weights + 2*offset = -7+0 + 14
        assert!((units0 - 7.0).abs() < 1e-9, "units0 = {units0}");
    }

    #[test]
    fn extreme_weights_error_through_the_public_api() {
        // i64::MIN has no i64 absolute value; the magnitude pre-checks
        // must reject it as out-of-range, not overflow-panic (debug) or
        // wrap past the check (release).
        let mut xbar = ideal_xbar(1, 1, 4);
        assert!(matches!(
            xbar.program(&[vec![i64::MIN]], &mut rng()),
            Err(Error::WeightOutOfRange { .. })
        ));
        xbar.program(&[vec![1]], &mut rng()).expect("programs");
        assert!(matches!(
            xbar.update_row(0, &[i64::MIN], &mut rng()),
            Err(Error::WeightOutOfRange { .. })
        ));
        assert_eq!(xbar.weights(), &[vec![1]], "failed update left state");
    }

    #[test]
    fn weight_levels_boundary_values() {
        // Differential pairs: ±max map to (max, 0) / (0, max); levels
        // past u16 (unreachable through the range-checked public API)
        // error instead of wrapping.
        let xbar = ideal_xbar(2, 2, 4);
        assert_eq!(xbar.weight_levels(15).unwrap(), (15, Some(0)));
        assert_eq!(xbar.weight_levels(-15).unwrap(), (0, Some(15)));
        assert_eq!(xbar.weight_levels(0).unwrap(), (0, Some(0)));
        assert!(matches!(
            xbar.weight_levels(i64::from(u16::MAX) + 1),
            Err(Error::WeightOutOfRange { .. })
        ));
        assert!(matches!(
            xbar.weight_levels(i64::MIN),
            Err(Error::WeightOutOfRange { .. })
        ));

        // Offset subtraction (4-bit: offset 7): the boundary weights
        // map to levels 0 and 14; a weight below -offset would be a
        // negative post-offset level and errors instead of wrapping to
        // a huge u16.
        let config = CrossbarConfig {
            representation: Representation::OffsetSubtraction,
            ..CrossbarConfig::ideal(2, 2)
        };
        let xbar = Crossbar::new(config).expect("valid");
        assert_eq!(xbar.weight_levels(-7).unwrap(), (0, None));
        assert_eq!(xbar.weight_levels(7).unwrap(), (14, None));
        assert!(matches!(
            xbar.weight_levels(-8),
            Err(Error::WeightOutOfRange { .. })
        ));
        assert!(matches!(
            xbar.weight_levels(i64::MIN),
            Err(Error::WeightOutOfRange { .. })
        ));
    }

    #[test]
    fn update_row_changes_only_that_row() {
        let mut xbar = ideal_xbar(3, 2, 4);
        xbar.program(&[vec![1, 1], vec![2, 2], vec![3, 3]], &mut rng())
            .expect("programs");
        xbar.update_row(1, &[9, -9], &mut rng()).expect("updates");
        let exact = xbar.mvm_exact(&[true, true, true]).expect("shape ok");
        assert_eq!(exact, vec![1 + 9 + 3, 1 - 9 + 3]);
    }

    #[test]
    fn failed_update_row_leaves_the_row_untouched() {
        // A bad value in the last column must be caught before any device
        // of the row is rewritten: cells, weights, RNG and MVM results all
        // stay as they were.
        let mut noisy_program = CrossbarConfig::evaluation(2).expect("valid");
        noisy_program.rows = 3;
        noisy_program.cols = 3;
        noisy_program.device.read_sigma = 0.0;
        for config in [CrossbarConfig::ideal(3, 3), noisy_program] {
            let mut xbar = Crossbar::new(config).expect("valid");
            let max = xbar.config().max_magnitude();
            xbar.program(&[vec![0, 1, 2], vec![2, 1, 0], vec![1, 1, 1]], &mut rng())
                .expect("programs");
            let before = xbar.clone();
            let input = [true, true, true];
            let currents = xbar.mvm_currents(&input, &mut rng()).expect("reads");
            let mut update_rng = rng();
            let err = xbar
                .update_row(1, &[1, 1, max + 1], &mut update_rng)
                .unwrap_err();
            assert!(matches!(err, Error::WeightOutOfRange { .. }));
            assert_eq!(xbar, before, "cells or weights changed");
            assert_eq!(xbar.weights(), before.weights());
            assert_eq!(update_rng, rng(), "a failed update consumed noise");
            let after = xbar.mvm_currents(&input, &mut rng()).expect("reads");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&after), bits(&currents));
        }
    }

    /// The per-device read walk the masked bitline accumulation replaced,
    /// kept as its differential reference: every device of every column
    /// reads through `Cell::read_conductance` (one Gaussian each,
    /// column-major, positive plane before negative, rows ascending), and
    /// only then are undriven rows dropped.
    fn reference_currents(xbar: &Crossbar, input: &[bool], rng: &mut NoiseRng) -> Vec<f64> {
        let g_off = xbar.positive.params().g_off;
        let scale = xbar.config.range_scale;
        let mut line = |plane: &ReramArray, col: usize| {
            let conductances: Vec<f64> = (0..xbar.config.rows)
                .map(|r| {
                    let cell = plane.cell(r, col).expect("in range");
                    cell.read_conductance(plane.params(), rng)
                })
                .collect();
            let mut line = 0.0;
            for (r, g) in conductances.iter().enumerate() {
                if input[r] {
                    line += (g - g_off).max(0.0) * scale;
                }
            }
            xbar.apply_ir_drop(line)
        };
        (0..xbar.config.cols)
            .map(|c| {
                let pos = line(&xbar.positive, c);
                let neg = xbar.negative.as_ref().map_or(0.0, |plane| line(plane, c));
                pos - neg
            })
            .collect()
    }

    #[test]
    fn masked_noisy_read_matches_the_per_device_reference() {
        let mut case = NoiseRng::seed_from(0x5EED);
        for representation in [
            Representation::DifferentialPair,
            Representation::OffsetSubtraction,
        ] {
            for bits in 1..=4u8 {
                // Odd row counts make Box–Muller pairs straddle columns
                // and planes.
                for (rows, cols) in [(1, 3), (3, 2), (7, 5), (13, 4), (64, 10)] {
                    let mut config = CrossbarConfig::evaluation(bits).expect("valid");
                    config.rows = rows;
                    config.cols = cols;
                    config.representation = representation;
                    config.device.read_sigma = 0.02;
                    assert!(config.ir_drop_alpha > 0.0);
                    let mut xbar = Crossbar::new(config).expect("valid");
                    let max = xbar.config().max_magnitude();
                    let matrix: Vec<Vec<i64>> = (0..rows)
                        .map(|_| {
                            (0..cols)
                                .map(|_| case.index(2 * max as usize + 1) as i64 - max)
                                .collect()
                        })
                        .collect();
                    xbar.program(&matrix, &mut case).expect("programs");
                    let input: Vec<bool> = (0..rows).map(|_| case.chance(0.4)).collect();
                    for live in 0..=cols {
                        // Odd warmups enter with a cached Box–Muller spare.
                        let mut masked = case.fork();
                        for _ in 0..live % 2 {
                            masked.gaussian(0.0, 1.0);
                        }
                        let mut reference = masked.clone();
                        let got = xbar
                            .mvm_live_currents(&input, live, &mut masked)
                            .expect("reads");
                        let want = reference_currents(&xbar, &input, &mut reference);
                        assert_eq!(got.len(), live);
                        for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{representation:?} {bits}b {rows}x{cols} live {live} col {c}"
                            );
                        }
                        assert_eq!(masked, reference, "stream diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn live_bound_is_checked_and_honoured_without_noise() {
        let mut xbar = ideal_xbar(2, 3, 4);
        xbar.program(&[vec![1, 2, 3], vec![4, 5, 6]], &mut rng())
            .expect("programs");
        let full = xbar.mvm_currents(&[true, true], &mut rng()).expect("reads");
        let mut untouched = rng();
        let two = xbar
            .mvm_live_currents(&[true, true], 2, &mut untouched)
            .expect("reads");
        assert_eq!(two, full[..2]);
        assert_eq!(untouched, rng(), "the noise-free read drew noise");
        assert!(matches!(
            xbar.mvm_live_currents(&[true, true], 4, &mut rng()),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn ir_drop_attenuates_large_currents() {
        let mut noisy = CrossbarConfig::ideal(32, 1);
        noisy.bits_per_cell = 1;
        noisy.device = DeviceParams::ideal(1).expect("valid");
        noisy.ir_drop_alpha = 0.002;
        let mut xbar = Crossbar::new(noisy).expect("valid");
        let matrix: Vec<Vec<i64>> = (0..32).map(|_| vec![1]).collect();
        xbar.program(&matrix, &mut rng()).expect("programs");
        let all_on = vec![true; 32];
        let currents = xbar.mvm_currents(&all_on, &mut rng()).expect("shape ok");
        let units = currents[0] / xbar.unit_current();
        // ideal would be 32; IR drop pulls it below
        assert!(units < 32.0, "units {units}");
        assert!(units > 28.0, "drop too severe: {units}");
        // a small current is barely affected
        let one_on: Vec<bool> = (0..32).map(|i| i == 0).collect();
        let small = xbar.mvm_currents(&one_on, &mut rng()).expect("shape ok");
        assert!((small[0] / xbar.unit_current() - 1.0).abs() < 0.01);
    }

    #[test]
    fn differential_balances_ir_drop() {
        // The §4.3 story: an all-positive SLC matrix suffers more IR drop
        // than the same matrix remapped to ±1, because the remap splits the
        // current between the two lines of the pair.
        let alpha = 0.002;
        let mk = |weights: Vec<Vec<i64>>| {
            let mut cfg = CrossbarConfig::ideal(32, 1);
            cfg.bits_per_cell = 1;
            cfg.device = DeviceParams::ideal(1).expect("valid");
            cfg.ir_drop_alpha = alpha;
            let mut xb = Crossbar::new(cfg).expect("valid");
            xb.program(&weights, &mut rng()).expect("programs");
            xb
        };
        // half the rows hold 1, half hold 0; all inputs active
        let plain: Vec<Vec<i64>> = (0..32).map(|r| vec![i64::from(r % 2 == 0)]).collect();
        let remapped: Vec<Vec<i64>> = (0..32)
            .map(|r| vec![if r % 2 == 0 { 1 } else { -1 }])
            .collect();
        let xb_plain = mk(plain);
        let xb_remap = mk(remapped);
        let input = vec![true; 32];
        let exact_plain = 16.0;
        let exact_remap = 0.0;
        let got_plain =
            xb_plain.mvm_currents(&input, &mut rng()).expect("ok")[0] / xb_plain.unit_current();
        let got_remap =
            xb_remap.mvm_currents(&input, &mut rng()).expect("ok")[0] / xb_remap.unit_current();
        let err_plain = (got_plain - exact_plain).abs();
        let err_remap = (got_remap - exact_remap).abs();
        assert!(
            err_remap < err_plain,
            "remap error {err_remap} !< plain error {err_plain}"
        );
    }

    #[test]
    fn noisy_mvm_stays_near_exact() {
        let cfg = CrossbarConfig::evaluation(2).expect("valid");
        let mut xbar = Crossbar::new(CrossbarConfig {
            rows: 16,
            cols: 4,
            ..cfg
        })
        .expect("valid");
        let matrix: Vec<Vec<i64>> = (0..16)
            .map(|r| (0..4).map(|c| ((r + c) % 7) as i64 - 3).collect())
            .collect();
        xbar.program(&matrix, &mut rng()).expect("programs");
        let input: Vec<bool> = (0..16).map(|i| i % 3 != 0).collect();
        let exact = xbar.mvm_exact(&input).expect("ok");
        let currents = xbar.mvm_currents(&input, &mut rng()).expect("ok");
        for (c, &e) in exact.iter().enumerate() {
            let units = currents[c] / xbar.unit_current();
            assert!((units - e as f64).abs() < 1.5, "col {c}: {units} vs {e}");
        }
    }

    #[test]
    fn pathological_sigma_keeps_bitline_currents_finite() {
        // A lognormal programming sigma large enough to overflow `exp`
        // yields +inf draws; the write–verify loop must clamp them to the
        // device window (counting the saturations) so MVM line currents
        // stay finite instead of poisoning every downstream sum.
        let mut cfg = CrossbarConfig::evaluation(4).expect("valid");
        cfg.rows = 8;
        cfg.cols = 4;
        cfg.device.program_sigma = 1e6;
        let mut xbar = Crossbar::new(cfg).expect("valid");
        let matrix: Vec<Vec<i64>> = (0..8)
            .map(|r| (0..4).map(|c| ((r * 4 + c) % 15) as i64 - 7).collect())
            .collect();
        xbar.program(&matrix, &mut rng()).expect("clamped writes");
        assert!(xbar.saturated_writes() > 0, "sigma 1e6 must rail writes");
        let input = vec![true; 8];
        let currents = xbar.mvm_currents(&input, &mut rng()).expect("shape ok");
        for (c, i) in currents.iter().enumerate() {
            assert!(i.is_finite(), "col {c} current {i} is not finite");
        }
    }

    #[test]
    fn stuck_at_faults_perturb_results() {
        let mut cfg = CrossbarConfig::ideal(16, 2);
        cfg.bits_per_cell = 1;
        let mut device = DeviceParams::ideal(1).expect("valid");
        device.stuck_at_rate = 0.3;
        cfg.device = device;
        let mut xbar = Crossbar::new(cfg).expect("valid");
        let matrix: Vec<Vec<i64>> = (0..16).map(|_| vec![1, 0]).collect();
        xbar.program(&matrix, &mut rng()).expect("programs");
        let faults = xbar.inject_stuck_at_faults(&mut rng());
        assert!(faults > 0);
    }
}
