//! A wordline × bitline array of ReRAM cells.
//!
//! Both PUM domains in DARTH-PUM use 64×64 arrays (Table 2), but the type is
//! generic over dimensions so tests can exercise small arrays and future
//! configurations can scale. Rows are wordlines (inputs for analog MVM),
//! columns are bitlines (accumulation direction for analog, operand homes
//! for digital bit-striping).

use crate::device::{Cell, DeviceParams, StuckAt};
use crate::noise::NoiseRng;
use crate::{Error, Result};
use serde::{Deserialize, Serialize};

/// The array dimension used throughout the paper (Table 2).
pub const DEFAULT_DIM: usize = 64;

/// A rectangular array of ReRAM cells with shared device parameters.
///
/// # Example
///
/// ```
/// use darth_reram::{array::ReramArray, device::DeviceParams, noise::NoiseRng};
///
/// # fn main() -> Result<(), darth_reram::Error> {
/// let mut rng = NoiseRng::seed_from(3);
/// let mut array = ReramArray::new(4, 4, DeviceParams::slc())?;
/// array.set_bool(1, 2, true);
/// assert_eq!(array.row_bools(1)?, vec![false, false, true, false]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReramArray {
    rows: usize,
    cols: usize,
    params: DeviceParams,
    cells: Vec<Cell>,
    /// Writes that railed outside the device window (see [`Cell::program`]).
    saturated_writes: u64,
}

impl ReramArray {
    /// Creates an erased array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimensions`] for zero-sized arrays, or an
    /// invalid-parameter error if `params` is inconsistent.
    pub fn new(rows: usize, cols: usize, params: DeviceParams) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(Error::InvalidDimensions { rows, cols });
        }
        params.validate()?;
        let cells = vec![Cell::erased(&params); rows * cols];
        Ok(ReramArray {
            rows,
            cols,
            params,
            cells,
            saturated_writes: 0,
        })
    }

    /// Creates the paper's default 64×64 array.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures from [`ReramArray::new`].
    pub fn default_dim(params: DeviceParams) -> Result<Self> {
        ReramArray::new(DEFAULT_DIM, DEFAULT_DIM, params)
    }

    /// Number of wordlines (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shared device parameters.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    fn idx(&self, row: usize, col: usize) -> Result<usize> {
        if row >= self.rows || col >= self.cols {
            return Err(Error::OutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(row * self.cols + col)
    }

    /// Borrow a cell.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the coordinates exceed the array.
    pub fn cell(&self, row: usize, col: usize) -> Result<&Cell> {
        let i = self.idx(row, col)?;
        Ok(&self.cells[i])
    }

    /// Mutably borrow a cell.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the coordinates exceed the array.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> Result<&mut Cell> {
        let i = self.idx(row, col)?;
        Ok(&mut self.cells[i])
    }

    /// Programs a multi-level value with write–verify (analog path).
    ///
    /// Saturated writes (draws railed outside the device window, see
    /// [`Cell::program`]) keep the clamped endpoint conductance and bump
    /// [`ReramArray::saturated_writes`].
    ///
    /// # Errors
    ///
    /// Propagates bounds and programming errors.
    pub fn program_level(
        &mut self,
        row: usize,
        col: usize,
        level: u16,
        rng: &mut NoiseRng,
    ) -> Result<()> {
        let params = self.params.clone();
        let cell = self.cell_mut(row, col)?;
        if cell.program(level, &params, rng)? {
            self.saturated_writes += 1;
        }
        Ok(())
    }

    /// How many writes so far railed outside the device window and were
    /// clamped to an endpoint instead of converging in the verify loop.
    pub fn saturated_writes(&self) -> u64 {
        self.saturated_writes
    }

    /// Sets a cell's Boolean state exactly (digital path).
    ///
    /// Out-of-bounds coordinates panic in debug terms of misuse; the digital
    /// pipeline always addresses within its own array, so this keeps the hot
    /// path free of `Result` plumbing.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the array bounds.
    pub fn set_bool(&mut self, row: usize, col: usize, value: bool) {
        let i = self
            .idx(row, col)
            .expect("digital access must stay within the array");
        let params = self.params.clone();
        self.cells[i].set_bool(value, &params);
    }

    /// Reads a cell's Boolean state.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the array bounds.
    pub fn get_bool(&self, row: usize, col: usize) -> bool {
        let i = self
            .idx(row, col)
            .expect("digital access must stay within the array");
        self.cells[i].as_bool()
    }

    /// The Boolean contents of one row (wordline).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] for an invalid row.
    pub fn row_bools(&self, row: usize) -> Result<Vec<bool>> {
        self.idx(row, 0)?;
        Ok((0..self.cols).map(|c| self.get_bool(row, c)).collect())
    }

    /// The Boolean contents of one column (bitline).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] for an invalid column.
    pub fn col_bools(&self, col: usize) -> Result<Vec<bool>> {
        self.idx(0, col)?;
        Ok((0..self.rows).map(|r| self.get_bool(r, col)).collect())
    }

    /// Writes a whole row of Boolean values.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if `row` is invalid or `values` is not
    /// exactly one element per column.
    pub fn set_row_bools(&mut self, row: usize, values: &[bool]) -> Result<()> {
        if values.len() != self.cols {
            return Err(Error::OutOfBounds {
                row,
                col: values.len(),
                rows: self.rows,
                cols: self.cols,
            });
        }
        for (col, &v) in values.iter().enumerate() {
            self.set_bool(row, col, v);
        }
        Ok(())
    }

    /// Writes a whole column of Boolean values.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if `col` is invalid or `values` is not
    /// exactly one element per row.
    pub fn set_col_bools(&mut self, col: usize, values: &[bool]) -> Result<()> {
        if values.len() != self.rows {
            return Err(Error::OutOfBounds {
                row: values.len(),
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        for (row, &v) in values.iter().enumerate() {
            self.set_bool(row, col, v);
        }
        Ok(())
    }

    /// Noisy bitline accumulation of one column: the sum over rows with
    /// `input[r]` set (ascending) of `((g + n).max(0) - g_off).max(0) *
    /// scale`, where `g` is the cell's stored conductance and `n` its
    /// read-noise draw, `N(0, read_sigma * g_on)`.
    ///
    /// The stream advances by one Gaussian per row of the column — the
    /// draws a per-device [`Cell::read_conductance`] walk consumes, in
    /// row order — but only driven rows pay the transform (see
    /// [`NoiseRng::gaussians_masked`]). An all-`false` `input` therefore
    /// just advances the stream past the column. `noise` is caller-owned
    /// scratch of one slot per row, reused across columns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] for an invalid column or when
    /// `input` or `noise` does not hold one entry per row.
    pub fn noisy_col_signal(
        &self,
        col: usize,
        input: &[bool],
        g_off: f64,
        scale: f64,
        rng: &mut NoiseRng,
        noise: &mut [f64],
    ) -> Result<f64> {
        self.idx(0, col)?;
        if input.len() != self.rows || noise.len() != self.rows {
            return Err(Error::OutOfBounds {
                row: input.len().max(noise.len()),
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        rng.gaussians_masked(0.0, self.params.read_sigma * self.params.g_on, input, noise);
        let mut line = 0.0;
        for (r, (&driven, &n)) in input.iter().zip(noise.iter()).enumerate() {
            if driven {
                let g = (self.cells[r * self.cols + col].conductance() + n).max(0.0);
                // Subtract g_off so a level-0 device contributes no signal;
                // physical designs null this with a reference column.
                line += (g - g_off).max(0.0) * scale;
            }
        }
        Ok(line)
    }

    /// Noise-free bitline accumulation for the first `live` columns at
    /// once: for each such column `c`, the sum over active rows
    /// (ascending, so floating-point results are bit-identical to a
    /// per-column walk) of `(g.max(0) - g_off).max(0) * scale`, where `g`
    /// is the cell's stored conductance.
    ///
    /// This is the deterministic fast path of the analog MVM: when the
    /// device population's `read_sigma` is zero,
    /// [`ReramArray::noisy_col_signal`] adds exact zeros and consumes no
    /// RNG, so this single row-major pass computes exactly what it would,
    /// column by column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimensions`] if `input` does not cover
    /// every row or `live` exceeds the column count.
    pub fn masked_col_signals(
        &self,
        input: &[bool],
        live: usize,
        g_off: f64,
        scale: f64,
    ) -> Result<Vec<f64>> {
        if input.len() != self.rows || live > self.cols {
            return Err(Error::InvalidDimensions {
                rows: input.len(),
                cols: live,
            });
        }
        let mut sums = vec![0.0f64; live];
        for (r, &active) in input.iter().enumerate() {
            if !active {
                continue;
            }
            let row = &self.cells[r * self.cols..r * self.cols + live];
            for (sum, cell) in sums.iter_mut().zip(row) {
                // Mirror read_conductance(sigma=0) + the bitline term
                // exactly: (g + 0).max(0), then zero-floored signal.
                *sum += (cell.conductance().max(0.0) - g_off).max(0.0) * scale;
            }
        }
        Ok(sums)
    }

    /// Injects stuck-at faults with the population's `stuck_at_rate`.
    ///
    /// Returns the number of cells that became stuck. Each faulty cell is
    /// stuck `Off` or `On` with equal probability.
    pub fn inject_stuck_at_faults(&mut self, rng: &mut NoiseRng) -> usize {
        let rate = self.params.stuck_at_rate;
        if rate <= 0.0 {
            return 0;
        }
        let params = self.params.clone();
        let mut injected = 0;
        for cell in &mut self.cells {
            if rng.chance(rate) {
                let stuck = if rng.chance(0.5) {
                    StuckAt::On
                } else {
                    StuckAt::Off
                };
                cell.set_stuck(stuck, &params);
                injected += 1;
            }
        }
        injected
    }

    /// Applies drift to every cell (see [`Cell::drift`]).
    pub fn drift_all(&mut self, decades: f64) {
        let params = self.params.clone();
        for cell in &mut self.cells {
            cell.drift(decades, &params);
        }
    }

    /// Erases every cell back to level 0.
    pub fn erase(&mut self) {
        let params = self.params.clone();
        for cell in &mut self.cells {
            if cell.stuck().is_none() {
                *cell = Cell::erased(&params);
            }
        }
    }

    /// Returns the array contents as a row-major Boolean matrix, the format
    /// the transpose unit (§4.2) shuffles between domains.
    pub fn to_bool_matrix(&self) -> Vec<Vec<bool>> {
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.get_bool(r, c)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> NoiseRng {
        NoiseRng::seed_from(42)
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(matches!(
            ReramArray::new(0, 4, DeviceParams::slc()),
            Err(Error::InvalidDimensions { .. })
        ));
        assert!(matches!(
            ReramArray::new(4, 0, DeviceParams::slc()),
            Err(Error::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn default_dim_is_64() {
        let a = ReramArray::default_dim(DeviceParams::slc()).expect("valid");
        assert_eq!(a.rows(), 64);
        assert_eq!(a.cols(), 64);
    }

    #[test]
    fn out_of_bounds_cell_access() {
        let a = ReramArray::new(2, 2, DeviceParams::slc()).expect("valid");
        assert!(matches!(a.cell(2, 0), Err(Error::OutOfBounds { .. })));
        assert!(matches!(a.cell(0, 2), Err(Error::OutOfBounds { .. })));
    }

    #[test]
    fn row_and_col_round_trip() {
        let mut a = ReramArray::new(3, 3, DeviceParams::slc()).expect("valid");
        a.set_row_bools(1, &[true, false, true]).expect("fits");
        assert_eq!(a.row_bools(1).expect("in range"), vec![true, false, true]);
        a.set_col_bools(0, &[true, true, false]).expect("fits");
        assert_eq!(a.col_bools(0).expect("in range"), vec![true, true, false]);
        // row write must not disturb other rows beyond the shared (1,0) cell
        assert!(!a.get_bool(2, 0));
    }

    #[test]
    fn set_row_rejects_wrong_length() {
        let mut a = ReramArray::new(2, 3, DeviceParams::slc()).expect("valid");
        assert!(a.set_row_bools(0, &[true]).is_err());
        assert!(a.set_col_bools(0, &[true]).is_err());
    }

    #[test]
    fn program_level_and_col_conductances() {
        let p = DeviceParams::ideal(2).expect("valid");
        let mut a = ReramArray::new(2, 2, p.clone()).expect("valid");
        let mut r = rng();
        a.program_level(0, 0, 3, &mut r).expect("programs");
        a.program_level(1, 0, 0, &mut r).expect("programs");
        let g = |row| a.cell(row, 0).expect("in range").conductance();
        assert!((g(0) - p.g_on).abs() < 1e-15);
        assert!((g(1) - p.g_off).abs() < 1e-15);
        // The driven-row bitline sum sees the same conductances.
        let mut noise = [0.0; 2];
        let line = |input: &[bool], noise: &mut [f64]| {
            a.noisy_col_signal(0, input, 0.0, 1.0, &mut rng(), noise)
                .expect("in range")
        };
        assert_eq!(line(&[true, false], &mut noise), g(0));
        assert_eq!(line(&[true, true], &mut noise), g(0) + g(1));
        assert_eq!(line(&[false, false], &mut noise), 0.0);
    }

    #[test]
    fn noisy_col_signal_draws_every_row_of_the_column() {
        // With read noise live, the column consumes one Gaussian per row
        // whatever the mask, so an undriven column still advances the
        // stream exactly as a driven one does.
        let mut p = DeviceParams::mlc(2).expect("valid");
        p.read_sigma = 0.01;
        let a = ReramArray::new(3, 2, p.clone()).expect("valid");
        let mut noise = [0.0; 3];
        let mut driven = rng();
        let mut idle = rng();
        let mut per_call = rng();
        a.noisy_col_signal(1, &[true, false, true], 0.0, 1.0, &mut driven, &mut noise)
            .expect("in range");
        let zero = a
            .noisy_col_signal(1, &[false; 3], 0.0, 1.0, &mut idle, &mut noise)
            .expect("in range");
        for _ in 0..3 {
            per_call.gaussian(0.0, p.read_sigma * p.g_on);
        }
        assert_eq!(zero, 0.0);
        assert_eq!(driven, per_call);
        assert_eq!(idle, per_call);
        assert!(a
            .noisy_col_signal(2, &[true; 3], 0.0, 1.0, &mut rng(), &mut noise)
            .is_err());
        assert!(a
            .noisy_col_signal(0, &[true; 2], 0.0, 1.0, &mut rng(), &mut noise)
            .is_err());
    }

    #[test]
    fn saturated_writes_are_counted_and_stay_in_window() {
        let mut p = DeviceParams::mlc(2).expect("valid");
        p.program_sigma = 1e6;
        let g_on = p.g_on;
        let g_off = p.g_off;
        let mut a = ReramArray::new(4, 4, p).expect("valid");
        let mut r = rng();
        for row in 0..4 {
            for col in 0..4 {
                a.program_level(row, col, 2, &mut r).expect("clamped write");
                let g = a.cell(row, col).expect("in range").conductance();
                assert!(g.is_finite() && g >= g_off && g <= g_on);
            }
        }
        assert!(a.saturated_writes() > 0, "sigma 1e6 must rail some writes");
        // The clean-sigma path leaves the counter untouched.
        let mut clean = ReramArray::new(4, 4, DeviceParams::mlc(2).expect("valid")).expect("valid");
        clean.program_level(0, 0, 1, &mut rng()).expect("programs");
        assert_eq!(clean.saturated_writes(), 0);
    }

    #[test]
    fn stuck_at_injection_counts_match_state() {
        let mut p = DeviceParams::slc();
        p.stuck_at_rate = 0.5;
        let mut a = ReramArray::new(16, 16, p).expect("valid");
        let injected = a.inject_stuck_at_faults(&mut rng());
        let counted = (0..16)
            .flat_map(|r| (0..16).map(move |c| (r, c)))
            .filter(|&(r, c)| a.cell(r, c).expect("in range").stuck().is_some())
            .count();
        assert_eq!(injected, counted);
        assert!(injected > 32, "rate 0.5 over 256 cells, got {injected}");
    }

    #[test]
    fn erase_preserves_stuck_cells() {
        let p = DeviceParams::slc();
        let mut a = ReramArray::new(2, 2, p.clone()).expect("valid");
        a.cell_mut(0, 0)
            .expect("in range")
            .set_stuck(StuckAt::On, &p);
        a.set_bool(1, 1, true);
        a.erase();
        assert!(a.get_bool(0, 0), "stuck-on survives erase");
        assert!(!a.get_bool(1, 1), "normal cell erases");
    }

    #[test]
    fn to_bool_matrix_matches_cells() {
        let mut a = ReramArray::new(2, 3, DeviceParams::slc()).expect("valid");
        a.set_bool(0, 2, true);
        a.set_bool(1, 0, true);
        let m = a.to_bool_matrix();
        assert_eq!(m, vec![vec![false, false, true], vec![true, false, false]]);
    }

    #[test]
    fn drift_all_decays_programmed_cells() {
        let mut p = DeviceParams::slc();
        p.drift_nu = 0.2;
        let mut a = ReramArray::new(2, 2, p).expect("valid");
        a.set_bool(0, 0, true);
        let before = a.cell(0, 0).expect("in range").conductance();
        a.drift_all(2.0);
        assert!(a.cell(0, 0).expect("in range").conductance() < before);
    }
}
