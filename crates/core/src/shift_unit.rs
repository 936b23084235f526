//! The shift units: in-flight shift-and-place on ACE→DCE transfers (§4.1).
//!
//! Without them (Figure 10a), every partial product must be written to the
//! digital arrays, shifted into its bit position with Boolean µops (a
//! pipelining barrier), and only then added — serializing the whole
//! reduction. The shift units instead apply the statically known shift
//! *during* the transfer, writing each partial product pre-shifted, so only
//! pipelined ADDs remain (Figure 10b).
//!
//! The unit also enforces the rate match between ADC output and DCE write
//! bandwidth: the I/O network moves [`crate::params::ACE_DCE_BYTES_PER_CYCLE`]
//! bytes per cycle, and the DCE accepts one row of data per cycle.

use crate::params::ACE_DCE_BYTES_PER_CYCLE;
use darth_reram::Cycles;
use serde::{Deserialize, Serialize};

/// The in-flight shifting transfer engine of one HCT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShiftUnit {
    bytes_per_cycle: u64,
}

impl ShiftUnit {
    /// A shift unit with the paper's 8 B/cycle I/O network.
    pub fn new() -> Self {
        ShiftUnit {
            bytes_per_cycle: ACE_DCE_BYTES_PER_CYCLE,
        }
    }

    /// A shift unit with custom bandwidth (rate-match ablations).
    pub fn with_bandwidth(bytes_per_cycle: u64) -> Self {
        ShiftUnit {
            bytes_per_cycle: bytes_per_cycle.max(1),
        }
    }

    /// I/O bandwidth in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> u64 {
        self.bytes_per_cycle
    }

    /// Cycles to move one partial-product vector of `elements` values of
    /// `element_bits` bits into the DCE.
    ///
    /// Two limits apply: the I/O network's byte rate and the DCE's
    /// one-row-of-data-per-cycle write port (§4.1); the transfer takes the
    /// slower of the two.
    pub fn transfer_cycles(&self, elements: u64, element_bits: u64) -> Cycles {
        let bytes = elements * element_bits.div_ceil(8);
        let io_limit = bytes.div_ceil(self.bytes_per_cycle);
        let write_limit = elements; // one row of data per cycle
        Cycles::new(io_limit.max(write_limit))
    }

    /// Applies the in-flight transform: shift every code left by `amount`
    /// and negate when the term carries negative weight (the top bit of a
    /// two's-complement input).
    pub fn apply(&self, codes: &[i64], amount: u8, negative: bool) -> Vec<i64> {
        codes
            .iter()
            .map(|&c| self.shift(c, amount, negative))
            .collect()
    }

    /// [`ShiftUnit::apply`] on one code.
    pub(crate) fn shift(&self, code: i64, amount: u8, negative: bool) -> i64 {
        let shifted = code << amount;
        if negative {
            -shifted
        } else {
            shifted
        }
    }
}

impl Default for ShiftUnit {
    fn default() -> Self {
        ShiftUnit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidth_is_8_bytes() {
        assert_eq!(ShiftUnit::new().bytes_per_cycle(), 8);
    }

    #[test]
    fn transfer_is_write_port_limited_for_narrow_data() {
        // 64 one-byte elements: IO limit 64/8 = 8 cycles, write limit 64.
        let su = ShiftUnit::new();
        assert_eq!(su.transfer_cycles(64, 8).get(), 64);
    }

    #[test]
    fn transfer_is_io_limited_for_wide_data() {
        // 8 elements of 64 bits = 64 bytes: IO limit 8, write limit 8 — tie;
        // at 128 bits per element the IO limit dominates.
        let su = ShiftUnit::with_bandwidth(1);
        assert_eq!(su.transfer_cycles(8, 64).get(), 64); // 64 bytes at 1 B/cyc
    }

    #[test]
    fn zero_bandwidth_clamps_to_one() {
        assert_eq!(ShiftUnit::with_bandwidth(0).bytes_per_cycle(), 1);
    }

    #[test]
    fn apply_shifts_and_negates() {
        let su = ShiftUnit::new();
        assert_eq!(su.apply(&[1, -2, 3], 2, false), vec![4, -8, 12]);
        assert_eq!(su.apply(&[1, -2, 3], 1, true), vec![-2, 4, -6]);
        assert_eq!(su.apply(&[], 5, false), Vec::<i64>::new());
    }
}
