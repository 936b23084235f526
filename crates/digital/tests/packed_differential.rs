//! Differential test of DCE macro sequences: the packed fast path
//! against the cell-accurate reference pipeline.
//!
//! Each case draws a random geometry (depth 1..=64, elements 1..=200)
//! and runs the same random sequence of every `DcePipeline` method on
//! both implementations. Each side owns two pipelines so that
//! `copy_from` and `elementwise_load` read the other one; the second
//! pipeline shares the depth but may differ in elements and register
//! count. Registers are drawn from a small file, so address, table and
//! destination registers alias often; addresses are mostly in range so
//! gathers land, with out-of-range ones mixed in. After every step the
//! two sides must agree on the `Result`, every register of both
//! pipelines, the primitive count, the elapsed cycles and the energy.
//!
//! The packed pipeline caches value views of registers between gathers;
//! a write that failed to drop a stale view shows up here as a later
//! gather that disagrees with the reference.

use darth_digital::timing::MacroCost;
use darth_digital::{BoolOp, DcePipeline, LogicFamily, PackedPipeline, Pipeline, PipelineConfig};
use proptest::prelude::*;

const OPS: [BoolOp; 6] = [
    BoolOp::Nor,
    BoolOp::Or,
    BoolOp::And,
    BoolOp::Nand,
    BoolOp::Xor,
    BoolOp::Xnor,
];

/// One step of a macro sequence, applied to pipeline `on` of a side.
#[derive(Debug, Clone)]
enum Step {
    WriteValue(usize, usize, u64),
    ReadValue(usize, usize),
    ReadSigned(usize, usize),
    WriteVector(usize, Vec<u64>),
    ReadVector(usize),
    ReadSignedPrefix(usize, usize),
    Bool(BoolOp, usize, usize, usize),
    Not(usize, usize),
    Add(usize, usize, usize),
    Sub(usize, usize, usize),
    CmpLt(usize, usize, usize),
    Select(usize, usize, usize, usize),
    Relu(usize, usize),
    Mul(usize, usize, usize, u8),
    CopyVr(usize, usize),
    CopyFrom(usize, usize),
    Shl(usize, usize, usize),
    Shr(usize, usize, usize),
    Rotate(usize, usize, usize, usize, usize),
    Reverse,
    Eload(usize, usize),
    ResetTimer,
    ChargeExternal(MacroCost),
}

/// What a step returned, in a form both sides can be compared on.
#[derive(Debug, PartialEq)]
enum Outcome {
    Unit(darth_digital::Result<()>),
    Value(darth_digital::Result<u64>),
    Signed(darth_digital::Result<i64>),
    Values(darth_digital::Result<Vec<u64>>),
    SignedValues(darth_digital::Result<Vec<i64>>),
    Cycles(darth_reram::Cycles),
}

/// Applies `step` to `pipes[on]`, with `pipes[1 - on]` as the other.
fn apply<P: DcePipeline>(pipes: &mut [P; 2], on: usize, step: &Step) -> Outcome {
    let (left, right) = pipes.split_at_mut(1);
    let (p, other) = if on == 0 {
        (&mut left[0], &right[0])
    } else {
        (&mut right[0], &left[0])
    };
    match *step {
        Step::WriteValue(vr, e, v) => Outcome::Unit(p.write_value(vr, e, v)),
        Step::ReadValue(vr, e) => Outcome::Value(p.read_value(vr, e)),
        Step::ReadSigned(vr, e) => Outcome::Signed(p.read_value_signed(vr, e)),
        Step::WriteVector(vr, ref values) => Outcome::Unit(p.write_vector(vr, values)),
        Step::ReadVector(vr) => Outcome::Values(p.read_vector(vr)),
        Step::ReadSignedPrefix(vr, n) => Outcome::SignedValues(p.read_signed_prefix(vr, n)),
        Step::Bool(op, d, a, b) => Outcome::Unit(p.bool_op(op, d, a, b)),
        Step::Not(d, a) => Outcome::Unit(p.not(d, a)),
        Step::Add(d, a, b) => Outcome::Unit(p.add(d, a, b)),
        Step::Sub(d, a, b) => Outcome::Unit(p.sub(d, a, b)),
        Step::CmpLt(d, a, b) => Outcome::Unit(p.cmp_lt(d, a, b)),
        Step::Select(d, c, a, b) => Outcome::Unit(p.select(d, c, a, b)),
        Step::Relu(d, a) => Outcome::Unit(p.relu(d, a)),
        Step::Mul(d, a, b, w) => Outcome::Unit(p.mul(d, a, b, w)),
        Step::CopyVr(d, s) => Outcome::Unit(p.copy_vr(d, s)),
        Step::CopyFrom(s, d) => Outcome::Unit(p.copy_from(other, s, d)),
        Step::Shl(d, s, k) => Outcome::Unit(p.shl(d, s, k)),
        Step::Shr(d, s, k) => Outcome::Unit(p.shr(d, s, k)),
        Step::Rotate(d, s, t, k, w) => Outcome::Unit(p.rotate_left(d, s, t, k, w)),
        Step::Reverse => {
            p.reverse();
            Outcome::Unit(Ok(()))
        }
        Step::Eload(addr, dst) => Outcome::Unit(p.elementwise_load(addr, other, dst)),
        Step::ResetTimer => Outcome::Cycles(p.reset_timer()),
        Step::ChargeExternal(cost) => {
            p.charge_external(cost);
            Outcome::Unit(Ok(()))
        }
    }
}

/// Draws steps for a pair of pipeline geometries.
struct Gen {
    rng: TestRng,
    configs: [PipelineConfig; 2],
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    /// A register of pipeline `on`; one draw in 24 is out of range.
    fn vr(&mut self, on: usize) -> usize {
        let count = self.configs[on].vr_count;
        if self.chance(24) {
            count + self.below(2)
        } else {
            self.below(count)
        }
    }

    /// A value for pipeline `on`: half the time an address into the
    /// other pipeline (so gathers land), otherwise any depth-wide value.
    fn value(&mut self, on: usize) -> u64 {
        let depth = self.configs[on].depth;
        let mask = u64::MAX >> (64 - depth);
        let other = self.configs[1 - on];
        let capacity = (other.vr_count * other.elements) as u64;
        if self.chance(2) {
            (self.rng.next_u64() % capacity) & mask
        } else {
            self.rng.next_u64() & mask
        }
    }

    fn values(&mut self, on: usize, len: usize) -> Vec<u64> {
        let mut values: Vec<u64> = (0..len).map(|_| self.value(on)).collect();
        // Now and then one value too wide for the depth.
        let depth = self.configs[on].depth;
        if len > 0 && depth < 64 && self.chance(12) {
            let e = self.below(len);
            values[e] |= 1 << (depth + self.below(64 - depth));
        }
        values
    }

    fn step(&mut self, on: usize) -> Step {
        let cfg = self.configs[on];
        let (depth, elements) = (cfg.depth, cfg.elements);
        match self.below(32) {
            0 | 1 => {
                let e = if self.chance(16) {
                    elements
                } else {
                    self.below(elements)
                };
                let vr = self.vr(on);
                let mut v = self.value(on);
                if depth < 64 && self.chance(12) {
                    v |= 1 << depth;
                }
                Step::WriteValue(vr, e, v)
            }
            2 => Step::ReadValue(self.vr(on), self.below(elements + 1)),
            3 => Step::ReadSigned(self.vr(on), self.below(elements + 1)),
            4..=6 => {
                let len = if self.chance(16) {
                    elements + 1
                } else if self.chance(2) {
                    elements
                } else {
                    self.below(elements + 1)
                };
                let vr = self.vr(on);
                Step::WriteVector(vr, self.values(on, len))
            }
            7 => Step::ReadVector(self.vr(on)),
            8 => Step::ReadSignedPrefix(self.vr(on), self.below(elements + 2)),
            9 => {
                let op = OPS[self.below(OPS.len())];
                Step::Bool(op, self.vr(on), self.vr(on), self.vr(on))
            }
            10 => Step::Not(self.vr(on), self.vr(on)),
            11 => Step::Add(self.vr(on), self.vr(on), self.vr(on)),
            12 => Step::Sub(self.vr(on), self.vr(on), self.vr(on)),
            13 => Step::CmpLt(self.vr(on), self.vr(on), self.vr(on)),
            14 => Step::Select(self.vr(on), self.vr(on), self.vr(on), self.vr(on)),
            15 => Step::Relu(self.vr(on), self.vr(on)),
            16 => {
                let width = self.below(depth + 1) as u8;
                Step::Mul(self.vr(on), self.vr(on), self.vr(on), width)
            }
            17 => Step::CopyVr(self.vr(on), self.vr(on)),
            18 => Step::CopyFrom(self.vr(1 - on), self.vr(on)),
            19 => Step::Shl(self.vr(on), self.vr(on), self.below(depth + 2)),
            20 => Step::Shr(self.vr(on), self.vr(on), self.below(depth + 2)),
            21 => {
                let width = self.below(depth + 2);
                let k = self.below(width + 1);
                Step::Rotate(self.vr(on), self.vr(on), self.vr(on), k, width)
            }
            22 if self.chance(4) => Step::Reverse,
            23 if self.chance(4) => Step::ResetTimer,
            24 if self.chance(4) => Step::ChargeExternal(MacroCost {
                stage_cycles: self.rng.next_u64() % 40,
                stages: self.rng.next_u64() % 70,
                primitives: 0,
                barrier: self.chance(2),
            }),
            _ => Step::Eload(self.vr(on), self.vr(on)),
        }
    }
}

/// Where the two sides' registers, primitive counts, cycle counts or
/// energies first differ, if anywhere.
fn state_mismatch(fast: &[PackedPipeline; 2], slow: &[Pipeline; 2]) -> Option<String> {
    for (pipe, (f, s)) in fast.iter().zip(slow).enumerate() {
        let cfg = *s.config();
        for vr in 0..cfg.vr_count {
            for e in 0..cfg.elements {
                let (got, want) = (f.peek_value(vr, e), s.peek_value(vr, e));
                if got != want {
                    return Some(format!(
                        "pipeline {pipe} vr {vr} element {e}: {got:#x} != {want:#x}"
                    ));
                }
            }
        }
        let (got, want) = (
            (f.primitives_executed(), f.elapsed(), f.energy()),
            (s.primitives_executed(), s.elapsed(), s.energy()),
        );
        if got != want {
            return Some(format!(
                "pipeline {pipe} (primitives, elapsed, energy): {got:?} != {want:?}"
            ));
        }
    }
    None
}

/// Runs `steps` random steps on a random geometry of depth at most
/// `max_depth`.
fn run_case(seed: u64, steps: usize, max_depth: u64) {
    let mut rng = TestRng::seed_from(seed);
    let depth = 1 + (rng.next_u64() % max_depth) as usize;
    let config = |rng: &mut TestRng| PipelineConfig {
        depth,
        elements: 1 + (rng.next_u64() % 200) as usize,
        vr_count: 2 + (rng.next_u64() % 3) as usize,
        scratch_cols: 12,
        family: if rng.next_u64().is_multiple_of(2) {
            LogicFamily::Oscar
        } else {
            LogicFamily::Ideal
        },
    };
    let first = config(&mut rng);
    let second = if rng.next_u64().is_multiple_of(3) {
        first
    } else {
        PipelineConfig {
            family: first.family,
            ..config(&mut rng)
        }
    };
    let configs = [first, second];
    let build = |c| PackedPipeline::new(c).expect("valid geometry");
    let mut fast = [build(first), build(second)];
    let build = |c| Pipeline::new(c).expect("valid geometry");
    let mut slow = [build(first), build(second)];
    let mut gen = Gen { rng, configs };
    let mut history = Vec::new();
    for i in 0..steps {
        let on = gen.below(2);
        let step = gen.step(on);
        history.push((on, step.clone()));
        let got = apply(&mut fast, on, &step);
        let want = apply(&mut slow, on, &step);
        assert_eq!(
            got, want,
            "seed {seed:#x}, {configs:?}, step {i}: {history:?}"
        );
        if let Some(diff) = state_mismatch(&fast, &slow) {
            panic!("{diff}\nseed {seed:#x}, {configs:?}, step {i}: {history:?}");
        }
        // A clone starts with no views and must behave the same.
        if gen.chance(40) {
            fast = fast.clone();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_macro_sequences_match_the_reference(seed in 0u64..u64::MAX) {
        run_case(seed, 60, 64);
    }
}

/// Shallow, narrow geometries keep every address in range, so nearly
/// every gather lands and exercises the views; many short cases.
#[test]
fn gathers_over_small_register_files_match_the_reference() {
    for seed in 0..64u64 {
        run_case(seed.wrapping_mul(0xA24B_AED4_963E_E407), 40, 8);
    }
}
