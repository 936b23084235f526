//! Packed bit-plane storage: 64 pipeline elements per `u64` word.
//!
//! The cell-accurate [`Pipeline`](crate::pipeline::Pipeline) stores every
//! bit in its own simulated ReRAM device and replays each OSCAR
//! decomposition pulse by pulse — ideal for validating the architecture,
//! hopeless for running thousands of AES blocks. This module is the fast
//! path: a [`PackedPipeline`] keeps each bit-plane *column* (one bit
//! position of one vector register, across all elements) as a
//! [`PackedBits`] row of `u64` words, so a Boolean macro evaluates 64
//! cells per host bitwise instruction instead of one.
//!
//! The fast path is only trustworthy because it is *observationally
//! identical* to the reference: every method mirrors the reference
//! pipeline's argument checks (same error variants, same check order),
//! charges the same [`MacroOp`] cost into the same [`PipelineTimer`], and
//! books the same number of native primitives (so energy reports match to
//! the picojoule). Scratch columns are not modelled — they are
//! unobservable through the pipeline API — but the primitives their gate
//! decompositions would execute are still counted. The differential suite
//! in `darth_sim` (`fast_vs_reference`) and the macro-sequence
//! differential test in `crates/digital/tests/packed_differential.rs`
//! pin this equivalence.

use crate::dce::DcePipeline;
use crate::logic::BoolOp;
use crate::macros::MacroOp;
use crate::pipeline::PipelineConfig;
use crate::timing::{MacroCost, PipelineTimer};
use crate::transpose::{planes_to_values, values_to_planes, BLOCK};
use crate::{Error, Result};
use darth_reram::{Cycles, PicoJoules};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A row of bits packed 64-per-`u64`, with unused tail bits held at zero.
///
/// The tail-mask invariant (bits at index `>= len` are zero in the last
/// word) lets whole-word Boolean operations stand in for per-bit ones:
/// complementing ops re-apply the mask so garbage never leaks into the
/// tail and later whole-word comparisons/popcounts stay exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedBits {
    len: usize,
    words: Vec<u64>,
}

impl PackedBits {
    /// An all-zero row of `len` bits.
    pub fn new(len: usize) -> Self {
        PackedBits {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Packs a bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut row = PackedBits::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                row.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        row
    }

    /// Unpacks into a bool vector.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Number of bits in the row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mask valid in the final word; `u64::MAX` when `len` is a multiple
    /// of 64.
    fn tail_mask(&self) -> u64 {
        match self.len % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        }
    }

    /// Re-establishes the tail-mask invariant after a complementing op.
    fn mask_tail(&mut self) {
        let mask = self.tail_mask();
        if let Some(last) = self.words.last_mut() {
            *last &= mask;
        }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1u64 << b;
        } else {
            self.words[w] &= !(1u64 << b);
        }
    }

    /// Sets every bit to `value`.
    pub fn fill(&mut self, value: bool) {
        let word = if value { u64::MAX } else { 0 };
        self.words.fill(word);
        self.mask_tail();
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// `self & other`, word-wise.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch (callers operate on same-geometry rows).
    pub fn and(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| a & b, false)
    }

    /// `self | other`, word-wise.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn or(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| a | b, false)
    }

    /// `self ^ other`, word-wise.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn xor(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| a ^ b, false)
    }

    /// `!(self | other)`, word-wise with the tail re-masked.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn nor(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| !(a | b), true)
    }

    /// `!(self & other)`, word-wise with the tail re-masked.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn nand(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| !(a & b), true)
    }

    /// `!(self ^ other)`, word-wise with the tail re-masked.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn xnor(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| !(a ^ b), true)
    }

    /// `!self`, word-wise with the tail re-masked.
    pub fn not(&self) -> PackedBits {
        let mut out = PackedBits {
            len: self.len,
            words: self.words.iter().map(|&w| !w).collect(),
        };
        out.mask_tail();
        out
    }

    /// Evaluates `op` over two rows.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn bool_op(&self, op: BoolOp, other: &PackedBits) -> PackedBits {
        match op {
            BoolOp::Nor => self.nor(other),
            BoolOp::Or => self.or(other),
            BoolOp::And => self.and(other),
            BoolOp::Nand => self.nand(other),
            BoolOp::Xor => self.xor(other),
            BoolOp::Xnor => self.xnor(other),
        }
    }

    /// The row shifted `k` positions toward higher indices (bit `i` moves
    /// to `i + k`; vacated low bits are zero, bits pushed past `len` drop).
    pub fn shl(&self, k: usize) -> PackedBits {
        let mut out = PackedBits::new(self.len);
        if k >= self.len {
            return out;
        }
        let (word_shift, bit_shift) = (k / 64, k % 64);
        for i in (0..out.words.len()).rev() {
            let mut w = if i >= word_shift {
                self.words[i - word_shift] << bit_shift
            } else {
                0
            };
            if bit_shift != 0 && i > word_shift {
                w |= self.words[i - word_shift - 1] >> (64 - bit_shift);
            }
            out.words[i] = w;
        }
        out.mask_tail();
        out
    }

    /// The row shifted `k` positions toward lower indices (bit `i` moves
    /// to `i - k`; vacated high bits are zero).
    pub fn shr(&self, k: usize) -> PackedBits {
        let mut out = PackedBits::new(self.len);
        if k >= self.len {
            return out;
        }
        let (word_shift, bit_shift) = (k / 64, k % 64);
        let n = self.words.len();
        for i in 0..n {
            let mut w = if i + word_shift < n {
                self.words[i + word_shift] >> bit_shift
            } else {
                0
            };
            if bit_shift != 0 && i + word_shift + 1 < n {
                w |= self.words[i + word_shift + 1] << (64 - bit_shift);
            }
            out.words[i] = w;
        }
        out
    }

    /// Evaluates `op` on one pair of packed words. The caller re-masks the
    /// tail (via [`PackedBits::set_word`]) for the complementing ops.
    fn word_op(op: BoolOp, a: u64, b: u64) -> u64 {
        match op {
            BoolOp::Nor => !(a | b),
            BoolOp::Or => a | b,
            BoolOp::And => a & b,
            BoolOp::Nand => !(a & b),
            BoolOp::Xor => a ^ b,
            BoolOp::Xnor => !(a ^ b),
        }
    }

    fn zip_words(
        &self,
        other: &PackedBits,
        f: impl Fn(u64, u64) -> u64,
        remask: bool,
    ) -> PackedBits {
        assert_eq!(
            self.len, other.len,
            "packed row length mismatch ({} vs {})",
            self.len, other.len
        );
        let mut out = PackedBits {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        };
        if remask {
            out.mask_tail();
        }
        out
    }
}

/// Division by a fixed divisor without a hardware divide, which would
/// otherwise dominate a gather's address split. A multiply by the
/// rounded-down reciprocal `⌊(2^64 − 1) / d⌋` undershoots the quotient
/// by less than one, so it is the quotient or one less, and one
/// branch-free correction makes it exact for every `u64`.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u64,
    recip: u64,
}

impl Divisor {
    fn new(d: u64) -> Self {
        Divisor {
            d,
            recip: u64::MAX / d,
        }
    }

    /// `(a / d, a % d)`.
    #[inline]
    fn div_rem(self, a: u64) -> (u64, u64) {
        let q = ((u128::from(a) * u128::from(self.recip)) >> 64) as u64;
        let r = a - q * self.d;
        let fix = u64::from(r >= self.d);
        (q + fix, r - fix * self.d)
    }
}

// Scratch-free fast path: the reference pipeline's scratch columns are
// unobservable through the API, so the packed model books their primitive
// counts without materialising them.

/// A bit-pipeline functionally identical to the reference
/// [`Pipeline`](crate::pipeline::Pipeline), with each bit-plane column
/// packed into `u64` words.
///
/// Bit planes live in one flat `u64` buffer, vr-major: the row for bit
/// position `plane` of vector register `vr` (its `elements` bits, 64 per
/// word) starts at `(vr * depth + plane) * nw`. One contiguous
/// allocation makes construction and cloning a single memcpy — the batch
/// executor stamps out thousands of per-job machines — and keeps a
/// register's planes adjacent for the word-sweep macros. Macro
/// semantics, argument validation, timing charges and primitive
/// accounting all mirror the reference implementation exactly; see the
/// module docs for the equivalence contract.
///
/// Element-wise loads read registers as values, not planes. Each
/// register's value view is built on first use by a gather (as the
/// address register or as a table register) and kept until the register
/// is written: every write takes its destination row from
/// `PackedPipeline::write_row`, which drops that register's view, and
/// `reverse` drops them all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedPipeline {
    config: PipelineConfig,
    /// Words per packed row: `elements.div_ceil(64)`.
    nw: usize,
    words: Vec<u64>,
    primitives: u64,
    timer: PipelineTimer,
    views: ViewCache,
}

/// Per-register value views for gathers: `elements` values each, built
/// lazily through `&self` (a table arrives shared), hence the
/// `OnceLock`s. The slot array itself is allocated on the first gather.
///
/// The cache is invisible: it compares equal to any other cache, and a
/// clone starts empty, so cloning a machine that never gathered
/// allocates nothing for views.
#[derive(Debug, Default)]
struct ViewCache(OnceLock<Box<[View]>>);

/// One register's value view, once built.
type View = OnceLock<Box<[u64]>>;

impl Clone for ViewCache {
    fn clone(&self) -> Self {
        ViewCache::default()
    }
}

impl PartialEq for ViewCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl PackedPipeline {
    /// Creates an erased packed pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for unusable geometry.
    pub fn new(config: PipelineConfig) -> Result<Self> {
        config.validate()?;
        let nw = config.elements.div_ceil(64);
        Ok(PackedPipeline {
            config,
            nw,
            words: vec![0; config.vr_count * config.depth * nw],
            primitives: 0,
            timer: PipelineTimer::new(config.depth as u64),
            views: ViewCache::default(),
        })
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    fn check_vr(&self, vr: usize) -> Result<()> {
        if vr >= self.config.vr_count {
            return Err(Error::InvalidVectorRegister {
                vr,
                count: self.config.vr_count,
            });
        }
        Ok(())
    }

    fn check_elem(&self, element: usize) -> Result<()> {
        if element >= self.config.elements {
            return Err(Error::InvalidElement {
                element,
                count: self.config.elements,
            });
        }
        Ok(())
    }

    fn charge(&mut self, op: MacroOp) {
        self.charge_n(op, 1);
    }

    /// Books `n` issues of `op` at once (per-element I/O).
    fn charge_n(&mut self, op: MacroOp, n: usize) {
        let cost = op.cost(
            self.config.family,
            self.config.depth as u64,
            self.config.elements as u64,
        );
        self.timer.issue_n(cost, n as u64);
    }

    /// Books the primitives a macro's gate decomposition executes on the
    /// reference pipeline (scratch sub-operations included).
    fn book(&mut self, primitives: u64) {
        self.primitives += primitives;
    }

    fn value_mask(&self) -> u64 {
        if self.config.depth == 64 {
            u64::MAX
        } else {
            (1u64 << self.config.depth) - 1
        }
    }

    /// Start of the flat row holding bit `plane` of register `vr`.
    #[inline]
    fn row(&self, vr: usize, plane: usize) -> usize {
        (vr * self.config.depth + plane) * self.nw
    }

    /// Start of register `vr`'s plane block, for writing it. This is the
    /// view cache's one invalidation point: every write to a register
    /// takes its row from here, which drops the register's value view.
    #[inline]
    fn write_row(&mut self, vr: usize) -> usize {
        if let Some(slots) = self.views.0.get_mut() {
            slots[vr].take();
        }
        self.row(vr, 0)
    }

    /// Register `vr` as `elements` values, built on first use and reused
    /// until the register is written.
    fn view(&self, vr: usize) -> &[u64] {
        let slots = self
            .views
            .0
            .get_or_init(|| (0..self.config.vr_count).map(|_| OnceLock::new()).collect());
        slots[vr].get_or_init(|| {
            let mut values = vec![0; self.config.elements];
            self.load_values(vr, &mut values);
            values.into()
        })
    }

    /// The first `out.len()` values of register `vr`, one transposed
    /// word block at a time.
    fn load_values(&self, vr: usize, out: &mut [u64]) {
        let (depth, nw, r0) = (self.config.depth, self.nw, self.row(vr, 0));
        for (wi, chunk) in out.chunks_mut(BLOCK).enumerate() {
            let mut planes = [0u64; BLOCK];
            for (i, p) in planes[..depth].iter_mut().enumerate() {
                *p = self.words[r0 + i * nw + wi];
            }
            planes_to_values(planes, depth, chunk);
        }
    }

    /// Writes `values` (each within the depth) into the first
    /// `values.len()` elements of `vr`; later elements keep their bits.
    fn store_values(&mut self, vr: usize, values: &[u64]) {
        let (depth, nw, r0) = (self.config.depth, self.nw, self.write_row(vr));
        for (wi, chunk) in values.chunks(BLOCK).enumerate() {
            let planes = values_to_planes(chunk, depth);
            let covered = u64::MAX >> (BLOCK - chunk.len());
            for (i, &p) in planes[..depth].iter().enumerate() {
                let slot = &mut self.words[r0 + i * nw + wi];
                *slot = (*slot & !covered) | p;
            }
        }
    }

    /// Mask valid in word `wi` of a row (`u64::MAX` except a short tail).
    #[inline]
    fn wmask(&self, wi: usize) -> u64 {
        if wi + 1 == self.nw {
            match self.config.elements % 64 {
                0 => u64::MAX,
                r => (1u64 << r) - 1,
            }
        } else {
            u64::MAX
        }
    }

    /// Reads element `e` of `vr` by gathering one bit per plane.
    fn gather(&self, vr: usize, element: usize) -> u64 {
        let (w, b) = (element / 64, element % 64);
        let base = self.row(vr, 0) + w;
        let mut value = 0u64;
        for i in 0..self.config.depth {
            value |= (self.words[base + i * self.nw] >> b & 1) << i;
        }
        value
    }

    /// Scatters `value` into element `e` of `vr`, one bit per plane.
    /// `element` is in range, so the tail invariant holds by itself.
    fn scatter(&mut self, vr: usize, element: usize, value: u64) {
        let (w, b) = (element / 64, element % 64);
        let bit = 1u64 << b;
        let base = self.write_row(vr) + w;
        for i in 0..self.config.depth {
            let slot = &mut self.words[base + i * self.nw];
            if value >> i & 1 == 1 {
                *slot |= bit;
            } else {
                *slot &= !bit;
            }
        }
    }

    /// The full-adder wave shared by `add` and `sub`, over packed planes.
    /// Runs word-by-word in place (no per-plane allocations); `dst` may
    /// alias either input because a plane's operand words are read before
    /// its sum word is written, matching the reference where input devices
    /// are sensed before the output switches. `invert_b` complements the
    /// addend on the fly (the `sub` path's NOT wave). Books the same
    /// 17 (OSCAR) / 5 (ideal) primitives per plane as the reference gate
    /// decomposition.
    fn ripple_add(&mut self, dst: usize, a: usize, b: usize, invert_b: bool, carry_in: bool) {
        let per_plane = MacroOp::Add.primitives_per_stage(self.config.family);
        let nw = self.nw;
        let mut carry = vec![0u64; nw];
        if carry_in {
            // Seed every element's carry bit, tail kept zero.
            for (wi, c) in carry.iter_mut().enumerate() {
                *c = self.wmask(wi);
            }
        }
        let (ra, rb, rd) = (self.row(a, 0), self.row(b, 0), self.write_row(dst));
        for p in 0..self.config.depth {
            let off = p * nw;
            for (wi, c) in carry.iter_mut().enumerate() {
                let wa = self.words[ra + off + wi];
                let wb0 = self.words[rb + off + wi];
                // An inverted tail leaks 1s past the element count; every
                // product below is re-masked by a zero-tail operand or by
                // the explicit sum mask.
                let wb = if invert_b { !wb0 } else { wb0 };
                let x1 = wa ^ wb;
                let sum = x1 ^ *c;
                *c = (wa & wb) | (x1 & *c);
                self.words[rd + off + wi] = sum & self.wmask(wi);
            }
            self.primitives += per_plane;
        }
    }
}

impl DcePipeline for PackedPipeline {
    fn new(config: PipelineConfig) -> Result<Self> {
        PackedPipeline::new(config)
    }

    fn config(&self) -> &PipelineConfig {
        &self.config
    }

    fn write_value(&mut self, vr: usize, element: usize, value: u64) -> Result<()> {
        self.check_vr(vr)?;
        self.check_elem(element)?;
        if value & !self.value_mask() != 0 {
            return Err(Error::ValueTooWide {
                value,
                depth: self.config.depth,
            });
        }
        self.scatter(vr, element, value);
        self.charge(MacroOp::WriteElement);
        Ok(())
    }

    fn read_value(&mut self, vr: usize, element: usize) -> Result<u64> {
        self.check_vr(vr)?;
        self.check_elem(element)?;
        let value = self.gather(vr, element);
        self.charge(MacroOp::ReadElement);
        Ok(value)
    }

    fn write_vector(&mut self, vr: usize, values: &[u64]) -> Result<()> {
        if values.len() > self.config.elements {
            return Err(Error::InvalidElement {
                element: values.len(),
                count: self.config.elements,
            });
        }
        if values.is_empty() {
            return Ok(());
        }
        self.check_vr(vr)?;
        let mask = self.value_mask();
        if values.iter().any(|&v| v & !mask != 0) {
            // Rare: replay the scalar loop so the partial writes (and the
            // charges) before the offending value match the default.
            for (e, &v) in values.iter().enumerate() {
                self.write_value(vr, e, v)?;
            }
            return Ok(());
        }
        self.store_values(vr, values);
        self.charge_n(MacroOp::WriteElement, values.len());
        Ok(())
    }

    fn read_vector(&mut self, vr: usize) -> Result<Vec<u64>> {
        self.check_vr(vr)?;
        let mut out = vec![0u64; self.config.elements];
        self.load_values(vr, &mut out);
        self.charge_n(MacroOp::ReadElement, out.len());
        Ok(out)
    }

    fn read_signed_prefix(&mut self, vr: usize, count: usize) -> Result<Vec<i64>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        if count > self.config.elements {
            // Rare: the scalar loop reproduces the per-element error (and
            // the charges issued before it) exactly.
            return (0..count).map(|e| self.read_value_signed(vr, e)).collect();
        }
        self.check_vr(vr)?;
        let depth = self.config.depth;
        let mut out = vec![0u64; count];
        self.load_values(vr, &mut out);
        let signed = out
            .into_iter()
            .map(|raw| {
                if depth < 64 && raw & (1u64 << (depth - 1)) != 0 {
                    (raw as i64) - (1i64 << depth)
                } else {
                    raw as i64
                }
            })
            .collect();
        self.charge_n(MacroOp::ReadElement, count);
        Ok(signed)
    }

    fn peek_value(&self, vr: usize, element: usize) -> u64 {
        self.gather(vr, element)
    }

    fn bool_op(&mut self, op: BoolOp, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        let per_plane = self.config.family.primitives_for(op);
        let nw = self.nw;
        let (ra, rb, rd) = (self.row(a, 0), self.row(b, 0), self.write_row(dst));
        for p in 0..self.config.depth {
            let off = p * nw;
            for wi in 0..nw {
                let w =
                    PackedBits::word_op(op, self.words[ra + off + wi], self.words[rb + off + wi]);
                // Complementing ops set tail 1s; the mask restores the
                // zero-tail invariant.
                self.words[rd + off + wi] = w & self.wmask(wi);
            }
        }
        self.book(per_plane * self.config.depth as u64);
        self.charge(MacroOp::Bool(op));
        Ok(())
    }

    fn not(&mut self, dst: usize, a: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        let nw = self.nw;
        let (ra, rd) = (self.row(a, 0), self.write_row(dst));
        for p in 0..self.config.depth {
            let off = p * nw;
            for wi in 0..nw {
                self.words[rd + off + wi] = !self.words[ra + off + wi] & self.wmask(wi);
            }
        }
        self.book(self.config.depth as u64);
        self.charge(MacroOp::Not);
        Ok(())
    }

    fn add(&mut self, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        self.ripple_add(dst, a, b, false, false);
        self.charge(MacroOp::Add);
        Ok(())
    }

    fn sub(&mut self, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        // NOT b (one primitive per plane on the reference), folded into
        // the adder wave, then add with carry-in 1.
        self.book(self.config.depth as u64);
        self.ripple_add(dst, a, b, true, true);
        self.charge(MacroOp::Sub);
        Ok(())
    }

    fn cmp_lt(&mut self, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        // Unsigned compare as a packed borrow sweep, LSB to MSB:
        // lt = (!a & b) | (!(a ^ b) & lt). Both products are masked by a
        // zero-tail operand, so `lt` keeps the invariant without remasking.
        let nw = self.nw;
        let mut lt = vec![0u64; nw];
        let (ra, rb) = (self.row(a, 0), self.row(b, 0));
        for p in 0..self.config.depth {
            let off = p * nw;
            for (wi, l) in lt.iter_mut().enumerate() {
                let wa = self.words[ra + off + wi];
                let wb = self.words[rb + off + wi];
                *l = (!wa & wb) | (!(wa ^ wb) & *l);
            }
        }
        // The reference writes the mask value into every plane of dst.
        let rd = self.write_row(dst);
        for p in 0..self.config.depth {
            let off = p * nw;
            for (wi, &l) in lt.iter().enumerate() {
                self.words[rd + off + wi] = l;
            }
        }
        self.charge(MacroOp::CmpLt);
        Ok(())
    }

    fn select(&mut self, dst: usize, cond: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(cond)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        // Per plane on the reference: AND + NOT + AND + OR. The inverted
        // condition's tail 1s are masked away by the zero-tail operands.
        let family = self.config.family;
        let per_plane = family.primitives_for(BoolOp::And) * 2
            + family.primitives_for(BoolOp::Nor)
            + family.primitives_for(BoolOp::Or);
        let nw = self.nw;
        let (rc, ra, rb, rd) = (
            self.row(cond, 0),
            self.row(a, 0),
            self.row(b, 0),
            self.write_row(dst),
        );
        for p in 0..self.config.depth {
            let off = p * nw;
            for wi in 0..nw {
                let c = self.words[rc + off + wi];
                let w = (c & self.words[ra + off + wi]) | (!c & self.words[rb + off + wi]);
                self.words[rd + off + wi] = w;
            }
        }
        self.book(per_plane * self.config.depth as u64);
        self.charge(MacroOp::Select);
        Ok(())
    }

    fn relu(&mut self, dst: usize, a: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        // mask = NOT sign, computed once in the top plane (1 primitive),
        // then broadcast + AND in every plane. Planes run bottom-up, so
        // the sign plane is read before the final iteration can overwrite
        // it when `dst` aliases `a`.
        let per_plane = self.config.family.primitives_for(BoolOp::And);
        let nw = self.nw;
        let (ra, rd) = (self.row(a, 0), self.write_row(dst));
        let sign_off = (self.config.depth - 1) * nw;
        for p in 0..self.config.depth {
            let off = p * nw;
            for wi in 0..nw {
                let s = self.words[ra + sign_off + wi];
                let w = !s & self.words[ra + off + wi];
                self.words[rd + off + wi] = w;
            }
        }
        self.book(1 + per_plane * self.config.depth as u64);
        self.charge(MacroOp::Relu);
        Ok(())
    }

    fn mul(&mut self, dst: usize, a: usize, b: usize, width: u8) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        // Value-level on the reference too; no primitives booked.
        let mask = self.value_mask();
        let mut product = vec![0u64; self.config.elements];
        let mut factor = vec![0u64; self.config.elements];
        self.load_values(a, &mut product);
        self.load_values(b, &mut factor);
        for (p, &f) in product.iter_mut().zip(&factor) {
            *p = p.wrapping_mul(f) & mask;
        }
        self.store_values(dst, &product);
        self.charge(MacroOp::Mul(width));
        Ok(())
    }

    fn copy_vr(&mut self, dst: usize, src: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(src)?;
        let n = self.config.depth * self.nw;
        let (rs, rd) = (self.row(src, 0), self.write_row(dst));
        self.words.copy_within(rs..rs + n, rd);
        // Boolean identity (OR(a,a)): one primitive per plane.
        self.book(self.config.depth as u64);
        self.charge(MacroOp::CopyVr);
        Ok(())
    }

    fn copy_from(&mut self, other: &Self, src_vr: usize, dst_vr: usize) -> Result<()> {
        if other.config.depth != self.config.depth || other.config.elements != self.config.elements
        {
            return Err(Error::GeometryMismatch(
                "inter-pipeline copy requires identical depth and elements",
            ));
        }
        other.check_vr(src_vr)?;
        self.check_vr(dst_vr)?;
        // Same depth and elements, so both sides share `nw` and one
        // register is one contiguous block on each side.
        let n = self.config.depth * self.nw;
        let rs = other.row(src_vr, 0);
        let rd = self.write_row(dst_vr);
        self.words[rd..rd + n].copy_from_slice(&other.words[rs..rs + n]);
        self.charge(MacroOp::CopyAcross);
        Ok(())
    }

    fn shl(&mut self, dst: usize, src: usize, k: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(src)?;
        if k > self.config.depth {
            return Err(Error::ShiftTooFar {
                amount: k,
                depth: self.config.depth,
            });
        }
        // Plane block i..depth of dst receives block 0..depth-k of src;
        // `copy_within` is a memmove, so a `dst == src` overlap behaves
        // as if staged through a temporary — the same result the
        // reference's descending plane loop produces.
        let nw = self.nw;
        let depth = self.config.depth;
        let (rs, rd) = (self.row(src, 0), self.write_row(dst));
        if k < depth {
            let n = (depth - k) * nw;
            self.words.copy_within(rs..rs + n, rd + k * nw);
        }
        self.words[rd..rd + k.min(depth) * nw].fill(0);
        self.charge(MacroOp::ShiftBits(k as u8));
        Ok(())
    }

    fn shr(&mut self, dst: usize, src: usize, k: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(src)?;
        if k > self.config.depth {
            return Err(Error::ShiftTooFar {
                amount: k,
                depth: self.config.depth,
            });
        }
        let nw = self.nw;
        let depth = self.config.depth;
        let (rs, rd) = (self.row(src, 0), self.write_row(dst));
        if k < depth {
            let n = (depth - k) * nw;
            self.words.copy_within(rs + k * nw..rs + k * nw + n, rd);
        }
        self.words[rd + depth.saturating_sub(k) * nw..rd + depth * nw].fill(0);
        self.charge(MacroOp::ShiftBits(k as u8));
        Ok(())
    }

    fn rotate_left(
        &mut self,
        dst: usize,
        src: usize,
        tmp: usize,
        k: usize,
        width: usize,
    ) -> Result<()> {
        if width > self.config.depth || width == 0 {
            return Err(Error::ShiftTooFar {
                amount: width,
                depth: self.config.depth,
            });
        }
        if k >= width {
            return Err(Error::ShiftTooFar {
                amount: k,
                depth: width,
            });
        }
        if k == 0 {
            return self.copy_vr(dst, src);
        }
        self.shl(tmp, src, k)?;
        self.shr(dst, src, width - k)?;
        self.bool_op(BoolOp::Or, dst, dst, tmp)?;
        let rd = self.write_row(dst);
        self.words[rd + width * self.nw..rd + self.config.depth * self.nw].fill(0);
        Ok(())
    }

    fn reverse(&mut self) {
        // Every register changes, so every view goes.
        self.views.0.take();
        // Swap plane p with plane depth-1-p inside every register block.
        let depth = self.config.depth;
        let nw = self.nw;
        for vr in 0..self.config.vr_count {
            for p in 0..depth / 2 {
                let (lo, hi) = (self.row(vr, p), self.row(vr, depth - 1 - p));
                for wi in 0..nw {
                    self.words.swap(lo + wi, hi + wi);
                }
            }
        }
        self.charge(MacroOp::Reverse);
    }

    fn elementwise_load(&mut self, addr_vr: usize, table: &Self, dst_vr: usize) -> Result<()> {
        if table.config.depth != self.config.depth {
            return Err(Error::GeometryMismatch(
                "element-wise load requires identical pipeline depth",
            ));
        }
        self.check_vr(addr_vr)?;
        self.check_vr(dst_vr)?;
        let elements = self.config.elements;
        let t_elems = table.config.elements;
        let capacity = (table.config.vr_count * t_elems) as u64;
        // Addresses and table entries come from value views, so a gather
        // is one indexed load per element plus one transpose per block
        // into the destination planes.
        let addrs = self.view(addr_vr);
        // Validate addresses up front (ascending, like the scalar loop).
        let bad = addrs.iter().position(|&a| a >= capacity);
        let limit = bad.unwrap_or(elements);
        let rows = Divisor::new(t_elems as u64);
        let values: Vec<u64> = addrs[..limit]
            .iter()
            .map(|&a| {
                let (tvr, trow) = rows.div_rem(a);
                table.view(tvr as usize)[trow as usize]
            })
            .collect();
        let address = bad.map(|e| addrs[e]);
        // On a bad address the elements before it have landed, as in the
        // scalar loop; otherwise every element is replaced.
        self.store_values(dst_vr, &values);
        if let Some(address) = address {
            return Err(Error::AddressOutOfRange {
                address,
                count: table.config.vr_count * t_elems,
            });
        }
        self.charge(MacroOp::ElementLoad);
        Ok(())
    }

    fn primitives_executed(&self) -> u64 {
        self.primitives
    }

    fn energy(&self) -> PicoJoules {
        PicoJoules::new(self.primitives as f64 * self.config.family.energy_per_primitive_pj())
    }

    fn elapsed(&self) -> Cycles {
        self.timer.elapsed()
    }

    fn reset_timer(&mut self) -> Cycles {
        let old = std::mem::replace(
            &mut self.timer,
            PipelineTimer::new(self.config.depth as u64),
        );
        old.finish()
    }

    fn charge_external(&mut self, cost: MacroCost) {
        self.timer.issue(cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::LogicFamily;
    use crate::pipeline::Pipeline;

    fn config(depth: usize, elements: usize) -> PipelineConfig {
        PipelineConfig {
            depth,
            elements,
            vr_count: 10,
            scratch_cols: 8,
            family: LogicFamily::Oscar,
        }
    }

    #[test]
    fn packed_bits_round_trips_odd_lengths() {
        for len in [1usize, 63, 64, 65, 127, 128, 192] {
            let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let row = PackedBits::from_bools(&bits);
            assert_eq!(row.to_bools(), bits, "len {len}");
        }
    }

    #[test]
    fn packed_not_keeps_tail_zero() {
        let row = PackedBits::new(70);
        let inverted = row.not();
        assert_eq!(inverted.to_bools(), vec![true; 70]);
        // Tail bits of the final word stay zero.
        assert_eq!(inverted.words()[1] >> 6, 0);
    }

    #[test]
    fn packed_shifts_match_index_semantics() {
        let bits: Vec<bool> = (0..100).map(|i| i % 7 == 0).collect();
        let row = PackedBits::from_bools(&bits);
        for k in [0usize, 1, 63, 64, 65, 99, 100, 150] {
            let shl = row.shl(k);
            let shr = row.shr(k);
            for i in 0..100 {
                let expect_l = i >= k && bits[i - k];
                let expect_r = i + k < 100 && bits[i + k];
                assert_eq!(shl.get(i), expect_l, "shl k={k} i={i}");
                assert_eq!(shr.get(i), expect_r, "shr k={k} i={i}");
            }
        }
    }

    #[test]
    fn packed_pipeline_matches_reference_on_arithmetic() {
        let cfg = config(16, 8);
        let mut fast = PackedPipeline::new(cfg).expect("builds");
        let mut slow = Pipeline::new(cfg).expect("builds");
        let a = [0u64, 1, 255, 1000, 65535, 32768, 42, 9999];
        let b = [0u64, 1, 1, 24, 1, 32768, 58, 1];
        for e in 0..8 {
            DcePipeline::write_value(&mut fast, 0, e, a[e]).expect("writes");
            DcePipeline::write_value(&mut fast, 1, e, b[e]).expect("writes");
            slow.write_value(0, e, a[e]).expect("writes");
            slow.write_value(1, e, b[e]).expect("writes");
        }
        DcePipeline::add(&mut fast, 2, 0, 1).expect("adds");
        slow.add(2, 0, 1).expect("adds");
        DcePipeline::sub(&mut fast, 3, 0, 1).expect("subs");
        slow.sub(3, 0, 1).expect("subs");
        DcePipeline::cmp_lt(&mut fast, 4, 0, 1).expect("compares");
        slow.cmp_lt(4, 0, 1).expect("compares");
        for vr in 2..5 {
            for e in 0..8 {
                assert_eq!(
                    fast.peek_value(vr, e),
                    slow.peek_value(vr, e),
                    "vr {vr} e {e}"
                );
            }
        }
        assert_eq!(
            DcePipeline::primitives_executed(&fast),
            slow.primitives_executed()
        );
        assert_eq!(DcePipeline::elapsed(&fast), slow.elapsed());
    }

    #[test]
    fn elementwise_load_matches_reference() {
        // 100 elements span a full and a partial word. Addresses mix
        // runs of repeats (a zero tail among them) with distinct ones,
        // and an out-of-range address mid-register must leave the same
        // partially loaded destination as the scalar loop.
        let cfg = config(16, 100);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        let mut fast_table = PackedPipeline::new(cfg).expect("builds");
        let mut slow_table = Pipeline::new(cfg).expect("builds");
        for vr in 0..cfg.vr_count {
            for e in 0..cfg.elements {
                let v = next() & 0xFFFF;
                DcePipeline::write_value(&mut fast_table, vr, e, v).expect("writes");
                slow_table.write_value(vr, e, v).expect("writes");
            }
        }
        let capacity = (cfg.vr_count * cfg.elements) as u64;
        for (case, bad) in [(0, None), (1, None), (2, Some(37)), (3, Some(0))] {
            let mut fast = PackedPipeline::new(cfg).expect("builds");
            let mut slow = Pipeline::new(cfg).expect("builds");
            for e in 0..cfg.elements {
                let address = match e {
                    _ if Some(e) == bad => capacity + e as u64,
                    0..=15 => next() % capacity,
                    16..=30 => 5,
                    31..=79 if case % 2 == 0 => next() % capacity,
                    _ => 0,
                };
                let stale = next() & 0xFFFF;
                for (vr, v) in [(0, address), (1, stale)] {
                    DcePipeline::write_value(&mut fast, vr, e, v).expect("writes");
                    slow.write_value(vr, e, v).expect("writes");
                }
            }
            let dst = if case == 1 { 0 } else { 1 };
            let got = DcePipeline::elementwise_load(&mut fast, 0, &fast_table, dst);
            let want = slow.elementwise_load(0, &slow_table, dst);
            assert_eq!(got, want, "case {case}");
            for e in 0..cfg.elements {
                assert_eq!(
                    fast.peek_value(dst, e),
                    slow.peek_value(dst, e),
                    "case {case} e {e}"
                );
            }
            assert_eq!(DcePipeline::elapsed(&fast), slow.elapsed(), "case {case}");
        }
    }

    #[test]
    fn divisor_matches_hardware_division() {
        let edges = [0u64, 1, 2, 63, 64, 65, 1 << 32, u64::MAX - 1, u64::MAX];
        for d in (1..=300u64).chain([1 << 20, (1 << 32) + 1, u64::MAX / 3, u64::MAX]) {
            let div = Divisor::new(d);
            let near = [
                d - 1,
                d,
                d.saturating_add(1),
                d.saturating_mul(2),
                d.saturating_mul(3) - 1,
            ];
            for a in (0..2000u64).chain(edges).chain(near) {
                assert_eq!(div.div_rem(a), (a / d, a % d), "{a} / {d}");
            }
        }
    }

    #[test]
    fn aliasing_add_matches_reference() {
        let cfg = config(8, 8);
        let mut fast = PackedPipeline::new(cfg).expect("builds");
        for e in 0..8 {
            DcePipeline::write_value(&mut fast, 0, e, 10).expect("writes");
            DcePipeline::write_value(&mut fast, 1, e, 32).expect("writes");
        }
        DcePipeline::add(&mut fast, 0, 0, 1).expect("adds");
        assert_eq!(fast.peek_value(0, 0), 42);
    }
}
