//! Whole-chip assembly and ISA interpretation.
//!
//! A [`DarthPumChip`] couples the iso-area sizing of [`ChipParams`] with
//! one or more *functional* hybrid compute tiles and a front-end model. It
//! executes [`darth_isa`] programs instruction by instruction: digital ops
//! dispatch to pipelines, analog ops route through vACores and the
//! arbiter, and coordination ops manage allocation — exactly the §4.2
//! flow. Bulk data (matrices, immediates) is supplied through a
//! [`SideChannel`], mirroring how a host would stage data into the chip's
//! memory before launching a kernel.

use crate::eval::{ExecOutput, Readback};
use crate::front_end::FrontEnd;
use crate::hct::{GenericTile, HctConfig};
use crate::params::ChipParams;
use crate::{Error, Result};
use darth_digital::{BoolOp, DcePipeline, PackedPipeline, Pipeline};
use darth_isa::iiu::ReductionRegs;
use darth_isa::instruction::{Instruction, IsaBoolOp, Program};
use darth_isa::VaCoreId;
use darth_reram::{Cycles, EnergyMeter};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Host-staged bulk data referenced by instruction handles.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SideChannel {
    /// Matrices for `ProgMatrix`, keyed by handle.
    pub matrices: BTreeMap<u16, Vec<Vec<i64>>>,
    /// Row/column vectors for `UpdateRow`/`UpdateCol`, keyed by handle.
    pub vectors: BTreeMap<u16, Vec<i64>>,
}

impl SideChannel {
    /// Creates an empty side channel.
    pub fn new() -> Self {
        SideChannel::default()
    }

    /// Stages a matrix, returning its handle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResourceExhausted`] once handle `u16::MAX` is in
    /// use — the next allocation would wrap the `u16` handle space that
    /// instructions encode.
    pub fn stage_matrix(&mut self, matrix: Vec<Vec<i64>>) -> Result<u16> {
        let handle = Self::next_handle(&self.matrices, "matrix handles")?;
        self.matrices.insert(handle, matrix);
        Ok(handle)
    }

    /// Stages a vector, returning its handle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResourceExhausted`] once handle `u16::MAX` is in
    /// use (see [`SideChannel::stage_matrix`]).
    pub fn stage_vector(&mut self, vector: Vec<i64>) -> Result<u16> {
        let handle = Self::next_handle(&self.vectors, "vector handles")?;
        self.vectors.insert(handle, vector);
        Ok(handle)
    }

    /// One past the highest staged handle, or an error when the `u16`
    /// handle space is exhausted.
    fn next_handle<T>(staged: &BTreeMap<u16, T>, what: &'static str) -> Result<u16> {
        match staged.keys().next_back() {
            None => Ok(0),
            Some(&k) => k.checked_add(1).ok_or(Error::ResourceExhausted(what)),
        }
    }
}

/// Execution statistics of one program run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Instructions executed (including the halting instruction).
    pub instructions: u64,
    /// Analog instructions among them.
    pub analog_instructions: u64,
    /// Front-end issue cycles consumed.
    pub issue_cycles: u64,
}

/// The DARTH-PUM chip, generic over its DCE pipeline implementation.
///
/// [`DarthPumChip`] is the reference chip over cell-accurate
/// [`Pipeline`]s; [`FastChip`] swaps in [`PackedPipeline`]s. All ISA
/// interpretation, accounting and side-channel handling is shared.
#[derive(Debug, Clone)]
pub struct GenericChip<P: DcePipeline> {
    params: ChipParams,
    tile: GenericTile<P>,
    front_end: FrontEnd,
    analog_enabled: bool,
    digital_enabled: bool,
}

/// The reference chip: cell-accurate pipelines.
pub type DarthPumChip = GenericChip<Pipeline>;

/// The fast-path chip: packed bit-plane pipelines.
pub type FastChip = GenericChip<PackedPipeline>;

/// The per-instruction dispatch closure of a [`CompiledProgram`].
type OpThunk<P> = Box<dyn Fn(&mut GenericChip<P>, &SideChannel) -> Result<()> + Send + Sync>;

/// A decoded instruction stream precompiled into a jump table of
/// monomorphic op closures.
///
/// Operand casts, the Boolean-op mapping and the instruction `match` are
/// all paid once at [`GenericChip::compile`] time; repeated
/// [`GenericChip::run_compiled`] runs dispatch straight through the boxed
/// thunks. Run statistics (executed-prefix length, analog count,
/// per-mnemonic histogram) are precomputed too, so a run only pays for
/// the work the instructions actually do.
pub struct CompiledProgram<P: DcePipeline> {
    thunks: Vec<OpThunk<P>>,
    instructions: u64,
    analog_instructions: u64,
    histogram: BTreeMap<&'static str, u64>,
}

impl<P: DcePipeline> CompiledProgram<P> {
    /// Instructions executed per run: the prefix through the first `halt`
    /// (inclusive), or the whole program when there is none.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Analog instructions among [`CompiledProgram::instructions`].
    pub fn analog_instructions(&self) -> u64 {
        self.analog_instructions
    }

    /// Per-mnemonic instruction counts over the executed prefix. Keys are
    /// the interned `&'static str` mnemonics from
    /// [`Instruction::mnemonic`], so copying the histogram into a run's
    /// statistics never clones a key string.
    pub fn histogram(&self) -> &BTreeMap<&'static str, u64> {
        &self.histogram
    }
}

impl<P: DcePipeline> std::fmt::Debug for CompiledProgram<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("thunks", &self.thunks.len())
            .field("instructions", &self.instructions)
            .field("analog_instructions", &self.analog_instructions)
            .finish()
    }
}

impl<P: DcePipeline> GenericChip<P> {
    /// Builds a chip with one functional tile (the architecture replicates
    /// it; throughput scaling is the model layer's job).
    ///
    /// # Errors
    ///
    /// Propagates tile construction errors.
    pub fn new(params: ChipParams, tile_config: HctConfig) -> Result<Self> {
        let tile = GenericTile::new(tile_config)?;
        Ok(GenericChip {
            params,
            tile,
            front_end: FrontEnd::new(),
            analog_enabled: true,
            digital_enabled: true,
        })
    }

    /// Chip-level parameters (iso-area sizing).
    pub fn params(&self) -> &ChipParams {
        &self.params
    }

    /// The functional tile.
    pub fn tile(&self) -> &GenericTile<P> {
        &self.tile
    }

    /// Mutable access to the functional tile (application mappings drive
    /// pipelines directly for digital-only kernels).
    pub fn tile_mut(&mut self) -> &mut GenericTile<P> {
        &mut self.tile
    }

    /// The front-end model.
    pub fn front_end(&self) -> &FrontEnd {
        &self.front_end
    }

    /// Merged energy meter.
    pub fn energy_meter(&self) -> EnergyMeter {
        let mut meter = self.tile.energy_meter();
        meter.add(
            "front_end",
            self.front_end.energy(Cycles::new(self.front_end.issued())),
        );
        meter
    }

    /// Executes a program against the functional tile.
    ///
    /// Returns statistics; results live in the tile's pipelines and can be
    /// read back through [`GenericChip::read_output`].
    ///
    /// # Errors
    ///
    /// Returns the first execution error (bad operands, arbiter conflicts,
    /// missing side-channel data).
    pub fn execute(&mut self, program: &Program, data: &SideChannel) -> Result<RunStats> {
        let mut stats = RunStats::default();
        for inst in program.iter() {
            stats.instructions += 1;
            if inst.is_analog() {
                stats.analog_instructions += 1;
            }
            stats.issue_cycles += self.front_end.issue(1).get();
            match *inst {
                Instruction::Halt => break,
                other => self.execute_one(&other, data)?,
            }
        }
        Ok(stats)
    }

    /// Precompiles `program` into a [`CompiledProgram`] jump table.
    ///
    /// Only the executed prefix (through the first `halt`, inclusive) is
    /// compiled; instructions after a `halt` never run in the interpreter
    /// either. Unknown opcodes compile into thunks that fail exactly as
    /// [`GenericChip::execute`] would.
    pub fn compile(program: &Program) -> CompiledProgram<P> {
        let mut thunks = Vec::with_capacity(program.len());
        let mut instructions = 0u64;
        let mut analog_instructions = 0u64;
        // Count per static mnemonic first (a handful of distinct entries)
        // so the per-instruction loop never allocates key strings.
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for inst in program.iter() {
            instructions += 1;
            if inst.is_analog() {
                analog_instructions += 1;
            }
            let mnemonic = inst.mnemonic();
            match counts.iter_mut().find(|(m, _)| *m == mnemonic) {
                Some((_, n)) => *n += 1,
                None => counts.push((mnemonic, 1)),
            }
            if matches!(inst, Instruction::Halt) {
                break;
            }
            thunks.push(Self::compile_one(inst));
        }
        let histogram = counts.into_iter().collect();
        CompiledProgram {
            thunks,
            instructions,
            analog_instructions,
            histogram,
        }
    }

    /// Runs a [`CompiledProgram`] against the chip.
    ///
    /// Bit-identical to interpreting the same program with
    /// [`GenericChip::execute`]: the thunks call the same tile methods in
    /// the same order, and the front end issues one cycle per executed
    /// instruction either way ([`FrontEnd::issue`] is linear in its
    /// count).
    ///
    /// # Errors
    ///
    /// Returns the first execution error, exactly as the interpreter
    /// would.
    pub fn run_compiled(
        &mut self,
        program: &CompiledProgram<P>,
        data: &SideChannel,
    ) -> Result<RunStats> {
        let issue_cycles = self.front_end.issue(program.instructions).get();
        for thunk in &program.thunks {
            thunk(self, data)?;
        }
        Ok(RunStats {
            instructions: program.instructions,
            analog_instructions: program.analog_instructions,
            issue_cycles,
        })
    }

    /// Reads one output location of a finished run: the leading
    /// `readback.elements` cells of register `readback.vr` in pipeline
    /// `readback.pipe`, decoded as two's complement when
    /// `readback.signed` is set.
    ///
    /// # Errors
    ///
    /// Returns pipeline/register range errors.
    pub fn read_output(&mut self, readback: &Readback) -> Result<ExecOutput> {
        let pipe = self.tile.pipeline_mut(usize::from(readback.pipe))?;
        let vr = usize::from(readback.vr);
        let cells = (0..readback.elements)
            .map(|e| {
                if readback.signed {
                    pipe.read_value_signed(vr, e)
                } else {
                    pipe.read_value(vr, e).map(|v| v as i64)
                }
            })
            .collect::<std::result::Result<_, _>>()?;
        Ok(ExecOutput {
            label: readback.label.clone(),
            cells,
        })
    }

    /// Compiles one instruction into its dispatch thunk, hoisting operand
    /// casts and opcode mapping out of the run loop. Mirrors
    /// [`GenericChip::execute_one`] arm for arm.
    fn compile_one(inst: &Instruction) -> OpThunk<P> {
        match *inst {
            Instruction::Nop | Instruction::FenceAd | Instruction::Halt => Box::new(|_, _| Ok(())),
            Instruction::Bool {
                op,
                pipe,
                dst,
                a,
                b,
            } => {
                let bool_op = match op {
                    IsaBoolOp::Nor => BoolOp::Nor,
                    IsaBoolOp::Or => BoolOp::Or,
                    IsaBoolOp::And => BoolOp::And,
                    IsaBoolOp::Nand => BoolOp::Nand,
                    IsaBoolOp::Xor => BoolOp::Xor,
                    IsaBoolOp::Xnor => BoolOp::Xnor,
                };
                let (pipe, dst, a, b) =
                    (pipe.0 as usize, dst.0 as usize, a.0 as usize, b.0 as usize);
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.bool_op(bool_op, dst, a, b)?;
                    Ok(())
                })
            }
            Instruction::Not { pipe, dst, a } => {
                let (pipe, dst, a) = (pipe.0 as usize, dst.0 as usize, a.0 as usize);
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.not(dst, a)?;
                    Ok(())
                })
            }
            Instruction::Add { pipe, dst, a, b } => {
                let (pipe, dst, a, b) =
                    (pipe.0 as usize, dst.0 as usize, a.0 as usize, b.0 as usize);
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.add(dst, a, b)?;
                    Ok(())
                })
            }
            Instruction::Sub { pipe, dst, a, b } => {
                let (pipe, dst, a, b) =
                    (pipe.0 as usize, dst.0 as usize, a.0 as usize, b.0 as usize);
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.sub(dst, a, b)?;
                    Ok(())
                })
            }
            Instruction::Mul {
                pipe,
                dst,
                a,
                b,
                width,
            } => {
                let (pipe, dst, a, b) =
                    (pipe.0 as usize, dst.0 as usize, a.0 as usize, b.0 as usize);
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.mul(dst, a, b, width)?;
                    Ok(())
                })
            }
            Instruction::CmpLt { pipe, dst, a, b } => {
                let (pipe, dst, a, b) =
                    (pipe.0 as usize, dst.0 as usize, a.0 as usize, b.0 as usize);
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.cmp_lt(dst, a, b)?;
                    Ok(())
                })
            }
            Instruction::Select {
                pipe,
                dst,
                cond,
                a,
                b,
            } => {
                let (pipe, dst, cond, a, b) = (
                    pipe.0 as usize,
                    dst.0 as usize,
                    cond.0 as usize,
                    a.0 as usize,
                    b.0 as usize,
                );
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.select(dst, cond, a, b)?;
                    Ok(())
                })
            }
            Instruction::Relu { pipe, dst, a } => {
                let (pipe, dst, a) = (pipe.0 as usize, dst.0 as usize, a.0 as usize);
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.relu(dst, a)?;
                    Ok(())
                })
            }
            Instruction::ShiftLeft {
                pipe,
                dst,
                src,
                amount,
            } => {
                let (pipe, dst, src, amount) = (
                    pipe.0 as usize,
                    dst.0 as usize,
                    src.0 as usize,
                    amount as usize,
                );
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.shl(dst, src, amount)?;
                    Ok(())
                })
            }
            Instruction::ShiftRight {
                pipe,
                dst,
                src,
                amount,
            } => {
                let (pipe, dst, src, amount) = (
                    pipe.0 as usize,
                    dst.0 as usize,
                    src.0 as usize,
                    amount as usize,
                );
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.shr(dst, src, amount)?;
                    Ok(())
                })
            }
            Instruction::RotateLeft {
                pipe,
                dst,
                src,
                tmp,
                amount,
                width,
            } => {
                let (pipe, dst, src, tmp, amount, width) = (
                    pipe.0 as usize,
                    dst.0 as usize,
                    src.0 as usize,
                    tmp.0 as usize,
                    amount as usize,
                    width as usize,
                );
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile
                        .pipeline_mut(pipe)?
                        .rotate_left(dst, src, tmp, amount, width)?;
                    Ok(())
                })
            }
            Instruction::CopyVr { pipe, dst, src } => {
                let (pipe, dst, src) = (pipe.0 as usize, dst.0 as usize, src.0 as usize);
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.copy_vr(dst, src)?;
                    Ok(())
                })
            }
            Instruction::CopyAcross {
                src_pipe,
                src,
                dst_pipe,
                dst,
            } => {
                let (src_pipe, src, dst_pipe, dst) = (
                    src_pipe.0 as usize,
                    src.0 as usize,
                    dst_pipe.0 as usize,
                    dst.0 as usize,
                );
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    let (dst_p, src_p) = chip.tile.pipeline_pair(dst_pipe, src_pipe)?;
                    dst_p.copy_from(src_p, src, dst)?;
                    Ok(())
                })
            }
            Instruction::ElementLoad {
                pipe,
                addr,
                table_pipe,
                dst,
            } => {
                let (pipe, addr, table_pipe, dst) = (
                    pipe.0 as usize,
                    addr.0 as usize,
                    table_pipe.0 as usize,
                    dst.0 as usize,
                );
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    let (p, table) = chip.tile.pipeline_pair(pipe, table_pipe)?;
                    p.elementwise_load(addr, table, dst)?;
                    Ok(())
                })
            }
            Instruction::PipeReverse { pipe } => {
                let pipe = pipe.0 as usize;
                Box::new(move |chip, _| {
                    chip.require_digital()?;
                    chip.tile.pipeline_mut(pipe)?.reverse();
                    Ok(())
                })
            }
            Instruction::WriteImm {
                pipe,
                vr,
                element,
                value,
            } => {
                let (pipe, vr, element) = (pipe.0 as usize, vr.0 as usize, element as usize);
                Box::new(move |chip, _| {
                    chip.tile
                        .pipeline_mut(pipe)?
                        .write_value(vr, element, value)?;
                    Ok(())
                })
            }
            Instruction::PipeReserve { pipe } => {
                let _ = pipe;
                Box::new(|_, _| Ok(()))
            }
            Instruction::AllocVaCore {
                vacore,
                element_bits,
                bits_per_cell,
                input_bits,
                input_signed,
            } => Box::new(move |chip, _| {
                if !chip.analog_enabled {
                    return Err(Error::DomainDisabled("analog"));
                }
                let allocated = chip.tile.alloc_vacore(
                    element_bits,
                    bits_per_cell,
                    input_bits,
                    input_signed,
                )?;
                if allocated != vacore {
                    return Err(Error::VaCore(format!(
                        "program expected vACore {vacore}, firmware allocated {allocated}"
                    )));
                }
                Ok(())
            }),
            Instruction::FreeVaCore { vacore } => {
                Box::new(move |chip, _| chip.tile.free_vacore(vacore))
            }
            Instruction::ProgMatrix {
                vacore,
                matrix_handle,
            } => Box::new(move |chip, data| {
                if !chip.analog_enabled {
                    return Err(Error::DomainDisabled("analog"));
                }
                let matrix = data
                    .matrices
                    .get(&matrix_handle)
                    .ok_or(Error::UnknownMatrix(matrix_handle as usize))?;
                chip.tile.set_matrix(vacore, matrix)?;
                Ok(())
            }),
            Instruction::UpdateRow {
                vacore,
                row,
                data_handle,
            } => Box::new(move |chip, data| {
                let values = data
                    .vectors
                    .get(&data_handle)
                    .ok_or(Error::UnknownMatrix(data_handle as usize))?;
                chip.tile.update_row(vacore, row as usize, values)?;
                Ok(())
            }),
            Instruction::UpdateCol {
                vacore,
                col,
                data_handle,
            } => Box::new(move |chip, data| {
                let values = data
                    .vectors
                    .get(&data_handle)
                    .ok_or(Error::UnknownMatrix(data_handle as usize))?;
                chip.update_col(vacore, col as usize, values)
            }),
            Instruction::Mvm {
                vacore,
                input_pipe,
                input_vr,
                dst_pipe,
                dst_vr,
                early_levels,
            } => {
                let (input_pipe, input_vr, dst_pipe, dst_vr) = (
                    input_pipe.0 as usize,
                    input_vr.0 as usize,
                    dst_pipe.0 as usize,
                    dst_vr.0 as usize,
                );
                Box::new(move |chip, _| {
                    if !chip.analog_enabled {
                        return Err(Error::DomainDisabled("analog"));
                    }
                    chip.exec_mvm_instruction(
                        vacore,
                        input_pipe,
                        input_vr,
                        dst_pipe,
                        dst_vr,
                        early_levels,
                    )
                })
            }
            Instruction::SetAnalogMode { enabled } => Box::new(move |chip, _| {
                chip.analog_enabled = enabled;
                Ok(())
            }),
            Instruction::SetDigitalMode { enabled } => Box::new(move |chip, _| {
                chip.digital_enabled = enabled;
                Ok(())
            }),
            other => {
                let mnemonic = other.mnemonic();
                Box::new(move |_, _| {
                    Err(Error::InvalidConfig(format!(
                        "instruction `{mnemonic}` is not implemented by this chip model"
                    )))
                })
            }
        }
    }

    fn require_digital(&self) -> Result<()> {
        if !self.digital_enabled {
            return Err(Error::DomainDisabled("digital"));
        }
        Ok(())
    }

    fn execute_one(&mut self, inst: &Instruction, data: &SideChannel) -> Result<()> {
        match *inst {
            Instruction::Nop | Instruction::FenceAd | Instruction::Halt => Ok(()),
            Instruction::Bool {
                op,
                pipe,
                dst,
                a,
                b,
            } => {
                self.require_digital()?;
                let bool_op = match op {
                    IsaBoolOp::Nor => BoolOp::Nor,
                    IsaBoolOp::Or => BoolOp::Or,
                    IsaBoolOp::And => BoolOp::And,
                    IsaBoolOp::Nand => BoolOp::Nand,
                    IsaBoolOp::Xor => BoolOp::Xor,
                    IsaBoolOp::Xnor => BoolOp::Xnor,
                };
                self.tile.pipeline_mut(pipe.0 as usize)?.bool_op(
                    bool_op,
                    dst.0 as usize,
                    a.0 as usize,
                    b.0 as usize,
                )?;
                Ok(())
            }
            Instruction::Not { pipe, dst, a } => {
                self.require_digital()?;
                self.tile
                    .pipeline_mut(pipe.0 as usize)?
                    .not(dst.0 as usize, a.0 as usize)?;
                Ok(())
            }
            Instruction::Add { pipe, dst, a, b } => {
                self.require_digital()?;
                self.tile.pipeline_mut(pipe.0 as usize)?.add(
                    dst.0 as usize,
                    a.0 as usize,
                    b.0 as usize,
                )?;
                Ok(())
            }
            Instruction::Sub { pipe, dst, a, b } => {
                self.require_digital()?;
                self.tile.pipeline_mut(pipe.0 as usize)?.sub(
                    dst.0 as usize,
                    a.0 as usize,
                    b.0 as usize,
                )?;
                Ok(())
            }
            Instruction::Mul {
                pipe,
                dst,
                a,
                b,
                width,
            } => {
                self.require_digital()?;
                self.tile.pipeline_mut(pipe.0 as usize)?.mul(
                    dst.0 as usize,
                    a.0 as usize,
                    b.0 as usize,
                    width,
                )?;
                Ok(())
            }
            Instruction::CmpLt { pipe, dst, a, b } => {
                self.require_digital()?;
                self.tile.pipeline_mut(pipe.0 as usize)?.cmp_lt(
                    dst.0 as usize,
                    a.0 as usize,
                    b.0 as usize,
                )?;
                Ok(())
            }
            Instruction::Select {
                pipe,
                dst,
                cond,
                a,
                b,
            } => {
                self.require_digital()?;
                self.tile.pipeline_mut(pipe.0 as usize)?.select(
                    dst.0 as usize,
                    cond.0 as usize,
                    a.0 as usize,
                    b.0 as usize,
                )?;
                Ok(())
            }
            Instruction::Relu { pipe, dst, a } => {
                self.require_digital()?;
                self.tile
                    .pipeline_mut(pipe.0 as usize)?
                    .relu(dst.0 as usize, a.0 as usize)?;
                Ok(())
            }
            Instruction::ShiftLeft {
                pipe,
                dst,
                src,
                amount,
            } => {
                self.require_digital()?;
                self.tile.pipeline_mut(pipe.0 as usize)?.shl(
                    dst.0 as usize,
                    src.0 as usize,
                    amount as usize,
                )?;
                Ok(())
            }
            Instruction::ShiftRight {
                pipe,
                dst,
                src,
                amount,
            } => {
                self.require_digital()?;
                self.tile.pipeline_mut(pipe.0 as usize)?.shr(
                    dst.0 as usize,
                    src.0 as usize,
                    amount as usize,
                )?;
                Ok(())
            }
            Instruction::RotateLeft {
                pipe,
                dst,
                src,
                tmp,
                amount,
                width,
            } => {
                self.require_digital()?;
                self.tile.pipeline_mut(pipe.0 as usize)?.rotate_left(
                    dst.0 as usize,
                    src.0 as usize,
                    tmp.0 as usize,
                    amount as usize,
                    width as usize,
                )?;
                Ok(())
            }
            Instruction::CopyVr { pipe, dst, src } => {
                self.require_digital()?;
                self.tile
                    .pipeline_mut(pipe.0 as usize)?
                    .copy_vr(dst.0 as usize, src.0 as usize)?;
                Ok(())
            }
            Instruction::CopyAcross {
                src_pipe,
                src,
                dst_pipe,
                dst,
            } => {
                self.require_digital()?;
                let (dst_p, src_p) = self
                    .tile
                    .pipeline_pair(dst_pipe.0 as usize, src_pipe.0 as usize)?;
                dst_p.copy_from(src_p, src.0 as usize, dst.0 as usize)?;
                Ok(())
            }
            Instruction::ElementLoad {
                pipe,
                addr,
                table_pipe,
                dst,
            } => {
                self.require_digital()?;
                let (p, table) = self
                    .tile
                    .pipeline_pair(pipe.0 as usize, table_pipe.0 as usize)?;
                p.elementwise_load(addr.0 as usize, table, dst.0 as usize)?;
                Ok(())
            }
            Instruction::PipeReverse { pipe } => {
                self.require_digital()?;
                self.tile.pipeline_mut(pipe.0 as usize)?.reverse();
                Ok(())
            }
            Instruction::WriteImm {
                pipe,
                vr,
                element,
                value,
            } => {
                self.tile.pipeline_mut(pipe.0 as usize)?.write_value(
                    vr.0 as usize,
                    element as usize,
                    value,
                )?;
                Ok(())
            }
            Instruction::PipeReserve { pipe } => {
                // Marks the pipeline's registers dead for MVM landing; the
                // functional model needs no action beyond arbiter intent.
                let _ = pipe;
                Ok(())
            }
            Instruction::AllocVaCore {
                vacore,
                element_bits,
                bits_per_cell,
                input_bits,
                input_signed,
            } => {
                if !self.analog_enabled {
                    return Err(Error::DomainDisabled("analog"));
                }
                let allocated = self.tile.alloc_vacore(
                    element_bits,
                    bits_per_cell,
                    input_bits,
                    input_signed,
                )?;
                if allocated != vacore {
                    return Err(Error::VaCore(format!(
                        "program expected vACore {vacore}, firmware allocated {allocated}"
                    )));
                }
                Ok(())
            }
            Instruction::FreeVaCore { vacore } => self.tile.free_vacore(vacore),
            Instruction::ProgMatrix {
                vacore,
                matrix_handle,
            } => {
                if !self.analog_enabled {
                    return Err(Error::DomainDisabled("analog"));
                }
                let matrix = data
                    .matrices
                    .get(&matrix_handle)
                    .ok_or(Error::UnknownMatrix(matrix_handle as usize))?;
                self.tile.set_matrix(vacore, matrix)?;
                Ok(())
            }
            Instruction::UpdateRow {
                vacore,
                row,
                data_handle,
            } => {
                let values = data
                    .vectors
                    .get(&data_handle)
                    .ok_or(Error::UnknownMatrix(data_handle as usize))?;
                self.tile.update_row(vacore, row as usize, values)?;
                Ok(())
            }
            Instruction::UpdateCol {
                vacore,
                col,
                data_handle,
            } => {
                // Column updates reprogram one device column per slice.
                let values = data
                    .vectors
                    .get(&data_handle)
                    .ok_or(Error::UnknownMatrix(data_handle as usize))?;
                self.update_col(vacore, col as usize, values)
            }
            Instruction::Mvm {
                vacore,
                input_pipe,
                input_vr,
                dst_pipe,
                dst_vr,
                early_levels,
            } => {
                if !self.analog_enabled {
                    return Err(Error::DomainDisabled("analog"));
                }
                self.exec_mvm_instruction(
                    vacore,
                    input_pipe.0 as usize,
                    input_vr.0 as usize,
                    dst_pipe.0 as usize,
                    dst_vr.0 as usize,
                    early_levels,
                )
            }
            Instruction::SetAnalogMode { enabled } => {
                self.analog_enabled = enabled;
                Ok(())
            }
            Instruction::SetDigitalMode { enabled } => {
                self.digital_enabled = enabled;
                Ok(())
            }
            // `Instruction` is non-exhaustive; future opcodes must fail
            // loudly rather than silently no-op.
            _ => Err(Error::InvalidConfig(format!(
                "instruction `{}` is not implemented by this chip model",
                inst.mnemonic()
            ))),
        }
    }

    fn update_col(&mut self, vacore: VaCoreId, col: usize, values: &[i64]) -> Result<()> {
        // Reuses update_row per affected row (a column touches one device
        // per row; write–verify granularity is per row here).
        let core_rows = self.tile.vacores().get(vacore)?.rows;
        let core_cols = self.tile.vacores().get(vacore)?.cols;
        if col >= core_cols || values.len() != core_rows {
            return Err(Error::Shape(format!(
                "column {col} of length {} does not fit matrix {core_rows}x{core_cols}",
                values.len()
            )));
        }
        for (row, &v) in values.iter().enumerate() {
            // Read-modify-write of the stored row, reconstructing the
            // full-precision values from the per-array weight slices.
            let mut stored: Vec<i64> = {
                let core = self.tile.vacores().get(vacore)?;
                let mut row_vals = vec![0i64; core_cols];
                for (s, &array) in core.arrays.iter().enumerate() {
                    let shift = core.plan().weight_shift(s);
                    let w = self
                        .tile
                        .ace()
                        .crossbar(array)
                        .map_err(Error::Analog)?
                        .weights();
                    for (c, val) in row_vals.iter_mut().enumerate() {
                        *val += w[row][c] << shift;
                    }
                }
                row_vals
            };
            stored[col] = v;
            self.tile.update_row(vacore, row, &stored)?;
        }
        Ok(())
    }

    fn exec_mvm_instruction(
        &mut self,
        vacore: VaCoreId,
        input_pipe: usize,
        input_vr: usize,
        dst_pipe: usize,
        dst_vr: usize,
        early_levels: u16,
    ) -> Result<()> {
        let (rows, terms) = {
            let core = self.tile.vacores().get(vacore)?;
            (core.rows, core.term_count())
        };
        // Read the input vector out of the DCE.
        let input: Vec<i64> = {
            let pipe = self.tile.pipeline_mut(input_pipe)?;
            pipe.read_signed_prefix(input_vr, rows)?
        };
        // Landing convention: parts occupy dst_vr+1.., tmp above them, the
        // accumulator is dst_vr itself.
        let pipe_vrs = self.tile.pipeline(dst_pipe)?.vr_count();
        let needed = dst_vr + terms + 2;
        if needed > pipe_vrs - 1 {
            return Err(Error::Shape(format!(
                "MVM needs registers v{dst_vr}..v{needed} but pipeline has {pipe_vrs} \
                 (last is the zero register)"
            )));
        }
        let regs = ReductionRegs {
            parts: (0..terms)
                .map(|i| darth_isa::Vr((dst_vr + 1 + i) as u8))
                .collect(),
            tmp: darth_isa::Vr((dst_vr + 1 + terms) as u8),
            acc: darth_isa::Vr(dst_vr as u8),
        };
        let early = if early_levels == 0 {
            None
        } else {
            Some(early_levels)
        };
        self.tile.exec_mvm(vacore, &input, dst_pipe, &regs, early)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_isa::asm::assemble;

    fn chip() -> DarthPumChip {
        DarthPumChip::new(ChipParams::default(), HctConfig::small_test()).expect("valid")
    }

    #[test]
    fn execute_digital_program() {
        let mut c = chip();
        let program = assemble(
            "wimm p0 v0 0 25\n\
             wimm p0 v1 0 17\n\
             add p0 v2 v0 v1\n\
             xor p0 v3 v0 v1\n\
             halt\n",
        )
        .expect("parses");
        let stats = c.execute(&program, &SideChannel::new()).expect("runs");
        assert_eq!(stats.instructions, 5);
        assert_eq!(stats.analog_instructions, 0);
        let pipe = c.tile_mut().pipeline_mut(0).expect("exists");
        assert_eq!(pipe.read_value(2, 0).expect("in range"), 42);
        assert_eq!(pipe.read_value(3, 0).expect("in range"), 25 ^ 17);
    }

    #[test]
    fn read_output_decodes_unsigned_and_signed_cells() {
        let mut c = chip();
        let program =
            assemble("wimm p0 v0 0 5\nwimm p0 v0 1 3\nsub p0 v1 v1 v0\nhalt\n").expect("parses");
        c.execute(&program, &SideChannel::new()).expect("runs");
        let readback = |vr, signed| Readback {
            label: "out".into(),
            pipe: 0,
            vr,
            elements: 2,
            signed,
        };
        let unsigned = c.read_output(&readback(0, false)).expect("reads");
        assert_eq!(unsigned.label, "out");
        assert_eq!(unsigned.cells, vec![5, 3]);
        // 0 - x wraps at the pipeline depth; the signed decode recovers -x.
        let signed = c.read_output(&readback(1, true)).expect("reads");
        assert_eq!(signed.cells, vec![-5, -3]);
        let raw = c.read_output(&readback(1, false)).expect("reads");
        assert!(raw.cells.iter().all(|&v| v > 0));
        let mut bad = readback(0, false);
        bad.pipe = u16::MAX;
        assert!(c.read_output(&bad).is_err());
    }

    #[test]
    fn execute_hybrid_mvm_program() {
        let mut c = chip();
        let mut data = SideChannel::new();
        let handle = data
            .stage_matrix(vec![vec![5, 9], vec![8, 7]])
            .expect("stages");
        let program = assemble(&format!(
            "valloc ac0 4 4 3 0\n\
             progm ac0 {handle}\n\
             wimm p0 v0 0 2\n\
             wimm p0 v0 1 7\n\
             mvm ac0 p0 v0 p1 v4 0\n\
             halt\n"
        ))
        .expect("parses");
        let stats = c.execute(&program, &data).expect("runs");
        assert_eq!(stats.analog_instructions, 2); // progm + mvm
        let pipe = c.tile_mut().pipeline_mut(1).expect("exists");
        assert_eq!(pipe.read_value(4, 0).expect("in range"), 66);
        assert_eq!(pipe.read_value(4, 1).expect("in range"), 67);
    }

    #[test]
    fn halt_stops_execution() {
        let mut c = chip();
        let program = assemble("halt\nwimm p0 v0 0 9\n").expect("parses");
        c.execute(&program, &SideChannel::new()).expect("runs");
        let pipe = c.tile_mut().pipeline_mut(0).expect("exists");
        assert_eq!(pipe.read_value(0, 0).expect("in range"), 0);
    }

    #[test]
    fn disabled_analog_mode_rejects_mvm() {
        let mut c = chip();
        let program = assemble("amode 0\nvalloc ac0 4 2 3 0\n").expect("parses");
        let err = c.execute(&program, &SideChannel::new()).unwrap_err();
        assert!(matches!(err, Error::DomainDisabled("analog")));
    }

    #[test]
    fn disabled_digital_mode_rejects_vector_ops() {
        let mut c = chip();
        let program = assemble("dmode 0\nadd p0 v2 v0 v1\n").expect("parses");
        let err = c.execute(&program, &SideChannel::new()).unwrap_err();
        assert!(matches!(err, Error::DomainDisabled("digital")));
    }

    #[test]
    fn missing_matrix_handle_errors() {
        let mut c = chip();
        let program = assemble("valloc ac0 4 2 3 0\nprogm ac0 99\n").expect("parses");
        let err = c.execute(&program, &SideChannel::new()).unwrap_err();
        assert!(matches!(err, Error::UnknownMatrix(99)));
    }

    #[test]
    fn update_col_through_isa() {
        let mut c = chip();
        let mut data = SideChannel::new();
        let mh = data
            .stage_matrix(vec![vec![1, 2], vec![3, 4]])
            .expect("stages");
        let vh = data.stage_vector(vec![9, 9]).expect("stages");
        let program = assemble(&format!(
            "valloc ac0 4 4 2 0\n\
             progm ac0 {mh}\n\
             updcol ac0 1 {vh}\n\
             wimm p0 v0 0 1\n\
             wimm p0 v0 1 1\n\
             mvm ac0 p0 v0 p1 v4 0\n\
             halt\n"
        ))
        .expect("parses");
        c.execute(&program, &data).expect("runs");
        let pipe = c.tile_mut().pipeline_mut(1).expect("exists");
        assert_eq!(pipe.read_value(4, 0).expect("in range"), 4); // 1 + 3
        assert_eq!(pipe.read_value(4, 1).expect("in range"), 18); // 9 + 9
    }

    #[test]
    fn compiled_program_matches_interpreter() {
        let mut data = SideChannel::new();
        let handle = data
            .stage_matrix(vec![vec![5, 9], vec![8, 7]])
            .expect("stages");
        let program = assemble(&format!(
            "valloc ac0 4 4 3 0\n\
             progm ac0 {handle}\n\
             wimm p0 v0 0 2\n\
             wimm p0 v0 1 7\n\
             mvm ac0 p0 v0 p1 v4 0\n\
             add p1 v5 v4 v4\n\
             halt\n\
             wimm p0 v9 0 1\n"
        ))
        .expect("parses");
        let mut interpreted = chip();
        let interp_stats = interpreted.execute(&program, &data).expect("runs");
        let mut compiled_chip = chip();
        let compiled = DarthPumChip::compile(&program);
        assert_eq!(compiled.instructions(), 7, "prefix stops at halt");
        assert_eq!(compiled.histogram()["halt"], 1);
        let compiled_stats = compiled_chip.run_compiled(&compiled, &data).expect("runs");
        assert_eq!(interp_stats, compiled_stats);
        for (vr, e) in [(4usize, 0usize), (4, 1), (5, 0), (5, 1), (9, 0)] {
            let a = interpreted
                .tile_mut()
                .pipeline_mut(1)
                .expect("exists")
                .read_value(vr, e)
                .expect("in range");
            let b = compiled_chip
                .tile_mut()
                .pipeline_mut(1)
                .expect("exists")
                .read_value(vr, e)
                .expect("in range");
            assert_eq!(a, b, "v{vr}[{e}]");
        }
        assert_eq!(
            interpreted.front_end().issued(),
            compiled_chip.front_end().issued(),
            "issue accounting must match for identical energy"
        );
    }

    #[test]
    fn fast_chip_matches_reference_on_hybrid_program() {
        let mut data = SideChannel::new();
        let handle = data
            .stage_matrix(vec![vec![5, 9], vec![8, 7]])
            .expect("stages");
        let program = assemble(&format!(
            "valloc ac0 4 4 3 0\n\
             progm ac0 {handle}\n\
             wimm p0 v0 0 2\n\
             wimm p0 v0 1 7\n\
             mvm ac0 p0 v0 p1 v4 0\n\
             xor p1 v5 v4 v4\n\
             add p1 v6 v4 v4\n\
             halt\n"
        ))
        .expect("parses");
        let mut reference = chip();
        let ref_stats = reference.execute(&program, &data).expect("runs");
        let mut fast =
            FastChip::new(ChipParams::default(), HctConfig::small_test()).expect("valid");
        let compiled = FastChip::compile(&program);
        let fast_stats = fast.run_compiled(&compiled, &data).expect("runs");
        assert_eq!(ref_stats, fast_stats);
        for vr in [4usize, 5, 6] {
            for e in 0..2 {
                let a = reference
                    .tile_mut()
                    .pipeline_mut(1)
                    .expect("exists")
                    .read_value(vr, e)
                    .expect("in range");
                let b = fast
                    .tile_mut()
                    .pipeline_mut(1)
                    .expect("exists")
                    .read_value(vr, e)
                    .expect("in range");
                assert_eq!(a, b, "v{vr}[{e}]");
            }
        }
        // Primitive accounting (and therefore energy) matches too.
        assert_eq!(
            reference
                .tile()
                .pipeline(1)
                .expect("exists")
                .primitives_executed(),
            fast.tile()
                .pipeline(1)
                .expect("exists")
                .primitives_executed()
        );
    }

    #[test]
    fn side_channel_handles_increment() {
        let mut data = SideChannel::new();
        let a = data.stage_matrix(vec![vec![1]]).expect("stages");
        let b = data.stage_matrix(vec![vec![2]]).expect("stages");
        assert_ne!(a, b);
        let v1 = data.stage_vector(vec![1]).expect("stages");
        let v2 = data.stage_vector(vec![2]).expect("stages");
        assert_ne!(v1, v2);
    }

    #[test]
    fn side_channel_handle_exhaustion_is_an_error() {
        let mut data = SideChannel::new();
        // Occupy the top of the u16 handle space directly; the next
        // allocation has nowhere to go and must not wrap to 0.
        data.matrices.insert(u16::MAX, vec![vec![1]]);
        let err = data.stage_matrix(vec![vec![2]]).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted("matrix handles")));
        data.vectors.insert(u16::MAX, vec![1]);
        let err = data.stage_vector(vec![2]).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted("vector handles")));
        // Allocation below the ceiling still works (no off-by-one).
        let mut low = SideChannel::new();
        low.matrices.insert(u16::MAX - 1, vec![vec![1]]);
        assert_eq!(low.stage_matrix(vec![vec![2]]).expect("stages"), u16::MAX);
    }
}
