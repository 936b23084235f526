//! The functional simulator: ISA programs in, output cells out.
//!
//! [`Machine`] owns one [`GenericChip`] and drives the full §4.2
//! execution flow: digital ops dispatch to the DCE pipelines, analog ops
//! route through vACores, the shift units and the A/D arbiter, and the
//! IIU replays each MVM's reduction — all over bit-accurate memory
//! state. It is generic over the DCE pipeline, so one type serves both
//! the reference [`SimMachine`] (cell-accurate [`Pipeline`]s,
//! interpreted) and the fast [`FastMachine`] (packed bit-planes,
//! precompiled). On top of the chip's own accounting every run reports
//! a per-mnemonic histogram of what it executed ([`SimStats`]).

use crate::fast::PrepWork;
use darth_digital::{DcePipeline, PackedPipeline, Pipeline};
use darth_isa::instruction::Program;
use darth_pum::chip::{CompiledProgram, GenericChip, RunStats, SideChannel};
use darth_pum::eval::{ExecJob, ExecOutput, ExecRun, Executor, Readback};
use darth_pum::hct::HctConfig;
use darth_pum::params::ChipParams;
use darth_reram::{Cycles, PicoJoules};
use serde::{Deserialize, Serialize};
use std::any::TypeId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`FastMachine::new`] tile constructions.
///
/// Clones are deliberately *not* counted: the whole point of the
/// prototype caches is that stamping a machine out of a warm prototype
/// skips tile construction, and tests pin that by watching this counter
/// stand still. Reference [`SimMachine`]s never count.
static CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Statistics of **one** simulator run: every field covers exactly that
/// run, so `histogram` values sum to `run.instructions` and
/// `busy_cycles`/`energy` are the run's own deltas even when several
/// programs execute on the same machine.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Chip-level run statistics (instructions, analog share, issue).
    pub run: RunStats,
    /// Instructions this run executed, by mnemonic. Keys are the interned
    /// `&'static str` mnemonics from
    /// [`darth_isa::instruction::Instruction::mnemonic`], so merging and
    /// comparing histograms never clones key strings.
    pub histogram: BTreeMap<&'static str, u64>,
    /// Tile busy cycles this run added.
    pub busy_cycles: Cycles,
    /// Tile energy this run added.
    pub energy: PicoJoules,
}

/// A functional DARTH-PUM machine over DCE pipelines `P`.
///
/// `Clone` copies the full machine state; a clone of a freshly built
/// machine is indistinguishable from calling [`Machine::new`] again with
/// the same config (construction is deterministic, RNG seed included),
/// which is what lets the fast executor and the resident-program cache
/// stamp out per-job machines from a prototype instead of rebuilding the
/// tile each time.
#[derive(Debug, Clone)]
pub struct Machine<P: DcePipeline> {
    chip: GenericChip<P>,
}

/// The reference machine: cell-accurate pipelines, interpreted.
pub type SimMachine = Machine<Pipeline>;

/// The fast machine: packed bit-plane pipelines, precompiled dispatch.
pub type FastMachine = Machine<PackedPipeline>;

impl<P: DcePipeline + 'static> Machine<P> {
    /// Builds a machine around one functional tile. Packed-pipeline
    /// builds count towards [`FastMachine::constructions`] and this
    /// thread's [`PrepWork`].
    ///
    /// # Errors
    ///
    /// Propagates tile construction errors.
    pub fn new(tile: HctConfig) -> darth_pum::Result<Self> {
        if TypeId::of::<P>() == TypeId::of::<PackedPipeline>() {
            CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
            PrepWork::record(1, 0);
        }
        Ok(Machine {
            chip: GenericChip::new(ChipParams::default(), tile)?,
        })
    }
}

impl<P: DcePipeline> Machine<P> {
    /// The underlying chip (state inspection).
    pub fn chip(&self) -> &GenericChip<P> {
        &self.chip
    }

    /// Mutable chip access (host staging between runs).
    pub fn chip_mut(&mut self) -> &mut GenericChip<P> {
        &mut self.chip
    }

    /// Interprets a decoded program.
    ///
    /// # Errors
    ///
    /// Returns the first execution error (bad operands, arbiter
    /// conflicts, missing side-channel data).
    pub fn run(&mut self, program: &Program, data: &SideChannel) -> darth_pum::Result<SimStats> {
        let (run, busy_cycles, energy) = self.measured(|chip| chip.execute(program, data))?;
        // `execute` stops at the first Halt; count exactly the executed
        // prefix into the mnemonic histogram.
        let mut histogram = BTreeMap::new();
        for inst in program.iter().take(run.instructions as usize) {
            *histogram.entry(inst.mnemonic()).or_insert(0) += 1;
        }
        Ok(SimStats {
            run,
            histogram,
            busy_cycles,
            energy,
        })
    }

    /// Precompiles a decoded program into this machine's jump table.
    pub fn compile(program: &Program) -> CompiledProgram<P> {
        GenericChip::compile(program)
    }

    /// Executes a precompiled program, reporting the same per-run
    /// statistics as [`Machine::run`] — the executed prefix's mnemonic
    /// histogram is precomputed by the compiler, so a run only clones it.
    ///
    /// # Errors
    ///
    /// Returns the first execution error.
    pub fn run_compiled(
        &mut self,
        program: &CompiledProgram<P>,
        data: &SideChannel,
    ) -> darth_pum::Result<SimStats> {
        let (run, busy_cycles, energy) = self.measured(|chip| chip.run_compiled(program, data))?;
        Ok(SimStats {
            run,
            histogram: program.histogram().clone(),
            busy_cycles,
            energy,
        })
    }

    /// Reads one output location from the finished machine.
    ///
    /// # Errors
    ///
    /// Returns pipeline/register range errors.
    pub fn read_output(&mut self, readback: &Readback) -> darth_pum::Result<ExecOutput> {
        self.chip.read_output(readback)
    }

    /// Completes a job run: reads `job`'s outputs back and pairs them with
    /// the run's statistics — the one result shape both executors return.
    pub(crate) fn finish_job(
        &mut self,
        job: &ExecJob,
        stats: SimStats,
    ) -> darth_pum::Result<(ExecRun, SimStats)> {
        let outputs = job
            .readbacks
            .iter()
            .map(|rb| self.read_output(rb))
            .collect::<darth_pum::Result<_>>()?;
        Ok((
            ExecRun {
                outputs,
                instructions: stats.run.instructions,
                analog_instructions: stats.run.analog_instructions,
            },
            stats,
        ))
    }

    /// Runs `run` on the chip, returning its result together with the
    /// tile busy cycles and energy it added.
    pub(crate) fn measured<T>(
        &mut self,
        run: impl FnOnce(&mut GenericChip<P>) -> darth_pum::Result<T>,
    ) -> darth_pum::Result<(T, Cycles, PicoJoules)> {
        let busy_before = self.chip.tile().busy_cycles();
        let energy_before = self.chip.energy_meter().total();
        let out = run(&mut self.chip)?;
        Ok((
            out,
            self.chip.tile().busy_cycles().saturating_sub(busy_before),
            self.chip.energy_meter().total() - energy_before,
        ))
    }
}

impl FastMachine {
    /// Process-wide count of tile constructions via [`FastMachine::new`].
    /// Clones of an existing machine do **not** count — that is the
    /// invariant the prototype caches exist to exploit, and what
    /// construction-count regression tests pin.
    pub fn constructions() -> u64 {
        CONSTRUCTIONS.load(Ordering::Relaxed)
    }
}

/// An [`Executor`] that also reports full simulator statistics — the
/// contract the executor-pair differential mode
/// ([`crate::diff::DiffHarness::verify_pair`]) compares on: outputs plus
/// instructions, analog share, issue cycles, per-mnemonic histogram,
/// busy cycles and energy.
pub trait StatExecutor: Executor {
    /// Executes `job`, returning outputs and the run's [`SimStats`].
    ///
    /// # Errors
    ///
    /// As [`Executor::execute`].
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)>;
}

/// The reference [`Executor`]: decode the job, build a fresh
/// [`SimMachine`], interpret. The fast path is checked against it.
#[derive(Debug, Default)]
pub struct SimExecutor;

impl SimExecutor {
    /// A fresh executor.
    pub fn new() -> Self {
        SimExecutor
    }
}

impl Executor for SimExecutor {
    fn name(&self) -> String {
        "darth-sim".into()
    }

    fn label(&self) -> String {
        "DARTH-PUM functional simulator".into()
    }

    fn execute(&self, job: &ExecJob) -> darth_pum::Result<ExecRun> {
        self.execute_with_stats(job).map(|(run, _)| run)
    }
}

impl StatExecutor for SimExecutor {
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)> {
        let program = job.decoded_program()?;
        let mut machine = SimMachine::new(job.tile.clone())?;
        let stats = machine.run(&program, &job.data)?;
        machine.finish_job(job, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_isa::asm::assemble;

    fn machine() -> SimMachine {
        SimMachine::new(HctConfig::small_test()).expect("builds")
    }

    #[test]
    fn runs_an_encoded_digital_program() {
        let encoded = darth_isa::encode::encode_program(
            &assemble(
                "wimm p0 v0 0 25\n\
             wimm p0 v1 0 17\n\
             add p0 v2 v0 v1\n\
             halt\n",
            )
            .expect("assembles"),
        );
        let program = darth_isa::encode::decode_program(&encoded).expect("decodes");
        let mut m = machine();
        let stats = m.run(&program, &SideChannel::new()).expect("runs");
        assert_eq!(stats.run.instructions, 4);
        assert_eq!(stats.histogram.get("wimm"), Some(&2));
        assert_eq!(stats.histogram.get("add"), Some(&1));
        assert_eq!(stats.histogram.get("halt"), Some(&1));
        assert!(stats.energy > PicoJoules::ZERO);
        let out = m
            .read_output(&Readback {
                label: "sum".into(),
                pipe: 0,
                vr: 2,
                elements: 1,
                signed: false,
            })
            .expect("reads");
        assert_eq!(out.cells, vec![42]);
    }

    #[test]
    fn stats_are_per_run_while_the_machine_aggregates() {
        let first =
            assemble("wimm p0 v0 0 1\nwimm p0 v1 0 2\nadd p0 v2 v0 v1\nhalt\n").expect("assembles");
        let second = assemble("xor p0 v3 v0 v1\nhalt\n").expect("assembles");
        let mut m = machine();
        let s1 = m.run(&first, &SideChannel::new()).expect("runs");
        let s2 = m.run(&second, &SideChannel::new()).expect("runs");
        // Each report covers exactly its own run…
        assert_eq!(s2.run.instructions, 2);
        assert_eq!(s2.histogram.values().sum::<u64>(), s2.run.instructions);
        assert!(!s2.histogram.contains_key("wimm"));
        assert!(s2.energy > PicoJoules::ZERO);
        assert!(s1.energy > PicoJoules::ZERO);
        // …while the chip's meters keep the lifetime aggregate.
        assert_eq!(
            m.chip().tile().busy_cycles(),
            s1.busy_cycles + s2.busy_cycles
        );
        assert_eq!(
            m.chip().front_end().issued(),
            s1.run.issue_cycles + s2.run.issue_cycles
        );
    }

    #[test]
    fn histogram_counts_only_the_executed_prefix() {
        let program = assemble("nop\nhalt\nwimm p0 v0 0 9\n").expect("assembles");
        let stats = machine().run(&program, &SideChannel::new()).expect("runs");
        assert_eq!(stats.run.instructions, 2);
        assert!(!stats.histogram.contains_key("wimm"));
    }

    #[test]
    fn interpreted_and_compiled_runs_report_identical_stats() {
        let program = assemble("wimm p0 v0 0 7\nwimm p0 v1 0 5\nsub p0 v2 v0 v1\nhalt\nnop\n")
            .expect("parses");
        let mut interpreted = machine();
        let mut compiled = machine();
        let a = interpreted
            .run(&program, &SideChannel::new())
            .expect("runs");
        let b = compiled
            .run_compiled(&SimMachine::compile(&program), &SideChannel::new())
            .expect("runs");
        assert_eq!(a, b);
    }

    #[test]
    fn reference_machines_do_not_count_as_fast_constructions() {
        let before = PrepWork::on_this_thread();
        machine();
        assert_eq!(PrepWork::on_this_thread(), before);
        FastMachine::new(HctConfig::small_test()).expect("builds");
        assert_eq!(PrepWork::on_this_thread().since(before).constructions, 1);
    }

    #[test]
    fn executor_runs_a_hybrid_job_end_to_end() {
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
        .expect("assembles");
        let job = ExecJob {
            name: "figure9".into(),
            tile: HctConfig::small_test(),
            program: darth_isa::encode::encode_program(&program),
            data,
            readbacks: vec![Readback {
                label: "result".into(),
                pipe: 1,
                vr: 4,
                elements: 2,
                signed: true,
            }],
        };
        let run = SimExecutor::new().execute(&job).expect("executes");
        assert_eq!(run.outputs[0].cells, vec![66, 67]);
        assert_eq!(run.analog_instructions, 2);
        assert_eq!(run.instructions, 6);
    }
}
