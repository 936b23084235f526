//! The traced replay: requests and Monte-Carlo trials re-run in order
//! through the public calls of each layer, one span per call.
//!
//! A served request is what `ResidentProgram::serve` does, spelled out
//! from public parts so each step can be timed on its own: clone the
//! warmed machine (`darth_sim`), decode and interpret the input stub
//! (`darth_pum` chip), run the compiled body, read the outputs back. A
//! cache miss is `ResidentProgram::for_split` spelled out the same way:
//! decode, tile construction, setup interpretation, body compile. The
//! replay keeps one LRU of residents with the chips' capacity, so a
//! capacity-1 workload rebuilds on every class change as its chips do.
//! A Monte-Carlo trial is one `execute_with_stats` of the job with the
//! trial's noisy tile, derived as `measure_accuracy` derives it.

use std::collections::BTreeMap;

use darth_digital::PackedPipeline;
use darth_eval::dse::DesignPoint;
use darth_eval::mc::{trial_seed, McConfig};
use darth_eval::PointAccuracy;
use darth_pum::chip::CompiledProgram;
use darth_pum::eval::{ExecJob, ExecOutput, Executor, SplitJob};
use darth_serve::{Request, ServeClass};
use darth_sim::{FastExecutor, FastMachine, StatExecutor};

use crate::stats::Tracer;
use crate::workloads::Staged;

/// The class family a class or MC workload name belongs to.
pub fn family(name: &str) -> &'static str {
    ["aes", "gemm", "conv", "reduce"]
        .into_iter()
        .find(|f| name.starts_with(f))
        .unwrap_or("other")
}

fn decode(bytes: &[u8]) -> darth_pum::Result<darth_isa::instruction::Program> {
    darth_isa::encode::decode_program(bytes).map_err(darth_pum::Error::Isa)
}

/// A resident program built from public parts: the warmed machine and
/// the compiled body.
pub struct Resident {
    machine: FastMachine,
    compiled: CompiledProgram<PackedPipeline>,
}

/// Builds the resident form of `split`, one span per step.
///
/// # Errors
///
/// Propagates decode, tile construction and setup errors.
pub fn build<'a>(split: &SplitJob, tr: &mut Tracer<'a>) -> darth_pum::Result<Resident> {
    tr.span("sim.resident_build_us", "", |tr| {
        let (setup, body) = tr.span("isa.decode_us", "", |_| {
            Ok::<_, darth_pum::Error>((decode(&split.setup)?, decode(&split.body)?))
        })?;
        let mut machine = tr.span("sim.machine_new_us", "", |_| {
            FastMachine::new(split.tile.clone())
        })?;
        tr.span("pum.setup_exec_us", "", |_| {
            machine.chip_mut().execute(&setup, &split.data)
        })?;
        let compiled = tr.span("sim.compile_us", "", |_| FastMachine::compile(&body));
        Ok(Resident { machine, compiled })
    })
}

/// Simulated counts of one served request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestCounts {
    /// Input-stub plus body instructions.
    pub instructions: u64,
    /// Body instructions.
    pub body_instructions: u64,
    /// Body `mvm` instructions.
    pub body_mvms: u64,
    /// Body busy cycles.
    pub body_cycles: u64,
}

/// Serves one request of `class` on `resident`, one span per step.
/// The input synthesis is outside the `sim.serve_us` span, as it is
/// outside `ResidentProgram::serve` in the engine.
///
/// # Errors
///
/// Propagates staging, decode and execution errors.
pub fn serve_one<'a>(
    class: &'a ServeClass,
    resident: &Resident,
    input_seed: u64,
    tr: &mut Tracer<'a>,
) -> darth_pum::Result<(Vec<ExecOutput>, RequestCounts)> {
    let tag = class.name();
    let split = class.split();
    let input = tr.span("apps.input_synth_us", tag, |_| {
        class.input_program(input_seed)
    })?;
    tr.span("sim.serve_us", tag, |tr| {
        let mut machine = tr.span("sim.machine_clone_us", tag, |_| resident.machine.clone());
        let stub = tr.span("pum.input_exec_us", tag, |_| {
            machine.chip_mut().execute(&decode(&input)?, &split.data)
        })?;
        let body = tr.span("sim.body_us", tag, |_| {
            machine.run_compiled(&resident.compiled, &split.data)
        })?;
        let outputs = tr.span("sim.readback_us", tag, |_| {
            split
                .readbacks
                .iter()
                .map(|rb| machine.read_output(rb))
                .collect::<darth_pum::Result<Vec<_>>>()
        })?;
        Ok((
            outputs,
            RequestCounts {
                instructions: stub.instructions + body.run.instructions,
                body_instructions: body.run.instructions,
                body_mvms: body.histogram.get("mvm").copied().unwrap_or(0),
                body_cycles: body.busy_cycles.get(),
            },
        ))
    })
}

/// Outcome of a serving replay.
#[derive(Debug, Default)]
pub struct ServeTally {
    /// Requests replayed.
    pub requests: u64,
    /// Requests whose outputs differed from the golden.
    pub mismatches: u64,
    /// Per family: requests and summed counts.
    pub by_family: BTreeMap<&'static str, (u64, RequestCounts)>,
}

/// Replays `trace` in order with an LRU of `capacity` residents, checking
/// every request against its golden (timed as `apps.golden_us`).
///
/// # Errors
///
/// Propagates build, serve and golden errors.
pub fn replay_serve<'a>(
    classes: &'a [ServeClass],
    trace: &[Request],
    capacity: usize,
    tr: &mut Tracer<'a>,
) -> darth_pum::Result<ServeTally> {
    let mut residents: Vec<(usize, Resident)> = Vec::new();
    let mut tally = ServeTally::default();
    for request in trace {
        let class = &classes[request.class];
        let slot = match residents.iter().position(|(c, _)| *c == request.class) {
            Some(slot) => slot,
            None => {
                if residents.len() >= capacity.max(1) {
                    residents.remove(0);
                }
                residents.push((request.class, build(class.split(), tr)?));
                residents.len() - 1
            }
        };
        let entry = residents.remove(slot);
        let (outputs, counts) = serve_one(class, &entry.1, request.input_seed, tr)?;
        residents.push(entry);
        let golden = tr.span("apps.golden_us", class.name(), |_| {
            class.golden(request.input_seed)
        })?;
        tally.requests += 1;
        tally.mismatches += u64::from(outputs != golden);
        let (n, sum) = tally.by_family.entry(family(class.name())).or_default();
        *n += 1;
        sum.instructions += counts.instructions;
        sum.body_instructions += counts.body_instructions;
        sum.body_mvms += counts.body_mvms;
        sum.body_cycles += counts.body_cycles;
    }
    Ok(tally)
}

/// The job of trial `seed` at `point` under `mc`: the tile derivation of
/// `darth_eval::mc::measure_accuracy`.
pub fn trial_job(staged: &Staged, point: &DesignPoint, mc: &McConfig, seed: u64) -> ExecJob {
    let mut job = staged.job.clone();
    let tile = &mut job.tile;
    tile.noisy = true;
    tile.seed = seed;
    tile.program_sigma = mc.program_sigma;
    tile.read_sigma = mc.read_sigma;
    tile.ir_drop_alpha = mc.ir_drop_alpha;
    tile.params.adc_kind = point.config.ace.adc_kind;
    tile.functional_adc_bits = point.config.ace.adc_bits;
    job
}

/// Outcome of a Monte-Carlo replay.
#[derive(Debug, Default)]
pub struct McTally {
    /// Trials replayed (noisy and zero-sigma).
    pub trials: u64,
    /// Trials that disagreed with the engine (noisy exact counts) or the
    /// golden (zero sigma).
    pub failed: u64,
    /// Per family: noisy trials and their summed `mvm` count.
    pub mvms: BTreeMap<&'static str, (u64, u64)>,
}

/// Replays one Monte-Carlo chunk trial by trial: every noisy trial of
/// `mc` (whose per-pair exact-match counts must equal the engine's
/// `expected`), then the same trials at zero sigma (which must match the
/// goldens bit-exactly).
///
/// # Errors
///
/// Propagates execution errors.
pub fn replay_mc<'a>(
    points: &[DesignPoint],
    staged: &'a [Staged],
    mc: &McConfig,
    expected: &[PointAccuracy],
    tr: &mut Tracer<'a>,
) -> darth_pum::Result<McTally> {
    let executor = FastExecutor::new().with_workers(1);
    let zero = McConfig {
        program_sigma: 0.0,
        read_sigma: 0.0,
        ir_drop_alpha: 0.0,
        ..mc.clone()
    };
    let mut tally = McTally::default();
    for (p, point) in points.iter().enumerate() {
        for (w, work) in staged.iter().enumerate() {
            let mut exact = 0;
            for t in 0..mc.trials {
                let seed = trial_seed(mc.root_seed, p, w, t);
                let job = trial_job(work, point, mc, seed);
                let (run, stats) = tr.span("mc.trial_ms", &work.name, |_| {
                    executor.execute_with_stats(&job)
                })?;
                exact += usize::from(run.outputs == work.golden);
                let (n, mvms) = tally.mvms.entry(family(&work.name)).or_default();
                *n += 1;
                *mvms += stats.histogram.get("mvm").copied().unwrap_or(0);

                let job = trial_job(work, point, &zero, seed);
                let run = tr.span("mc.trial_zero_ms", &work.name, |_| executor.execute(&job))?;
                tally.failed += u64::from(run.outputs != work.golden);
                tally.trials += 2;
            }
            let engine_exact = expected[p].workloads[w].exact_trials;
            if exact != engine_exact {
                tally.failed += mc.trials as u64;
            }
        }
    }
    Ok(tally)
}
