//! The fast-path acceptance gate: [`FastExecutor`] must be **fully
//! equivalent** to the reference [`SimExecutor`] — bit-identical output
//! cells *and* identical statistics (instruction counts, per-mnemonic
//! histograms, busy cycles, energy) — on the complete standard registry
//! and on a scaled bulk-AES workload.
//!
//! `make sim-verify` runs this file in release mode with the bulk block
//! count raised to 1000+ (`DARTH_SIM_BULK_BLOCKS`); under plain
//! `cargo test` (debug) the count drops so the reference interpreter
//! stays within budget. Negative controls prove the pair harness can
//! actually fail, on corrupted outputs and on corrupted statistics.

use darth_sim::{bulk_aes_cases, DiffHarness, FastExecutor, SimExecutor, SimStats, StatExecutor};

use darth_isa::asm::assemble;
use darth_isa::encode::encode_program;
use darth_pum::chip::SideChannel;
use darth_pum::eval::{ExecJob, ExecRun, Executor, Readback};
use darth_pum::hct::HctConfig;
use darth_pum::Error;

/// Bulk-AES block count: env override, else scaled to the build profile
/// (the reference interpreter is the bottleneck in debug builds).
fn bulk_blocks() -> usize {
    if let Ok(raw) = std::env::var("DARTH_SIM_BULK_BLOCKS") {
        return raw
            .trim()
            .parse()
            .expect("DARTH_SIM_BULK_BLOCKS must be a positive integer");
    }
    if cfg!(debug_assertions) {
        16
    } else {
        1000
    }
}

#[test]
fn fast_executor_is_equivalent_on_the_full_standard_registry() {
    let report = DiffHarness::standard()
        .verify_pair(&SimExecutor::new(), &FastExecutor::new())
        .expect("pair harness runs");
    assert_eq!(report.reference, "darth-sim");
    assert_eq!(report.candidate, "darth-sim-fast");
    assert_eq!(
        report.cases.len(),
        7,
        "registry shrank:\n{}",
        report.summary()
    );
    assert!(
        report.all_exact(),
        "fast path diverged from the reference:\n{}\n{:#?}",
        report.summary(),
        report
            .cases
            .iter()
            .filter(|c| !c.is_exact())
            .collect::<Vec<_>>()
    );
    // Statistics comparison must have real content: every case executed
    // instructions and produced a non-empty histogram on both sides.
    for case in &report.cases {
        assert!(case.reference_stats.run.instructions > 0, "{}", case.name);
        assert!(!case.reference_stats.histogram.is_empty(), "{}", case.name);
        assert_eq!(case.reference_stats, case.candidate_stats, "{}", case.name);
    }
}

#[test]
fn fast_executor_matches_the_golden_models_directly() {
    // Not just reference-equivalent: the fast path must also match the
    // golden software references on its own.
    let report = DiffHarness::standard()
        .with_executor(FastExecutor::new())
        .verify()
        .expect("harness runs");
    assert_eq!(report.executor, "darth-sim-fast");
    assert!(
        report.all_exact(),
        "fast path diverged from golden:\n{}",
        report.summary()
    );
}

#[test]
fn bulk_aes_blocks_are_equivalent_at_scale() {
    let blocks = bulk_blocks();
    let mut harness = DiffHarness::new();
    for case in bulk_aes_cases(blocks) {
        harness = harness.with_case(case);
    }
    let report = harness
        .verify_pair(&SimExecutor::new(), &FastExecutor::new())
        .expect("pair harness runs");
    assert_eq!(report.cases.len(), blocks);
    // 16 ciphertext bytes per block, all compared.
    assert_eq!(report.total_cells(), blocks * 16);
    assert!(
        report.all_exact(),
        "bulk AES diverged ({blocks} blocks):\n{}",
        report.summary()
    );
}

/// A deliberately broken fast path: outputs with one cell flipped.
struct CorruptedOutputs(FastExecutor);

impl Executor for CorruptedOutputs {
    fn name(&self) -> String {
        "corrupted-outputs".into()
    }
    fn execute(&self, job: &ExecJob) -> darth_pum::Result<ExecRun> {
        self.0.execute(job)
    }
}

impl StatExecutor for CorruptedOutputs {
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)> {
        let (mut run, stats) = self.0.execute_with_stats(job)?;
        run.outputs[0].cells[0] ^= 0x1;
        Ok((run, stats))
    }
}

/// A fast path that computes the right cells but misreports what it
/// executed: the histogram drops one op.
struct CorruptedStats(FastExecutor);

impl Executor for CorruptedStats {
    fn name(&self) -> String {
        "corrupted-stats".into()
    }
    fn execute(&self, job: &ExecJob) -> darth_pum::Result<ExecRun> {
        self.0.execute(job)
    }
}

impl StatExecutor for CorruptedStats {
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)> {
        let (run, mut stats) = self.0.execute_with_stats(job)?;
        let key = *stats
            .histogram
            .keys()
            .next()
            .expect("ran at least one instruction");
        stats.histogram.remove(key);
        Ok((run, stats))
    }
}

#[test]
fn a_corrupted_fast_path_is_caught() {
    let mut harness = DiffHarness::new();
    for case in bulk_aes_cases(1) {
        harness = harness.with_case(case);
    }

    // Flipped output cell: cells mismatch even though stats agree.
    let report = harness
        .verify_pair(&SimExecutor::new(), &CorruptedOutputs(FastExecutor::new()))
        .expect("pair harness runs");
    assert!(!report.all_exact());
    assert_eq!(report.cases[0].mismatches.len(), 1);
    assert!(report.cases[0].stats_match);
    assert!(report.summary().contains("MISMATCHED"));

    // Dropped histogram entry: outputs agree but stats diverge.
    let report = harness
        .verify_pair(&SimExecutor::new(), &CorruptedStats(FastExecutor::new()))
        .expect("pair harness runs");
    assert!(!report.all_exact());
    assert!(report.cases[0].mismatches.is_empty());
    assert!(!report.cases[0].stats_match);
    assert!(report.summary().contains("STATS DIVERGED"));
}

/// A job on the small test tile (4 pipelines, 32 registers) with raw
/// `program` bytes and one readback of pipe 0, register 0.
fn raw_job(name: &str, program: Vec<u8>) -> ExecJob {
    ExecJob {
        name: name.into(),
        tile: HctConfig::small_test(),
        program,
        data: SideChannel::new(),
        readbacks: vec![Readback {
            label: "out".into(),
            pipe: 0,
            vr: 0,
            elements: 1,
            signed: false,
        }],
    }
}

fn asm(source: &str) -> Vec<u8> {
    encode_program(&assemble(source).expect("assembles"))
}

#[test]
fn malformed_jobs_fail_identically_on_every_executor() {
    type Variant = fn(&Error) -> bool;
    let cases: [(&str, Vec<u8>, Variant); 5] = [
        ("unknown-opcode", vec![0xEE; 16], |e| {
            matches!(e, Error::Isa(_))
        }),
        ("partial-record", vec![0; 17], |e| {
            matches!(e, Error::Isa(_))
        }),
        ("pipe-out-of-range", asm("wimm p9 v0 0 1\nhalt\n"), |e| {
            matches!(e, Error::InvalidConfig(_))
        }),
        ("vr-out-of-range", asm("wimm p0 v200 0 1\nhalt\n"), |e| {
            matches!(e, Error::Digital(_))
        }),
        (
            "unstaged-matrix",
            asm("valloc ac0 4 4 3 0\nprogm ac0 7\nhalt\n"),
            |e| matches!(e, Error::UnknownMatrix(7)),
        ),
    ];
    for (name, program, expected) in cases {
        let job = raw_job(name, program);
        let errors = [
            SimExecutor::new().execute(&job).unwrap_err(),
            FastExecutor::new().execute(&job).unwrap_err(),
            FastExecutor::new()
                .with_workers(1)
                .execute_batch(std::slice::from_ref(&job))
                .unwrap_err(),
        ];
        for err in &errors {
            assert!(expected(err), "{name}: unexpected error {err:?}");
            assert_eq!(err.to_string(), errors[0].to_string(), "{name}");
        }
    }
}
