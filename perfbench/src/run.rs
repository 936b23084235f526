//! The measured part of a run: timed `ServeEngine::serve` calls and
//! timed `measure_accuracy` chunks, each checked for correctness and
//! for reproducing its own first result.

use std::time::{Duration, Instant};

use darth_eval::mc::{measure_accuracy, McConfig};
use darth_eval::PointAccuracy;
use darth_serve::ServeReport;
use darth_sim::FastMachine;

use crate::workloads::{Seeds, Setup, Workload, WORKERS};

/// What the measured calls produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted: requests offered plus MC trials run.
    pub attempted: u64,
    /// Operations failed: rejected or wrong requests, spot-check
    /// mismatches, and calls that did not reproduce their first result.
    pub failed: u64,
    /// Served requests per wall-second, one per `serve` call.
    pub serve_rates: Vec<f64>,
    /// Trials per wall-second, one per `measure_accuracy` call.
    pub mc_rates: Vec<f64>,
    /// First report of each trace.
    pub reports: Vec<ServeReport>,
    /// `FastMachine` constructions during the first serve of each trace.
    pub constructions: Vec<u64>,
    /// First result of each Monte-Carlo chunk.
    pub chunks: Vec<Vec<PointAccuracy>>,
}

/// The noisy campaign configuration of chunk `chunk`.
pub fn chunk_config(workload: &Workload, seeds: &Seeds, chunk: usize) -> McConfig {
    McConfig::evaluation()
        .with_trials(workload.mc.trials)
        .with_workers(WORKERS)
        .with_root_seed(seeds.mc_roots[chunk])
}

/// The zero-sigma gate, outside any timed section: one trial per
/// (point, workload) on the noisy code path with every noise source
/// off must reproduce the goldens bit-exactly. Returns (attempted,
/// failed).
///
/// # Errors
///
/// Propagates execution errors.
pub fn zero_sigma_gate(setup: &Setup) -> darth_pum::Result<(u64, u64)> {
    let mc = McConfig::zero_sigma().with_trials(1).with_workers(WORKERS);
    let accuracies = measure_accuracy(&setup.points, &setup.mc_workloads, &mc)?;
    let mut attempted = 0;
    let mut failed = 0;
    for accuracy in &accuracies {
        for w in &accuracy.workloads {
            attempted += w.trials as u64;
            failed += (w.trials - w.exact_trials) as u64;
        }
    }
    Ok((attempted, failed))
}

enum Call {
    Serve(usize),
    Mc(usize),
}

/// Runs the first pass — `serve.calls` serve calls cycling over the
/// traces, then every MC chunk — and, when `budget` is given, keeps
/// cycling through the same calls until it is spent. `expected` holds
/// each trace's golden digest.
///
/// # Errors
///
/// Propagates serving and Monte-Carlo errors.
pub fn measure(
    setup: &Setup,
    workload: &Workload,
    seeds: &Seeds,
    expected: &[u64],
    budget: Option<Duration>,
) -> darth_pum::Result<Measured> {
    let traces = setup.traces.len();
    let calls: Vec<Call> = (0..workload.serve.calls)
        .map(|i| Call::Serve(i % traces))
        .chain((0..workload.mc.chunks).map(Call::Mc))
        .collect();
    let start = Instant::now();
    let mut m = Measured::default();
    let mut first_reports: Vec<Option<ServeReport>> = vec![None; traces];
    let mut first_chunks: Vec<Option<Vec<PointAccuracy>>> = vec![None; workload.mc.chunks];
    let mut constructions = vec![0; traces];

    for (i, call) in calls.iter().cycle().enumerate() {
        let first_pass = i < calls.len();
        if !first_pass && budget.is_none_or(|b| start.elapsed() >= b) {
            break;
        }
        match *call {
            Call::Serve(t) => {
                let trace = &setup.traces[t];
                let before = FastMachine::constructions();
                let began = Instant::now();
                let report = setup.engine.serve(trace)?;
                let wall_s = began.elapsed().as_secs_f64();
                let built = FastMachine::constructions() - before;
                m.attempted += trace.len() as u64;
                m.failed += report.rejected + report.spot_checks.mismatches;
                if report.served + report.rejected != trace.len() as u64
                    || (report.rejected == 0 && report.output_digest != expected[t])
                {
                    m.failed += report.served;
                }
                m.serve_rates.push(report.served as f64 / wall_s);
                match &first_reports[t] {
                    None => {
                        constructions[t] = built;
                        first_reports[t] = Some(report);
                    }
                    Some(first) if *first != report || constructions[t] != built => {
                        m.failed += trace.len() as u64;
                    }
                    Some(_) => {}
                }
            }
            Call::Mc(c) => {
                let mc = chunk_config(workload, seeds, c);
                let began = Instant::now();
                let result = measure_accuracy(&setup.points, &setup.mc_workloads, &mc)?;
                let wall_s = began.elapsed().as_secs_f64();
                let trials = setup.points.len() * setup.mc_workloads.len() * mc.trials;
                m.attempted += trials as u64;
                match &first_chunks[c] {
                    None => first_chunks[c] = Some(result),
                    Some(first) if *first != result => m.failed += trials as u64,
                    Some(_) => {}
                }
                m.mc_rates.push(trials as f64 / wall_s);
            }
        }
    }
    m.reports = first_reports.into_iter().flatten().collect();
    m.chunks = first_chunks.into_iter().flatten().collect();
    m.constructions = constructions;
    Ok(m)
}
