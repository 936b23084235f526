//! The named workloads, their seeds, and the timed set-up every run
//! repeats before it measures anything.
//!
//! Every workload runs both engines, so that every metric has a value on
//! every workload: a serving phase (`ServeEngine::serve` over seeded
//! bursty traces) and a Monte-Carlo phase (`measure_accuracy` chunks at
//! the paper SAR and ramp points). The workload named after an engine
//! gives that engine its stressing shape; the other phase is a fixed
//! companion. README.md says why each shape was chosen.

use std::time::Instant;

use darth_analog::adc::AdcKind;
use darth_eval::dse::{default_sweep, frontier_fleet, price_sweep, DesignPoint};
use darth_eval::mc::standard_workloads;
use darth_eval::registry::paper_workloads;
use darth_eval::Threading;
use darth_pum::config::DarthConfig;
use darth_pum::eval::{ExecJob, ExecOutput, Executable};
use darth_reram::NoiseRng;
use darth_serve::{fleet_from_frontier, standard_classes, trace, Request, ServeEngine, TraceSpec};

use crate::stats::median;

/// Worker threads for serving, pricing and Monte-Carlo fan-out. The
/// reference host has two cores; the count is set explicitly, never read
/// from the environment.
pub const WORKERS: usize = 2;
/// Chips in the serving fleet, drawn from the DSE aggregate frontier.
pub const FLEET_CHIPS: usize = 8;
/// Admission-queue bound per chip (as in `make serve`).
pub const QUEUE_CAPACITY: usize = 512;
/// Times the set-up is repeated per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// The serving phase of a workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Resident-program cache slots per chip.
    pub cache_capacity: usize,
    /// Offered load of the bursty trace, requests per simulated second.
    pub offered_rps: f64,
    /// Independent traces, each from its own derived seed.
    pub traces: usize,
    /// Requests per trace (at least 10 000 so p999 has ten samples
    /// beyond it).
    pub requests: usize,
    /// Timed `serve` calls in the first pass, cycling over the traces.
    pub calls: usize,
    /// Requests of trace 0 the traced run replays call by call.
    pub replay_requests: usize,
}

/// The Monte-Carlo phase of a workload.
#[derive(Debug, Clone, Copy)]
pub struct McShape {
    /// `measure_accuracy` calls in the first pass, each with its own
    /// derived root seed.
    pub chunks: usize,
    /// Trials per (design point, MC workload) pair in one chunk.
    pub trials: usize,
    /// Trials per pair of chunk 0 the traced run replays one by one.
    pub replay_trials: usize,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// The serving phase.
    pub serve: ServeShape,
    /// The Monte-Carlo phase.
    pub mc: McShape,
}

const STEADY: ServeShape = ServeShape {
    cache_capacity: 8,
    offered_rps: 500_000.0,
    traces: 8,
    requests: 10_000,
    calls: 8,
    replay_requests: 1_000,
};

const CHURN: ServeShape = ServeShape {
    cache_capacity: 1,
    offered_rps: 20_000.0,
    traces: 2,
    requests: 10_000,
    calls: 4,
    replay_requests: 1_000,
};

const COMPANION_MC: McShape = McShape {
    chunks: 12,
    trials: 16,
    replay_trials: 8,
};

/// The workloads, by name.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-steady",
        serve: STEADY,
        mc: COMPANION_MC,
    },
    Workload {
        name: "serve-churn",
        serve: CHURN,
        mc: COMPANION_MC,
    },
    Workload {
        name: "mc-noisy",
        serve: ServeShape {
            traces: 1,
            calls: 3,
            ..CHURN
        },
        mc: McShape {
            chunks: 20,
            ..COMPANION_MC
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The input seeds of one run, all derived from the workload seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seeds {
    /// One trace seed per serving trace.
    pub traces: Vec<u64>,
    /// One `McConfig::root_seed` per Monte-Carlo chunk.
    pub mc_roots: Vec<u64>,
}

impl Seeds {
    /// Derives the trace and MC root seeds from `seed` through the seeded
    /// fork tree: one stream for traces, one for MC roots.
    pub fn derive(seed: u64, workload: &Workload) -> Self {
        let mut root = NoiseRng::seed_from(seed);
        let mut traces = root.fork();
        let mut mc = root.fork();
        Seeds {
            traces: (0..workload.serve.traces)
                .map(|_| traces.next_u64())
                .collect(),
            mc_roots: (0..workload.mc.chunks).map(|_| mc.next_u64()).collect(),
        }
    }
}

/// One Monte-Carlo workload staged for replay: name, base job, golden.
#[derive(Debug, Clone)]
pub struct Staged {
    /// The executable's name.
    pub name: String,
    /// Its job at the ideal tile.
    pub job: ExecJob,
    /// Its golden outputs.
    pub golden: Vec<ExecOutput>,
}

/// Host seconds of each set-up layer in one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `price_sweep` of the default DSE grid plus `frontier_fleet`.
    pub price_sweep_s: f64,
    /// Compiling the serving classes through `darth_kir`.
    pub compile_s: f64,
    /// Generating every trace.
    pub trace_gen_s: f64,
    /// Staging the Monte-Carlo jobs and goldens.
    pub mc_stage_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.price_sweep_s + self.compile_s + self.trace_gen_s + self.mc_stage_s
    }

    /// Per-layer medians over several set-ups.
    pub fn medians(all: &[SetupTimes]) -> SetupTimes {
        let med = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            price_sweep_s: med(|t| t.price_sweep_s),
            compile_s: med(|t| t.compile_s),
            trace_gen_s: med(|t| t.trace_gen_s),
            mc_stage_s: med(|t| t.mc_stage_s),
        }
    }
}

/// Everything a run needs before it measures: the engine over the
/// frontier fleet, the traces, and the Monte-Carlo inputs.
pub struct Setup {
    /// Serving engine (classes + fleet), caches empty.
    pub engine: ServeEngine,
    /// The serving traces, one per trace seed.
    pub traces: Vec<Vec<Request>>,
    /// The paper SAR and ramp design points.
    pub points: Vec<DesignPoint>,
    /// The Monte-Carlo workloads.
    pub mc_workloads: Vec<Box<dyn Executable>>,
    /// The same workloads staged for replay.
    pub staged: Vec<Staged>,
    /// How long each layer took.
    pub times: SetupTimes,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The paper's SAR and ramp design points.
fn paper_points() -> Vec<DesignPoint> {
    [AdcKind::Sar, AdcKind::Ramp]
        .iter()
        .map(|&adc| DesignPoint {
            name: format!("paper-{}", adc.slug()),
            axis_values: vec![("adc".to_owned(), adc.slug().to_owned())],
            config: DarthConfig::paper(adc),
        })
        .collect()
}

/// Builds the run's inputs once, timing each layer.
///
/// # Errors
///
/// Propagates pricing, compile and staging errors.
pub fn setup(workload: &Workload, seeds: &Seeds) -> darth_pum::Result<Setup> {
    let (frontier, price_sweep_s) = timed(|| {
        let points = default_sweep().generate()?;
        let matrix = price_sweep(&points, paper_workloads(), Threading::Workers(WORKERS))?;
        Ok::<_, darth_pum::Error>(frontier_fleet(&points, &matrix))
    });
    let fleet = fleet_from_frontier(&frontier?, FLEET_CHIPS)
        .into_iter()
        .map(|chip| {
            chip.with_cache_capacity(workload.serve.cache_capacity)
                .with_queue_capacity(QUEUE_CAPACITY)
        })
        .collect();
    let (classes, compile_s) = timed(standard_classes);
    let classes = classes?;
    let (traces, trace_gen_s) = timed(|| {
        seeds
            .traces
            .iter()
            .map(|&seed| {
                let spec =
                    TraceSpec::bursty(seed, workload.serve.requests, workload.serve.offered_rps);
                trace::generate(&spec, classes.len())
            })
            .collect()
    });
    let ((mc_workloads, staged), mc_stage_s) = timed(|| {
        let workloads = standard_workloads();
        let staged = workloads
            .iter()
            .map(|w| {
                Ok(Staged {
                    name: w.exec_name(),
                    job: w.job()?,
                    golden: w.golden()?,
                })
            })
            .collect::<darth_pum::Result<Vec<_>>>();
        (workloads, staged)
    });
    Ok(Setup {
        engine: ServeEngine::new(classes, fleet)?.with_workers(WORKERS),
        traces,
        points: paper_points(),
        mc_workloads,
        staged: staged?,
        times: SetupTimes {
            price_sweep_s,
            compile_s,
            trace_gen_s,
            mc_stage_s,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_seeds_change_the_traces_and_mc_roots() {
        let w = workload("serve-steady").expect("named workload");
        let a = Seeds::derive(1, &w);
        let b = Seeds::derive(2, &w);
        assert_eq!(a, Seeds::derive(1, &w), "same seed, same inputs");
        assert_eq!(a.traces.len(), w.serve.traces);
        assert_eq!(a.mc_roots.len(), w.mc.chunks);
        assert_ne!(a.traces, b.traces);
        assert_ne!(a.mc_roots, b.mc_roots);
    }

    #[test]
    fn every_workload_keeps_ten_requests_beyond_p999() {
        for w in WORKLOADS {
            assert!(w.serve.requests >= 10_000, "{}", w.name);
            assert!(w.serve.calls >= w.serve.traces, "{}", w.name);
            assert!(w.serve.replay_requests <= w.serve.requests, "{}", w.name);
            assert!(w.mc.replay_trials <= w.mc.trials, "{}", w.name);
        }
    }
}
