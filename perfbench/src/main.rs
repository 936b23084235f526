//! The DARTH-PUM repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-steady --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Runs one named workload through the public APIs of `darth_serve`,
//! `darth_eval::{dse, mc}` and `darth_sim`, checks every output against
//! the software goldens, and prints the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of a traced replay (`--trace 1`). The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The lines before it hold the run's metadata and its simulated
//! fingerprint; standard error holds the same figures as tables.
//! README.md describes the workloads and what each metric measures.

mod digest;
mod replay;
mod run;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use darth_eval::mc::measure_accuracy;
use darth_eval::JsonValue;
use darth_serve::ServeReport;

use crate::replay::{family, RequestCounts};
use crate::run::Measured;
use crate::stats::{fold_spans, median, nearest_rank, Tracer};
use crate::workloads::{Seeds, Setup, SetupTimes, Workload, SETUP_REPEATS, WORKERS};

const USAGE: &str = "usage: darth_perfbench --workload <serve-steady|serve-churn|mc-noisy> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

/// A metric's name, unit and kind: `host` for how fast the Rust
/// simulator runs here, `sim` for what the modelled hardware does.
type Def = (String, &'static str, &'static str);

const HOST: &str = "host";
const SIM: &str = "sim";

/// The end-to-end metrics, printed by every `--trace 0` run.
fn end_to_end_defs() -> Vec<Def> {
    [
        ("setup_s", "s", HOST),
        ("host_rps", "1/s", HOST),
        ("mc_trials_per_s", "1/s", HOST),
        ("peak_rss_mb", "MB", HOST),
        ("sim_p50_us", "us", SIM),
        ("sim_p999_us", "us", SIM),
        ("mc_mean_error", "error", SIM),
    ]
    .into_iter()
    .map(|(n, u, k)| (n.to_owned(), u, k))
    .collect()
}

const SERVE_FAMILIES: [&str; 3] = ["aes", "gemm", "conv"];
const MC_FAMILIES: [&str; 4] = ["aes", "gemm", "conv", "reduce"];

/// The per-layer metrics, printed by every `--trace 1` run.
fn per_layer_defs() -> Vec<Def> {
    let mut defs: Vec<Def> = Vec::new();
    let mut by_family = |base: &str, families: &[&str], unit, kind| {
        for f in families {
            defs.push((format!("{base}.{f}"), unit, kind));
        }
    };
    for base in [
        "sim.serve_us",
        "sim.machine_clone_us",
        "pum.input_exec_us",
        "sim.body_us",
        "sim.readback_us",
        "apps.input_synth_us",
        "apps.golden_us",
    ] {
        by_family(base, &SERVE_FAMILIES, "us", HOST);
    }
    by_family("mc.trial_ms", &MC_FAMILIES, "ms", HOST);
    by_family("mc.trial_zero_ms", &MC_FAMILIES, "ms", HOST);
    by_family("sim.body_instructions", &SERVE_FAMILIES, "count", SIM);
    by_family("sim.body_mvms", &SERVE_FAMILIES, "count", SIM);
    by_family("sim.body_cycles", &SERVE_FAMILIES, "cycles", SIM);
    by_family("mc.mvms_per_trial", &MC_FAMILIES, "count", SIM);
    for (name, unit, kind) in [
        ("sim.resident_build_us", "us", HOST),
        ("isa.decode_us", "us", HOST),
        ("sim.machine_new_us", "us", HOST),
        ("pum.setup_exec_us", "us", HOST),
        ("sim.compile_us", "us", HOST),
        ("eval.price_sweep_s", "s", HOST),
        ("kir.compile_s", "s", HOST),
        ("serve.trace_gen_s", "s", HOST),
        ("eval.mc_stage_s", "s", HOST),
        ("sim.cache.hits", "count", SIM),
        ("sim.cache.misses", "count", SIM),
        ("sim.cache.evictions", "count", SIM),
        ("sim.cache.hit_rate", "ratio", SIM),
        ("sim.machine_constructions", "count", HOST),
        ("serve.batches", "count", SIM),
        ("serve.mean_batch_size", "req/batch", SIM),
        ("serve.chip_served_max_over_mean", "ratio", SIM),
        ("trace_overhead", "ratio", HOST),
    ] {
        defs.push((name.to_owned(), unit, kind));
    }
    defs
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::workload(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A finished run: outcome counts, metric values, and the report lines.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(Def, f64)>,
    detail: JsonValue<'static>,
}

fn hex(value: u64) -> JsonValue<'static> {
    JsonValue::from(format!("{value:#018x}"))
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The checkout's git revision, or `unknown` when the working directory
/// is not the root of a git repository (git is not asked to search the
/// parent directories, which lie outside the checkout).
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

/// One probe request per class, untraced: the per-request simulated
/// counts the fingerprint multiplies by the trace's class mix.
fn class_probe(setup: &Setup) -> darth_pum::Result<Vec<RequestCounts>> {
    let mut off = Tracer::new(false);
    setup
        .engine
        .classes()
        .iter()
        .map(|class| {
            let resident = replay::build(class.split(), &mut off)?;
            Ok(replay::serve_one(class, &resident, 0, &mut off)?.1)
        })
        .collect()
}

/// Campaign mean error of one chunk: the mean of its points' means.
fn campaign_error(chunk: &[darth_eval::PointAccuracy]) -> f64 {
    mean(chunk.iter().map(|p| p.mean_error))
}

/// The simulated fingerprint: exact figures that a change to the
/// simulator's speed alone must leave identical.
fn fingerprint(
    setup: &Setup,
    seeds: &Seeds,
    m: &Measured,
    probe: &[RequestCounts],
) -> JsonValue<'static> {
    let traces = m
        .reports
        .iter()
        .zip(&setup.traces)
        .zip(&seeds.traces)
        .zip(&m.constructions)
        .map(|(((report, trace), &seed), &built)| {
            let sum = |f: fn(&RequestCounts) -> u64| -> u64 {
                trace.iter().map(|r| f(&probe[r.class])).sum()
            };
            JsonValue::object(vec![
                ("seed", hex(seed)),
                ("requests", JsonValue::from(report.requests)),
                ("served", JsonValue::from(report.served)),
                ("rejected", JsonValue::from(report.rejected)),
                ("output_digest", hex(report.output_digest)),
                ("instructions", JsonValue::from(sum(|c| c.instructions))),
                ("mvms", JsonValue::from(sum(|c| c.body_mvms))),
                (
                    "busy_cycles",
                    JsonValue::from(report.chips.iter().map(|c| c.busy_cycles).sum::<u64>()),
                ),
                ("cache_hits", JsonValue::from(report.cache.hits)),
                ("cache_misses", JsonValue::from(report.cache.misses)),
                ("cache_evictions", JsonValue::from(report.cache.evictions)),
                ("machine_constructions", JsonValue::from(built)),
                ("batches", JsonValue::from(report.batches())),
                ("p50_ns", JsonValue::from(report.latency.p50_ns)),
                ("p999_ns", JsonValue::from(report.latency.p999_ns)),
            ])
        })
        .collect();
    let mc_workloads = setup
        .staged
        .iter()
        .enumerate()
        .map(|(w, staged)| {
            let all = || m.chunks.iter().flatten().map(|p| &p.workloads[w]);
            JsonValue::object(vec![
                ("name", JsonValue::from(staged.name.clone())),
                (
                    "mean_error",
                    JsonValue::from(mean(all().map(|a| a.mean_error))),
                ),
                (
                    "exact_trials",
                    JsonValue::from(all().map(|a| a.exact_trials).sum::<usize>()),
                ),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("serve", JsonValue::array(traces)),
        (
            "mc",
            JsonValue::object(vec![
                (
                    "mc_roots",
                    JsonValue::array(seeds.mc_roots.iter().map(|&s| hex(s)).collect()),
                ),
                (
                    "campaign_mean_error",
                    JsonValue::from(mean(m.chunks.iter().map(|c| campaign_error(c)))),
                ),
                (
                    "chunk_errors",
                    JsonValue::array(
                        m.chunks
                            .iter()
                            .map(|c| JsonValue::from(campaign_error(c)))
                            .collect(),
                    ),
                ),
                ("workloads", JsonValue::array(mc_workloads)),
            ]),
        ),
    ])
}

/// Renders a JSON value on one line.
fn compact(value: &JsonValue) -> String {
    value.pretty().lines().map(str::trim).collect()
}

/// Values of the end-to-end metrics.
fn end_to_end_values(setup_s: f64, m: &Measured) -> Result<BTreeMap<String, f64>, String> {
    let sim_us = |f: fn(&ServeReport) -> u64| mean(m.reports.iter().map(|r| f(r) as f64 / 1e3));
    Ok(BTreeMap::from([
        ("setup_s".into(), setup_s),
        ("host_rps".into(), median(&m.serve_rates)),
        ("mc_trials_per_s".into(), median(&m.mc_rates)),
        ("peak_rss_mb".into(), peak_rss_mb()?),
        ("sim_p50_us".into(), sim_us(|r| r.latency.p50_ns)),
        ("sim_p999_us".into(), sim_us(|r| r.latency.p999_ns)),
        (
            "mc_mean_error".into(),
            mean(m.chunks.iter().map(|c| campaign_error(c))),
        ),
    ]))
}

/// What the traced replays produced.
struct Replays<'a> {
    tracer: Tracer<'a>,
    serve: replay::ServeTally,
    mc: replay::McTally,
    attempted: u64,
    failed: u64,
    overhead: f64,
    wall_s: f64,
}

/// Replays the first requests of trace 0 and the first trials of MC
/// chunk 0, untraced and traced in A-B-B-A order (so a slow drift of
/// the host cancels out of `trace_overhead`), repeating the block until
/// the run's `budget` is spent.
fn traced_replays<'a>(
    setup: &'a Setup,
    workload: &Workload,
    seeds: &Seeds,
    started: Instant,
    budget: Duration,
) -> darth_pum::Result<Replays<'a>> {
    let classes = setup.engine.classes();
    let replayed = &setup.traces[0][..workload.serve.replay_requests];
    let capacity = workload.serve.cache_capacity;
    let mc = run::chunk_config(workload, seeds, 0).with_trials(workload.mc.replay_trials);
    // The engine's own result for exactly the replayed trials.
    let expected = measure_accuracy(&setup.points, &setup.mc_workloads, &mc)?;

    let began = Instant::now();
    let mut on = Tracer::new(true);
    let (mut serve, mut tally) = (replay::ServeTally::default(), replay::McTally::default());
    let (mut attempted, mut failed) = (0, 0);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    loop {
        for traced in [false, true, true, false] {
            let mut off = Tracer::new(false);
            let tr = if traced { &mut on } else { &mut off };
            let t0 = Instant::now();
            serve = replay::replay_serve(classes, replayed, capacity, tr)?;
            tally = replay::replay_mc(&setup.points, &setup.staged, &mc, &expected, tr)?;
            let wall_s = t0.elapsed().as_secs_f64();
            *(if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }) += wall_s;
            attempted += serve.requests + tally.trials;
            failed += serve.mismatches + tally.failed;
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    Ok(Replays {
        tracer: on,
        serve,
        mc: tally,
        attempted,
        failed,
        overhead: traced_s / untraced_s,
        wall_s: began.elapsed().as_secs_f64(),
    })
}

/// Values of the per-layer metrics.
fn per_layer_values(layers: &SetupTimes, m: &Measured, r: &Replays) -> BTreeMap<String, f64> {
    let spans = fold_spans(r.tracer.spans(), |s| match s.tag {
        "" => s.name.to_owned(),
        tag => format!("{}.{}", s.name, family(tag)),
    });
    let mut values: BTreeMap<String, f64> = spans
        .iter()
        .map(|(key, totals)| {
            let scale = if key.starts_with("mc.") { 1e-3 } else { 1.0 };
            (key.clone(), totals.mean_us() * scale)
        })
        .collect();
    for (f, (n, sum)) in &r.serve.by_family {
        let per = |v: u64| v as f64 / *n as f64;
        values.insert(
            format!("sim.body_instructions.{f}"),
            per(sum.body_instructions),
        );
        values.insert(format!("sim.body_mvms.{f}"), per(sum.body_mvms));
        values.insert(format!("sim.body_cycles.{f}"), per(sum.body_cycles));
    }
    for (f, (n, mvms)) in &r.mc.mvms {
        values.insert(format!("mc.mvms_per_trial.{f}"), *mvms as f64 / *n as f64);
    }
    let total = |f: fn(&ServeReport) -> u64| -> u64 { m.reports.iter().map(f).sum() };
    let (hits, misses) = (total(|r| r.cache.hits), total(|r| r.cache.misses));
    let mut chip_served = vec![0u64; m.reports[0].chips.len()];
    for report in &m.reports {
        for (sum, chip) in chip_served.iter_mut().zip(&report.chips) {
            *sum += chip.served;
        }
    }
    let chip_mean = mean(chip_served.iter().map(|&s| s as f64));
    let chip_max = chip_served.iter().copied().max().unwrap_or(0) as f64;
    for (name, value) in [
        ("eval.price_sweep_s", layers.price_sweep_s),
        ("kir.compile_s", layers.compile_s),
        ("serve.trace_gen_s", layers.trace_gen_s),
        ("eval.mc_stage_s", layers.mc_stage_s),
        ("sim.cache.hits", hits as f64),
        ("sim.cache.misses", misses as f64),
        ("sim.cache.evictions", total(|r| r.cache.evictions) as f64),
        ("sim.cache.hit_rate", hits as f64 / (hits + misses) as f64),
        (
            "sim.machine_constructions",
            m.constructions.iter().sum::<u64>() as f64,
        ),
        ("serve.batches", total(|r| r.batches()) as f64),
        (
            "serve.mean_batch_size",
            total(|r| r.served) as f64 / total(|r| r.batches()) as f64,
        ),
        ("serve.chip_served_max_over_mean", chip_max / chip_mean),
        ("trace_overhead", r.overhead),
    ] {
        values.insert(name.into(), value);
    }
    values
}

/// Per-class rows of the warm-request breakdown: ROADMAP's
/// serve / clone / body table, from the traced replay.
fn per_class_rows(
    setup: &Setup,
    probe: &[RequestCounts],
    tracer: &Tracer,
) -> Vec<JsonValue<'static>> {
    let by_class = fold_spans(tracer.spans(), |s| format!("{}|{}", s.tag, s.name));
    let mut rows = Vec::new();
    for (class, counts) in setup.engine.classes().iter().zip(probe) {
        let get = |name: &str| by_class.get(&format!("{}|{name}", class.name())).copied();
        let Some(serve) = get("sim.serve_us") else {
            continue;
        };
        let us = |name: &str| JsonValue::from(get(name).map_or(f64::NAN, |t| t.mean_us()));
        let mut serve_ns: Vec<u64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "sim.serve_us" && s.tag == class.name())
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        serve_ns.sort_unstable();
        let serve_p50_us = nearest_rank(&serve_ns, 0.5).map_or(f64::NAN, |ns| ns as f64 / 1e3);
        rows.push(JsonValue::object(vec![
            ("class", JsonValue::from(class.name().to_owned())),
            ("requests", JsonValue::from(serve.calls)),
            ("serve_us", JsonValue::from(serve.mean_us())),
            ("serve_p50_us", JsonValue::from(serve_p50_us)),
            ("serve_self_us", JsonValue::from(serve.mean_self_us())),
            ("clone_us", us("sim.machine_clone_us")),
            ("input_us", us("pum.input_exec_us")),
            ("body_us", us("sim.body_us")),
            ("readback_us", us("sim.readback_us")),
            (
                "body_instructions",
                JsonValue::from(counts.body_instructions),
            ),
            ("body_mvms", JsonValue::from(counts.body_mvms)),
        ]));
    }
    rows
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = &args.workload;
    let seeds = Seeds::derive(args.seed, workload);
    let err = |e: darth_pum::Error| e.to_string();

    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let built = workloads::setup(workload, &seeds).map_err(err)?;
        times.push(built.times);
        setup = Some(built);
    }
    let setup = setup.expect("SETUP_REPEATS is positive");
    let setup_s = median(&times.iter().map(SetupTimes::total_s).collect::<Vec<_>>());

    let expected = setup
        .traces
        .iter()
        .map(|t| digest::expected_digest(setup.engine.classes(), t))
        .collect::<darth_pum::Result<Vec<_>>>()
        .map_err(err)?;
    let (mut attempted, mut failed) = run::zero_sigma_gate(&setup).map_err(err)?;

    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let m = run::measure(
        &setup,
        workload,
        &seeds,
        &expected,
        (!args.trace).then_some(budget),
    )
    .map_err(err)?;
    attempted += m.attempted;
    failed += m.failed;
    let measured_s = started.elapsed().as_secs_f64();
    let probe = class_probe(&setup).map_err(err)?;
    let print = fingerprint(&setup, &seeds, &m, &probe);
    let print_digest = {
        let mut h = digest::Fnv1a::new();
        h.write(compact(&print).as_bytes());
        h.0
    };

    let (values, per_class, replay_s) = if args.trace {
        let r = traced_replays(&setup, workload, &seeds, started, budget).map_err(err)?;
        attempted += r.attempted;
        failed += r.failed;
        let values = per_layer_values(&SetupTimes::medians(&times), &m, &r);
        (values, per_class_rows(&setup, &probe, &r.tracer), r.wall_s)
    } else {
        (end_to_end_values(setup_s, &m)?, Vec::new(), 0.0)
    };

    let defs = if args.trace {
        per_layer_defs()
    } else {
        end_to_end_defs()
    };
    let metrics = defs
        .into_iter()
        .map(|def| {
            let value = values.get(&def.0).copied().unwrap_or(f64::NAN);
            (def, value)
        })
        .collect::<Vec<_>>();

    eprintln!("fingerprint {print_digest:#018x}");
    let serve_calls = m.serve_rates.len();
    let mc_calls = m.mc_rates.len();
    let detail = JsonValue::object(vec![
        ("schema", JsonValue::from("darth-perfbench/v1")),
        (
            "meta",
            JsonValue::object(vec![
                ("workload", JsonValue::from(workload.name)),
                ("seed", JsonValue::from(args.seed.to_string())),
                ("trace", JsonValue::from(args.trace)),
                ("git_rev", JsonValue::from(git_rev())),
                (
                    "nproc",
                    JsonValue::from(std::thread::available_parallelism().map_or(0, usize::from)),
                ),
                (
                    "profile",
                    JsonValue::from(if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }),
                ),
                ("workers", JsonValue::from(WORKERS)),
                ("seconds", JsonValue::from(args.seconds)),
                ("setup_repeats", JsonValue::from(SETUP_REPEATS)),
                ("serve_calls", JsonValue::from(serve_calls)),
                (
                    "requests_per_trace",
                    JsonValue::from(workload.serve.requests),
                ),
                ("offered_rps", JsonValue::from(workload.serve.offered_rps)),
                (
                    "cache_capacity",
                    JsonValue::from(workload.serve.cache_capacity),
                ),
                (
                    "requests",
                    JsonValue::from(serve_calls * workload.serve.requests),
                ),
                ("mc_calls", JsonValue::from(mc_calls)),
                ("mc_trials_per_pair", JsonValue::from(workload.mc.trials)),
                (
                    "trials",
                    JsonValue::from(
                        mc_calls
                            * workload.mc.trials
                            * setup.points.len()
                            * setup.mc_workloads.len(),
                    ),
                ),
                ("measured_s", JsonValue::from(measured_s)),
                (
                    "serve_rates",
                    JsonValue::array(m.serve_rates.iter().map(|&r| JsonValue::from(r)).collect()),
                ),
                (
                    "mc_rates",
                    JsonValue::array(m.mc_rates.iter().map(|&r| JsonValue::from(r)).collect()),
                ),
                ("replay_s", JsonValue::from(replay_s)),
            ]),
        ),
        ("fingerprint_digest", hex(print_digest)),
        ("fingerprint", print),
        (
            "kinds",
            JsonValue::object(
                metrics
                    .iter()
                    .map(|((name, _, kind), _)| (name.clone(), JsonValue::from(*kind)))
                    .collect(),
            ),
        ),
        ("per_class", JsonValue::array(per_class)),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        detail,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("darth_perfbench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("darth_perfbench: {why}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "{} seed {} ({} workers, {} attempted, {} failed)",
        args.workload.name, args.seed, WORKERS, outcome.attempted, outcome.failed
    );
    for ((name, unit, kind), value) in &outcome.metrics {
        eprintln!("  {name:<36} {value:>16.6} {unit:<10} {kind}");
    }
    let complete = outcome.metrics.iter().all(|(_, v)| v.is_finite());
    let result = JsonValue::object(vec![
        ("correct", JsonValue::from(outcome.failed == 0 && complete)),
        ("attempted", JsonValue::from(outcome.attempted)),
        ("failed", JsonValue::from(outcome.failed)),
        (
            "metrics",
            JsonValue::object(
                outcome
                    .metrics
                    .into_iter()
                    .map(|((name, unit, _), value)| {
                        (
                            name,
                            JsonValue::object(vec![
                                ("value", JsonValue::from(value)),
                                ("unit", JsonValue::from(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", compact(&outcome.detail));
    println!("{}", compact(&result));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{McShape, ServeShape, WORKLOADS};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "mc-noisy",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.name, "mc-noisy");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "mc-noisy",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "mc-noisy", "--seed", "1"]).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for defs in [end_to_end_defs(), per_layer_defs()] {
            let mut names: Vec<_> = defs.iter().map(|d| d.0.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), defs.len(), "duplicate metric name");
            for (name, unit, _) in &defs {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        let listed = manifest.matches("\"name\":").count();
        assert_eq!(
            listed,
            WORKLOADS.len() + end_to_end_defs().len() + per_layer_defs().len()
        );
    }

    #[test]
    fn another_seed_changes_the_inputs_but_not_the_metric_names() {
        let tiny = Workload {
            name: "tiny",
            serve: ServeShape {
                cache_capacity: 2,
                offered_rps: 50_000.0,
                traces: 1,
                requests: 60,
                calls: 1,
                replay_requests: 60,
            },
            mc: McShape {
                chunks: 1,
                trials: 1,
                replay_trials: 1,
            },
        };
        for trace in [false, true] {
            let outcome = |seed| {
                let o = run(&Args {
                    workload: tiny,
                    seed,
                    seconds: 0,
                    trace,
                })
                .expect("tiny workload runs");
                assert_eq!(o.failed, 0, "seed {seed} trace {trace}");
                let names: Vec<String> = o
                    .metrics
                    .iter()
                    .map(|((name, ..), value)| {
                        assert!(value.is_finite(), "{name} has no value");
                        name.clone()
                    })
                    .collect();
                let JsonValue::Object(detail) = o.detail else {
                    panic!("report is an object");
                };
                let fingerprint = detail.into_iter().find(|(k, _)| k == "fingerprint_digest");
                (
                    names,
                    fingerprint.expect("report has a fingerprint digest").1,
                )
            };
            let (names_1, print_1) = outcome(1);
            let (names_2, print_2) = outcome(2);
            assert_eq!(names_1, names_2);
            assert_ne!(print_1, print_2, "a new seed must change the inputs");
        }
    }

    #[test]
    fn compact_json_is_one_line() {
        let v = JsonValue::object(vec![
            (
                "a",
                JsonValue::array(vec![JsonValue::from(1.5), JsonValue::from("x y")]),
            ),
            ("b", JsonValue::object(vec![("c", JsonValue::from(true))])),
        ]);
        assert_eq!(compact(&v), r#"{"a": [1.5,"x y"],"b": {"c": true}}"#);
    }
}
