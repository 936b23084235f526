//! Serving-run reports: aggregate throughput/latency/batching/cache
//! metrics plus the `darth-serve/v1` JSON rendering behind
//! `BENCH_serve.json`.

use std::collections::BTreeMap;

use darth_eval::JsonValue;
use darth_sim::{CacheStats, PrepWork};

/// Latency distribution over served requests, in nanoseconds of
/// virtual (clock-derived) time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Worst observed.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
}

/// Differential spot-check totals: sampled served requests re-executed
/// monolithically on the reference executor and compared against the
/// software golden, cell for cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpotChecks {
    /// Requests re-checked.
    pub checked: u64,
    /// Checks where any output diverged (must be zero).
    pub mismatches: u64,
}

/// Per-chip serving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipReport {
    /// Chip name (from the fleet).
    pub name: String,
    /// The chip's clock in Hz.
    pub clock_hz: f64,
    /// Requests this chip served.
    pub served: u64,
    /// Batches this chip dispatched.
    pub batches: u64,
    /// Cycles the chip spent executing (setup + stubs + bodies +
    /// dispatch overhead).
    pub busy_cycles: u64,
    /// Busy time over the fleet-wide serving span, in `[0, 1]`.
    pub utilization: f64,
    /// Busy time over the chip's **own** serving window (its first
    /// served arrival to its last completion), in `[0, 1]`. A chip that
    /// finished an early burst and then idled keeps a high
    /// `busy_fraction` while its fleet-span `utilization` decays with
    /// the fleet's tail; `0.0` for a chip that served nothing.
    pub busy_fraction: f64,
    /// The chip's resident-program cache counters.
    pub cache: CacheStats,
}

/// Warm-vs-cold program-cache comparison: the same request stream run
/// once with a per-request `prepare()` (decode + compile + tile build
/// every time) and once against a single resident program.
///
/// The work counters are deterministic; the wall-clock figures are not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmColdReport {
    /// Requests in each arm.
    pub requests: u64,
    /// Tile constructions and program decodes the cold arm performed
    /// (one of each per request).
    pub cold_work: PrepWork,
    /// Tile constructions and program decodes the warm arm performed
    /// after its resident was built (none).
    pub warm_work: PrepWork,
    /// Instructions the cold arm executed: setup, input and body of every
    /// request.
    pub cold_instructions: u64,
    /// Instructions the warm arm executed: input and body only.
    pub warm_instructions: u64,
    /// Instructions of the resident's one-time setup run.
    pub setup_instructions: u64,
    /// Wall-clock seconds for the cold (per-request prepare) arm.
    pub cold_s: f64,
    /// Wall-clock seconds for the warm (resident program) arm.
    pub warm_s: f64,
    /// `cold_s / warm_s` — how much the resident cache buys.
    pub speedup: f64,
}

/// The full outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests offered by the trace.
    pub requests: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests rejected at admission (every queue full).
    pub rejected: u64,
    /// Offered load measured over the trace's arrival span, in
    /// requests per second.
    pub offered_rps: f64,
    /// Sustained service rate over the serving span (first arrival to
    /// last completion), in requests per second.
    pub sustained_rps: f64,
    /// Latency distribution over served requests.
    pub latency: LatencyStats,
    /// Batch-size histogram: batch size → number of batches dispatched
    /// at that size.
    pub batch_histogram: BTreeMap<usize, u64>,
    /// Fleet-wide resident-program cache totals.
    pub cache: CacheStats,
    /// Per-chip outcomes, in fleet order.
    pub chips: Vec<ChipReport>,
    /// Differential spot-check totals.
    pub spot_checks: SpotChecks,
    /// Order-independent digest over `(id, output hash)` of every
    /// served request — byte-identical across worker counts.
    pub output_digest: u64,
    /// Warm-vs-cold comparison, when measured.
    pub warm_vs_cold: Option<WarmColdReport>,
}

impl ServeReport {
    /// Total batches dispatched across the fleet.
    pub fn batches(&self) -> u64 {
        self.batch_histogram.values().sum()
    }

    /// Mean requests per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            return 0.0;
        }
        self.served as f64 / batches as f64
    }

    /// Fleet-wide cache hit rate in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache.hits + self.cache.misses;
        if lookups == 0 {
            return 0.0;
        }
        self.cache.hits as f64 / lookups as f64
    }

    /// Renders the `darth-serve/v1` report (the `BENCH_serve.json`
    /// payload).
    pub fn to_json(&self) -> JsonValue<'_> {
        let cache_json = |stats: &CacheStats| {
            let lookups = stats.hits + stats.misses;
            JsonValue::object(vec![
                ("hits", JsonValue::Num(stats.hits as f64)),
                ("misses", JsonValue::Num(stats.misses as f64)),
                ("evictions", JsonValue::Num(stats.evictions as f64)),
                (
                    "hit_rate",
                    JsonValue::Num(if lookups == 0 {
                        0.0
                    } else {
                        stats.hits as f64 / lookups as f64
                    }),
                ),
            ])
        };
        JsonValue::object(vec![
            ("schema", JsonValue::Str("darth-serve/v1".into())),
            (
                "requests",
                JsonValue::object(vec![
                    ("offered", JsonValue::Num(self.requests as f64)),
                    ("served", JsonValue::Num(self.served as f64)),
                    ("rejected", JsonValue::Num(self.rejected as f64)),
                ]),
            ),
            (
                "throughput",
                JsonValue::object(vec![
                    ("offered_rps", JsonValue::Num(self.offered_rps)),
                    ("sustained_rps", JsonValue::Num(self.sustained_rps)),
                ]),
            ),
            (
                "latency_ns",
                JsonValue::object(vec![
                    ("p50", JsonValue::Num(self.latency.p50_ns as f64)),
                    ("p99", JsonValue::Num(self.latency.p99_ns as f64)),
                    ("p999", JsonValue::Num(self.latency.p999_ns as f64)),
                    ("max", JsonValue::Num(self.latency.max_ns as f64)),
                    ("mean", JsonValue::Num(self.latency.mean_ns)),
                ]),
            ),
            (
                "batching",
                JsonValue::object(vec![
                    ("batches", JsonValue::Num(self.batches() as f64)),
                    ("mean_batch_size", JsonValue::Num(self.mean_batch_size())),
                    (
                        "histogram",
                        JsonValue::Object(
                            self.batch_histogram
                                .iter()
                                .map(|(size, count)| {
                                    (size.to_string().into(), JsonValue::Num(*count as f64))
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("cache", cache_json(&self.cache)),
            (
                "chips",
                JsonValue::array(
                    self.chips
                        .iter()
                        .map(|chip| {
                            JsonValue::object(vec![
                                ("name", JsonValue::Str((&chip.name).into())),
                                ("clock_ghz", JsonValue::Num(chip.clock_hz / 1e9)),
                                ("served", JsonValue::Num(chip.served as f64)),
                                ("batches", JsonValue::Num(chip.batches as f64)),
                                ("busy_cycles", JsonValue::Num(chip.busy_cycles as f64)),
                                ("utilization", JsonValue::Num(chip.utilization)),
                                ("busy_fraction", JsonValue::Num(chip.busy_fraction)),
                                ("cache", cache_json(&chip.cache)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spot_checks",
                JsonValue::object(vec![
                    ("checked", JsonValue::Num(self.spot_checks.checked as f64)),
                    (
                        "mismatches",
                        JsonValue::Num(self.spot_checks.mismatches as f64),
                    ),
                ]),
            ),
            (
                "output_digest",
                JsonValue::Str(format!("{:016x}", self.output_digest).into()),
            ),
            (
                "warm_vs_cold",
                match &self.warm_vs_cold {
                    None => JsonValue::Null,
                    Some(wc) => JsonValue::object(vec![
                        ("requests", JsonValue::Num(wc.requests as f64)),
                        ("cold_s", JsonValue::Num(wc.cold_s)),
                        ("warm_s", JsonValue::Num(wc.warm_s)),
                        ("speedup", JsonValue::Num(wc.speedup)),
                    ]),
                },
            ),
        ])
    }
}
