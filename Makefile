# DARTH-PUM reproduction — one-command recipes for the tier-1 gate and the
# supporting checks. `make verify` is the whole tier-1 recipe.

CARGO ?= cargo

## Virtual-memory ceiling (KB) for `make eval-large`: 2 GiB. The
## streaming pipeline prices a ≥1M-block AES stream well under it; the
## materialized path needs ~3 GB of KernelOps and dies, by design.
EVAL_LARGE_CAP_KB ?= 2097152

## Wall-clock budget (seconds) for the scaled fast-vs-reference gate in
## `make sim-verify`: the 1000-block bulk-AES executor-pair run takes a
## few seconds on the fast path; the budget exists so a fast-path
## performance regression fails the gate instead of quietly crawling.
## Generous because a cold tree pays the release build inside it.
SIM_VERIFY_BUDGET_S ?= 600

.PHONY: all build test verify doc lint fmt fmt-check bench bench-check figures eval eval-large equivalence dse dse-smoke sim-verify kir-verify serve serve-smoke mc mc-smoke perfbench perfbench-test clean

all: verify

## Tier-1 gate (release build + full test suite) plus the PR-1 lint
## gates: clippy, rustfmt and rustdoc (intra-doc links included), all
## warnings-as-errors — the streaming/materialized equivalence
## regression, the DSE smoke sweep, the functional-simulator
## differential gate, the serving and Monte-Carlo smoke suites, the
## benchmark package's own tests, and a compile check of every criterion
## bench and example (so a crate API change cannot silently break a
## benchmark or an example), explicitly.
verify: build test lint fmt-check doc equivalence dse-smoke sim-verify kir-verify serve-smoke mc-smoke perfbench-test bench-check

## The golden-model differential gate: the standard registry
## (AES-128/192/256 on FIPS-197 vectors, integer GEMM, a conv layer)
## executes on the functional ISA simulator and must match its golden
## software references bit-exactly, cell by cell, while the paired
## priced twins flow through the analytical engine. The fast path
## (packed bit-planes + precompiled dispatch + sharded tiles) then
## replays the executor-pair suite in release at bulk scale — 1000 AES
## blocks — and must match the reference interpreter result-, energy-
## and cycle-exactly. Also refuses any `#[ignore]`d test in the tier-1
## tree — a silently skipped differential case must fail the build,
## not hide.
sim-verify:
	@if grep -rn "\#\[ignore" --include='*.rs' crates src tests examples 2>/dev/null; then \
		echo "ERROR: ignored tests are not allowed in the tier-1 tree"; \
		exit 1; \
	fi
	$(CARGO) test -q -p darth_sim --test differential
	$(CARGO) test -q -p darth_eval --test sim_differential
	DARTH_SIM_BULK_BLOCKS=1000 timeout $(SIM_VERIFY_BUDGET_S) \
		$(CARGO) test -q --release -p darth_sim --test fast_vs_reference
	$(CARGO) test -q --release -p darth_sim --test shard_determinism

## The kernel-IR compiler gate: the darth_kir unit + property suites
## (verifier diagnostics, allocator reuse/pressure, encode → decode →
## re-encode round trips, the split-concatenation invariant) and the
## hand-lowering parity regression (per-mnemonic histograms, analog-op
## counts, cycles and energy pinned against the pre-compiler baselines).
## Also part of `make test`; kept addressable so `make verify` names it.
kir-verify:
	$(CARGO) test -q -p darth_kir
	$(CARGO) test -q -p darth_sim --test kir_parity

## The registry-wide bit-identity regression: price(stream) ==
## price(&Trace) == engine replay for every (workload, model) cell,
## serial and parallel. Also part of `make test`; kept addressable so
## the guarantee is auditable on its own.
equivalence:
	$(CARGO) test -q -p darth_eval --test streaming_equivalence

## The DSE smoke sweep: a small config grid over the paper workloads,
## serial == parallel bit-identical, with the paper's SAR/ramp design
## points asserted byte-identical to the BENCH_fig13.json pricing. Also
## part of `make test`; kept addressable so `make verify` names it.
dse-smoke:
	$(CARGO) test -q -p darth_eval --test dse

## The serving smoke suite: a small bursty trace on a fleet from the
## real DSE smoke-sweep frontier — resident-program cache hits,
## sustained >= offered at low load with zero rejections, served
## outputs bit-exact against the reference executor and software
## goldens, batch coalescing + bounded-queue rejection under overload,
## and serving determinism at worker counts {1, 2, 64} plus the
## DARTH_EVAL_THREADS paths. Also part of `make test`; kept
## addressable so `make verify` names it.
serve-smoke:
	$(CARGO) test -q -p darth_serve --test smoke
	$(CARGO) test -q -p darth_serve --test determinism

## The Monte-Carlo accuracy smoke suite: zero-sigma noise-injected
## trials reproduce the golden registry bit-exactly across the DSE
## smoke grid, a noisy campaign is bit-identical across worker counts
## {1, 2, 64} and reruns (plus the property suite over random seeds),
## noise-off executions consume zero RNG draws on the full path, and
## accuracy attaches to the darth-dse-sweep/v2 JSON. Also part of
## `make test`; kept addressable so `make verify` names it.
mc-smoke:
	$(CARGO) test -q -p darth_eval --test mc_smoke
	$(CARGO) test -q -p darth_sim --test noise_determinism

## The Monte-Carlo accuracy campaign at the paper's SAR and ramp design
## points: noise-injected trials of the standard functional workloads
## (zero-sigma gate first), per-workload error statistics and trial
## throughput; writes BENCH_mc.json. Tune with DARTH_MC_TRIALS.
mc:
	$(CARGO) run -q --release -p darth_bench --bin mc

## The serving benchmark: a >=1M-request deterministic bursty trace,
## mixed over the standard class registry, served on an 8-chip fleet
## from the default DSE sweep's Pareto frontier; writes
## BENCH_serve.json (offered vs sustained throughput, p50/p99/p999
## latency, batch histogram, cache hit rates, per-chip utilization,
## warm-vs-cold resident-program comparison). Tune with
## DARTH_SERVE_REQUESTS / DARTH_SERVE_SEED / DARTH_SERVE_LOAD.
serve:
	$(CARGO) run -q --release -p darth_bench --bin serve

## The repository benchmark (perfbench/, declared in BENCHMARK.json):
## each workload once at seed 1, end-to-end metrics only. The last line
## of each run is its JSON record; stderr repeats the metrics as a table.
PERFBENCH_WORKLOADS ?= serve-steady serve-churn mc-noisy
PERFBENCH_SECONDS ?= 15
perfbench:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "==== $$w ===="; \
		$(CARGO) run --release --quiet --manifest-path perfbench/Cargo.toml -- \
			--workload $$w --seed 1 --seconds $(PERFBENCH_SECONDS) --trace 0 || exit 1; \
	done

## The benchmark package's own tests (it is a separate cargo package,
## so `cargo test` at the root never builds it).
perfbench-test:
	$(CARGO) test --release --manifest-path perfbench/Cargo.toml

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

## Rustdoc for every workspace crate; warnings are errors.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

## Clippy across all targets; warnings are errors.
lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

## Criterion benches (offline vendor harness; see vendor/criterion).
bench:
	$(CARGO) bench -p darth_bench

## Compile benches + examples without running them (part of `make
## verify`: bench targets are `test = false`, so `cargo test` never
## builds them).
bench-check:
	$(CARGO) bench -p darth_bench --no-run
	$(CARGO) build --examples

## Regenerate every paper figure/table binary (prints to stdout; each
## also drops a BENCH_<figure>.json report).
figures:
	@for bin in fig7 fig13 fig14 fig15 fig16 fig17 fig18 tables noise_accuracy; do \
		echo "==== $$bin ===="; \
		$(CARGO) run -q --release -p darth_bench --bin $$bin; \
	done

## Price the full extended workload x architecture matrix through the
## evaluation engine (serial vs parallel timing) and write BENCH_eval.json.
eval:
	$(CARGO) run -q --release -p darth_bench --bin eval

## The design-space sweep: the default 48-config grid (ADC kind x
## resolution x crossbar geometry x slicing x clock) priced on the full
## extended workload registry, with Pareto frontiers and best-config
## tables; writes BENCH_dse.json.
dse:
	$(CARGO) run -q --release -p darth_bench --bin dse

## Price the bulk scenarios (>=1M-block AES, seq-4096 + GPT-2-XL
## encoders, ResNet-110) under a hard memory ceiling, writing
## BENCH_eval_large.json — then demonstrate that the materialized path
## cannot fit under the same ceiling (its OOM abort is the expected
## outcome of the second step).
eval-large: build
	@echo "== streaming pipeline under ulimit -v $(EVAL_LARGE_CAP_KB) KB =="
	@bash -c 'ulimit -v $(EVAL_LARGE_CAP_KB); exec ./target/release/eval_large'
	@echo "== materialized path under the same ceiling (expected to fail) =="
	@if bash -c 'ulimit -v $(EVAL_LARGE_CAP_KB); exec ./target/release/eval_large --materialized' 2>/dev/null; then \
		echo "ERROR: the materialized path fit under the cap — the demonstration is broken"; \
		exit 1; \
	else \
		echo "materialized path exceeded the $(EVAL_LARGE_CAP_KB) KB cap, as expected"; \
	fi

clean:
	$(CARGO) clean
