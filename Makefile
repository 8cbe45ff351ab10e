# Developer entry points.  Everything runs with PYTHONPATH=src; no
# installation step is required.

PY := PYTHONPATH=src python

#: The per-record reference replayer (tests/oracle.py) behind the
#: `python -m repro.traces` CLI, for differential smoke checks.
ORACLE := PYTHONPATH=src:tests python -m oracle

#: Scratch directory for the trace-demo targets.  Unset (the default),
#: each run works in a private mktemp dir and removes it on exit, so
#: concurrent CI jobs and multi-user machines cannot collide; set it to
#: keep the produced traces around for inspection.
TRACE_DEMO_DIR ?=

#: Shared recipe prologue for the demo targets: pick the scratch dir
#: (private mktemp removed on exit, or the kept TRACE_DEMO_DIR).
DEMO_DIR_SETUP = set -e; dir="$(TRACE_DEMO_DIR)"; \
	if [ -z "$$dir" ]; then dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	else mkdir -p "$$dir"; fi

#: Corpus store root for the corpus-demo target (kept between runs so
#: the second build demonstrates pure corpus hits; CI caches it).
CORPUS_DIR ?= .repro-corpus

.PHONY: test test-slow bench bench-quick bench-smoke bench-profile \
        experiments experiments-full experiments-smoke faults-smoke \
        trace-demo trace-demo-mc corpus-demo loadgen-smoke kernel-smoke \
        telemetry-smoke serve-smoke live-check

#: Scratch directory for the fault-injection matrix (wiped each run).
FAULTS_DIR ?= .repro-faults

## Tier-1 verification: the full test + microbenchmark session.
test:
	$(PY) -m pytest -x -q

## The minutes-scale figure-regeneration benchmarks (deselected from
## the default session; CI runs this as its own step).
test-slow:
	$(PY) -m pytest -x -q -m slow

## Record a full BENCH_<timestamp>.json trajectory entry.
bench:
	$(PY) -m repro.perf $(BENCH_ARGS)

## Fast smoke run (small workloads, no report written).
bench-quick:
	$(PY) -m repro.perf --quick --no-write

## CI alias for the smoke run (the workflow gate).
bench-smoke: bench-quick

## Full run plus cProfile dumps under benchmarks/trajectory/profiles/.
bench-profile:
	$(PY) -m repro.perf --profile $(BENCH_ARGS)

## Regenerate EXPERIMENTS.md + results/*.json (quick profile).
experiments:
	$(PY) -m repro run

## Full-fidelity experiments, parallelised across 4 worker processes.
experiments-full:
	$(PY) -m repro run --full --jobs 4

## CI gate: the whole experiment matrix at quick profile, 2 workers;
## writes EXPERIMENTS.md and the results/*.json artifact set.
experiments-smoke:
	$(PY) -m repro run --profile quick --jobs 2

## CI gate for the live (--no-corpus) figure path: regenerate Figures
## 10 and 12 by synthesis, without the trace corpus, and diff them
## against results/reference/ (--check exits non-zero on drift).  The
## report and results land in a private mktemp dir removed on exit.
live-check:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(PY) -m repro run fig10 fig12 --no-corpus --check --jobs 1 \
		--output "$$dir/EXPERIMENTS.partial.md" --results-dir "$$dir/results"

## CI gate: the fault-injection matrix — every fault kind against every
## consumer (ensure / replay / verify --repair / lock / runner), each
## cell asserting self-heal back to byte-identical state.  See
## docs/RELIABILITY.md; the scratch stores land in FAULTS_DIR.
faults-smoke:
	$(PY) -m repro faults matrix --root "$(FAULTS_DIR)" \
		--json "$(FAULTS_DIR)-cases.json"

#: Results directory for the telemetry-smoke run (kept, so CI can
#: upload the metrics/span artifacts).
TELEMETRY_DIR ?= .repro-telemetry

## CI gate for the telemetry subsystem: run two quick sections with
## spans + per-section cProfile, assert the exported artifacts exist
## and parse (metrics.json schema, span log schema, Prometheus text),
## then read the sidecar back through the CLI.  See docs/OBSERVABILITY.md.
telemetry-smoke:
	set -e; rm -rf "$(TELEMETRY_DIR)"; \
	$(PY) -m repro run fig03 table1 --profile-sections \
		--results-dir "$(TELEMETRY_DIR)" \
		--output "$(TELEMETRY_DIR)/EXPERIMENTS.partial.md"; \
	$(PY) -c "import json, sys; \
	from repro.telemetry.export import validate_metrics_document, validate_span_log; \
	doc = json.load(open('$(TELEMETRY_DIR)/telemetry/metrics.json')); \
	problems = validate_metrics_document(doc) \
	    + validate_span_log('$(TELEMETRY_DIR)/telemetry/spans.jsonl'); \
	[print('FAIL', p) for p in problems]; \
	sys.exit(1 if problems else 0)"; \
	$(PY) -c "import sys; \
	text = open('$(TELEMETRY_DIR)/telemetry/metrics.prom').read(); \
	sys.exit(0 if '# TYPE' in text else 1)"; \
	$(PY) -m repro telemetry summarize "$(TELEMETRY_DIR)/telemetry"; \
	echo "telemetry-smoke: artifacts present, schemas valid"

#: Working directory for the serve-smoke run (kept, so CI can upload
#: the server log on failure).
SERVE_DIR ?= .repro-serve

## CI gate for the corpus/experiment service: build a tiny corpus +
## pack + results doc, start `repro serve` on an ephemeral port, then
## drive it with scripts/serve_smoke.py — fetch-by-digest byte
## identity, replay identity through the RemoteStore, results 200→304
## revalidation, a digest-verified pack round-trip, a streamed job, and
## a parseable /metrics body.  See docs/SERVICE.md; the server log
## lands in SERVE_DIR/serve.log.
serve-smoke:
	set -e; rm -rf "$(SERVE_DIR)"; mkdir -p "$(SERVE_DIR)/results"; \
	$(PY) -m repro corpus --root "$(SERVE_DIR)/corpus" build \
		--scenario server-churn --instructions 4000; \
	$(PY) -m repro corpus --root "$(SERVE_DIR)/corpus" pack; \
	$(PY) -c "import json; \
	from repro.experiments.results import RESULT_SCHEMA; \
	json.dump({'schema': RESULT_SCHEMA, 'section': 'smoke', \
	'title': 'serve smoke', 'data': {'ok': 1}}, \
	open('$(SERVE_DIR)/results/smoke.json', 'w'))"; \
	$(PY) -m repro serve --port 0 --corpus "$(SERVE_DIR)/corpus" \
		--results-dir "$(SERVE_DIR)/results" \
		--port-file "$(SERVE_DIR)/port" \
		> "$(SERVE_DIR)/serve.log" 2>&1 & \
	pid=$$!; trap 'kill $$pid 2>/dev/null || true' EXIT; \
	i=0; until [ -s "$(SERVE_DIR)/port" ] || [ $$i -ge 100 ]; do \
		sleep 0.1; i=$$((i+1)); done; \
	[ -s "$(SERVE_DIR)/port" ] || { cat "$(SERVE_DIR)/serve.log"; exit 1; }; \
	$(PY) scripts/serve_smoke.py \
		"http://127.0.0.1:$$(cat $(SERVE_DIR)/port)" "$(SERVE_DIR)/corpus"

## Trace engine end-to-end: record -> info -> shard -> parallel replay.
## Runs in a private mktemp dir (removed on exit) unless TRACE_DEMO_DIR
## is set, in which case that directory is used and kept.
trace-demo:
	@$(DEMO_DIR_SETUP); \
	$(PY) -m repro.traces list; \
	$(PY) -m repro.traces record --scenario server-churn \
		--instructions 8000 --out "$$dir/server-churn.trace"; \
	$(PY) -m repro.traces info "$$dir/server-churn.trace"; \
	$(PY) -m repro.traces replay "$$dir/server-churn.trace"; \
	$(PY) -m repro.traces shard "$$dir/server-churn.trace" \
		--out-dir "$$dir/shards" --shards 4; \
	$(PY) -m repro.traces replay-shards "$$dir/shards"/*.trace --jobs 2; \
	$(PY) -m repro.traces replay "$$dir/server-churn.trace" --mode hierarchy

## Corpus store end-to-end: build the registry corpus (recording what's
## missing), list + hash-verify it, rebuild to show pure corpus hits,
## then gc.  The store persists in CORPUS_DIR across runs.
corpus-demo:
	$(PY) -m repro.corpus --root "$(CORPUS_DIR)" build --instructions 8000
	$(PY) -m repro.corpus --root "$(CORPUS_DIR)" ls
	$(PY) -m repro.corpus --root "$(CORPUS_DIR)" verify
	$(PY) -m repro.corpus --root "$(CORPUS_DIR)" build --instructions 8000
	$(PY) -m repro.corpus --root "$(CORPUS_DIR)" gc

#: Output directory for the loadgen-smoke trace artifacts (kept, so CI
#: can upload them).
LOADGEN_DIR ?= .repro-loadgen

## Traffic engine end-to-end: list scenarios/sets, compose the smallest
## synthetic member twice (byte-identical determinism check), then
## inspect + replay the trace with footer verification.
loadgen-smoke:
	set -e; mkdir -p "$(LOADGEN_DIR)"; \
	$(PY) -m repro loadgen list; \
	$(PY) -m repro loadgen sets; \
	$(PY) -m repro loadgen generate uniform-churn \
		--out "$(LOADGEN_DIR)/uniform-churn.trace"; \
	$(PY) -m repro loadgen generate uniform-churn \
		--out "$(LOADGEN_DIR)/uniform-churn-2.trace"; \
	cmp "$(LOADGEN_DIR)/uniform-churn.trace" \
		"$(LOADGEN_DIR)/uniform-churn-2.trace"; \
	$(PY) -m repro.traces info "$(LOADGEN_DIR)/uniform-churn.trace"; \
	$(PY) -m repro.traces replay "$(LOADGEN_DIR)/uniform-churn.trace"

## CI gate for the LRU kernel and the columnar decoder: record a
## trace in both containers (compressed CALTRC02 and its fixed-record
## CALTRC01 twin), replay each through the production CLI (timing +
## hierarchy + shared-L3 modes) and through the per-record oracle in
## tests/oracle.py (the same CLI with the oracle's scalar decoder and
## replayers swapped in), and require byte-identical statistics output.
## The attack driver and the loadgen composer each record a trace too:
## their footers come from the same accountant as the production replay,
## so the oracle's timing replay is the independent check of those
## writers.  The printed replay summaries carry no timing, so `cmp` is
## the whole check.
kernel-smoke:
	@$(DEMO_DIR_SETUP); \
	$(PY) -m repro.traces record --scenario server-churn \
		--instructions 8000 --compress \
		--out "$$dir/server-churn.v2.trace"; \
	$(PY) -m repro.traces record --scenario server-churn \
		--instructions 8000 --out "$$dir/server-churn.v1.trace"; \
	for version in v1 v2; do \
		trace="$$dir/server-churn.$$version.trace"; \
		for mode in timing hierarchy; do \
			$(PY) -m repro.traces replay "$$trace" \
				--mode $$mode > "$$dir/$$version-$$mode-kernel.txt"; \
			$(ORACLE) replay "$$trace" \
				--mode $$mode > "$$dir/$$version-$$mode-oracle.txt"; \
			cmp "$$dir/$$version-$$mode-kernel.txt" \
				"$$dir/$$version-$$mode-oracle.txt"; \
		done; \
		$(PY) -m repro.traces replay-mc "$$trace" \
			--cores 2 > "$$dir/$$version-mc-kernel.txt"; \
		$(ORACLE) replay-mc "$$trace" \
			--cores 2 > "$$dir/$$version-mc-oracle.txt"; \
		cmp "$$dir/$$version-mc-kernel.txt" "$$dir/$$version-mc-oracle.txt"; \
	done; \
	$(PY) -m repro.traces record --scenario attack-replay \
		--instructions 8000 --out "$$dir/attack-replay.trace"; \
	$(PY) -m repro loadgen generate uniform-churn \
		--out "$$dir/uniform-churn.trace"; \
	for name in attack-replay uniform-churn; do \
		trace="$$dir/$$name.trace"; \
		$(PY) -m repro.traces replay "$$trace" > "$$dir/$$name-kernel.txt"; \
		$(ORACLE) replay "$$trace" > "$$dir/$$name-oracle.txt"; \
		cmp "$$dir/$$name-kernel.txt" "$$dir/$$name-oracle.txt"; \
	done; \
	echo "kernel-smoke: the kernel and the per-record oracle agree on CALTRC01 and CALTRC02, and on the attack and loadgen writers"

## Multi-core trace engine end-to-end: record a pair, replay it against
## the shared L3 (2 homogeneous cores, then a named antagonist mix).
trace-demo-mc:
	@$(DEMO_DIR_SETUP); \
	$(PY) -m repro.traces record --scenario server-churn \
		--instructions 8000 --out "$$dir/server-churn.trace"; \
	$(PY) -m repro.traces replay-mc "$$dir/server-churn.trace" \
		--cores 2 --jobs 2; \
	$(PY) -m repro.traces replay-mc --mix server-vs-scan \
		--instructions 8000 --jobs 2
