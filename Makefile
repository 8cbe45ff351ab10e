# Developer entry points.  Everything runs with PYTHONPATH=src; no
# installation step is required.

PY := PYTHONPATH=src python

#: The per-record reference replayer (tests/oracle.py) behind the
#: `python -m repro.traces` CLI, plus its `reencode` command, for
#: differential smoke checks.
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

.PHONY: test test-slow \
        experiments experiments-full experiments-smoke faults-smoke \
        trace-demo trace-demo-mc corpus-demo loadgen-smoke kernel-smoke \
        encode-smoke synth-smoke telemetry-smoke serve-smoke live-check \
        cold-check

#: Scratch directory for the fault-injection matrix (wiped each run).
FAULTS_DIR ?= .repro-faults

## Tier-1 verification: the full test + microbenchmark session.
test:
	$(PY) -m pytest -x -q

## The minutes-scale figure-regeneration benchmarks (deselected from
## the default session; CI runs this as its own step).
test-slow:
	$(PY) -m pytest -x -q -m slow

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
## 4, 10, 11 and 12 by synthesis, without the trace corpus, and diff
## them against results/reference/ (--check exits non-zero on drift).
## The report and results land in a private mktemp dir removed on exit.
live-check:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(PY) -m repro run fig04 fig10 fig11 fig12 --no-corpus --check --jobs 1 \
		--output "$$dir/EXPERIMENTS.partial.md" --results-dir "$$dir/results"

## CI gate for the cold corpus path: record Figures 10 and 11 into a
## fresh mktemp corpus and diff them against results/reference/, then
## `corpus verify` (re-derives every digest by decoding each object and
## replays every footer), then rerun both figures warm and require that
## the rerun wrote nothing into the corpus: no object published, no
## manifest line appended, so it built nothing.
cold-check:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for pass in cold warm; do \
		if [ $$pass = warm ]; then touch "$$dir/cold.done"; fi; \
		REPRO_CORPUS_DIR="$$dir/corpus" $(PY) -m repro run fig10 fig11 \
			--check --jobs 1 --output "$$dir/$$pass.md" \
			--results-dir "$$dir/$$pass"; \
		if [ $$pass = cold ]; then \
			$(PY) -m repro.corpus --root "$$dir/corpus" verify; \
		fi; \
	done; \
	written=$$(find "$$dir/corpus" -newer "$$dir/cold.done"); \
	if [ -n "$$written" ]; then \
		echo "cold-check: the warm rerun wrote into the corpus:"; \
		echo "$$written"; exit 1; \
	fi; \
	echo "cold-check: cold build matches the reference, verifies, and reruns warm with nothing built"

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
## CALTRC02 trace, replay it through the production CLI (timing +
## hierarchy + shared-L3 modes) and through the per-record oracle in
## tests/oracle.py (the same CLI with the oracle's scalar decoder and
## replayers swapped in), and require byte-identical statistics output.
## The recording's CALTRC01 twin (`python -m oracle canonical`, written
## by the oracle's RecordWriter) goes through `python -m oracle
## transcode`, the path for old CALTRC01 files: the result must equal
## the recording byte for byte and replay to the same summaries.
## The attack driver and the loadgen composer each record a trace too:
## their footers come from the same accountant as the production replay,
## so the oracle's timing replay is the independent check of those
## writers.  The dma-mixed recording's pre-warm sweep spans several
## SWEEP_BLOCKs, which its live accountant applies as ascending blocks
## (the kernel's closed form, into cold and into half-filled L3 sets);
## both replays check their counts against that recorded footer.  The
## scan-heavy recording's sweep (a 4 MB heap, 65,536 lines) is longer
## than L3's 32,768 ways, so L3 holds it as one ascending run over
## several blocks and takes the run's tail as its rows.  The printed
## replay summaries carry no timing, so `cmp` is the whole check.
kernel-smoke:
	@$(DEMO_DIR_SETUP); \
	trace="$$dir/server-churn.trace"; \
	$(PY) -m repro.traces record --scenario server-churn \
		--instructions 8000 --out "$$trace"; \
	for mode in timing hierarchy; do \
		$(PY) -m repro.traces replay "$$trace" \
			--mode $$mode > "$$dir/$$mode-kernel.txt"; \
		$(ORACLE) replay "$$trace" \
			--mode $$mode > "$$dir/$$mode-oracle.txt"; \
		cmp "$$dir/$$mode-kernel.txt" "$$dir/$$mode-oracle.txt"; \
	done; \
	$(PY) -m repro.traces replay-mc "$$trace" \
		--cores 2 > "$$dir/mc-kernel.txt"; \
	$(ORACLE) replay-mc "$$trace" --cores 2 > "$$dir/mc-oracle.txt"; \
	cmp "$$dir/mc-kernel.txt" "$$dir/mc-oracle.txt"; \
	$(ORACLE) canonical "$$trace" --out "$$dir/server-churn.v1.trace"; \
	$(ORACLE) transcode "$$dir/server-churn.v1.trace" \
		--out "$$dir/transcoded.trace"; \
	cmp "$$trace" "$$dir/transcoded.trace"; \
	for mode in timing hierarchy; do \
		$(PY) -m repro.traces replay "$$dir/transcoded.trace" \
			--mode $$mode > "$$dir/$$mode-transcoded.txt"; \
		cmp "$$dir/$$mode-kernel.txt" "$$dir/$$mode-transcoded.txt"; \
	done; \
	$(PY) -m repro.traces record --scenario attack-replay \
		--instructions 8000 --out "$$dir/attack-replay.trace"; \
	$(PY) -m repro loadgen generate uniform-churn \
		--out "$$dir/uniform-churn.trace"; \
	$(PY) -m repro.traces record --scenario dma-mixed \
		--instructions 8000 --out "$$dir/dma-mixed.trace"; \
	$(PY) -m repro.traces record --scenario scan-heavy \
		--instructions 8000 --out "$$dir/scan-heavy.trace"; \
	for name in attack-replay uniform-churn dma-mixed scan-heavy; do \
		trace="$$dir/$$name.trace"; \
		$(PY) -m repro.traces replay "$$trace" > "$$dir/$$name-kernel.txt"; \
		$(ORACLE) replay "$$trace" > "$$dir/$$name-oracle.txt"; \
		cmp "$$dir/$$name-kernel.txt" "$$dir/$$name-oracle.txt"; \
	done; \
	echo "kernel-smoke: the kernel and the per-record oracle agree on CALTRC02, on a CALTRC01 file transcoded back, on the attack and loadgen writers, and on pre-warm sweeps of several ascending blocks, one longer than L3"

## CI gate for the columnar trace writers: record CALTRC02 traces of
## the workload generator (server-churn, and dma-mixed with CFORM
## walks), the attack driver and a composed loadgen trace, then rewrite
## each through the per-record oracle (tests/oracle.py: scalar decoder,
## one token probe per record, frames cut by the same rule) and require
## byte-identical files.
encode-smoke:
	@$(DEMO_DIR_SETUP); \
	for name in server-churn dma-mixed attack-replay; do \
		$(PY) -m repro.traces record --scenario $$name \
			--instructions 8000 --out "$$dir/$$name.trace"; \
	done; \
	$(PY) -m repro loadgen generate uniform-churn \
		--out "$$dir/uniform-churn.trace"; \
	for name in server-churn dma-mixed attack-replay uniform-churn; do \
		$(ORACLE) reencode "$$dir/$$name.trace" \
			--out "$$dir/$$name.oracle.trace"; \
		cmp "$$dir/$$name.trace" "$$dir/$$name.oracle.trace"; \
	done; \
	echo "encode-smoke: the columnar writers and the per-record oracle write identical bytes"

## CI gate for the columnar workload synthesis: record CALTRC02 traces
## of server-churn, dma-mixed (CFORM walks) and fragmentation-heavy (raw
## bursts of 5 touches, whose words the generator draws in one batch;
## the oracle calls random() per touch) and a composed loadgen trace,
## once through the production writers and once through the per-record
## generator and per-arrival merge of tests/oracle.py (`python -m oracle
## record`), and require byte-identical files, so the record streams,
## EPOCH placement and the composer's burst cuts all agree.
synth-smoke:
	@$(DEMO_DIR_SETUP); \
	for name in server-churn dma-mixed fragmentation-heavy; do \
		$(PY) -m repro.traces record --scenario $$name \
			--instructions 8000 --out "$$dir/$$name.trace"; \
		$(ORACLE) record --scenario $$name \
			--instructions 8000 --out "$$dir/$$name.oracle.trace"; \
	done; \
	$(PY) -m repro loadgen generate uniform-churn \
		--out "$$dir/uniform-churn.trace"; \
	$(ORACLE) record --load uniform-churn \
		--out "$$dir/uniform-churn.oracle.trace"; \
	for name in server-churn dma-mixed fragmentation-heavy uniform-churn; do \
		cmp "$$dir/$$name.trace" "$$dir/$$name.oracle.trace"; \
	done; \
	echo "synth-smoke: the columnar generator and the per-record oracle record identical bytes"

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
