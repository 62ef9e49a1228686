# Developer entry points.  `make test` is the tier-1 gate from ROADMAP.md.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-quick lint experiments perf perf-quick \
	coverage examples-smoke docs docs-test metrics-smoke serve load-smoke \
	overload-smoke

test:
	$(PYTHON) -m pytest -x -q

# extra pytest flags for the benchmark run (e.g. BENCH_ARGS="--perf-record DIR")
BENCH_ARGS ?=

bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-only $(BENCH_ARGS)

# assertion-only pass over the oracle + dynamic-engine + serving
# benchmarks (fast enough for CI): bit-identical matrices, APSP-once,
# zero-APSP sessions, no duplicate solves under concurrency, worker-pool
# serial equivalence + no-graph-pickling, and the E11 service-cache hit
# rates.  Wall-clock floors (the E13 >=3x churn win, the E14/E15 >=2x
# worker scaling, E11's <=25% batch wall in `test_experiment_passes`) are
# deselected here — timing asserts belong to the calibrated perf gate,
# the timed `make bench` tier and the CI pool-scaling job, not the
# per-push correctness tier, where shared-runner noise would flake them.
bench-quick:
	$(PYTHON) -m pytest benchmarks/bench_e12_apsp_oracle.py \
		benchmarks/bench_e13_dynamic_updates.py \
		benchmarks/bench_e14_concurrent_service.py \
		benchmarks/bench_e15_shm_pool.py \
		benchmarks/bench_e16_network_service.py \
		benchmarks/bench_e17_oracle_scaling.py -q --benchmark-disable \
		-k "not speedup and not large2048"
	$(PYTHON) -m pytest benchmarks/bench_e11_service_cache.py -q \
		--benchmark-disable -k "not experiment_passes"

# line-coverage gate: measured ~95% at the time of pinning; the floor sits
# a few points under so noise in line accounting never flakes the CI
# `coverage` job, while a real coverage drop still fails it.
# Requires pytest-cov (requirements-dev.txt).
COV_MIN ?= 92

coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term \
		--cov-fail-under=$(COV_MIN)

# every example must run to completion, each under a timeout (CI smoke job)
EXAMPLES_TIMEOUT ?= 120

examples-smoke:
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; \
		timeout $(EXAMPLES_TIMEOUT) $(PYTHON) $$f > /dev/null; \
	done; echo "examples-smoke: all examples ran"

# docstring-coverage floor (ISSUE 5).  CI installs the real `interrogate`
# (requirements-dev.txt) and uses it; tools/docstring_coverage.py mirrors
# its default counting rules for machines without it, so the gate runs
# everywhere.
DOC_COV_MIN ?= 85

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	$(PYTHON) -c "import repro; print('import ok:', repro.__version__)"
	$(PYTHON) -m pytest tests benchmarks --collect-only -qq
	$(PYTHON) tools/metrics_lint.py --scan src/repro tools
	@if $(PYTHON) -c "import interrogate" 2>/dev/null; then \
		$(PYTHON) -m interrogate --fail-under $(DOC_COV_MIN) src/repro; \
	else \
		$(PYTHON) tools/docstring_coverage.py --fail-under $(DOC_COV_MIN) src/repro; \
	fi

# run the built-in quick workload, render the Prometheus exposition, and
# fail unless it parses and contains every catalogued metric family
metrics-smoke:
	$(PYTHON) -m repro metrics --format prom \
		| $(PYTHON) tools/metrics_lint.py --check-exposition -

# run the HTTP front end on the default port (Ctrl-C drains gracefully)
SERVE_ARGS ?=

serve:
	$(PYTHON) -m repro serve $(SERVE_ARGS)

# CI load-smoke contract: self-serve a server, hold a low fixed offered
# rate that the server must absorb with ZERO request errors, then scrape
# /metrics and fail unless the exposition parses under the Prometheus
# 0.0.4 grammar.  Low rate on purpose — this is a correctness smoke for
# the wire path on shared runners; the wire view's end-to-end latency
# and throughput are measured by servebench/.
LOAD_SMOKE_RATE ?= 20
LOAD_SMOKE_SECONDS ?= 2

load-smoke:
	$(PYTHON) -m repro load --rate $(LOAD_SMOKE_RATE) \
		--duration $(LOAD_SMOKE_SECONDS) --no-offload \
		--fail-on-errors --json --dump-metrics load-smoke.prom
	$(PYTHON) tools/metrics_lint.py --check-exposition load-smoke.prom
	@rm -f load-smoke.prom

# CI overload-smoke contract: ramp a deliberately starved server (one
# inline worker, tiny queue, capacity-1 cache so every request is cold)
# well past its exact-tier capacity with auto-tier payloads carrying a
# real deadline.  `--fail-on-errors` demands ZERO errors and ZERO
# infeasible responses — intentional shedding (429/504) is fine — and
# `--expect-approx` demands the router actually degraded: an overload
# the approx tier never answered means QoS routing is dead.  The scraped
# exposition must still parse and carry every catalogued family.
OVERLOAD_SMOKE_RATE ?= 120
OVERLOAD_SMOKE_SECONDS ?= 2

overload-smoke:
	$(PYTHON) -m repro load --rate $(OVERLOAD_SMOKE_RATE) \
		--duration $(OVERLOAD_SMOKE_SECONDS) --workers 1 --no-offload \
		--queue-size 4 --cache-capacity 1 --tier auto --deadline-ms 500 \
		--payload-count 8 --fail-on-errors --expect-approx --json \
		--dump-metrics overload-smoke.prom
	$(PYTHON) tools/metrics_lint.py --check-exposition overload-smoke.prom
	@rm -f overload-smoke.prom

# regenerate the generated documentation (docs/cli.md); tests/test_docs.py
# fails when the committed file drifts from the argparse tree
docs:
	$(PYTHON) tools/render_cli_docs.py

# executable-documentation gate: every fenced python snippet in README.md
# and docs/*.md runs, and docs/cli.md matches the live parser
docs-test:
	$(PYTHON) -m pytest tests/test_docs.py -q

experiments:
	$(PYTHON) -m repro experiment

# full perf trajectory: emit BENCH_<k>.json, then gate it against the
# committed baseline (benchmarks/baseline.json).  PERF_DIR picks where the
# trajectory lands (default: repo root, continuing the committed numbering;
# CI points it at a scratch dir so the artifact holds only the new file).
PERF_DIR ?= .

perf:
	$(PYTHON) -m repro perf run --dir $(PERF_DIR)
	$(PYTHON) -m repro perf compare --dir $(PERF_DIR)

# one matrix leg, small sizes — the CI perf-gate entry point
perf-quick:
	$(PYTHON) -m repro perf run --quick --dir $(PERF_DIR)
	$(PYTHON) -m repro perf compare --dir $(PERF_DIR)
