# Convenience targets for the FaasCache reproduction.

PYTHON ?= python

.PHONY: install ci-install test bench bench-pytest bench-ci ledger-smoke import-budget ledger-pairs fairness serve live-smoke lint typecheck check check-incremental sanitize examples reproduce clean

install:
	$(PYTHON) setup.py develop

# The editable install CI jobs use (mirrors .github/actions/setup).
# EXTRAS selects optional dependency groups: make ci-install EXTRAS=[dev]
ci-install:
	$(PYTHON) -m pip install -e ".$(EXTRAS)"

test:
	$(PYTHON) -m pytest tests/

# Pinned-seed replay suite gated against the checked-in baseline
# (docs/performance.md). Writes BENCH_local.json.
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_bench.py --baseline benchmarks/BASELINE.json

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Machine-readable bench gate (what CI uploads as BENCH_ci.json).
bench-ci:
	$(PYTHON) benchmarks/ci_export.py --out BENCH_ci.json

# The repo's benchmark (BENCHMARK.json) smoke-sized, plus the harness's
# own unit tests: every declared metric emitted, no probe target
# missing, outcome fingerprints equal benchmarks/ledger/EXPECTED.json.
ledger-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ledger -q

# The tool's own cold start (docs/performance.md): the 15 costliest
# imports, by self time, of the three entry points in a fresh
# interpreter, then the exact module budget.
IMPORTTIME = PYTHONPATH=src $(PYTHON) -X importtime
TOP15 = 2>&1 >/dev/null | grep '^import time' | sort -t: -k2 -n | tail -15
import-budget:
	@echo "== replay probe (the ledger's import child)"
	@$(IMPORTTIME) -c "import repro.sim.scheduler, repro.sim.columnar, repro.traces.streaming" $(TOP15)
	@echo "== cli --help"
	@$(IMPORTTIME) -m repro.cli --help $(TOP15)
	@echo "== serve (modules behind the serve subcommand)"
	@$(IMPORTTIME) -c "import repro.cli, repro.core.clock, repro.live.server, repro.live.service, repro.traces.io" $(TOP15)
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_import_budget.py -q

# The perf protocol (docs/performance.md) in one command: >= 10
# alternating pairs of the ledger on BASE (a temporary git worktree)
# and on this tree; medians, quartiles and win counts per metric,
# and a verdict against BENCHMARK.json's bound; non-zero exit if any
# run is not `correct: true` or any metric reads WORSE. LAYERS=1 runs
# the pairs traced and summarises the per-layer rows instead; PAIRS=5
# SEED=7 repeats a claim on an unseen seed.
BASE ?= HEAD~1
WORKLOADS ?= gd_evict gd_warm
ledger-pairs:
	$(PYTHON) benchmarks/ledger_pairs.py --base $(BASE) --workloads $(WORKLOADS) \
		$(if $(LAYERS),--layers) $(if $(PAIRS),--pairs $(PAIRS)) $(if $(SEED),--seed $(SEED))

# Multi-tenant fairness determinism gate (docs/multi-tenancy.md):
# noisy-neighbor Jain's index pinned vs benchmarks/TENANT_FAIRNESS.json.
fairness:
	PYTHONPATH=src $(PYTHON) benchmarks/tenant_fairness_gate.py

# Live serving mode (docs/live-serving.md): a GD server on the
# built-in skewed-frequency workload. Override: make serve TRACE=day.json
TRACE ?= skewed-frequency
serve:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --trace $(TRACE) \
		--policy GD --memory-gb 8 --port 8077

# Two-process serve+loadgen smoke gate: zero 5xx, server/client
# counter consistency, calibration-normalized decision p99 ceiling.
live-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/live_smoke_gate.py

# Both need their tool installed (pip install -e ".[lint]" / ".[typecheck]").
lint:
	ruff check src tests benchmarks
	$(PYTHON) -m compileall -q src

typecheck:
	mypy src/repro

# The determinism & invariant linter (rules FC001-FC011, FC005
# retired; see docs/static-analysis.md). Stdlib-only: needs no extra
# installs.
# Uses the incremental cache (.repro-checks-cache.json) so warm
# re-runs finish in well under 2 seconds.
check:
	PYTHONPATH=src $(PYTHON) -m repro.checks src tests --stats

# CI's incremental-cache contract, locally: a cold run then a warm
# run, which must agree finding-for-finding (modulo the cache
# section of the stats) and hit the cache on every file.
check-incremental:
	rm -f .repro-checks-cache.json
	PYTHONPATH=src $(PYTHON) -m repro.checks src tests --stats-json .stats_cold.json
	PYTHONPATH=src $(PYTHON) -m repro.checks src tests --stats-json .stats_warm.json
	PYTHONPATH=src $(PYTHON) -c "import json; \
		cold = json.load(open('.stats_cold.json')); \
		warm = json.load(open('.stats_warm.json')); \
		assert warm['cache']['hit_rate'] == 1.0, warm['cache']; \
		cold.pop('cache'); warm.pop('cache'); \
		assert cold == warm, (cold, warm); \
		print('cold and warm runs agree')"

# Tier-1 tests with the runtime invariant sanitizer hooks enabled.
sanitize:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

# The full reproduction record: tests + every table/figure, tee'd to
# the repository root as EXPERIMENTS.md expects.
reproduce:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache benchmarks/results .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
