# Convenience targets for the FaasCache reproduction.

PYTHON ?= python

.PHONY: install ci-install test bench-pytest paper-figures ledger-smoke import-budget ledger-pairs fairness serve live-smoke lint typecheck check sanitize examples reproduce clean

install:
	$(PYTHON) setup.py develop

# The editable install CI jobs use (mirrors .github/actions/setup).
# EXTRAS selects optional dependency groups: make ci-install EXTRAS=[dev]
ci-install:
	$(PYTHON) -m pip install -e ".$(EXTRAS)"

test:
	$(PYTHON) -m pytest tests/

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Every bench module run, its claim asserts with it, and every committed
# result file required to be exactly what the code prints: the paper's
# figures and tables, the ablations and the extensions. The GD kernel
# answers 16 of the Figure 5/6 sweeps' 17 GD cells, so the diff fails if
# it ever leaves the loop on the paper's own numbers. Benches that only
# time things print to stdout.
paper-figures:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -q -p no:cacheprovider --benchmark-disable \
		bench_*.py
	git diff --exit-code -- benchmarks/results/

# The repo's benchmark (BENCHMARK.json) smoke-sized, plus the harness's
# own unit tests: every declared metric emitted, no probe target
# missing, outcome fingerprints equal benchmarks/ledger/EXPECTED.json.
ledger-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ledger -q

# The tool's own cold start (docs/performance.md): the 15 costliest
# imports, by self time, of four entry points in a fresh interpreter,
# each followed by that interpreter's peak RSS (VmHWM, read at exit
# from /proc/self/status); the replay probe's wall time (best of seven
# fresh interpreters) and VmHWM with bytecode cached (a
# PYTHONPYCACHEPREFIX filled by one discarded run) and uncached
# (PYTHONDONTWRITEBYTECODE=1, as the benchmark reads setup_s), both on
# a copy of src/ with no __pycache__; then the exact module budget.
IMPORTTIME = PYTHONPATH=src $(PYTHON) -X importtime -c
VMHWM = import atexit, sys; atexit.register(lambda: print(*next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split(), file=sys.stderr));
REPLAY_PROBE = import repro.sim.scheduler, repro.sim.columnar, repro.traces.streaming
TOP15 = 2>&1 >/dev/null | awk '/^VmHWM/ { hwm = $$0; next } /^import time/ { print | "sort -t: -k2 -n | tail -15" } END { close("sort -t: -k2 -n | tail -15"); print hwm }'
import-budget:
	@echo "== replay probe (the ledger's import child)"
	@$(IMPORTTIME) "$(VMHWM) $(REPLAY_PROBE)" $(TOP15)
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && cp -r src "$$tmp" && \
	find "$$tmp/src" -name __pycache__ -prune -exec rm -rf {} + && \
	cached="env -u PYTHONDONTWRITEBYTECODE PYTHONPYCACHEPREFIX=$$tmp/pycache" && \
	$$cached PYTHONPATH="$$tmp/src" $(PYTHON) -c "$(REPLAY_PROBE)" && \
	for cell in "cached|$$cached" "uncached|env PYTHONDONTWRITEBYTECODE=1"; do \
		echo "== replay probe, bytecode $${cell%%|*}"; \
		$${cell#*|} PYTHONPATH="$$tmp/src" $(PYTHON) -m timeit -n 1 -r 7 -s "import subprocess, sys" \
			"subprocess.run([sys.executable, '-c', '$(REPLAY_PROBE)'], check=True)" && \
		$${cell#*|} PYTHONPATH="$$tmp/src" $(PYTHON) -c "$(VMHWM) $(REPLAY_PROBE)" || exit 1; \
	done
	@echo "== cli --help"
	@$(IMPORTTIME) "$(VMHWM) import repro.cli; repro.cli.main()" --help $(TOP15)
	@echo "== serve (modules behind the serve subcommand)"
	@$(IMPORTTIME) "$(VMHWM) import repro.cli, repro.core.clock, repro.live.server, repro.live.service, repro.traces.io" $(TOP15)
	@echo "== GD replay under memory pressure (skewed-frequency, 256 MB, through simulate())"
	@$(IMPORTTIME) "$(VMHWM) from repro.sim.scheduler import simulate; from repro.traces.synth import skewed_frequency_trace; assert simulate(skewed_frequency_trace(), 'GD', 256.0).path == 'gd-kernel'" $(TOP15)
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
# counter consistency, a decision p99 ceiling scaled by the host's speed.
live-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/live_smoke_gate.py

# Both need their tool installed (pip install -e ".[lint]" / ".[typecheck]").
lint:
	ruff check src tests benchmarks
	$(PYTHON) -m compileall -q src

typecheck:
	mypy src/repro

# The determinism linter (rules FC001, FC002, FC003, FC007; see
# docs/static-analysis.md). Stdlib-only: needs no extra installs.
check:
	PYTHONPATH=src $(PYTHON) -m repro.checks src tests --stats

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

# benchmarks/results holds committed figures: drop only what is untracked.
clean:
	rm -rf .pytest_cache .benchmarks
	git clean -fdqx -- benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
