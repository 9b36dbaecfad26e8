#!/usr/bin/env python
"""Run the pinned-seed benchmark suite (thin wrapper over repro.bench).

Usage:
    PYTHONPATH=src python benchmarks/run_bench.py \
        --baseline benchmarks/BASELINE.json

The report goes to the git-ignored ``BENCH_run.json`` unless ``--out``
names another path; the committed ``BENCH_local.json`` is refreshed
only on purpose, with ``--out BENCH_local.json``.

See docs/performance.md for methodology and baseline-update steps.
"""

import sys

from repro.bench import main

if __name__ == "__main__":
    sys.exit(main())
