# Development targets for the IQB reproduction.
#
# `make verify` is the PR gate: the full tier-1 test suite, the
# paper-claim benches run once as plain tests, and the
# scoring-benchmark regression check against the checked-in baseline
# (benchmarks/BENCH_baseline.json). Run it before every push.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Suite-wide hang protection: enforced only where pytest-timeout is
# installed (CI installs it; a bare dev box without the plugin still
# runs the suite, just without the watchdog).
TIMEOUT_FLAG := $(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo --timeout=300)

# The paper-claim benches: every benchmarks/test_bench_*.py that the
# regression gate (compare_bench.BENCH_FILES) does not time.
CLAIM_BENCHES = $(shell $(PYTHON) -c "import sys; sys.path.insert(0, 'benchmarks'); import compare_bench; print(' '.join(compare_bench.claim_bench_files()))")

.PHONY: verify test claims bench metrics

verify: test claims bench

test:
	$(PYTHON) -m pytest -x -q $(TIMEOUT_FLAG)

claims:
	$(PYTHON) -m pytest -q --benchmark-disable $(TIMEOUT_FLAG) \
		$(or $(CLAIM_BENCHES),$(error no paper-claim benches found))

bench:
	$(PYTHON) benchmarks/compare_bench.py

# Quick operational sanity check: run an instrumented pipeline and
# dump the metrics snapshot.
metrics:
	$(PYTHON) -m repro metrics
