PYTHON ?= python
export PYTHONPATH := src

.PHONY: test oracle faults incremental recovery durability check bench-smoke report lint analyze

test:  ## tier-1 test suite
	$(PYTHON) -m pytest -x -q

oracle:  ## differential oracle suite (derandomized Hypothesis profile)
	$(PYTHON) -m pytest tests/oracle -q

faults:  ## robustness suites: governor limits, injected unit errors and slow units, oracle triad
	$(PYTHON) -m pytest tests/engine/test_governor.py tests/engine/test_faults.py tests/oracle/test_faults.py -q

incremental:  ## IVM suites: differential maintenance oracle + session properties
	$(PYTHON) -m pytest tests/oracle/test_incremental.py tests/engine/test_incremental.py -q

recovery:  ## crash-recovery oracle: injected crash points x bit-identity to from-scratch
	$(PYTHON) -m pytest tests/oracle/test_recovery.py -q

durability:  ## durable-runtime unit suites: WAL framing, snapshots, recovery rungs, serve CLI
	$(PYTHON) -m pytest tests/engine/test_durability.py tests/test_cli.py -q

# The gate: tier-1 plus the oracle suite.  Every Hypothesis run draws
# the same examples: tests/conftest.py loads a derandomized profile
# with no example database.  Add `--hypothesis-profile=default` to a
# recipe's pytest command to draw fresh examples instead.  The tier-1
# step lists its ten slowest tests: the oracle harness calls
# optimize(validate=True) per differential, so optimizer cost shows here.
check:
	$(PYTHON) -m pytest -x -q --durations=10
	$(PYTHON) -m pytest tests/oracle -q

lint:  ## static analysis: ruff + mypy over src, repro-lint over workloads
	$(PYTHON) -m ruff check src tests benchmarks
	$(PYTHON) -m mypy
	$(PYTHON) scripts/lint_workloads.py

analyze:  ## abstract-interpretation gate: DL018-DL024 clean over all workloads, with no EDB and over a seeded one
	$(PYTHON) scripts/lint_workloads.py --analyze-only

bench-smoke:  ## the end-to-end benchmark at reduced size, then its self-test
	$(PYTHON) benchmarks/e2e/run.py --smoke
	$(PYTHON) -m pytest benchmarks/e2e -q

# Regenerates the work-counter tables EXPERIMENTS.md embeds from the
# gate table in tests/bench/cases.py; a no-op on a current tree (tier-1
# asserts the embedded block is current and every gate holds).
report:
	$(PYTHON) -m tests.bench.cases
