# Convenience targets for the repro library.

PYTHON ?= python3

.PHONY: install check test fuzz-campaign fuzz-distill bench bench-quick examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || \
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# The pre-merge gate: byte-compile everything, run the tier-1 suite
# in development mode with a leaked file (ResourceWarning), an
# exception no one collected and an exception that escaped a thread
# as errors, import-smoke every benchmark module (catches drift in the
# benchmark drivers without paying for a timed run), run the
# repository benchmark's own tests, run every example, and run the
# fixed-seed fuzz campaign.  Writes nothing into the tree.  Ends by
# printing the size of src/ in lines, the figure the change log tracks.
check:
	PYTHONPATH=src $(PYTHON) -m compileall -q src
	PYTHONPATH=src $(PYTHON) -X dev -m pytest tests/ -x -q \
		-W error::ResourceWarning \
		-W error::pytest.PytestUnraisableExceptionWarning \
		-W error::pytest.PytestUnhandledThreadExceptionWarning
	@for bench in benchmarks/bench_*.py; do \
		echo "import $$bench"; \
		PYTHONPATH=src:benchmarks $(PYTHON) -c \
			"import importlib, os; \
			 importlib.import_module( \
			     os.path.splitext(os.path.basename('$$bench'))[0])" \
			|| exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/suite -q
	$(MAKE) examples
	$(MAKE) fuzz-campaign
	@echo "check passed"
	@echo "src/ lines: $$(find src -name '*.py' | xargs cat | wc -l)"

# The continuous campaign (~90 s budget): deterministic coverage
# preamble over every execution surface (scalar, batched, packed,
# sequential replay w/ restore, probed, faults), then random lattice
# exploration for the rest of the budget.  The
# exit code asserts that no technique/backend/execution-shape
# disagreement was found (a failure writes its shrunk reproducer to a
# temp corpus and fails the target).
fuzz-campaign:
	@tmp=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) -m repro.cli fuzz campaign --seed 1990 \
		--budget-seconds 90 --corpus $$tmp/corpus && \
	rm -rf $$tmp

# Dry-run corpus distillation: shows which committed reproducers are
# subsumed (smaller entries covering the same lattice point) and
# asserts losslessness.  Re-run with APPLY=1 to delete them.
fuzz-distill:
	PYTHONPATH=src $(PYTHON) -m repro.cli fuzz distill \
		--corpus fuzz-corpus $(if $(APPLY),--apply,)

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	PYTHONPATH=src REPRO_BENCH_SUITE=c432,c880 REPRO_BENCH_VECTORS=64 \
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Every example, start to finish; the waveform example writes its VCD
# into a temporary directory, so nothing lands in the tree.
examples:
	@tmp=$$(mktemp -d) && \
	for script in examples/*.py; do \
		echo "== $$script"; \
		case $$script in \
			*/waveform_export.py) args=$$tmp/adder_trace.vcd ;; \
			*) args= ;; \
		esac; \
		PYTHONPATH=src $(PYTHON) $$script $$args > /dev/null \
			|| { rm -rf $$tmp; exit 1; }; \
	done; \
	rm -rf $$tmp
	@echo "all examples ran"

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
