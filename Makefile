# Convenience targets for the reproduction.

PYTHON ?= python
JOBS ?= 4

.PHONY: install test lint bench bench-parallel bench-full repro examples \
	kernel-smoke verify fuzz fuzz-smoke faults-smoke faults importtime \
	golden clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# the AST lints alone (seconds): every module, def and option of src/repro
# is reached or set by the program, and no module imports a name unused
lint:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_reachability.py tests/test_unused_imports.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# sweep grids fan out over $(JOBS) worker processes, warm runs hit the cache
bench-parallel:
	REPRO_JOBS=$(JOBS) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only

# code-generated cycle kernels: the conventional and sharing kernels
# engage, and the sharing kernel is >= 2.4x faster than the naive loop
# (same process, same machine); loop identity is in tests/
kernel-smoke:
	$(PYTHON) tools/kernel_smoke.py

# oracle-checked kernel battery: every scheme, lockstep vs the golden model
verify:
	PYTHONPATH=src $(PYTHON) -m repro verify --all-schemes --faults --interrupts

# quick CI gate: 25 seeded random programs, all schemes, oracle+invariants on
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --count 25

# longer local fuzzing run (FUZZ_COUNT and FUZZ_SEED are overridable)
FUZZ_COUNT ?= 250
FUZZ_SEED ?= 0
fuzz:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --count $(FUZZ_COUNT) --seed $(FUZZ_SEED)

# fault-injection gate: 200 seeded injections, each inside its kind's
# expected outcomes (exit 1 otherwise), plus the SIGKILL-and-resume
# result-cache check
faults-smoke:
	PYTHONPATH=src $(PYTHON) -m repro faults --injections 200 --seed 0 --out faults-smoke.json
	$(PYTHON) tools/faults_smoke.py resume-smoke.json

# longer local fault campaign (FAULT_COUNT and FAULT_SEED are overridable)
FAULT_COUNT ?= 1000
FAULT_SEED ?= 0
faults:
	PYTHONPATH=src $(PYTHON) -m repro faults --injections $(FAULT_COUNT) --seed $(FAULT_SEED)

# what a warm figure run imports: the 20 largest self-time imports
importtime:
	$(PYTHON) tools/importtime.py importtime.txt

repro:
	$(PYTHON) examples/reproduce_paper.py

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

# regenerate tests/golden_stats.json after an *intended* timing change
golden:
	PYTHONPATH=src $(PYTHON) tests/test_golden.py regen

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
