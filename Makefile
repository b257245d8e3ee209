# Convenience targets for the reproduction.

PYTHON ?= python
JOBS ?= 4

.PHONY: install test bench bench-parallel bench-full repro examples \
	sampling-smoke kernel-smoke ports-smoke sweep-smoke \
	verify fuzz fuzz-smoke faults-smoke faults importtime \
	golden clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# sweep grids fan out over $(JOBS) worker processes, warm runs hit the cache
bench-parallel:
	REPRO_JOBS=$(JOBS) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only

# interval-sampling engine: sampled sweep determinism, CI fields, trace cache
sampling-smoke:
	$(PYTHON) tools/sampling_smoke.py

# code-generated cycle kernels: conventional and sharing kernels
# bit-identical to the naive loop, sharing kernel >= 2.4x faster (same
# process, same machine)
kernel-smoke:
	$(PYTHON) tools/kernel_smoke.py

# read-port-reduction schemes: both schemes on two profiles, kernel/naive
# loop identity + commit-time oracle, port counters exercised
ports-smoke:
	$(PYTHON) tools/ports_smoke.py

# sweep data plane: small grid bit-identical across serial and 2-job fleet
# runs; fleet workers start warm (no trace generated or read from disk)
# and materialize each workload at most once
sweep-smoke:
	$(PYTHON) tools/sweep_smoke.py

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

# fault-injection gate: 200 seeded injections fully classified with zero
# silent corruption, plus the SIGKILL-and-resume result-cache check
faults-smoke:
	$(PYTHON) tools/faults_smoke.py

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
