# Convenience targets for the PRESTO reproduction.
#
#   make test          tier-1 test suite (unit + benchmark harness)
#   make smoke         parallel-sweep determinism smoke (tools/sweep_smoke.py)
#   make sweep         full-catalog profile of the seven paper pipelines
#   make golden        regenerate the golden CLI outputs (eyeball the diff!)
#   make coverage      line-coverage floors (diagnosis + serve + api +
#                      ctl + stream + obs + faults + lint + exec + sim)
#   make lint          simlint static analysis over src/ tools/
#                      benchmarks/ (DES discipline; docs/lint.md)
#   make typecheck     pinned mypy pass over the starter subset
#                      (skips with a notice when mypy is absent)
#   make trace-smoke   generate Chrome traces via the CLI and
#                      schema-validate them (tools/trace_smoke.py)
#   make bench-check   CI perf smoke: assert the pinned scenarios'
#                      deterministic event counts and simulated end
#                      times (never wall time)
#   make plan-examples validate every shipped experiment spec with
#                      `presto plan` (CI keeps examples/experiments/ green)
#   make simbench-check one simbench run per workload; fails unless each
#                      matches simbench/reference.json (outputs and
#                      report SHA-256) and the baseline pins; writes
#                      each workload's result to SIMBENCH.json, the
#                      input of `presto trend`

PYTHON ?= python
PYTHONPATH := src

#: Minimum line coverage (percent) of the measured subsystems.
COVERAGE_FLOOR ?= 80

#: The repro subpackages with a coverage floor; `make coverage-<pkg>`
#: measures one of them.
COVERAGE_PACKAGES := diagnosis serve api ctl stream obs faults lint exec sim
COVERAGE_TARGETS := $(addprefix coverage-,$(COVERAGE_PACKAGES))

.PHONY: test smoke sweep golden coverage $(COVERAGE_TARGETS) lint \
	typecheck trace-smoke bench-check plan-examples simbench-check

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/sweep_smoke.py --jobs 2

sweep:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli sweep --jobs 2

golden:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/golden --update-golden -q

coverage: $(COVERAGE_TARGETS)

lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli lint

typecheck:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/typecheck.py

$(COVERAGE_TARGETS): coverage-%:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/diagnosis_coverage.py --package repro.$* --floor $(COVERAGE_FLOOR)

trace-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/trace_smoke.py

bench-check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/bench_serve.py --check

plan-examples:
	@for spec in examples/experiments/*; do \
		echo "== presto plan $$spec"; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli plan $$spec || exit 1; \
	done

simbench-check:
	$(PYTHON) tools/simbench_check.py
