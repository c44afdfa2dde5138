# Common development targets.

.PHONY: install test bench opt-bench experiments experiments-full experiments-md docs-check all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Competitive-ratio dashboard: exact offline OPT vs every online policy.
opt-bench:
	python -m repro.cli opt --scale quick --out BENCH_opt.json

experiments:
	python -m repro.cli all --scale quick

experiments-full:
	python -m repro.cli all --scale full

# Regenerate EXPERIMENTS.md from a full-scale run (takes a few minutes).
experiments-md:
	python -m repro.experiments.writer

docs-check:
	pytest tests/integration/test_docs.py

all: test bench experiments
