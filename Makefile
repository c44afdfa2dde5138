# Common development targets.

.PHONY: install test opt-bench experiments experiments-full experiments-md docs-check all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Competitive-ratio dashboard: exact offline OPT vs every online policy.
opt-bench:
	python -m repro.cli opt --scale quick --out BENCH_opt.json

experiments:
	python -m repro.cli all --scale quick

experiments-full:
	python -m repro.cli all --scale full

# Regenerate EXPERIMENTS.md from a full-scale run (about 25 s on a 2-CPU host).
experiments-md:
	python -m repro.experiments.writer

docs-check:
	pytest tests/integration/test_docs.py

all: test experiments
