# Convenience targets for the reproduction workflow.

.PHONY: install test smoke serve-smoke obs-serve-smoke scale-smoke bench bench-e2e bench-e2e-selftest bench-parallel bench-obs bench-hist bench-scale bench-predict chaos obs-smoke lint-obs examples exhibits clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

smoke: serve-smoke obs-serve-smoke scale-smoke bench-e2e-selftest
	PYTHONPATH=src pytest tests -m smoke

serve-smoke:
	PYTHONPATH=src python tools/serve_smoke.py

obs-serve-smoke:
	PYTHONPATH=src python tools/obs_serve_smoke.py

scale-smoke:
	PYTHONPATH=src python tools/scale_smoke.py

# five interleaved repeats of every end-to-end workload plus one traced
# run each; appends to .bench_build/e2e/results/BENCH_<workload>.json
bench-e2e:
	python3 -m benchmarks.e2e run --repeats 5 --traced

# the harness self-test at smoke size (~30 s); fails when a workload
# stops calling one of the spans it declares (EXPECTED_SPANS)
bench-e2e-selftest:
	PYTHONPATH=src python -m pytest benchmarks/e2e -q

bench-parallel:
	PYTHONPATH=src pytest benchmarks/test_parallel_speedup.py -m parallel_bench -s
	@echo "results in benchmarks/results/parallel_speedup.json"

bench-obs:
	PYTHONPATH=src pytest benchmarks/test_obs_overhead.py -m obs_bench -s
	@echo "results in benchmarks/results/obs_overhead.json"

bench-hist:
	PYTHONPATH=src pytest benchmarks/test_hist_speedup.py -m hist_bench -s
	@echo "results in benchmarks/results/hist_speedup.json"

bench-scale:
	PYTHONPATH=src pytest benchmarks/test_scale_bench.py -m scale_bench -s
	@echo "results in benchmarks/results/scale_1m.json"

bench-predict:
	PYTHONPATH=src pytest benchmarks/test_predict_speedup.py -m predict_bench -s
	@echo "results in benchmarks/results/predict_speedup.json"

chaos:
	PYTHONPATH=src pytest benchmarks/test_chaos_robustness.py -m chaos

obs-smoke:
	PYTHONPATH=src python tools/obs_smoke.py

lint-obs:
	PYTHONPATH=src python tools/lint_obs.py

examples:
	python examples/quickstart.py
	python examples/feature_group_study.py
	python examples/vendor_portability.py
	python examples/deployment_monitor.py
	python examples/failure_archaeology.py
	python examples/client_agent.py
	python examples/rul_planner.py

exhibits: bench
	@echo "rendered exhibits in benchmarks/results/"

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
