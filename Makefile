# make test   the Tier-1 suite
# make check  Tier-1, perfbench's own tests, then one perfbench run per
#             workload; fails unless each run's result line says
#             "correct": true (perfbench/run.py exits 0 either way)
# make pairs, make footprint and make trials compare the parent revision
# with the working tree on one runner (run_pairs in scripts/bench_pairs.py):
# alternating runs, the parent first on odd pairs, each logged to
# .perfbench_out/<tool log>.jsonl; per metric, each side's median [q1, q3],
# the median change/parent ratio and the change's wins; exit 1 when a run
# failed
# make pairs PARENT=<rev> WORKLOAD=<w> SEEDS="41 42 …"
#             one perfbench run per side and seed: the end-to-end metrics
#             of BENCHMARK.json (scripts/bench_pairs.py)
# make footprint PARENT=<rev> D=24 SEEDS="1 2 3 4"
#             one fresh-process `cubeperc sim --d D --p 2/D` run per side
#             and seed: wall time and peak RSS (scripts/footprint.py)
# make trials PARENT=<rev> D="16 17 18 19 20" N=60
#             per d, each side's thread count, then N in-process
#             supercritical trials per side: ms per trial; exit 1 when the
#             rows differ (scripts/trial_pairs.py); THREADS="1 2" sets the
#             two sides' thread counts (with PARENT=HEAD: one against two
#             threads on the same code); TRIALS=T times whole
#             run_experiment calls of T trials instead, pool start-up
#             included, on WORKERS="W" (or "PARENT CHANGE") workers;
#             KIND=sprinkling times sprinkling trials
# make lines  the lines of src/cubeperc that hold code, per module and in
#             total: no blank lines, comments or docstrings
#             (scripts/code_lines.py)

WORKLOADS = giant-d20 explore-d20 sweep-d14
D = 24
N = 60

.PHONY: test check pairs footprint trials lines

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

check: test
	python3 -m pytest perfbench -q
	@for w in $(WORKLOADS); do \
		echo "perfbench/run.py --workload $$w --seed 0"; \
		last=$$(python3 perfbench/run.py --workload $$w --seed 0 | tail -n 1); \
		echo "$$last"; \
		case "$$last" in \
			*'"correct": true'*) ;; \
			*) echo "$$w: the run did not report \"correct\": true" >&2; exit 1 ;; \
		esac; \
	done

pairs:
	python3 scripts/bench_pairs.py --parent "$(PARENT)" --workload "$(WORKLOAD)" --seeds $(SEEDS)

footprint:
	python3 scripts/footprint.py --parent "$(PARENT)" --d "$(D)" --seeds $(SEEDS)

trials:
	python3 scripts/trial_pairs.py --parent "$(PARENT)" --d $(D) --n $(N) $(if $(THREADS),--threads $(THREADS)) \
		$(if $(TRIALS),--trials $(TRIALS)) $(if $(WORKERS),--workers $(WORKERS)) $(if $(KIND),--kind $(KIND))

lines:
	python3 scripts/code_lines.py
