# make test   the Tier-1 suite
# make check  Tier-1, perfbench's own tests, then one perfbench run per
#             workload; fails unless each run's result line says
#             "correct": true (perfbench/run.py exits 0 either way)
# make pairs PARENT=<rev> WORKLOAD=<w> SEEDS="41 42 …"
#             alternating perfbench runs of the parent revision and the
#             working tree, one pair per seed (scripts/bench_pairs.py)
# make footprint PARENT=<rev> D=24 SEEDS="1 2 3 4"
#             alternating fresh-process `cubeperc sim --d D --p 2/D` runs of
#             the parent revision and the working tree: wall time and peak
#             RSS per run (scripts/footprint.py)
# make trials PARENT=<rev> D="16 17 18 19 20" N=60
#             alternating in-process supercritical trials of the parent
#             revision and the working tree at each d, each on its own
#             thread count: median ms, speedup and wins per d
#             (scripts/trial_pairs.py)

WORKLOADS = giant-d20 explore-d20 sweep-d14
D = 24
N = 60

.PHONY: test check pairs footprint trials

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
	python3 scripts/trial_pairs.py --parent "$(PARENT)" --d $(D) --n $(N)
