# make test   the Tier-1 suite
# make check  Tier-1, perfbench's own tests, then one perfbench run per
#             workload; fails unless each run's result line says
#             "correct": true (perfbench/run.py exits 0 either way)

WORKLOADS = giant-d20 explore-d20 sweep-d14

.PHONY: test check

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
