"""The repository benchmark: five workloads, four end-to-end metrics, one ledger.

``python3 -m bench.run --workload W --seed S --seconds N --trace {0,1}``
is the single entry point (declared in ``BENCHMARK.json`` at the repo
root); see ``bench/README.md``.  Nothing under ``src/`` imports this
package, and only :mod:`bench.workloads`, :mod:`bench.instrument` and the
child entry points import ``repro``.
"""
