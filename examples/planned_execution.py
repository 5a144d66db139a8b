"""Planned execution: the cost-driven planner + real multiprocess backend.

Compiles word count, then runs it three ways — the paper's default
(simulated Spark), forced in-process sequential, and ``plan="auto"``
where the execution planner weighs measured per-record cost against pool
overheads and decides.  Run with::

    PYTHONPATH=src python examples/planned_execution.py
"""

from repro import ExecOptions, run_translated, translate

SOURCE = """
Map<String, Integer> wordCount(List<String> words) {
  Map<String, Integer> counts = new HashMap<String, Integer>();
  for (String w : words) {
    counts.put(w, counts.getOrDefault(w, 0) + 1);
  }
  return counts;
}
"""


def main() -> None:
    result = translate(SOURCE)
    words = [f"word{i % 2000}" for i in range(60_000)]

    # The paper's behaviour: simulated Spark, simulated time.
    outputs = run_translated(result, {"words": list(words)})
    print(f"simulated spark: {len(outputs['counts'])} distinct words")

    # Forced sequential: same algorithm in-process, real wall-clock.
    # The fragment's own run() returns the full outcome — outputs plus
    # the planner's report — for the call that produced it.
    program = result.fragments[0].program
    sequential = program.run(
        {"words": list(words)}, ExecOptions(plan="sequential")
    ).report
    print(f"sequential:      {sequential.wall_seconds:.3f}s wall")

    # plan="auto": the planner decides and shows its work.
    outcome = program.run({"words": list(words)}, ExecOptions(plan="auto"))
    auto_outputs, report = outcome.outputs, outcome.report
    assert auto_outputs == outputs
    print(f"auto:            {report.wall_seconds:.3f}s wall")
    print(f"  plan:          {report.plan.describe()}")
    print(f"  estimates:     {report.estimated_seconds}")
    print(f"  cluster pick:  {report.cluster_recommendation}")
    for reason in report.plan.reasons:
        print(f"  - {reason}")
    if report.fallback_reason:
        print(f"  fallback:      {report.fallback_reason}")


if __name__ == "__main__":
    main()
