"""Planned execution: the cost-driven planner + real multiprocess backend.

Compiles word count, then runs it three ways — the paper's default
(simulated Spark), forced in-process sequential, and ``plan="auto"``
where the execution planner weighs measured per-record cost against pool
overheads and decides.  Run with::

    PYTHONPATH=src python examples/planned_execution.py
"""

from repro import ExecOptions, Session, translate

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
    # Inline jobs on this thread; observe=False keeps each plan cold, so
    # the auto run below is not re-priced from the sequential run.
    session = Session(max_workers=0, observe=False)

    # The paper's behaviour: simulated Spark, simulated time.
    outputs = session.run(result, {"words": list(words)}).outputs
    print(f"simulated spark: {len(outputs['counts'])} distinct words")

    # Forced sequential: same algorithm in-process, real wall-clock.
    # A planned job's result carries the planner's report for the run
    # that produced it.
    sequential = session.run(
        result, {"words": list(words)}, ExecOptions(plan="sequential")
    ).plan_report
    print(f"sequential:      {sequential.wall_seconds:.3f}s wall")

    # plan="auto": the planner decides and shows its work.  A
    # fragment_index job reports the fragment's own PlanReport.
    job = session.run(
        result, {"words": list(words)}, ExecOptions(plan="auto"), fragment_index=0
    )
    report = job.plan_report
    assert job.outputs == outputs
    session.close()
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
