"""StringMatch with dynamic tuning (the paper's Fig. 8 demonstration).

Casper generates several semantically-equivalent implementations of the
StringMatch fragment — they differ in what the map stage emits — and a
runtime monitor that samples the input, estimates the cost-model
unknowns, and executes the cheapest encoding for the observed data skew.

Run:  python examples/adaptive_string_match.py
"""

from repro import ExecOptions, Session, translate
from repro.codegen.base import prepare_globals, view_records
from repro.ir import format_summary
from repro.workloads import datagen

JAVA_SOURCE = """
boolean[] stringMatch(List<String> text, String key1, String key2) {
  boolean key1_found = false;
  boolean key2_found = false;
  for (String word : text) {
    if (word.equals(key1)) key1_found = true;
    if (word.equals(key2)) key2_found = true;
  }
  boolean[] found = new boolean[2];
  found[0] = key1_found;
  found[1] = key2_found;
  return found;
}
"""


def main() -> None:
    result = translate(JAVA_SOURCE, "stringMatch")
    fragment = result.fragments[0]
    assert fragment.translated, fragment.failure_reason

    program = fragment.program
    print(f"Casper generated {len(program.programs)} implementations that")
    print("cannot be compared statically (their costs depend on the data):")
    for index, generated in enumerate(program.programs):
        print(f"\n  impl_{index}  (static cost: {generated.cost.render()})")
        for line in format_summary(generated.summary).splitlines():
            print(f"    {line}")

    # A planned job reports the implementation the monitor dispatched to;
    # observe=False keeps each dataset's plan independent of the last.
    session = Session(max_workers=0, observe=False)
    print("\nRunning over datasets with different keyword skew:")
    print(f"{'match prob':>12s}  {'chosen':>8s}  {'found?':>14s}")
    for probability in (0.0, 0.5, 0.95):
        text = datagen.keyword_text(
            50_000, ["key1", "key2"], probability, seed=17
        )
        inputs = {"text": text, "key1": "key1", "key2": "key2"}
        job = session.run(result, inputs, ExecOptions(plan="auto"), fragment_index=0)
        outputs = job.outputs
        # The monitor's decision on the same first-k sample, with its costs.
        head = program.sample_head(view_records(program.analysis.view, inputs))
        globals_env, _sizes = prepare_globals(program.analysis, inputs)
        _index, costs = program.monitor.choose(head, globals_env)
        costs = {k: round(v, 1) for k, v in costs.items()}
        print(
            f"{probability:>11.0%}  {job.plan_report.implementation:>8s}  "
            f"key1={str(outputs['key1_found']):5s} key2={str(outputs['key2_found']):5s}"
            f"  costs/N: {costs}"
        )
    session.close()
    print()
    print("The monitor samples the first 5000 words, estimates the emit")
    print("probabilities p1, p2, plugs them into the cost model (Eqns 2-3),")
    print("and picks the implementation with the lowest estimated data-")
    print("transfer cost (paper section 5.2).  For these synthesized")
    print("encodings the guarded variant dominates at every skew; the")
    print("paper's Fig. 8 crossover between its exact candidate encodings")
    print("is reproduced in benchmarks/test_fig8_dynamic_tuning.py.")


if __name__ == "__main__":
    main()
