"""TPC-H Q6: translating a relational query's sequential implementation.

This is the workload the paper's Appendix D walks through: a sequential
Java implementation of TPC-H Q6 (a filtered sum over lineitem), from
which Casper extracts input/output variables, constants, and operators,
then synthesizes a guarded map/reduce summary and generates code for all
three backends.

Run:  python examples/tpch_q6_pipeline.py
"""

from repro import ExecOptions, Session, translate
from repro.ir import format_summary
from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_program
from repro.verification import generate_vcs
from repro.workloads import datagen

JAVA_SOURCE = """
class LineItem {
  int l_suppkey;
  int l_partkey;
  double l_quantity;
  double l_extendedprice;
  double l_discount;
  double l_tax;
  String l_returnflag;
  String l_linestatus;
  Date l_shipdate;
}

double query6(List<LineItem> lineitem) {
  Date dt1 = Util.parseDate("1993-01-01");
  Date dt2 = Util.parseDate("1994-01-01");
  double revenue = 0;
  for (LineItem l : lineitem) {
    if (l.l_shipdate.after(dt1) && l.l_shipdate.before(dt2) &&
        l.l_discount >= 0.05 && l.l_discount <= 0.07 && l.l_quantity < 24.0)
      revenue += (l.l_extendedprice * l.l_discount);
  }
  return revenue;
}
"""


def main() -> None:
    result = translate(JAVA_SOURCE, "query6")
    fragment = result.fragments[0]
    assert fragment.translated, fragment.failure_reason

    # Program-analysis outputs (the paper's Appendix D table).
    analysis = fragment.analysis
    print("Program analysis results:")
    print(f"  input vars:   {sorted(analysis.input_vars)}")
    print(f"  output vars:  {sorted(analysis.output_vars)}")
    print(f"  constants:    {[v for v, _ in analysis.scan.constants]}")
    print(f"  operators:    {sorted(analysis.scan.operators)}")
    print(f"  methods:      {sorted(analysis.scan.methods)}")
    print()

    best = fragment.program.programs[0]
    print("Synthesized summary:")
    print(format_summary(best.summary))
    print()

    # The Hoare verification conditions (paper Fig. 4).
    print("Verification conditions:")
    print(generate_vcs(analysis, best.summary).render())
    print()
    print(f"Theorem-prover result: {best.proof.status}")
    print()

    # Execute against all three frameworks and compare with the
    # sequential interpreter on generated TPC-H data.
    lineitem = datagen.lineitems(30_000, seed=6)
    expected = Interpreter(parse_program(JAVA_SOURCE)).call_function(
        "query6", [lineitem]
    )
    print(f"Sequential result:  revenue = {expected:,.2f}")
    session = Session(max_workers=0)  # jobs run inline on this thread
    for backend in ("spark", "hadoop", "flink"):
        # One compilation; each job picks its framework.
        job = session.run(
            result, {"lineitem": lineitem}, ExecOptions(plan=backend), fragment_index=0
        )
        outputs, metrics = job.outputs, job.metrics
        assert abs(outputs["revenue"] - expected) < 1e-6 * max(1.0, abs(expected))
        print(
            f"  {backend:7s} revenue = {outputs['revenue']:,.2f}  "
            f"(simulated {metrics.simulated_seconds:.2f}s)"
        )
    session.close()


if __name__ == "__main__":
    main()
