"""PageRank: one iteration as a whole-program job graph.

Each loop of a sequential PageRank iteration is a separate code fragment
(out-degree count, contribution scatter, rank update); Casper translates
all three — the paper's Iterative suite workflow (section 7.1).  Instead
of chaining the fragments by hand, a ``Session`` job executes the whole
iteration as a dataflow DAG: the contribution→update chain is
stage-fused into one engine invocation, and the loop-carried ranks feed
straight back in for the next iteration.

Run:  python examples/pagerank_iterative.py
"""

from repro import Session, translate
from repro.workloads import datagen

JAVA_SOURCE = """
class Edge { int src; int dst; }
double[] pagerankIter(List<Edge> edges, double[] rank, int nodes) {
  int[] outdeg = new int[nodes];
  for (Edge e : edges) {
    outdeg[e.src] = outdeg[e.src] + 1;
  }
  double[] contrib = new double[nodes];
  for (Edge e : edges) {
    contrib[e.dst] = contrib[e.dst] + rank[e.src] / outdeg[e.src];
  }
  double[] next = new double[nodes];
  for (int i = 0; i < nodes; i++) {
    next[i] = 0.15 / nodes + 0.85 * contrib[i];
  }
  return next;
}
"""

NODES = 50
ITERATIONS = 10


def main() -> None:
    result = translate(JAVA_SOURCE, "pagerankIter")
    print(f"fragments identified: {result.identified}, translated: {result.translated}")
    for fragment in result.fragments:
        best = fragment.program.programs[0]
        print(f"\n{fragment.fragment.id}: proof={best.proof.status}")
        print(f"  {fragment.rendered_code('spark').splitlines()[1]}")

    print(f"\n{result.job_graph.describe()}")

    edges = datagen.graph_edges(NODES, 300, seed=23)
    rank = [1.0] * NODES

    # Each call executes the whole source function — including the
    # loop-invariant out-degree count, exactly as pagerankIter itself
    # recomputes it per call.  (Hoisting outdeg across iterations is a
    # manual optimization outside the function's own semantics.)
    with Session(max_workers=0) as session:  # inline: no pool, same API
        for iteration in range(ITERATIONS):
            job = session.run(
                result, {"edges": edges, "rank": rank, "nodes": NODES}
            )
            rank = job.outputs["next"]  # loop-carried dataset: feed ranks back in

    report = job.plan_report  # each job returns its own evidence trail
    print("\nfusion decisions:")
    for diagnostic in report.optimizer_diagnostics:
        print(f"  {diagnostic.code} {diagnostic.message}")
    print(f"waves: {report.plan.waves}")

    top = sorted(range(NODES), key=lambda i: -rank[i])[:5]
    print(f"\nAfter {ITERATIONS} iterations, top-5 nodes by rank:")
    for node in top:
        print(f"  node {node:3d}: {rank[node]:.4f}")
    total = sum(rank)
    print(f"rank mass: {total:.4f} (conserved ≈ {NODES * 0.15 / NODES + 0.85:.2f}·N)")


if __name__ == "__main__":
    main()
