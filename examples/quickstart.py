"""Quickstart: translate the paper's running example (Fig. 1).

Casper takes sequential Java-like code, synthesizes a verified program
summary, and generates MapReduce code.  This script translates the
row-wise mean benchmark, shows the summary and the generated Spark code,
and runs it on the simulated cluster.

Run:  python examples/quickstart.py
"""

from repro import Session, translate
from repro.ir import format_summary

JAVA_SOURCE = """
int[] rwm(int[][] mat, int rows, int cols) {
  int[] m = new int[rows];
  for (int i = 0; i < rows; i++) {
    int sum = 0;
    for (int j = 0; j < cols; j++)
      sum += mat[i][j];
    m[i] = sum / cols;
  }
  return m;
}
"""


def main() -> None:
    print("Input (sequential Java):")
    print(JAVA_SOURCE)

    # 1. Run the full Casper pipeline: analysis → synthesis → verification
    #    → code generation.
    result = translate(JAVA_SOURCE)
    fragment = result.fragments[0]
    assert fragment.translated, fragment.failure_reason

    # 2. The synthesized program summary (the paper's @Summary annotation).
    best = fragment.program.programs[0]
    print("Synthesized program summary:")
    print(format_summary(best.summary))
    print()
    print(f"Proof: {best.proof.status} ({best.proof.reason})")
    print(
        f"λr commutative: {best.proof.is_commutative}, "
        f"associative: {best.proof.is_associative}"
    )
    print()

    # 3. The generated Spark code (paper Fig. 1(b)).
    print("Generated Spark code:")
    print(fragment.rendered_code("spark"))
    print()

    # 4. Execute on the simulated cluster and compare with sequential.
    matrix = [[(i * 7 + j * 3) % 100 for j in range(64)] for i in range(512)]
    with Session(max_workers=0) as session:  # jobs run inline on this thread
        job = session.run(
            result, {"mat": matrix, "rows": 512, "cols": 64}, fragment_index=0
        )
    outputs, metrics = job.outputs, job.metrics
    expected = [sum(row) // 64 for row in matrix]
    assert outputs["m"] == expected, "translated program must match sequential"
    print(f"Executed on the simulated cluster: {len(matrix)}x64 matrix")
    print(f"  rows of output verified against sequential: OK")
    print(f"  simulated time: {metrics.simulated_seconds:.2f}s")
    print(f"  bytes emitted (map): {metrics.bytes_emitted:,}")
    print(f"  bytes shuffled:      {metrics.bytes_shuffled:,}")


if __name__ == "__main__":
    main()
