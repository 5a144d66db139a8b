"""Shared fixtures: cached compilations of commonly-used benchmarks."""

from __future__ import annotations

import pytest

from repro.lang.analysis import analyze_fragment, identify_fragments
from repro.lang.parser import parse_program

RWM_SOURCE = """
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

SUM_SOURCE = """
int sum(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
"""

MAX_SOURCE = """
int maxValue(int[] data, int n) {
  int best = Integer.MIN_VALUE;
  for (int i = 0; i < n; i++) {
    if (data[i] > best) best = data[i];
  }
  return best;
}
"""

WORDCOUNT_SOURCE = """
Map<String, Integer> wc(List<String> words) {
  Map<String, Integer> counts = new HashMap<String, Integer>();
  for (String w : words) {
    counts.put(w, counts.getOrDefault(w, 0) + 1);
  }
  return counts;
}
"""

Q6_SOURCE = """
class LineItem { Date l_shipdate; double l_discount; double l_quantity; double l_extendedprice; }
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

#: Outside the summary grammar (a loop-carried recurrence): its search
#: runs the class list out without checking one candidate.
BLUR_SOURCE = """
double[] blur(double[] img, int n) {
  double[] out = new double[n];
  double prev = 0;
  for (int i = 0; i < n; i++) {
    prev = 0.5 * prev + 0.5 * img[i];
    out[i] = prev;
  }
  return out;
}
"""

#: The same with its loop variable named like the IR's ``k`` binder: the
#: fingerprint keeps ``k`` literal (never renamed), so it is cacheable
#: and its exhausted verdict is remembered like any other.
BLUR_BINDER_NAMED_SOURCE = (
    BLUR_SOURCE.replace("int i", "int k")
    .replace("i < n", "k < n")
    .replace("i++", "k++")
    .replace("[i]", "[k]")
)

#: The same with a string literal spelled like one of its variables:
#: renaming would be ambiguous, so the fingerprint is uncacheable and the
#: summary cache never remembers it.
BLUR_LITERAL_CLASH_SOURCE = BLUR_SOURCE.replace(
    "double prev = 0;", 'double prev = 0;\n  String tag = "prev";'
)


def analysis_of(source: str, function: str | None = None):
    program = parse_program(source)
    func = program.function(function) if function else program.functions[0]
    fragment = identify_fragments(func)[0]
    return analyze_fragment(fragment, program)


@pytest.fixture(scope="session")
def rwm_analysis():
    return analysis_of(RWM_SOURCE)


@pytest.fixture(scope="session")
def sum_analysis():
    return analysis_of(SUM_SOURCE)


@pytest.fixture(scope="session")
def max_analysis():
    return analysis_of(MAX_SOURCE)


@pytest.fixture(scope="session")
def wordcount_analysis():
    return analysis_of(WORDCOUNT_SOURCE)


@pytest.fixture(scope="session")
def q6_analysis():
    return analysis_of(Q6_SOURCE, "query6")


@pytest.fixture(scope="session")
def sum_search(sum_analysis):
    from repro.synthesis import find_summaries

    return find_summaries(sum_analysis)


@pytest.fixture(scope="session")
def rwm_search(rwm_analysis):
    from repro.synthesis import find_summaries

    return find_summaries(rwm_analysis)


@pytest.fixture(scope="session")
def wordcount_search(wordcount_analysis):
    from repro.synthesis import find_summaries

    return find_summaries(wordcount_analysis)
