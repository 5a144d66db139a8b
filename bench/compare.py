"""``python3 -m bench.compare A1.json … B1.json …`` — base set vs new set.

The files come from ``bench.run --out``; the first half of the arguments
is the base set, the second half the new set.  For every workload ×
end-to-end metric the table gives each set's median and quartiles, the
change of the median, and the bound from ``BENCHMARK.json``.  The exit
code is non-zero when a median worsened beyond its bound.  A row is
``unresolved`` when the base set's own quartile distance, as a share of
its median, exceeds the bound — unless every new run reads better than
every base run.  ``--layers`` adds the per-layer table (traced runs),
with each metric's new/base ratios averaged over the workloads by
geometric mean.  A run that reports a failed op or a wrong output
measured nothing that can be compared: any such file is refused (exit
code 2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from collections import defaultdict
from typing import Optional, Sequence

from .workloads import ROOT


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_sets(paths: Sequence[str]) -> tuple[list[dict], list[dict]]:
    if len(paths) < 2 or len(paths) % 2:
        raise SystemExit("bench.compare: give an even number of files: base set, then new set")
    runs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            runs.append(json.load(handle))
        if not runs[-1]["correct"] or runs[-1]["failed"]:
            raise SystemExit(
                f"bench.compare: {path} is a failed run "
                f"({runs[-1]['failed']} of {runs[-1]['attempted']} attempts failed)"
            )
    half = len(runs) // 2
    return runs[:half], runs[half:]


def _values(runs: Sequence[dict], trace: int) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) → values`` over the runs of one mode."""
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in runs:
        if run["trace"] == trace:
            for metric, entry in run["metrics"].items():
                out[run["workload"], metric].append(entry["value"])
    return out


def worsening(base: float, new: float, better: str) -> float:
    """Change of the median as a share of the base; positive is worse."""
    change = (new - base) / base if base else 0.0
    return change if better == "lower" else -change


def end_to_end_rows(base: Sequence[dict], new: Sequence[dict], spec: dict) -> list[dict]:
    base_values, new_values = _values(base, 0), _values(new, 0)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base_values or key not in new_values:
                continue
            b, n = base_values[key], new_values[key]
            b_q1, b_med, b_q3 = quartiles(b)
            n_q1, n_med, n_q3 = quartiles(n)
            worse = worsening(b_med, n_med, metric["better"])
            lower = metric["better"] == "lower"
            all_better = max(n) < min(b) if lower else min(n) > max(b)
            spread = (b_q3 - b_q1) / b_med if b_med else 0.0
            if worse > metric["bound"]:
                verdict = "REGRESSED"
            elif spread > metric["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "base": (b_q1, b_med, b_q3),
                    "new": (n_q1, n_med, n_q3),
                    "runs": (len(b), len(n)),
                    "worse": worse,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def layer_rows(base: Sequence[dict], new: Sequence[dict], spec: dict) -> list[dict]:
    base_values, new_values = _values(base, 1), _values(new, 1)
    rows = []
    for metric in spec["per_layer"]:
        ratios = []
        for workload in [w["name"] for w in spec["workloads"]]:
            key = (workload, metric["name"])
            if key not in base_values or key not in new_values:
                continue
            b_med = statistics.median(base_values[key])
            n_med = statistics.median(new_values[key])
            ratio = n_med / b_med if b_med > 0 and n_med > 0 else None
            if ratio is not None:
                ratios.append(ratio)
            rows.append(
                {"workload": workload, "metric": metric["name"], "unit": metric["unit"],
                 "base": b_med, "new": n_med, "ratio": ratio}
            )
        if ratios:
            geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
            rows.append(
                {"workload": "(geomean)", "metric": metric["name"], "unit": "ratio",
                 "base": float("nan"), "new": float("nan"), "ratio": geomean}
            )
    return rows


def _print_end_to_end(rows: Sequence[dict]) -> None:
    print(
        f"{'workload':12s} {'metric':12s} {'unit':7s} "
        f"{'base q1 / median / q3':>36s} {'new q1 / median / q3':>36s} "
        f"{'runs':>7s} {'worse':>8s} {'bound':>6s}  verdict"
    )
    for row in rows:
        base = " / ".join(f"{v:.4f}" for v in row["base"])
        new = " / ".join(f"{v:.4f}" for v in row["new"])
        runs = f"{row['runs'][0]}+{row['runs'][1]}"
        print(
            f"{row['workload']:12s} {row['metric']:12s} {row['unit']:7s} "
            f"{base:>36s} {new:>36s} {runs:>7s} "
            f"{row['worse'] * 100:+7.2f}% {row['bound'] * 100:5.1f}%  {row['verdict']}"
        )


def _print_layers(rows: Sequence[dict]) -> None:
    print(f"\n{'workload':12s} {'per-layer metric':34s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for row in rows:
        if row["base"] == 0 and row["new"] == 0:
            continue
        ratio = "" if row["ratio"] is None else f"{row['ratio']:9.3f}"
        print(
            f"{row['workload']:12s} {row['metric']:34s} "
            f"{row['base']:14.6f} {row['new']:14.6f} {ratio}"
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare", description=__doc__)
    parser.add_argument("files", nargs="+", help="base set, then new set (bench.run --out)")
    parser.add_argument("--layers", action="store_true", help="add the per-layer table")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    base, new = load_sets(args.files)
    rows = end_to_end_rows(base, new, spec)
    _print_end_to_end(rows)
    if args.layers:
        _print_layers(layer_rows(base, new, spec))
    regressed = [r for r in rows if r["verdict"] == "REGRESSED"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
