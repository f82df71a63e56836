"""Spread of the benchmark's end-to-end metrics over several runs.

Reads the output files of runs of one workload (the last line of each is
the result), and prints for each metric its median and its spread: the
distance between the first and third quartile over the median, as
statistics.quantiles(values, n=4) gives them. Metrics BENCHMARK.json gates
are compared with their bound.

    python3 perfbench/spread.py hot-*.out
"""
import json
import statistics
import sys
from pathlib import Path


def main(paths):
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for path in paths:
        lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"{path}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) < 2 or med == 0:
            print(f"{name:16s} n={len(xs)} median={med:.6g}")
            continue
        q = statistics.quantiles(xs, n=4)
        spread = (q[2] - q[0]) / med
        line = f"{name:16s} n={len(xs)} median={med:.6g} spread={spread:.3f}"
        if name in bounds:
            verdict = "within" if spread <= bounds[name] else "OUTSIDE"
            line += f" bound={bounds[name]} {verdict}"
        print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
