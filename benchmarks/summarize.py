"""Medians and quartiles of saved benchmark results.

Usage (from the repository root, after runs of run.py):

    python3 benchmarks/summarize.py [OUT_JSON]

Reads .bench_work/results/*.json. For each workload it reports, over the
--trace 0 runs, every end-to-end metric and workload figure as median,
quartiles and spread (quartile distance over median), and over the
--trace 1 runs the median of every per-layer metric. Prints the spreads
and writes everything to OUT_JSON when given.
"""

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_work" / "results"


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else [values[0]] * 3)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main(argv) -> int:
    runs: dict[str, list[dict]] = {}
    for path in sorted(RESULTS.glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, records in sorted(runs.items()):
        plain = [r for r in records if r["trace"] == 0]
        traced = [r for r in records if r["trace"] == 1]
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for r in plain:
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for name in r["figures"][0] if r["figures"] else ():
                values.setdefault(name, []).append(
                    statistics.median(f[name][0] for f in r["figures"]))
                units[name] = r["figures"][0][name][1]
        layer: dict[str, list[float]] = {}
        for r in traced:
            for name, m in r["metrics"].items():
                layer.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        out[workload] = {
            "seeds": sorted(r["seed"] for r in plain),
            "digests": {str(r["seed"]): r["digest"] for r in plain},
            "all_correct": all(r["correct"] for r in records),
            "environment": records[0]["environment"],
            "end_to_end": {k: dict(summary(v), unit=units[k]) for k, v in values.items()},
            "per_layer": {k: {"median": statistics.median(v), "unit": units[k], "n": len(v)}
                          for k, v in layer.items()},
        }
        print(f"{workload}: {len(plain)} runs, {len(traced)} traced runs, "
              f"all correct: {out[workload]['all_correct']}")
        for name, s in out[workload]["end_to_end"].items():
            print(f"  {name:<24} median {s['median']:>12.6g} {units[name]:<8} "
                  f"spread {s['spread']:.4f} (n={s['n']})")
    if argv:
        Path(argv[0]).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
