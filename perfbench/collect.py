"""Summarize saved benchmark results.

    python3 perfbench/collect.py [result files ...] > summary.json

Reads `perfbench/out/result_*.json` (or the files named), groups them by
workload and mode (trace 0 or 1), and prints, for every metric, the median
and quartiles over the runs (as `statistics.quantiles(values, n=4)` gives
them), with the run count, seeds and timed ops per run, plus each run's
output digest.
"""

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(paths) -> dict:
    groups: dict = {}
    provenance = None
    for path in sorted(paths):
        rec = json.loads(Path(path).read_text())
        provenance = provenance or rec["provenance"]
        g = groups.setdefault(rec["workload"], {}).setdefault(
            f"trace{rec['trace']}", {"runs": 0, "seeds": [], "timed_ops": [],
                                     "failed": 0, "digests": {},
                                     "values": {}})
        g["runs"] += 1
        g["seeds"].append(rec["seed"])
        g["timed_ops"].append(rec["ops"])
        g["failed"] += rec["failed"]
        g["digests"][str(rec["seed"])] = rec["digest_pass0"]
        for name, value in rec["metrics"].items():
            items = value.items() if isinstance(value, dict) else [("", value)]
            for sub, v in items:
                key = f"{name}.{sub}" if sub else name
                g["values"].setdefault(key, []).append(v)
    for modes in groups.values():
        for g in modes.values():
            stats = {}
            for name, vals in g.pop("values").items():
                med = statistics.median(vals)
                q1, _, q3 = (statistics.quantiles(vals, n=4)
                             if len(vals) > 1 else (med, med, med))
                stats[name] = {"median": med, "q1": q1, "q3": q3,
                               "iqr_over_median":
                                   (q3 - q1) / med if med else 0.0,
                               "n": len(vals)}
            g["metrics"] = stats
    return {"provenance": provenance, "workloads": groups}


if __name__ == "__main__":
    files = sys.argv[1:] or [str(p) for p in OUT.glob("result_*.json")]
    if not files:
        sys.exit("no result files")
    print(json.dumps(summarize(files), indent=1, sort_keys=True))
