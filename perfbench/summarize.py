#!/usr/bin/env python3
"""Spread and medians of benchmark runs, checked against BENCHMARK.json.

    python3 perfbench/summarize.py [RESULT_DIR ...] [--against BASE_DIR] [--write FILE]

Reads every ``result.json`` under the given directories (default:
``.perfbench_out``).  For each workload and end-to-end metric over the
untraced runs it prints the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median against the metric's bound: ``ok``
below a third of the bound, ``warn`` below the bound, ``FAIL`` above it
(``setup_s`` is exempt).  ``--against`` compares each median with the one
from the runs under BASE_DIR: ``FAIL`` when it is worse by more than the
bound.  ``--write`` stores the figures, the per-layer medians of the traced
runs and the machine record as JSON.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(dirs):
    runs = []
    for d in dirs:
        for path in sorted(Path(d).rglob("result.json")):
            record = json.loads(path.read_text())
            if not record.get("smoke"):
                runs.append(record)
    return runs


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(runs, bench):
    out = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        entry = {"runs": len(plain), "seeds": sorted(r["seed"] for r in plain),
                 "end_to_end": {}, "reported": {}, "per_layer": {},
                 "busy_runs": sum(r["env"]["busy"] for r in plain),
                 "failed_runs": sum(bool(r["failures"]) for r in plain + traced)}
        for metric in bench["end_to_end"]:
            values = [r["end_to_end"][metric["name"]] for r in plain]
            if len(values) < 2:
                continue
            med, q1, q3, s = spread(values)
            bound = metric["bound"]
            status = ("exempt" if metric["name"] == "setup_s" else
                      "ok" if s < bound / 3 else "warn" if s <= bound else "FAIL")
            entry["end_to_end"][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": s, "bound": bound,
                "status": status, "unit": metric["unit"]}
        names = sorted({k for r in plain for k in r["reported"]})
        for name in names:
            values = [r["reported"][name] for r in plain if name in r["reported"]]
            entry["reported"][name] = {"median": statistics.median(values),
                                       "min": min(values), "max": max(values)}
        for metric in bench["per_layer"]:
            values = [r["per_layer"][metric["name"]] for r in traced]
            if values:
                entry["per_layer"][metric["name"]] = statistics.median(values)
        out[workload] = entry
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dirs", nargs="*", default=[str(ROOT / ".perfbench_out")])
    p.add_argument("--against", default=None, help="directory of base runs to compare with")
    p.add_argument("--write", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = load(args.dirs)
    summary = summarize(runs, bench)
    base = summarize(load([args.against]), bench) if args.against else None
    worst = "ok"
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} untraced runs (seeds {entry['seeds']}), "
              f"{entry['busy_runs']} flagged busy, {entry['failed_runs']} with failed checks")
        if entry["failed_runs"]:
            worst = "FAIL"
        for name, m in entry["end_to_end"].items():
            print(f"  {name:<20} median {m['median']:>12.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:>10.5g} q3 {m['q3']:>10.5g} spread {m['spread']:6.3f} "
                  f"bound {m['bound']:.2f}  {m['status']}")
            if m["status"] == "FAIL" or (m["status"] == "warn" and worst == "ok"):
                worst = m["status"]
            b = base and base[workload]["end_to_end"].get(name)
            if b:
                better = next(x["better"] for x in bench["end_to_end"] if x["name"] == name)
                worse = (m["median"] / b["median"] - 1) * (1 if better == "lower" else -1)
                verdict = "FAIL" if worse > m["bound"] else "ok"
                print(f"  {'':<20} vs base median {b['median']:.6g}: worse by {worse:+.3f}  {verdict}")
                if verdict == "FAIL":
                    worst = "FAIL"
        for name, m in entry["reported"].items():
            print(f"  {name:<20} median {m['median']:>12.6g}  min {m['min']:.5g} "
                  f"max {m['max']:.5g}  (not gated)")
    if args.write:
        env = runs[-1]["env"] if runs else {}
        Path(args.write).write_text(json.dumps({"machine": env, "workloads": summary},
                                               indent=1, sort_keys=True) + "\n")
    return 1 if worst == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
