#!/usr/bin/env python3
"""netinv benchmark: one workload per run, in a fresh single process.

    python3 perfbench/run.py --workload {invert,audit,ood} --seed N --seconds S --trace {0,1}

Run from the root of a netinv checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` wraps netinv's public functions (``spans.py``) on every
other repetition and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
correctness check failed.  See README.md in this directory.
"""

import os
import sys

# BLAS must be single-threaded before numpy is first imported: an unpinned
# thread pool under contention made steps over 20x slower.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import subprocess
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER, Tracer, median, tail  # noqa: E402

WORKLOADS = ("invert", "audit", "ood")
MIN_REPS = 2     # byte-identity needs two; a traced run alternates traced/untraced

# On a virtual machine whose cores other guests share, the speed of the same
# code moves by 20-30%, within seconds and over minutes, which no amount of
# averaging inside a run removes.  Every measured segment (set-up,
# subcommand, probe section) is therefore bracketed by runs of a calibration
# kernel and scaled by REF_CALIB_S / (the mean of its two brackets): the
# figures read as seconds on a host where the kernel takes REF_CALIB_S.  The
# kernel does not use netinv, so a netinv change moves the scaled figures as
# much as the raw ones.
REF_CALIB_S = 0.015
CALIB_SAMPLES = 3

# name -> (unit, direction); bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "gen_steps_per_s": ("1/s", "higher"),
    "gen_step_ms_p50": ("ms", "lower"),
    "clf_samples_per_s": ("1/s", "higher"),
    "predict_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "id_test_acc": ("frac", "higher"),
}
# Printed and checked, but not in the JSON line: each exists on one or two
# workloads only, or is 0 by design.
REPORTED = {
    "inv_acc": ("frac", "higher"),
    "ssim_gap": ("frac", "higher"),
    "ood_routed": ("frac", "higher"),
    "audit_pairs_per_s": ("1/s", "higher"),
    "fail_frac": ("frac", "lower"),
}


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": nproc,
        "load1_start": os.getloadavg()[0],
    }


def calibrate():
    """Median time of a fixed kernel with a netinv step's mix of work:
    an interpreter-bound loop and small float32 matmuls."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.random((32, 144), dtype=np.float32)
    w = rng.random((144, 256), dtype=np.float32)
    times = []
    for _ in range(CALIB_SAMPLES):
        t0 = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i % 7
        for _ in range(300):
            np.maximum(a @ w, 0.0).sum()
        times.append(time.perf_counter() - t0)
    return median(times)


def cpu_seconds():
    """CPU time of this process and of the children it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def fresh_import():
    """Import netinv in a new interpreter, as each user process does; the
    import is part of every set-up.  -> whether it succeeded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", "import netinv.cli"], env=env,
                          cwd=ROOT, capture_output=True, timeout=60)
    return proc.returncode == 0


def settle_on_fastest_cpu(cpus):
    """Pin this process to the allowed CPU where the calibration kernel runs
    fastest now, and return that kernel time.  Another guest on a shared host
    tends to keep one core busy for a while; each repetition starts on the
    quieter one."""
    timings = {}
    for cpu in cpus:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            return calibrate()
        timings[cpu] = calibrate()
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return timings[best]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure repetitions for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="directory for run outputs (default: .perfbench_out in the checkout)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny budgets and no quality floors, for the benchmark's tests")
    return p.parse_args(argv)


def run(args, env):
    import workloads

    out = Path(args.out or ROOT / ".perfbench_out") / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.workload, args.seed, out, smoke=args.smoke)
    setups, reps = [], []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    try:
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - wall0 < args.seconds:
            k = len(reps)
            traced = tracer is not None and k % 2 == 0
            if traced:
                tracer.install()
            elif tracer:
                tracer.uninstall()
            wl.tracer = tracer if traced else None
            before = settle_on_fastest_cpu(cpus) if len(cpus) > 1 else calibrate()
            t0 = time.perf_counter()
            wl.check(fresh_import(), "import netinv.cli failed in a new interpreter")
            facts = wl.setup(k)
            setup_s = time.perf_counter() - t0
            rep = wl.rep(k, calibrate)
            c0, c1, c2 = rep["calib"]
            rep["traced"] = traced
            rep["scale"] = REF_CALIB_S / ((c0 + c1) / 2)          # subcommand
            rep["pass_scale"] = REF_CALIB_S / ((c1 + c2) / 2)     # probe section
            rep["wall"] = rep["sub_s"] * rep["scale"] + rep["pass_s"] * rep["pass_scale"]
            rep["raw_wall"] = rep["sub_s"] + rep["pass_s"]
            facts["scale"] = REF_CALIB_S / ((before + c0) / 2)
            setups.append((setup_s, facts, traced))
            reps.append(rep)
        env["cpu_frac"] = (cpu_seconds() - cpu0) / (time.perf_counter() - wall0)
    finally:
        if tracer:
            tracer.uninstall()
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    env["load1_end"] = os.getloadavg()[0]
    env["busy"] = env["load1_start"] > env["nproc"] or env["cpu_frac"] < 0.85

    # rates scale inversely to times
    for fig in [f for _, f, _ in setups] + reps:
        for key in ("clf_samples_per_s", "audit_pairs_per_s"):
            if key in fig:
                fig[key] /= fig["scale"]
    plain = [r for r in reps if not r["traced"]]
    plain_setups = [(d, f) for d, f, traced in setups if not traced]
    steps = [s * r["pass_scale"] for r in plain for s in r["steps"]]
    predict = [s * r["pass_scale"] for r in plain for s in r["predict"]]
    setup_facts = [f for _, f in plain_setups]

    def figure(key):
        """A per-run figure: from the set-ups where it is measured, else the reps."""
        vals = [f[key] for f in setup_facts if key in f] or [r[key] for r in plain if key in r]
        return median(vals) if vals else None

    scale = median([r["scale"] for r in plain])
    e2e = {
        "setup_s": median([d * f["scale"] for d, f in plain_setups]),
        "wall_s": median([r["wall"] for r in plain]),
        "gen_steps_per_s": median([len(r["steps"]) / (sum(r["steps"]) * r["pass_scale"])
                                   for r in plain]),
        "gen_step_ms_p50": 1e3 * median(steps),
        "clf_samples_per_s": figure("clf_samples_per_s"),
        "predict_ms_p50": 1e3 * median(predict),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "id_test_acc": figure("id_test_acc"),
    }
    raw = {"setup_s": median([d for d, _ in plain_setups]),
           "wall_s": median([r["raw_wall"] for r in plain]),
           "gen_step_ms_p50": 1e3 * median([s for r in plain for s in r["steps"]]),
           "predict_ms_p50": 1e3 * median([s for r in plain for s in r["predict"]])}
    env["scale"] = scale
    env["calib_ms"] = 1e3 * REF_CALIB_S / scale
    reported = {k: figure(k) for k in REPORTED if figure(k) is not None}
    reported["fail_frac"] = len(wl.failures) / wl.attempted
    tails = {}
    for key, samples in (("gen_step_ms", steps), ("predict_ms", predict)):
        pct, value, n = tail([1e3 * s for s in samples])
        tails[key] = {"pct": pct, "value": value, "n": n}

    per_layer = None
    if tracer:
        traced = [r for r in reps if r["traced"]]
        last = traced[-1]
        facts = {
            "reps": len(traced),
            "overhead_frac": median([r["wall"] for r in traced]) / e2e["wall_s"] - 1.0,
            "cycles": wl.cfg["ood.cycles"] if args.workload == "ood" else 0,
            "garbage_size": last.get("garbage_size", 0),
            "pairs_per_rep": getattr(wl, "pairs", 0),
        }
        per_layer, tails["per_layer"] = tracer.metrics(facts)
        tracer.save(out / "spans.npz")
        env["untraced_targets"] = tracer.missing

    for path in out.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": env,
              "setups": len(setups), "reps": len(reps), "end_to_end": e2e, "raw": raw,
              "reported": reported, "tails": tails, "per_layer": per_layer,
              "attempted": wl.attempted, "failures": wl.failures}
    (out / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def report(record):
    env = record["env"]
    print(f"netinv benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']} "
          f"setups={record['setups']} reps={record['reps']}")
    print(f"  python {env['python']} ({env['machine']}), numpy {env['numpy']}, "
          f"BLAS {env['blas']}, threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, "
          f"nproc {env['nproc']}, load1 {env['load1_start']:.2f} -> {env['load1_end']:.2f}, "
          f"cpu/wall {env['cpu_frac']:.3f}")
    print(f"  calibration kernel {env['calib_ms']:.3f} ms (reference {1e3 * REF_CALIB_S:g} ms): "
          f"times below are scaled by {env['scale']:.4f}; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    if env["busy"]:
        print("  WARNING: machine busy (load1 above nproc or cpu/wall below 0.85); "
              "timings are suspect")
    for name, value in record["end_to_end"].items():
        unit, better = END_TO_END[name]
        print(f"  {name:<20} {value:>14.6g} {unit:<6} ({better} is better)")
    for name, value in record["reported"].items():
        unit, better = REPORTED[name]
        print(f"  {name:<20} {value:>14.6g} {unit:<6} ({better} is better; not gated)")
    for key in ("gen_step_ms", "predict_ms"):
        t = record["tails"][key]
        print(f"  {key + '_tail':<20} {t['value']:>14.6g} ms     (p{t['pct']:g} of {t['n']})")
    if record["per_layer"] is not None:
        details = record["tails"]["per_layer"]
        for name, value in record["per_layer"].items():
            note = (f"(p{details[name]['pct']:g} of {details[name]['n']})"
                    if name in details else "")
            print(f"  {name:<36} {value:>14.6g} {PER_LAYER[name][0]:<6} {note}")
    for failure in record["failures"]:
        print(f"  FAILED CHECK: {failure}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "netinv" / "__init__.py").is_file():
        print(f"perfbench: no netinv sources at {ROOT / 'src' / 'netinv'}; "
              "run from the root of a netinv checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = environment()
    try:
        record = run(args, env)
    except Exception:
        traceback.print_exc()
        print("perfbench: the workload raised; no result", file=sys.stderr)
        return 1
    report(record)
    if record["per_layer"] is not None:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                   for k, v in record["end_to_end"].items()}
    failed = len(record["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
