"""speclab benchmark: four closed-loop workloads against the public API and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 1

Workloads: ``ensemble``, ``level_matrices``, ``exact_search``, ``cli`` (see
``workloads.py`` for what each runs and why), or ``all``, which runs each in
its own process and prints a table. The seed only generates inputs.
``BENCHMARK.json`` lists only ``ensemble`` and ``cli``: on a shared host a
run needs a minute for its medians to settle, and the time allowed for all
runs fits a minute each for two workloads. The other two run the same way
when named.

``--trace 0`` prints the end-to-end metrics. Each run repeats the
workload's fixed work in passes (at least three) and takes every op's median
latency over the passes. From those: ``wall_s`` (one pass over the fixed
work: the ops' latencies plus the median time a pass spends outside them),
``ops_per_s`` (ops in a pass over ``wall_s``), ``op_p50_ms`` and
``op_tail_ms`` (the median op and a tail percentile fixed per workload, the
highest with ten ops beyond it), ``setup_s`` (median of several set-ups:
speclab import, inputs, triples, systems) and ``peak_rss_mb`` (of this
process, or of the CLI children for ``cli``).

Failed ops over attempted ops is printed as ``failed_frac`` and carried by
the ``attempted`` and ``failed`` fields of the result.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics (see ``tracer.py``) and the tracing overhead. Spans go to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# pinned before anything imports numpy; the CLI children inherit it
os.environ.update({v: str(BLAS_THREADS) for v in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
os.environ["SPECLAB_THREADS"] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# passes every run makes at least, so each op's latency is a median of three
MIN_PASSES = 3
SETUP_REPEATS = 7
PROBE_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = {"wall_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile of a pass's ops with TAIL_BEYOND ops beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / ops_per_pass))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "seed": seed}


def _time_subprocess(code: str, env: dict) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def _setup_probe(name: str, seed: int) -> float:
    """Time one set-up of `name` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
         name, "--seed", str(seed)],
        capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _make_workload(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, ROOT, workdir)


def _count_failures(wl, passes) -> tuple[int, int, dict]:
    """Failed ops: those that raised or errored, then those failing a check."""
    bad = {(p, k): op.error for p, ops in enumerate(passes)
           for k, op in enumerate(ops) if op.error is not None}
    try:
        checked = wl.verify(passes)
    except Exception as exc:  # a check that cannot run fails every op
        checked = {(p, k): f"verification raised {type(exc).__name__}: {exc}"
                   for p, ops in enumerate(passes) for k in range(len(ops))}
    for key, why in checked.items():
        bad.setdefault(key, why)
    return sum(map(len, passes)), len(bad), bad


def run_untraced(wl, seconds: float, setup_s: float) -> tuple[dict, list, dict]:
    passes, walls = [], []
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        passes.append(wl.run_pass(len(passes)))
        t1 = perf_counter()
        walls.append(t1 - t0)
        if len(passes) >= MIN_PASSES and t1 - start + statistics.median(walls) > seconds:
            break
    if wl.name == "cli":
        peak_kb = wl.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = [[op.seconds for op in ops] for ops in passes]
    op_s = [statistics.median(col) for col in zip(*lat)]
    # time a pass spends outside its ops: report assembly, file scans
    outside = statistics.median(w - sum(x) for w, x in zip(walls, lat))
    wall = sum(op_s) + outside
    pct = tail_percentile(wl.ops_per_pass)
    tail = percentile(op_s, pct)
    metrics = {
        "wall_s": wall,
        "ops_per_s": wl.ops_per_pass / wall,
        "op_p50_ms": 1e3 * statistics.median(op_s),
        "op_tail_ms": 1e3 * tail,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    info = {"passes": len(passes), "pass_walls_s": walls, "outside_ops_s": outside,
            "ops": sum(map(len, lat)), "tail_percentile": pct,
            "ops_beyond_tail": sum(t > tail for t in op_s),
            "op_median_s": op_s, "op_seconds": lat}
    return metrics, passes, info


def run_traced(wl, tracer, seconds: float) -> tuple[dict, list, dict]:
    from tracer import layer_metrics
    passes, plain, traced, per_pass = [], [], [], []
    setup_spans = list(tracer.spans)
    if wl.name == "cli":
        wl.in_process = True   # both sides in-process, so the difference is tracing
    start = perf_counter()
    while True:
        for on in (False, True):
            first = len(tracer.spans)
            if on:
                tracer.install()
                wl.mark = lambda label: setattr(tracer, "op", label)
            t0 = perf_counter()
            try:
                ops = wl.run_pass(len(passes))
            finally:
                t1 = perf_counter()
                tracer.uninstall()
                wl.mark = lambda label: None
            passes.append(ops)
            (traced if on else plain).append(t1 - t0)
            if on:
                m, errors = layer_metrics(setup_spans + tracer.spans[first:])
                if wl.name == "cli":
                    m["cli.report_bytes"] = wl.report_bytes[len(passes) - 1]
                    m["cli.exit_mismatch"] = wl.exit_mismatches(ops)
                m["trace.spans"] = len(tracer.spans) - first
                per_pass.append((m, errors))
        pair = statistics.median(plain) + statistics.median(traced)
        if perf_counter() - start + pair > seconds:
            break
    metrics = {k: statistics.median(m[k] for m, _ in per_pass) for k in per_pass[0][0]}
    metrics.setdefault("cli.report_bytes", 0)
    metrics.setdefault("cli.exit_mismatch", 0)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    metrics["cli.spawn_s"] = statistics.median(
        _time_subprocess("pass", env) for _ in range(PROBE_REPEATS))
    metrics["cli.import_s"] = statistics.median(
        _time_subprocess("import speclab.cli", env) for _ in range(PROBE_REPEATS))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    info = {"untraced_walls_s": plain, "traced_walls_s": traced,
            "errors_by_type": per_pass[0][1]}
    return metrics, passes, info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    tracer = None
    if trace:
        import speclab  # noqa: F401  (imported before its functions are wrapped)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        wl = _make_workload(name, seed, workdir)
        try:
            setups = [wl.timed_setup()]
        finally:
            if tracer:
                tracer.uninstall()
        if trace:
            metrics, passes, info = run_traced(wl, tracer, seconds)
        else:
            setups += [_setup_probe(name, seed) for _ in range(SETUP_REPEATS - 1)]
            metrics, passes, info = run_untraced(wl, seconds, statistics.median(setups))
        attempted, failed, bad = _count_failures(wl, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl.gz")
    units = END_TO_END if not trace else per_layer_units()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"workload": name, "trace": trace, "seconds": seconds, "env": env,
              "info": info, "setup_samples_s": setups, "result": result,
              "failures": {f"{p}.{k}": why for (p, k), why in sorted(bad.items())}}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {name}: closed loop, 1 client, seed {seed}, trace {int(trace)}")
    print("env " + json.dumps(env))
    if trace:
        print(f"passes: untraced {len(info['untraced_walls_s'])}, "
              f"traced {len(info['traced_walls_s'])}")
    else:
        print(f"passes {info['passes']}, ops {info['ops']} ({wl.ops_per_pass} per "
              f"pass); an op's latency is its median over the passes")
    for k, v in result["metrics"].items():
        note = ""
        if k == "op_tail_ms":
            note = (f"  (p{info['tail_percentile']}, {info['ops_beyond_tail']} "
                    f"of {wl.ops_per_pass} ops beyond it)")
        print(f"  {k:<30} {v['value']:>14.6g} {v['unit']}{note}")
    print(f"  {'failed_frac':<30} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} ops)")
    if trace and info["errors_by_type"]:
        print("  ensemble.errors_by_type " + json.dumps(info["errors_by_type"]))
    for (p, k), why in sorted(bad.items())[:10]:
        print(f"  FAILED pass {p} op {k}: {why}")
    print(json.dumps(result))
    return 0


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
        rows.append((name, res))
    if not trace:
        cols = list(END_TO_END)
        print("\n" + f"{'workload':<16}" + "".join(f"{c:>14}" for c in cols)
              + f"{'failed_frac':>14}")
        print(f"{'':<16}" + "".join(f"{END_TO_END[c]:>14}" for c in cols) + f"{'ratio':>14}")
        for name, res in rows:
            print(f"{name:<16}" + "".join(f"{res['metrics'][c]['value']:>14.5g}" for c in cols)
                  + f"{res['failed'] / res['attempted']:>14.3g}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up of the workload and print it")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/speclab/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; run "
              "from a speclab checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_probe:
        WORK_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR))
        try:
            print(repr(_make_workload(args.workload, args.seed, workdir).timed_setup()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
