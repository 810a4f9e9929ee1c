"""Benchmark mcsim end to end, and per layer with tracing on.

    python3 perfbench/run.py --workload closure-synth --seed 1 --seconds 20 --trace 0

One run measures one workload in its own process. The load is a closed
loop: a single caller issues the next item only when the previous one has
returned. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.

  --workload all   run every workload in its own process, print a table
  --smoke          one cycle of every workload, both modes; checks that
                   every metric named in BENCHMARK.json is printed
  --profile        cProfile of one workload, for diagnosis; no metrics
  --record-digests rewrite the sequential-sim reference digests
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections import namedtuple

import reference
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_run")
LAYERS = ("ternary_core", "netlist", "executor", "analysis", "components", "cli")
SETUP_REPEATS = 3
DIGEST_COUNT = 2000

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_ms_p50", "ms"),
              ("item_ms_p90", "ms"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


# The host is shared, and its speed switches between a fast and a slow
# state (about 1.7x apart) over tenths of seconds to minutes. Every
# reported time is therefore scaled to a fixed reference speed: a short
# pure-Python kernel (ternary evaluation of a fixed DAG, benchmark-local,
# garbage collector off) is timed between items, at most every SEGMENT_S,
# and each item's time is multiplied by CALIBRATION_REF_S over the mean of
# the two kernel times around it. CALIBRATION_REF_S is the kernel's typical
# time on a 2-vCPU x86-64 host under CPython 3.11.7, so the reported
# seconds are that host's seconds.
CALIBRATION_REF_S = 0.0022
SEGMENT_S = 0.02
_Gate = namedtuple("_Gate", "gid kind table args")
_CAL_DAG = types.SimpleNamespace(
    inputs=("a", "b", "c", "d", "e"),
    gates=(_Gate("n1", "NOT", None, ("a",)), _Gate("g1", "AND", None, ("n1", "b", "c")),
           _Gate("g2", "OR", None, ("a", "d")), _Gate("g3", "XOR", None, ("g2", "e")),
           _Gate("g4", "NAND", None, ("g1", "g3")), _Gate("g5", "TABLE", "0110", ("c", "g4")),
           _Gate("g6", "NOR", None, ("g5", "b", "e")), _Gate("g7", "OR", None, ("g6", "g1", "d")),
           _Gate("g8", "AND", None, ("g7", "g2")), _Gate("g9", "BUF", None, ("g8",))),
    outputs=(("y0", "g9"), ("y1", "g4"), ("y2", "g6")))
_CAL_WORDS = reference.ternary_words(5)[:81]


def kernel_s() -> float:
    """One timed pass of the calibration kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for x in _CAL_WORDS:
            reference.ternary_eval(_CAL_DAG, x)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class ItemTimeout(BaseException):
    """An item ran past its wall-clock cap (a BaseException, so that no
    handler inside mcsim can swallow it)."""


class _Alarm:
    armed = False


def _on_alarm(signum, frame):
    if _Alarm.armed:
        raise ItemTimeout()


def _arm(seconds: float) -> None:
    _Alarm.armed = True
    signal.setitimer(signal.ITIMER_REAL, seconds)


def _disarm() -> None:
    _Alarm.armed = False
    signal.setitimer(signal.ITIMER_REAL, 0)


def fresh_mcsim() -> types.SimpleNamespace:
    """Import mcsim from this checkout's src/, dropping any earlier copy so
    that every set-up starts with cold module-level caches."""
    if not os.path.isfile(os.path.join(SRC, "mcsim", "__init__.py")):
        raise SystemExit(f"error: no mcsim sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "mcsim" or n.startswith("mcsim.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {n: importlib.import_module(f"mcsim.{n}") for n in LAYERS}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported mcsim from outside this checkout")
    return types.SimpleNamespace(**mods)


def setup(cls, seed: int, workdir: str):
    """One set-up (fresh import, then the workload's construction) and its
    time in reference seconds."""
    k0 = kernel_s()
    t0 = time.perf_counter()
    mc = fresh_mcsim()
    wl = cls(mc, seed, workdir)
    dt = time.perf_counter() - t0
    return wl, dt * CALIBRATION_REF_S * 2 / (k0 + kernel_s())


def measure(wl, seconds: float, cycles: int | None = None, wrap=None) -> dict:
    """Closed loop over whole cycles until `seconds` have passed (or for
    exactly `cycles` cycles). Item time covers only the call into mcsim,
    scaled to reference seconds; making items, checking results and the
    calibration kernel happen outside it."""
    lat, failed, done, problems = [], 0, 0, []
    segment, k_prev, raw_total = [], kernel_s(), 0.0
    start = seg_start = time.perf_counter()

    def flush():
        nonlocal k_prev, seg_start
        k = kernel_s()
        scale = CALIBRATION_REF_S * 2 / (k_prev + k)
        for i in segment:
            lat[i] *= scale
        segment.clear()
        k_prev, seg_start = k, time.perf_counter()

    while True:
        for it in wl.cycle():
            try:
                _arm(wl.cap_s)
                t0 = time.perf_counter()
                result = wrap(wl.run, it) if wrap else wl.run(it)
                dt = time.perf_counter() - t0
                _disarm()
            except ItemTimeout:
                _disarm()
                dt = wl.cap_s
                problem = f"item exceeded its {wl.cap_s} s cap"
            except Exception as e:          # a failing item is counted, not fatal
                _disarm()
                dt = time.perf_counter() - t0
                problem = f"{type(e).__name__}: {e}"
            else:
                problem = wl.check(it, result)
            if problem:
                failed += 1
                problems.append(problem)
            segment.append(len(lat))
            lat.append(dt)
            raw_total += dt
            if time.perf_counter() - seg_start >= SEGMENT_S:
                flush()
        done += 1
        if (done >= cycles) if cycles is not None else \
                (time.perf_counter() - start >= seconds):
            break
    if segment:
        flush()
    return {"lat": lat, "failed": failed, "cycles": done, "problems": problems,
            "scale": sum(lat) / raw_total}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _report(workload: str, metrics: dict, counts: dict) -> None:
    for name, m in metrics.items():
        extra = f"  (n={counts[name]})" if name in counts else ""
        print(f"{workload}  {name:<48} {m['value']:.6g} {m['unit']}{extra}")


def _problems(problems: list[str]) -> None:
    for p in problems[:10]:
        print(f"failed item: {p}", file=sys.stderr)
    if len(problems) > 10:
        print(f"... {len(problems) - 10} more failed items", file=sys.stderr)


def run_end_to_end(cls, seed: int, seconds: float, workdir: str) -> dict:
    setups = []
    for i in range(SETUP_REPEATS):
        wl = None
        gc.collect()
        wl, dt = setup(cls, seed, os.path.join(workdir, f"setup{i}"))
        setups.append(dt)
    gc.collect()
    res = measure(wl, seconds)
    lat, failed = res["lat"], res["failed"]
    attempted = len(lat)
    busy = sum(lat)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": (attempted - failed) / busy,
        "item_ms_p50": 1000 * percentile(lat, 0.5),
        "item_ms_p90": 1000 * percentile(lat, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    counts = {"setup_s": len(setups), "items_per_s": attempted, "item_ms_p50": attempted,
              "item_ms_p90": attempted, "ok_ratio": attempted}
    _report(cls.name, metrics, counts)
    print(f"{cls.name}  {'failed_ratio':<48} {failed / attempted:.6g} ratio  (n={attempted})")
    print(f"{cls.name}  cycles {res['cycles']}, busy {busy:.3f} s, "
          f"host speed scale {res['scale']:.3f}")
    _problems(res["problems"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(cls, seed: int, seconds: float, workdir: str) -> dict:
    """An untraced pass over whole cycles, then the same items again from a
    fresh import with every traced function wrapped."""
    wl, _ = setup(cls, seed, os.path.join(workdir, "plain"))
    gc.collect()
    plain = measure(wl, seconds)
    wl = None
    gc.collect()
    wl, _ = setup(cls, seed, os.path.join(workdir, "traced"))
    tr = tracer.Tracer()
    tr.install({n: getattr(wl.mc, n) for n in LAYERS})
    gc.collect()
    traced = measure(wl, seconds, cycles=plain["cycles"], wrap=tr.item)
    # per-layer times are scaled by the traced phase's mean host-speed scale
    values = {k: v * traced["scale"] if k.endswith("self_s") else v
              for k, v in tr.metrics().items()}
    untraced_s, traced_s = sum(plain["lat"]), sum(traced["lat"])
    values["bench.untraced_s"] = untraced_s
    values["bench.trace_overhead_ratio"] = traced_s / untraced_s
    metrics = {n: {"value": values[n], "unit": u} for n, u in tracer.metric_names()}
    _report(cls.name, metrics, {})
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{cls.name}-seed{seed}.tsv.gz")
    print(f"{cls.name}  {tr.write(path)} spans written to {os.path.relpath(path, ROOT)}")
    failed = plain["failed"] + traced["failed"]
    _problems(plain["problems"] + traced["problems"])
    attempted = len(plain["lat"]) + len(traced["lat"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_profile(cls, seed: int, seconds: float, workdir: str) -> None:
    import cProfile
    import pstats

    wl, _ = setup(cls, seed, workdir)
    prof = cProfile.Profile()
    res = measure(wl, seconds, wrap=prof.runcall)     # profiles the items only
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"profile-{cls.name}-seed{seed}.prof")
    prof.dump_stats(path)
    print(f"{cls.name}: {len(res['lat'])} items, {res['failed']} failed; "
          f"profile written to {os.path.relpath(path, ROOT)}")
    pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(25)


def _child(args: argparse.Namespace, workload: str, trace: int) -> dict | None:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exit {proc.returncode}")
        return None
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace, workloads) -> int:
    results = {w: _child(args, w, args.trace) for w in workloads}
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def run_smoke(args: argparse.Namespace, workloads) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    args.seconds = 0
    ok = True
    for w in workloads:
        for trace in (0, 1):
            r = _child(args, w, trace)
            missing = sorted(want[trace] - set(r["metrics"])) if r else ["(no result)"]
            good = r is not None and r["correct"] and not missing
            ok = ok and good
            print(f"smoke {w} trace={trace}: {'ok' if good else 'FAIL'}"
                  + (f" missing {missing}" if missing else ""))
    return 0 if ok else 1


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if args.smoke:
        return run_smoke(args, names)
    if args.workload == "all" and not args.record_digests:
        return run_all(args, names)
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        for sub in [f"setup{i}" for i in range(SETUP_REPEATS)] + ["plain", "traced"]:
            os.makedirs(os.path.join(workdir, sub))
        if args.record_digests:
            workloads.record_digests(fresh_mcsim(), os.path.join(workdir, "plain"),
                                     DIGEST_COUNT)
            return 0
        cls = workloads.WORKLOADS[args.workload]
        if args.profile:
            run_profile(cls, args.seed, args.seconds, os.path.join(workdir, "plain"))
            return 0
        run = run_traced if args.trace else run_end_to_end
        result = run(cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
