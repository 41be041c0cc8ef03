"""circshell benchmark: run one workload, or all of them, and check every verdict.

Usage, from the root of a checkout::

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload chain --seed 3 --seconds 20
    python3 perfbench/run.py --workload milestones --trace 1  # per-layer run
    python3 perfbench/run.py --workload chain --smoke         # reduced size

The program under test is imported from ``src/`` of the checkout this
file sits in.  A run repeats passes of its workload (see ``workloads.py``)
for ``--seconds``, at least one pass, single-process and single-threaded,
and prints human-readable lines followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``: set-up time is the median of several fresh processes
that import the package and build the inputs; the rest come from the
passes.  With ``--trace 1`` they are the ``per_layer`` metrics: after the
untraced passes the run installs the span wrappers of ``tracing.py``,
builds the inputs again and makes one traced pass, reports layer times
and counts from its spans, the tracing overhead against the first
untraced pass (same inputs), and writes the spans to
``.perfbench/trace-<workload>-<seed>.npz``.  Untraced runs never import
the wrappers.

All times are seconds at the reference speed of ``speed.py``: a probe
samples the machine's speed while the run measures, and each interval is
divided by the slowness found over it.  The raw pass times and the
slowness range are printed too.  ``failed_ratio`` is printed as a line of
its own; it is zero on a correct program, so it is not a metric.

The exit code is 0 when every verdict matched its known answer, 1 when
some did not (the JSON line still reports them), and 2, with no JSON
line, when the run could not complete: no program to import, or an
error outside the checked calls, such as an input builder that fails
on a changed program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS, SMOKE_SETUP_REPEATS, SETUP_PROBES = 7, 1, 10
WORKLOAD_NAMES = ("milestones", "chain", "alpha-scan", "expansion-suite")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size inputs, for testing the benchmark itself")
    return ap.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    """What a result is only comparable under: backend, machine, code."""
    from circshell import kernels

    digest = hashlib.sha256()
    for path in sorted((SRC / "circshell").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "kernel_backend": kernels.backend(),
        "numba_importable": kernels.HAVE_NUMBA,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


SETUP_CHILD = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import speed
clock = speed.Clock()
for _ in range({probes}):
    clock.probe()
import workloads
workloads.WORKLOADS[{workload!r}].make_inputs({seed}, {smoke})
for _ in range({probes}):
    clock.probe()
print(clock.probe_s, clock.factor(float("-inf"), float("inf")))
"""


def measure_setup(workload: str, seed: int, smoke: bool, repeats: int) -> list[float]:
    """Reference-speed wall time of fresh processes that import circshell
    and build the inputs.  Each process probes the machine's speed just
    before and after, so the probes run where and when the set-up does;
    their own time is taken off."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), probes=SETUP_PROBES,
                              workload=workload, seed=seed, smoke=smoke)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                               capture_output=True, text=True, timeout=170)
        took = time.perf_counter() - t
        probe_s, slowness = map(float, child.stdout.split())
        times.append((took - probe_s) / slowness)
    return times


def measure(wl, inputs, seconds: float, clock) -> list:
    """Run passes until another one would overrun ``seconds``; at least one."""
    passes = []
    start = clock.now()
    with clock.sampling():
        while True:
            clock.probe()
            passes.append(wl.run_pass(inputs, clock))
            clock.probe()
            if clock.now() - start + passes[-1].wall_s > seconds:
                return passes


def reference_speed(clock, interval: tuple[float, float]) -> float:
    """Seconds of ``interval`` at the reference speed of ``speed.py``."""
    start, took = interval
    return took / clock.factor(start, start + took)


def end_to_end(passes, setup_times: list[float], clock) -> dict[str, float]:
    walls = [reference_speed(clock, (p.start, p.wall_s)) for p in passes]
    verdicts = [reference_speed(clock, v) for p in passes for v in p.verdicts]
    p99 = (statistics.quantiles(verdicts, n=100, method="inclusive")[98]
           if len(verdicts) > 1 else verdicts[0])
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "instances_per_s": sum(p.attempted for p in passes) / sum(walls),
        "verdict_p50_ms": statistics.median(verdicts) * 1e3,
        "verdict_p99_ms": p99 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_layers(wl, args, clock, untraced_first) -> tuple[dict, object, object]:
    """Set-up and exactly one pass under the span wrappers, so that counts
    repeat exactly; per-layer metrics at reference speed."""
    import tracing

    tracer = tracing.Tracer(clock.now)
    uninstall = tracing.install(tracer)
    try:
        with clock.sampling():
            clock.probe()
            start = clock.now()
            inputs = wl.make_inputs(args.seed, args.smoke)
            traced = wl.run_pass(inputs, clock)
            wall_s = clock.now() - start
            clock.probe()
    finally:
        uninstall()
    slowness = clock.factor(start, start + wall_s)
    metrics = {}
    for name, value in tracer.layer_metrics(wall_s).items():
        if name.endswith("_per_s"):
            value *= slowness
        elif name.endswith("_s"):
            value /= slowness
        metrics[name] = value
    metrics["tracing.wall_s"] = wall_s / slowness
    # the first untraced pass ran on the same inputs as the traced one
    metrics["tracing.overhead_ratio"] = (
        reference_speed(clock, (traced.start, traced.wall_s))
        / reference_speed(clock, (untraced_first.start, untraced_first.wall_s)) - 1)
    path = OUT_DIR / f"trace-{wl.name}-{args.seed}.npz"
    tracer.save(path)
    print(f"trace: {len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    return metrics, traced, inputs


def details(passes, clock) -> dict[str, dict]:
    """Medians over passes of the per-check times and search counts, such
    as ``c20_vd_s`` and ``c20_vd_nodes`` on milestones."""
    seen: dict[str, tuple[str, list[float]]] = {}
    for p in passes:
        for k, interval in p.timings.items():
            seen.setdefault(k, ("s", []))[1].append(reference_speed(clock, interval))
        for k, v in p.stats.items():
            seen.setdefault(k, ("count", []))[1].append(v)
    return {k: {"value": statistics.median(v), "unit": unit}
            for k, (unit, v) in sorted(seen.items())}


def run_one(args, spec: dict) -> int:
    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    print(f"perfbench: workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={args.smoke}")
    print("env: " + json.dumps(environment()))

    clock = speed.Clock()
    inputs = wl.make_inputs(args.seed, args.smoke)
    untraced = passes = measure(wl, inputs, args.seconds, clock)
    checked = [inputs]
    if args.trace:
        metrics, traced, traced_inputs = traced_layers(wl, args, clock, untraced[0])
        passes = untraced + [traced]
        checked.append(traced_inputs)
        declared = spec["per_layer"]
    else:
        repeats = SMOKE_SETUP_REPEATS if args.smoke else SETUP_REPEATS
        setup_times = measure_setup(wl.name, args.seed, args.smoke, repeats)
        metrics = end_to_end(passes, setup_times, clock)
        declared = spec["end_to_end"]

    finals = [wl.final_check(x) for x in checked] if wl.final_check else []
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes + finals))

    raw = [p.wall_s for p in untraced]
    slowness = [clock.factor(p.start, p.start + p.wall_s) for p in untraced]
    samples = sum(len(p.verdicts) for p in untraced)
    print(f"untraced passes: {len(raw)} ({samples} verdict intervals for the percentiles); "
          f"raw wall median {statistics.median(raw):.4f} s "
          f"(min {min(raw):.4f}, max {max(raw):.4f}); machine slowness median "
          f"{statistics.median(slowness):.3f} (min {min(slowness):.3f}, "
          f"max {max(slowness):.3f}) over {len(clock.stamps)} probes")
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} "
                           f"do not match BENCHMARK.json")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    print(f"  {'failed_ratio':<32} {failed / attempted:>16.6g} ({failed} of {attempted})")
    for key, d in details(untraced, clock).items():
        print(f"  detail {key:<25} {d['value']:>16.6g} {d['unit']}")
    for err in [e for p in passes + finals for e in p.errors][:20]:
        print("FAILED: " + err.strip().replace("\n", " | "))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if not isinstance(result, dict):
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circshell" / "__init__.py").is_file():
        print(f"error: no circshell package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        return run_one(args, spec)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
