#!/usr/bin/env python3
"""The delay-noise engine benchmark: build from source, run, report.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload batch_warm --seed 1 --seconds 30 --trace 0

builds the analysis library and dn_perfbench into .bench_build/ (first run
only), runs one workload and passes its output through. The last
stdout line is the JSON result; the exit code is non-zero when the build
fails or any output check fails.

Steadiness (median and quartiles of every metric over N seeds, workload
order alternating between rounds):

    python3 perfbench/run.py --repeat 10 [--workloads batch_warm,eco_serve]

Comparing two commits (N alternating pairs against another checkout):

    python3 perfbench/run.py --compare ../parent-checkout --repeat 10 --workloads batch_warm

See perfbench/README.md for the workloads, metrics and decision rules.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def analysis_jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build(root):
    """Configures (once) and builds dn_perfbench under root/.bench_build."""
    bench_dir = root / BENCH_DIR.name
    build_dir = root / ".bench_build" / BENCH_DIR.name
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no analysis library sources under {root / 'src'}")
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(build_dir), "-j", str(analysis_jobs())]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
        return None
    return build_dir / "dn_perfbench"


def host_context(root):
    """nproc, P, build type and compiler of the build behind a result."""
    ctx = {"nproc": os.cpu_count(), "P": analysis_jobs(),
           "machine": platform.machine()}
    build_dir = root / ".bench_build" / BENCH_DIR.name
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file():
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
        if m:
            ctx["build_type"] = m.group(1)
    for f in build_dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            ctx["compiler"] = f"{ident.group(1)} {version.group(1)}"
    return ctx


def run_once(root, binary, workload, seed, seconds, trace, tiny=False,
             echo=False):
    """One dn_perfbench run; returns (exit code, parsed last-line JSON or None)."""
    work_dir = root / ".bench_build" / f"run-{os.getpid()}"
    traces = root / ".bench_build" / "traces"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work_dir)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=root,
                              timeout=RUN_TIMEOUT_S)
        rc, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s; killed")
        rc, out = 124, e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    for f in work_dir.glob("trace-*.json"):
        traces.mkdir(parents=True, exist_ok=True)
        f.replace(traces / f.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return rc, result


def benchmark_spec(root):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_specs(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def repeat(args, binary):
    """Median and quartiles of each metric over N seeds, alternating order."""
    spec = benchmark_spec(ROOT)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    samples = {w: {} for w in workloads}
    ok = True
    for i in range(args.repeat):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed + i
            t0 = time.monotonic()
            rc, res = run_once(ROOT, binary, w, seed, seconds, args.trace,
                               args.tiny)
            wall = time.monotonic() - t0
            good = rc == 0 and res is not None and res.get("correct")
            ok = ok and good
            log(f"round {i + 1}/{args.repeat} {w} seed {seed}: "
                f"{'ok' if good else 'FAILED'} in {wall:.1f} s")
            if res:
                for name, m in res["metrics"].items():
                    samples[w].setdefault(name, []).append(m["value"])
            samples[w].setdefault("run_wall_s", []).append(wall)
    bounds = {m["name"]: m.get("bound") for m in metric_specs(spec, args.trace)}
    summary = {"host": host_context(ROOT), "seconds": seconds,
               "rounds": args.repeat, "workloads": {}}
    print(f"{'workload':<11} {'metric':<34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        summary["workloads"][w] = {}
        for name, values in samples[w].items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            summary["workloads"][w][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": values}
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
            print(f"{w:<11} {name:<34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6}{flag}")
    print(json.dumps(summary))
    return 0 if ok else 1


def compare(args, binary):
    """Alternating pairs of a baseline checkout and this one (README rule)."""
    base_root = Path(args.compare).resolve()
    base_binary = build(base_root)
    if base_binary is None:
        log(f"perfbench: baseline build failed in {base_root}")
        return 1
    spec = benchmark_spec(ROOT)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"] for m in metric_specs(spec, args.trace)}
    sides = {"base": (base_root, base_binary), "head": (ROOT, binary)}
    values = {w: {"base": {}, "head": {}} for w in workloads}
    for i in range(args.repeat):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for w in workloads:
            for side in order:
                root, b = sides[side]
                rc, res = run_once(root, b, w, args.seed + i, seconds,
                                   args.trace)
                if rc != 0 or not res or not res.get("correct"):
                    log(f"perfbench: {side} {w} round {i + 1} failed")
                    return 1
                for name, m in res["metrics"].items():
                    values[w][side].setdefault(name, []).append(m["value"])
    print(f"{'workload':<11} {'metric':<28} {'base med':>12} {'head med':>12} "
          f"{'wins':>6} {'verdict':>10}")
    for w in workloads:
        for name, base in values[w]["base"].items():
            head = values[w]["head"].get(name, [])
            sign = 1 if better.get(name) == "higher" else -1
            wins = sum(1 for a, b in zip(base, head) if sign * (b - a) > 0)
            q1, bmed, q3 = quartiles(base)
            _, hmed, _ = quartiles(head)
            gain = wins >= 0.9 * len(base) and sign * (hmed - bmed) > (q3 - q1)
            loss = (len(base) - wins) >= 0.9 * len(base) and \
                sign * (bmed - hmed) > (q3 - q1)
            verdict = "gain" if gain else "regress" if loss else "-"
            print(f"{w:<11} {name:<28} {bmed:12.6g} {hmed:12.6g} "
                  f"{wins:>3}/{len(base):<2} {verdict:>10}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--workloads", help="comma list for --repeat/--compare")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (the benchmark's own test)")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--compare", metavar="CHECKOUT")
    args = ap.parse_args()

    binary = build(ROOT)
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.compare:
        return compare(args, binary)
    if args.repeat:
        return repeat(args, binary)
    if not args.workload:
        ap.error("--workload is required")
    seconds = args.seconds or benchmark_spec(ROOT)["run_seconds"]
    log(f"perfbench: host {json.dumps(host_context(ROOT))}")
    rc, _ = run_once(ROOT, binary, args.workload, args.seed, seconds,
                     args.trace, args.tiny, echo=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
