#!/usr/bin/env python3
"""The storesched benchmark: builds the harness and runs one workload.

    python3 perfbench/run.py --workload bulk_jsonl --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The harness (perfbench/src) and the
library it drives are built from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (those
a workload has no live source for, such as serve queue times on a bulk
run, read 0). The exit code is 0 only for a run whose outputs all passed
their checks and whose metric names and units match BENCHMARK.json.

Two more modes help keep the benchmark honest:

    python3 perfbench/run.py --smoke
        every workload at tiny sizes, traced and untraced; fails loudly when
        an emitted metric name or unit differs from BENCHMARK.json, or when
        no workload emits one of its per-layer metrics.

    python3 perfbench/run.py --steadiness [--runs 10] [--workload NAME ...]
        repeated untraced runs, one seed each; prints every metric's median
        and quartile spread per workload against its bound.

Every run tears down what it started -- the harness process group (the
storesched_serve child included), the serve socket and the
/dev/shm/storesched.<name> store segments -- on success, failure and
SIGINT/SIGTERM.
"""
import argparse
import glob
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no BENCHMARK.json at {ROOT}")
    return json.loads(path.read_text())


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds incrementally. Returns the bin dir."""
    for needed in ("src/storesched.hpp", "tools/storesched_serve.cpp",
                   "perfbench/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail(f"cannot build: {needed} is missing from {ROOT}")
    if shutil.which("cmake") is None:
        fail("cannot build: cmake is not installed")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(log, "w") as log_file:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(out), "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=log_file, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return out


class Run:
    """One harness process and everything it may leave behind."""

    def __init__(self, bin_dir, argv):
        self.run_dir = bin_dir / "run"
        self.run_dir.mkdir(exist_ok=True)
        self.store = f"perfbench{os.getpid()}"
        # A relative socket path keeps it under the sun_path limit however
        # deep the checkout is; the harness runs from ROOT.
        rel_run_dir = os.path.relpath(self.run_dir, ROOT)
        self.cmd = [str(bin_dir / "perfbench"), *argv,
                    f"--serve-bin={bin_dir / 'storesched_serve'}",
                    f"--run-dir={rel_run_dir}", f"--store={self.store}"]
        self.proc = None

    def execute(self):
        self.proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        try:
            stdout, _ = self.proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.teardown()
            fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s", 1)
        finally:
            self.teardown()
        return self.proc.returncode, stdout

    def teardown(self):
        if self.proc is not None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            self.proc.wait()
            for sock in self.run_dir.glob(f"serve-{self.proc.pid}.sock"):
                sock.unlink(missing_ok=True)
        for segment in glob.glob(f"/dev/shm/storesched.{self.store}*"):
            try:
                os.unlink(segment)
            except FileNotFoundError:
                pass


ACTIVE = []


def on_signal(signum, _frame):
    for run in ACTIVE:
        run.teardown()
    sys.exit(128 + signum)


def run_harness(bin_dir, spec, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (ok, result dict or None, problems).

    The result's metrics are the harness's own; fill_per_layer adds the
    per-layer ones it has no live source for."""
    argv = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={1 if trace else 0}"]
    if smoke:
        argv.append("--smoke")
    run = Run(bin_dir, argv)
    ACTIVE.append(run)
    code, stdout = run.execute()
    ACTIVE.remove(run)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return False, None, [f"harness exited {code} without a result"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return False, None, [f"last line is not JSON: {lines[-1]!r}"]
    problems = check_result(spec, result, trace)
    if code != 0:
        problems.append(f"harness exited {code}")
    return not problems, result, problems


def check_result(spec, result, trace):
    """Emitted metric names and units must be BENCHMARK.json's; an untraced
    run must emit every end-to-end metric."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return problems
    if result["correct"] is not True:
        problems.append("outputs failed their correctness check")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        problems.append(f"failed records: {result['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(want) - set(got)) if not trace else []:
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        metric = got[name]
        if metric.get("unit") != want[name]:
            problems.append(f"metric {name} has unit {metric.get('unit')!r}, "
                            f"BENCHMARK.json says {want[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} value {value!r} is not a finite number")
    return problems


def fill_per_layer(spec, metrics):
    """Adds every per-layer metric the harness did not emit, as 0."""
    for m in spec["per_layer"]:
        metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})


def smoke(bin_dir, spec):
    bad = 0
    live = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            start = time.monotonic()
            ok, result, problems = run_harness(bin_dir, spec, workload, 1, 1, trace,
                                               smoke=True)
            if trace and result is not None:
                live |= set(result["metrics"])
            status = "ok" if ok else "FAIL"
            print(f"smoke {workload:14s} trace={int(trace)} {status} "
                  f"({time.monotonic() - start:.1f} s)")
            for problem in problems:
                print(f"    {problem}")
            bad += not ok
    for m in spec["per_layer"]:
        if m["name"] not in live:
            print(f"smoke: no workload emits per-layer metric {m['name']}")
            bad += 1
    return 0 if bad == 0 else 1


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def report(spec, figures):
    """Prints median, quartile spread and every run's figure per workload
    and metric."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload, runs in figures.items():
        print(f"{workload}: {len(runs)} runs")
        for name in sorted(bounds):
            values = [r[name] for r in runs]
            median = statistics.median(values)
            q1, q3, rel = spread(values)
            bound = bounds[name]
            verdict = ("steady" if rel < bound / 3 else
                       "within bound" if rel <= bound else "NOISY")
            if name != "setup_s":
                worst = max(worst, rel / bound)
            print(f"  {name:18s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {rel:6.3f} bound {bound:.2f}  {verdict}")
            print("      runs: " + " ".join(f"{v:.5g}" for v in values))
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")


def steadiness(bin_dir, spec, args):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    figures = {}
    for workload in workloads:
        figures[workload] = []
        for seed in range(1, args.runs + 1):
            ok, result, problems = run_harness(bin_dir, spec, workload, seed,
                                               spec["run_seconds"], False)
            if not ok:
                print(f"{workload} seed {seed}: " + "; ".join(problems))
                return 1
            figures[workload].append(
                {n: m["value"] for n, m in result["metrics"].items()})
            print(f"  {workload} seed {seed} done", file=sys.stderr)
    report(spec, figures)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    spec = load_spec()
    bin_dir = build()
    if args.smoke:
        return smoke(bin_dir, spec)
    if args.steadiness:
        return steadiness(bin_dir, spec, args)

    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload")
    workload = args.workload[0]
    if workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {workload}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    ok, result, problems = run_harness(bin_dir, spec, workload, args.seed,
                                       seconds, bool(args.trace))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if result is not None and ok:
        if args.trace:
            fill_per_layer(spec, result["metrics"])
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
