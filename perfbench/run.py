#!/usr/bin/env python3
"""Regime benchmark of the BackFi simulator.

Builds the measuring binary (perfbench/CMakeLists.txt: the src/ libraries
plus perfbench/cpp, Release) under .bench_build/perfbench in the checkout,
then runs one workload and passes its output through. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 perfbench/run.py --workload trial_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test      # unit tests of the helpers

Workloads: trial_cold, sweep_fig08, stream_reader, trial_impaired (see
perfbench/README.md). --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of the traced replay, whose spans are written to
.bench_build/perfbench/traces/<workload>-seed<n>.csv.

Exit status is non-zero when the build fails, when the sources are not
there, when any output check fails, or when the run exceeds its time limit.
"""
import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
WORKLOADS = ("trial_cold", "sweep_fig08", "stream_reader", "trial_impaired")
BUILD_TIMEOUT_S = 840
RUN_MARGIN_S = 110  # set-up, reference checks and the traced fidelity runs
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

_children = []


def _terminate(signum, _frame):
    for child in _children:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.exit(128 + signum)


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, timeout, **kwargs):
    """Run cmd to completion (killing it at the timeout); returns
    (returncode or None on timeout, captured stdout or None)."""
    child = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    _children.append(child)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return None, None
    finally:
        _children.remove(child)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {ROOT / 'src'}", 3)
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 3)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "build.ninja").is_file() and not (BUILD / "Makefile").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs])
        with open(log_path, "w") as log:
            for step in steps:
                code, _ = run_child(step, BUILD_TIMEOUT_S, stdout=log,
                                    stderr=subprocess.STDOUT)
                if code != 0:
                    log.flush()
                    tail = log_path.read_text(errors="replace").splitlines()[-40:]
                    print("\n".join(tail), file=sys.stderr)
                    fail(f"build step failed: {' '.join(step)}", 3)
    return BUILD / target


def check_result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys are not correct/attempted/failed/metrics"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)

    if args.self_test:
        binary = build("perfbench_tests")
        code, _ = run_child([str(binary)], 300)
        sys.exit(1 if code is None else code)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within [1, 60]")

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.csv")]
    code, stdout = run_child(cmd, args.seconds + RUN_MARGIN_S,
                             stdout=subprocess.PIPE, text=True)
    if code is None:
        fail(f"{args.workload} did not finish within {args.seconds + RUN_MARGIN_S} s", 4)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    problem = check_result_line(stdout)
    if problem:
        fail(f"malformed result: {problem}", 5)


if __name__ == "__main__":
    main()
