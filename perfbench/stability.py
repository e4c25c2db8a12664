#!/usr/bin/env python3
"""Run-to-run spread of the regime benchmark.

Runs perfbench/run.py on one or more workloads at several seeds and prints,
per end-to-end metric, the median with its unit and the quartile spread
(q3 - q1) / median computed with statistics.quantiles(values, n=4), next to
the metric's bound from BENCHMARK.json. Exits non-zero as soon as a run
fails, including a failed output check.

    python3 perfbench/stability.py --workloads sweep_fig08 --seeds 1-5
    python3 perfbench/stability.py --seeds 1-10          # every workload
"""
import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    worst = 0.0
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                sys.exit(f"{workload} seed {seed} failed ({out.returncode})")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            note = f" bound {bound} (spread/bound {spread / bound:.2f})" if bound else ""
            if bound:
                worst = max(worst, spread / bound)
            print(f"  {workload:15s} {m['name']:32s} median {med:12.6g} "
                  f"{m['unit']:6s} spread {spread:.4f}{note}")
    if not args.trace:
        print(f"worst spread/bound: {worst:.3f} "
              f"(steady when below 0.333)")


if __name__ == "__main__":
    main()
