"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload cstr-oracle --seeds 1-10 [--seconds 8] [--trace 0]

Each seed runs ``run.py`` in a fresh interpreter, one after the other.  For
every metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the interquartile distance as a share of the
median.  The summary is written to ``.bench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(median) if median else float("nan"),
                     "values": values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", args.trace]
        if args.seconds:
            cmd += ["--seconds", args.seconds]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:12.6g} {s['unit']:6s} "
              f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}")
    path = HERE.parent / ".bench_out" / f"spread-{args.workload}-trace{args.trace}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                "all_correct": all(r["correct"] for r in results),
                                "metrics": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
