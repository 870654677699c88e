#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10                    # every workload
    python3 perfbench/spread.py --workloads serve_scan --seeds 5
    python3 perfbench/spread.py --seeds 10 --out base.json
    python3 perfbench/spread.py --seeds 10 --extra "--storage-slowdown 2" \
        --compare base.json                                   # sensitivity check

For every workload and end-to-end metric it prints the median of the runs,
the distance between the first and third quartile as a share of the median
(the spread), and the metric's bound from BENCHMARK.json. With --compare it
also prints how far each median moved from the saved runs, as a share of
the saved median, and whether that move is beyond the bound in the worse
direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SPEC = json.load(open("BENCHMARK.json"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}


def run_once(workload, seed, seconds, trace, extra):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + extra
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--extra", default="", help="extra arguments for every run")
    ap.add_argument("--out", help="save the raw values here (JSON)")
    ap.add_argument("--compare", help="raw values saved by an earlier --out")
    args = ap.parse_args()

    raw = {}
    for w in args.workloads.split(","):
        raw[w] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.time()
            raw[w].append(run_once(w, seed, args.seconds, args.trace, args.extra.split()))
            print(f"# {w} seed {seed}: {time.time() - t0:.1f} s", file=sys.stderr)
    if args.out:
        json.dump(raw, open(args.out, "w"), indent=1)
    base = json.load(open(args.compare)) if args.compare else {}

    header = f"{'workload':<13} {'metric':<26} {'median':>12} {'spread':>8} {'bound':>6}"
    print(header + ("  change  verdict" if base else ""))
    for w, runs in raw.items():
        for name in runs[0]:
            values = [r[name] for r in runs]
            med, spread = summarize(values)
            m = END_TO_END.get(name)
            bound = m["bound"] if m else float("nan")
            line = f"{w:<13} {name:<26} {med:>12.4f} {spread:>8.3f} {bound:>6.2f}"
            if m and name != "setup_s" and spread > bound / 3:
                line += "  (spread above a third of the bound)"
            if base.get(w):
                old = statistics.median(r[name] for r in base[w])
                change = (med - old) / old
                worse = -change if m and m["better"] == "higher" else change
                verdict = "beyond bound" if m and worse > bound else "within"
                line += f"  {change:+7.3f}  {verdict}"
            print(line)


if __name__ == "__main__":
    main()
