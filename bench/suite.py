"""Run result sets and compare them.

    python3 bench/suite.py run OUT [--workloads W ...] [--seeds 1-10] [--trace 0|1]
    python3 bench/suite.py compare BASE NEW

`run` runs bench/run.py once per workload and seed, each in its own
process, with the `run_seconds` of BENCHMARK.json, and collects the results
files in the directory OUT (a result set).  It then prints, per workload
and end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median).

`compare` reads two result sets and prints, per workload and metric, both
medians, both quartiles and a verdict: "ok" when NEW's median is no worse
than BASE's by more than the metric's bound and both spreads are within the
bound, "WORSE" when the median moved by more than the bound, and "noisy"
when a spread exceeds the bound (not judged for `setup_s`).  It exits 1 if
any verdict is not "ok".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_set(directory, trace=0):
    """{workload: {metric: [values over seeds]}} from one result set."""
    out = {}
    for path in sorted(Path(directory).glob(f"*.trace{trace}.json")):
        record = json.loads(path.read_text())
        per = out.setdefault(record["workload"], {})
        for name, m in record["metrics"].items():
            per.setdefault(name, []).append(m["value"])
        per.setdefault("error_rate", []).append(record["error_rate"])
    return out


def summary(values):
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def cmd_run(args):
    bench = spec()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace), "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:120]}",
                  flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
    print_set(load_set(out, args.trace), workloads)
    return 0


def print_set(results, workloads):
    for workload in workloads:
        print(f"\n{workload}")
        for name, values in results.get(workload, {}).items():
            med, q1, q3, spread = summary(values)
            print(f"  {name:44s} n={len(values):2d} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}")


def cmd_compare(args):
    bench = spec()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load_set(args.base), load_set(args.new)
    bad = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"\n{workload}")
        for name, m in metrics.items():
            a = base.get(workload, {}).get(name)
            b = new.get(workload, {}).get(name)
            if not a or not b:
                print(f"  {name:14s} missing")
                bad += 1
                continue
            ma, qa1, qa3, sa = summary(a)
            mb, qb1, qb3, sb = summary(b)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if change > m["bound"]:
                verdict = "WORSE"
            elif max(sa, sb) > m["bound"] and name != "setup_s":
                # set-up time is gated on its median only
                verdict = "noisy"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(f"  {name:14s} base {ma:<10.5g} [{qa1:.5g}, {qa3:.5g}]  "
                  f"new {mb:<10.5g} [{qb1:.5g}, {qb3:.5g}]  worse by {change:+.3f} "
                  f"(bound {m['bound']}, spreads {sa:.3f}/{sb:.3f})  {verdict}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run a result set")
    run.add_argument("out")
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(fn=cmd_run)
    cmp = sub.add_parser("compare", help="compare two result sets")
    cmp.add_argument("base")
    cmp.add_argument("new")
    cmp.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
