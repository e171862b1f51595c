"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Builds the workload's inputs from the seed
(timed, several times, into `setup_s`), runs passes until `--seconds` of
pass time have elapsed, checks every pass's outputs outside the timed
region, writes a results file under `.bench_out/runs/` and prints one JSON
line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` they are its per-layer metrics, taken from one traced pass
that follows the untraced ones.  A human-readable table goes to stderr.
Exits 2 without a result when the library or its golden files are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Census  # noqa: E402

REFERENCE_STEPS = 100000

MODULES = ("fields", "linalg", "core", "engine", "unified", "special", "classify",
           "io", "cli", "conds_unified", "conds_special", "conds_morphism")
SETUP_REPEATS = 3


def load_library(root):
    """Import zinbiel2 afresh from root/src, dropping any earlier import, so
    that every set-up repetition pays the import again."""
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "zinbiel2" or n.startswith("zinbiel2.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(package=importlib.import_module("zinbiel2"))
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"zinbiel2.{name}"))
    return lib


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root):
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "commit": git_commit(root)}


def percentile(values, pct):
    """Inclusive-method percentile; with one value, that value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def reference_work():
    """A fixed pure-Python computation (dict updates and small modular
    arithmetic, like the library's inner loops), 20 to 40 ms on a 2-vCPU
    Xeon VM.  It touches nothing of zinbiel2."""
    table, total = {}, 0
    for i in range(REFERENCE_STEPS):
        k = i * 7919 % 1009
        table[k] = table.get(k, 0) + i % 5
        total += table[k] * 3 % 5
    return total


class Run:
    """The passes of one workload in one process, with their checks.

    The workload calls `sample` between its timed units; each call times
    `reference_work` once.  A pass's reference time is the mean of its
    samples, taken at the same moments as its units, so a spell in which
    the host runs every process slower (or faster) scales both alike."""

    def __init__(self, workload, lib, state):
        self.workload, self.lib, self.state = workload, lib, state
        self.pass_times, self.unit_times, self.ref_samples = [], [], []
        self.attempted = self.failed = 0

    def one_pass(self, tracer=None):
        """Time one pass (traced only while the pass runs), then check it."""
        ref = []

        def sample():
            t0 = time.perf_counter()
            reference_work()
            ref.append(time.perf_counter() - t0)

        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        units, outputs = self.workload.run_pass(self.lib, self.state, sample, tracer)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        attempted, failed = self.workload.check(self.lib, self.state, outputs,
                                                first=not self.pass_times)
        self.attempted += attempted
        self.failed += failed
        self.pass_times.append(elapsed)
        self.unit_times.append(units)
        self.ref_samples.append(ref)
        return elapsed

    def passes_for(self, seconds):
        while sum(self.pass_times) < seconds:
            self.one_pass()


def op_latencies(run, scale=True):
    """The latency of each operation of a pass.  Every timed unit of the
    pass (an item, a command, an orbit group) gets the median over the
    passes of its time, each time divided by its pass's reference time
    (`scale`) or not; an operation of `units_per_op` units gets the sum of
    theirs."""
    if scale:
        times = [[t / statistics.fmean(ref) for t in units]
                 for units, ref in zip(run.unit_times, run.ref_samples)]
    else:
        times = run.unit_times
    units = [statistics.median(column) for column in zip(*times)]
    k = getattr(run.workload, "units_per_op", 1)
    return [sum(units[i:i + k]) for i in range(0, len(units), k)]


def end_to_end(run, setup_times):
    """The end-to-end metrics, and the same latencies in seconds (for the
    results file; the host's speed spells make those unfit to compare)."""
    ops = op_latencies(run)
    ops_s = op_latencies(run, scale=False)
    metrics = {"setup_s": statistics.median(setup_times),
               "run_ref": sum(ops),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "op_p50_ref": statistics.median(ops),
               "op_p99_ref": percentile(ops, 99)}
    seconds = {"run_s": sum(ops_s),
               "op_p50_ms": statistics.median(ops_s) * 1000,
               "op_p99_ms": percentile(ops_s, 99) * 1000,
               "reference_ms": statistics.median(
                   statistics.fmean(ref) for ref in run.ref_samples) * 1000}
    return metrics, seconds


def per_layer(names, tracer, extra):
    """Resolve each per-layer metric name against the traced pass."""
    spans = tracer.aggregate()
    calls = lambda name: spans[name]["calls"] if name in spans else tracer.counts[name]
    ratio = lambda num, den: num / den if den else 0.0
    derived = {
        "classify.enum.valid_ratio": ratio(
            tracer.results["classify.enumerate_valid_data.yields"],
            calls("classify.EnumerationSpec.datum_at")),
        "classify.rs.hit_ratio": ratio(
            tracer.results["classify.are_equivalent.found"],
            calls("classify.morphism_from_rs")),
        **extra,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = calls(name[:-len(".calls")])
        elif name.endswith(".self_s"):
            out[name] = spans.get(name[:-len(".self_s")], {}).get("self_s", 0.0)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out


def traced(run, args, out_dir):
    """Untraced passes for the baseline, then one traced pass."""
    run.passes_for(args.seconds)
    base = statistics.median(run.pass_times)
    extra = {"classify.parallel_efficiency": 0.0}
    if isinstance(run.workload, Census) and run.workload.jobs > 1:
        serial = Run(Census(jobs=1), run.lib, Census(jobs=1).setup(run.lib, args.seed, ROOT))
        extra["classify.parallel_efficiency"] = (
            serial.one_pass() / (run.workload.jobs * base))
        run.attempted += serial.attempted
        run.failed += serial.failed
    tracer = Tracer()
    tracer.install(run.lib)
    try:
        elapsed = run.one_pass(tracer)
    finally:
        tracer.uninstall()
    extra["trace.overhead_ratio"] = elapsed / base
    tracer.write(out_dir / f"{args.workload}.seed{args.seed}.spans.tsv.gz")
    return tracer, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "runs",
                        help="directory for the results file and spans")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            lib = load_library(ROOT)
            state = workload.setup(lib, args.seed, ROOT)
            setup_times.append(time.perf_counter() - t0)
    except (ImportError, OSError) as exc:
        print(f"cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    if not Path(lib.package.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"zinbiel2 was imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    run = Run(workload, lib, state)
    unscaled = {}
    if args.trace:
        tracer, extra = traced(run, args, args.out)
        wanted = spec["per_layer"]
        values = per_layer([m["name"] for m in wanted], tracer, extra)
    else:
        run.passes_for(args.seconds)
        wanted = spec["end_to_end"]
        values, unscaled = end_to_end(run, setup_times)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(run.pass_times),
              "pass_times_s": run.pass_times, "setup_times_s": setup_times,
              "units_per_pass": len(run.unit_times[0]),
              "unscaled": unscaled, "unit_times_s": run.unit_times,
              "reference_samples_s": run.ref_samples,
              "error_rate": run.failed / run.attempted,
              "env": environment(ROOT), **result}
    path = args.out / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(run.pass_times)} passes of "
          f"{len(run.unit_times[0])} timed units, {run.failed}/{run.attempted} failed "
          f"(error_rate {record['error_rate']:.4g})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for name, value in unscaled.items():
        print(f"  {name + ' (unscaled)':48s} {value:.6g}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
