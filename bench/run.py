"""bismash benchmark: one workload per invocation, outputs checked, metrics printed.

    python3 bench/run.py --workload verify --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs every
pass twice, untraced and then traced, and reports the per-layer metrics
and the tracing overhead.  The last line of stdout is one JSON object
with keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.  A results file, and for traced
runs the raw spans, go to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9
# A run is flagged when the 1-minute load average at start exceeds this
# share of the usable cores: its timings compete with other work.  The
# share leaves room for the decaying load of a benchmark run just ended.
LOADED_SHARE = 0.75

_IMPORT_TIMER = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import bismash.cli\n"
    "print(time.perf_counter() - t)\n"
)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load1_at_start": load1,
        "loaded": load1 > LOADED_SHARE * nproc,
    }


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import bismash.cli."""
    cmd = [sys.executable, "-c", _IMPORT_TIMER, str(SRC)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first import also writes the bytecode cache
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


@dataclass
class PassResult:
    wall: float = 0.0  # seconds inside the program's calls, checks excluded
    latencies: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    stdout_bytes: int = 0
    elapsed: float = 0.0  # wall clock of the whole pass, checks included
    cpu: float = 0.0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload, index: int, tracer=None) -> PassResult:
    res = PassResult()
    t_pass, c_pass = time.perf_counter(), _cpu()
    for op in workload.ops(index):
        if tracer is not None:
            tracer.op_id += 1
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            result = None
        else:
            dt = time.perf_counter() - t0
        res.wall += dt
        res.latencies.append(dt)
        if result is None or not op.check(result):
            res.failed += 1
            print(f"bench: FAILED {op.label}", file=sys.stderr)
            continue
        res.items += op.items
        if isinstance(result, tuple):  # a CLI call's (exit code, stdout)
            res.stdout_bytes += len(result[1])
    res.elapsed = time.perf_counter() - t_pass
    res.cpu = _cpu() - c_pass
    return res


def _quantile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(passes: list[PassResult], setup_s: float) -> dict:
    """Times are means over passes of per-pass figures.  The shared host
    has slow spells of tens of seconds; a mean over a run's passes weighs
    them by their share of the run, where a median would flip between the
    slow and the fast speed.  Percentiles are taken within each pass: over
    a whole run, ops slowed by a slow spell would pile up in the sparse
    upper tail and lift op_p90_ms far more than the mean."""
    wall = sum(p.wall for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.fmean(p.wall for p in passes), "s"),
        "items_per_s": (sum(p.items for p in passes) / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.fmean(_quantile(p.latencies, 50) for p in passes), "ms"),
        "op_p90_ms": (1e3 * statistics.fmean(_quantile(p.latencies, 90) for p in passes), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


class LayerCounts:
    """Counts taken at layer boundaries by tracer observers."""

    def __init__(self):
        self.c: dict[str, float] = {}

    def add(self, key: str, value) -> None:
        self.c[key] = self.c.get(key, 0) + value

    def top(self, key: str, value) -> None:
        self.c[key] = max(self.c.get(key, 0), value)

    def observers(self) -> dict:
        def perm_block(r):
            self.add("perm_rows", len(r))
            self.add("perm_bytes", r.nbytes)

        def orbit_rep_mask(r):
            self.add("mask_in", len(r))
            self.add("mask_kept", int(r.sum()))

        def stabilized_rows(r):
            self.add("stab_rows", len(r))
            self.top("stab_rows_max", len(r))

        def exact_stabilizer_rows(r):
            self.add("exact_rows", len(r))

        return {
            "bulk.perm_block": perm_block,
            "bulk.orbit_rep_mask": orbit_rep_mask,
            "bulk.stabilized_rows": stabilized_rows,
            "bulk.exact_stabilizer_rows": exact_stabilizer_rows,
        }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, counts: LayerCounts, traced: list[PassResult], twins: list[PassResult]) -> dict:
    from bismash.construct import default_max_work

    k = len(traced)
    s = tracer.summary()
    c = counts.c

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def module(prefix, key):
        return sum(v[key] for nm, v in s.items() if nm.startswith(prefix + "."))

    wall_t = sum(p.wall for p in traced)
    # Untraced wall of the same passes; without twins, the traced wall.
    wall_u = sum(p.wall for p in twins) if twins else wall_t
    cpu_src = twins or traced
    entry_s, entry_self_s = tracer.entry_split()
    # Unattributed: harness glue outside every span (the same traced or
    # not) plus the self time of each op's entry span.
    unattributed = wall_t - entry_s + entry_self_s
    orbits = tracer.yields.get("construct.enumerate_orbit_reps", 0)
    m = {
        "bulk.perm_block.self_s": (get("bulk.perm_block", "self_s") / k, "s"),
        "bulk.perm_block.rows": (c.get("perm_rows", 0) / k, "count"),
        "bulk.perm_block.bytes": (c.get("perm_bytes", 0) / k, "bytes"),
        "bulk.stabilizer_orders.self_s": (get("bulk.stabilizer_orders", "self_s") / k, "s"),
        "bulk.orbit_rep_mask.self_s": (get("bulk.orbit_rep_mask", "self_s") / k, "s"),
        "bulk.orbit_rep_mask.kept_ratio": (_ratio(c.get("mask_kept", 0), c.get("mask_in", 0)), "ratio"),
        "bulk.bruteforce_indicator_rows.self_s": (get("bulk.bruteforce_indicator_rows", "self_s") / k, "s"),
        "bulk.orbit_involution_counts.self_s": (get("bulk.orbit_involution_counts", "self_s") / k, "s"),
        "bulk.sweep.self_s": (get("bulk.sweep", "self_s") / k, "s"),
        "bulk.reduced_indicator_rows.self_s": (get("bulk.reduced_indicator_rows", "self_s") / k, "s"),
        "bulk.stabilized_rows.self_s": (get("bulk.stabilized_rows", "self_s") / k, "s"),
        "bulk.stabilized_rows.candidates": (c.get("stab_rows", 0) / k, "count"),
        "bulk.exact_stabilizer_rows.self_s": (get("bulk.exact_stabilizer_rows", "self_s") / k, "s"),
        "bulk.exact_stabilizer_rows.kept_ratio": (_ratio(c.get("exact_rows", 0), c.get("stab_rows", 0)), "ratio"),
        "bulk.census_by_dimension.self_s": (get("bulk.census_by_dimension", "self_s") / k, "s"),
        "construct.enumerate_involutions.busy_s": (get("construct.enumerate_involutions", "busy_s") / k, "s"),
        "construct.enumerate_orbit_reps.busy_s": (get("construct.enumerate_orbit_reps", "busy_s") / k, "s"),
        "construct.enumerate_orbit_reps.kept_ratio": (
            _ratio(orbits, tracer.yields.get("construct.enumerate_stabilized", 0)), "ratio"),
        "construct.guard_share": (
            max(c.get("stab_rows_max", 0), tracer.max_yields.get("construct.enumerate_stabilized", 0))
            / default_max_work(), "ratio"),
        "indicator.indicator_reduced.calls": (get("indicator.indicator_reduced", "calls") / k, "count"),
        "indicator.indicator_reduced.self_s": (get("indicator.indicator_reduced", "self_s") / k, "s"),
        "matched_pair.inversion_data.calls_per_orbit": (
            _ratio(get("matched_pair.inversion_data", "calls"), orbits), "ratio"),
        "counting.calls": (module("counting", "calls") / k, "count"),
        "counting.self_s": (module("counting", "self_s") / k, "s"),
        "cli.emit.self_s": (get("cli.emit", "self_s") / k, "s"),
        "cli.emit.bytes": (sum(p.stdout_bytes for p in traced) / k, "bytes"),
        "cli.build_parser.self_s": (get("cli.build_parser", "self_s") / k, "s"),
        "hopf.axioms.self_s": (module("hopf", "self_s") / k, "s"),
        "bulk.self_s": (module("bulk", "self_s") / k, "s"),
        "construct.self_s": (module("construct", "self_s") / k, "s"),
        "indicator.self_s": (module("indicator", "self_s") / k, "s"),
        "matched_pair.self_s": (module("matched_pair", "self_s") / k, "s"),
        "cli.self_s": (module("cli", "self_s") / k, "s"),
        "process.cpu_util": (_ratio(sum(p.cpu for p in cpu_src), sum(p.elapsed for p in cpu_src)), "ratio"),
        "trace.spans": (len(tracer.start) / k, "count"),
        "trace.overhead_s": ((wall_t - wall_u) / k, "s"),
        "trace.overhead_share": (_ratio(wall_t - wall_u, wall_u), "ratio"),
        "trace.entry_self_share": (_ratio(entry_self_s, wall_u), "ratio"),
        "trace.attributed_share": (1 - _ratio(unattributed, wall_u), "ratio"),
    }
    return m


def run(workload, seconds: float, trace: bool):
    """Repeat passes until ``seconds`` have elapsed."""
    from tracer import Tracer

    counts = LayerCounts()
    tracer = Tracer(counts.observers()) if trace else None
    passes: list[PassResult] = []
    twins: list[PassResult] = []
    index = 0
    workload.warmup()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is None:
            passes.append(run_pass(workload, index))
        else:
            if workload.twin_passes:
                twins.append(run_pass(workload, index))
            tracer.install()
            try:
                passes.append(run_pass(workload, index, tracer))
            finally:
                tracer.uninstall()
        index += 1
    return passes, twins, tracer, counts


def _report(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")


def _stage_table(tracer, k: int) -> None:
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    print(f"spans by self time, per traced pass ({k} passes):")
    print(f"  {'span':<44} {'calls':>10} {'self_s':>10} {'busy_s':>10}")
    for name, v in rows[:25]:
        print(f"  {name:<44} {v['calls'] / k:>10.6g} {v['self_s'] / k:>10.4f} {v['busy_s'] / k:>10.4f}")


# Names the readable report gives the end-to-end metrics, per workload.
ALIASES = {
    "verify": {"items_per_s": "perms_per_s"},
    "census": {"items_per_s": "entries_per_s"},
    "queries": {"items_per_s": "queries_per_s", "op_p50_ms": "query_p50_ms", "op_p90_ms": "query_p90_ms"},
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "bismash" / "__init__.py").is_file():
        return _fail(f"no bismash sources under {SRC}")
    # The program runs at its defaults: no environment override of the guard.
    os.environ.pop("BISMASH_MAX_WORK", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bismash
    import workloads

    if Path(bismash.__file__).resolve().parent != (SRC / "bismash").resolve():
        return _fail(f"imported bismash from {bismash.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    for required in (workloads.DIGESTS, workloads.COSTS):
        if not required.is_file():
            return _fail(f"missing {required}")

    env = environment()
    print("env " + json.dumps(env))
    if env["loaded"]:
        print(f"bench: WARNING load average {env['load1_at_start']:.2f} on {env['nproc']} cores "
              "at start; timings may be inflated", file=sys.stderr)

    setup_s = None if args.trace else measure_setup()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    passes, twins, tracer, counts = run(workload, args.seconds, bool(args.trace))
    attempted = sum(p.attempted for p in passes + twins)
    failed = sum(p.failed for p in passes + twins)

    if tracer is None:
        metrics = end_to_end(passes, setup_s)
        aliases = ALIASES.get(workload.name, {})
        named = {aliases.get(k, k): v for k, v in metrics.items()}
        named["failed_share"] = (failed / attempted, "ratio")
        _report(f"{workload.name}: {len(passes)} passes, {attempted} ops, "
                f"items are {workload.unit}", named)
    else:
        metrics = per_layer(tracer, counts, passes, twins)
        _stage_table(tracer, len(passes))
        _report(f"{workload.name}: {len(passes)} traced passes", metrics)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "pass_walls_s": [p.wall for p in passes],
        "pass_p50_ms": [1e3 * _quantile(p.latencies, 50) for p in passes],
        "pass_p90_ms": [1e3 * _quantile(p.latencies, 90) for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
        tracer.save(OUT / f"spans-{stem}.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
