"""The benchmark's workloads: their inputs, how one op runs, and its checks.

Every workload is a closed loop with one client: an op starts when the
previous one has returned.  Work is grouped into like *passes* of a few
seconds; a run repeats passes until its time is up, and its times are
means over passes.

verify   the exhaustive two-route sweeps behind "the routes agree on every
         module": in-process ``verify --n 10`` then ``verify --n 11``.
         Nearly all the time is in the bulk sweep stages.  Exhaustive,
         so the seed changes nothing.
census   ``bulk.census_by_dimension`` over the ten cells of acceptance
         criterion 6: the seeded-construction path (stabilized_rows,
         exactness filter, reduced route), which never lists S_{n-1}.
         Also exhaustive; the seed changes nothing.
queries  a seeded, stratified sample of in-process CLI calls, the way the
         tower is queried interactively.  Every count quantity for
         n <= 150, and about 5% ``indicators --n n --t t`` tables, which
         run the scalar construct -> indicator path.  The universe of
         calls is cut into QUERY_PARTS like parts, one part per pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
COSTS = HERE / "costs.json"

# Criterion 6 of the acceptance gate: minus-one entries per (n, t) cell.
NEGATIVE_CENSUS = {
    (12, 2): 2,
    (12, 6): 42,
    (16, 2): 2,
    (16, 4): 20,
    (20, 2): 4,
    (24, 2): 8,
    (24, 4): 64,
    (24, 6): 816,
    (36, 6): 2976,
    (48, 4): 648,
}

VERIFY_DEGREES = (10, 11)
COUNT_QUANTITIES = ("M", "T", "R", "X", "O", "Oj", "Iplus", "Izero", "It2")
# ``ratios`` runs the trend report up to m = 200, i.e. degrees up to 200*t;
# its t must be odd or 2, and the CLI requires t | n, hence ``--n t --t t``.
RATIO_DIMENSIONS = (2, 3, 5, 7)
COUNT_MAX_N = 150
TABLE_MAX_N = 48
TABLE_MAX_CANDIDATES = 5000
# The queries universe is cut into this many like parts, one per pass.
QUERY_PARTS = 4
# The costliest share of the universe (tables, ratios), dealt to the parts
# so that their summed costs match.
HEAVY_SHARE = 0.05


@dataclass
class Op:
    """One timed call.  ``run`` does the work; ``check`` judges its output
    outside the timed region; ``items`` is the work it stands for."""

    label: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], bool]


def seed_candidates(n: int, t: int) -> int:
    """phi(m) * m^(t-1) * (t-1)!: the seeds a (n, t) table enumerates."""
    from bismash.counting import euler_phi

    m = n // t
    return euler_phi(m) * m ** (t - 1) * math.factorial(t - 1)


def query_universe() -> list[tuple[str, ...]]:
    """Every CLI call the queries workload can issue: each count quantity
    for 2 <= n <= COUNT_MAX_N, ``ratios`` for RATIO_DIMENSIONS, and the
    ``indicators`` tables within TABLE_MAX_N and TABLE_MAX_CANDIDATES."""
    from bismash.matched_pair import divisors

    def count(n, q, *extra):
        return ("count", "--n", str(n), "--quantity", q, *extra)

    calls = []
    for q in COUNT_QUANTITIES:
        for n in range(2, COUNT_MAX_N + 1):
            if q == "Oj":
                # Oj is defined for 1 < t < n only, so it needs an explicit --t.
                calls += [count(n, q, "--t", str(t)) for t in divisors(n) if 1 < t < n]
            elif q != "It2" or n % 2 == 0:
                calls.append(count(n, q))
    calls += [count(t, "ratios", "--t", str(t)) for t in RATIO_DIMENSIONS]
    calls += [
        ("indicators", "--n", str(n), "--t", str(t))
        for n in range(2, TABLE_MAX_N + 1)
        for t in divisors(n)
        if t < n and seed_candidates(n, t) <= TABLE_MAX_CANDIDATES
    ]
    return calls


def query_parts(costs: dict[str, float]) -> tuple[list[list[tuple[str, ...]]], list[list[tuple[str, ...]]]]:
    """Cut the queries universe, by recorded cost, into the ``heavy`` bins
    and the ``light`` groups that ``query_pass`` deals to the parts.

    The costliest HEAVY_SHARE of the calls go to QUERY_PARTS bins of equal
    size (to one call) and nearly equal summed cost: the heaviest call
    first, each to the lightest bin that still has room.  The rest are cut
    into groups of QUERY_PARTS neighbours in cost order, costliest first,
    so the one short group holds the cheapest calls.  Neither depends on
    the seed.
    """
    ordered = sorted(query_universe(), key=lambda argv: (-costs[" ".join(argv)], argv))
    cut = round(HEAVY_SHARE * len(ordered))
    heavy, light = ordered[:cut], ordered[cut:]
    base, extra = divmod(len(heavy), QUERY_PARTS)
    bins: list[list[tuple[str, ...]]] = [[] for _ in range(QUERY_PARTS)]
    load = [0.0] * QUERY_PARTS
    for argv in heavy:
        full = sum(len(b) > base for b in bins)
        room = [j for j in range(QUERY_PARTS) if len(bins[j]) < base or (len(bins[j]) == base and full < extra)]
        i = min(room, key=lambda j: (load[j], j))
        bins[i].append(argv)
        load[i] += costs[" ".join(argv)]
    groups = [light[i : i + QUERY_PARTS] for i in range(0, len(light), QUERY_PARTS)]
    return bins, groups


def query_pass(bins: list[list[tuple[str, ...]]], groups: list[list[tuple[str, ...]]],
               seed: int, index: int) -> list[tuple[str, ...]]:
    """The calls of pass ``index``: part ``index % QUERY_PARTS`` of round
    ``index // QUERY_PARTS``.  The parts of a round cover the universe once.

    The seed deals each light group's calls to the parts, one each, and
    chooses which heavy bin falls to which part.  Every part thus holds
    one call from each run of QUERY_PARTS like-cost calls and a like share
    of the heavy ones, so all parts have nearly the same latency
    distribution: a pass's percentiles and wall time do not depend on
    which part it ran, and a run may end after any pass.
    """
    rnd, part = divmod(index, QUERY_PARTS)
    rng = random.Random(seed * 1_000_003 + rnd)
    calls = []
    for group in groups:
        slots = rng.sample(range(QUERY_PARTS), len(group))
        if part in slots:
            calls.append(group[slots.index(part)])
    order = list(range(QUERY_PARTS))
    rng.shuffle(order)
    calls += bins[order[part]]
    random.Random(seed * 1_000_003 + index).shuffle(calls)
    return calls


def call_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, stdout).  Stderr is dropped."""
    from bismash import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def digest(rc: int, stdout: str) -> list:
    return [rc, hashlib.sha256(stdout.encode()).hexdigest()]


def load_digests() -> dict[str, list]:
    return json.loads(DIGESTS.read_text())


def load_costs() -> dict[str, float]:
    return json.loads(COSTS.read_text())


def _cli_op(argv: tuple[str, ...], items: int, digests: dict, extra_check=None) -> Op:
    want = digests.get(" ".join(argv))

    def check(result) -> bool:
        rc, stdout = result
        ok = want is not None and digest(rc, stdout) == want
        return ok and (extra_check is None or extra_check(stdout))

    return Op(" ".join(argv), items, lambda: call_cli(argv), check)


def _all_pass(stdout: str) -> bool:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    return bool(rows) and all(r["status"] == "PASS" for r in rows)


class Workload:
    """A named source of passes.  A run repeats passes until its time is
    up.  A traced run times each pass untraced as well, to measure
    tracing overhead, unless ``twin_passes`` is off."""

    name = ""
    unit = ""  # what ``items`` counts
    twin_passes = True

    def __init__(self, seed: int):
        self.seed = seed
        self._ops: list[Op] = []

    def ops(self, index: int) -> list[Op]:
        """The ops of pass ``index``; the same every pass unless overridden."""
        return self._ops

    def warmup(self) -> None:
        """Untimed, unchecked calls on the paths a pass takes, so the first
        timed pass does not pay for first use (lazy imports, caches)."""


class Verify(Workload):
    name, unit = "verify", "permutations"
    degrees = VERIFY_DEGREES

    def __init__(self, seed: int):
        super().__init__(seed)
        digests = load_digests()
        self._ops = [
            _cli_op(("verify", "--n", str(n)), math.factorial(n - 1), digests, _all_pass)
            for n in self.degrees
        ]

    def warmup(self) -> None:
        call_cli(("verify", "--n", "7"))


class Verify12(Verify):
    """Opt-in profile, not a gated workload: one ``verify --n 12``."""

    name = "verify12"
    degrees = (12,)
    twin_passes = False


class Census(Workload):
    """One op per pass: the whole ten-cell table, as criterion 6 asks for
    it.  Its cells differ in cost by four orders of magnitude, so latency
    percentiles over single cells would measure the cell mix, not speed."""

    name, unit = "census", "entries"

    def __init__(self, seed: int):
        super().__init__(seed)
        from bismash import bulk
        from bismash.counting import CountContext, count_M

        cells = list(NEGATIVE_CENSUS)
        entries = [(n // t) * count_M(CountContext(n), t) for n, t in cells]

        def run():
            return [bulk.census_by_dimension(n, t) for n, t in cells]

        def check(result) -> bool:
            return all(
                minus == NEGATIVE_CENSUS[cell] and plus + minus + zero == want
                for cell, want, (plus, minus, zero) in zip(cells, entries, result)
            )

        self._ops = [Op("census_by_dimension over the criterion-6 cells", sum(entries), run, check)]

    def warmup(self) -> None:
        from bismash import bulk

        bulk.census_by_dimension(12, 2)


class Queries(Workload):
    name, unit = "queries", "queries"

    def __init__(self, seed: int):
        super().__init__(seed)
        self._bins, self._groups = query_parts(load_costs())
        self._digests = load_digests()

    def ops(self, index: int) -> list[Op]:
        return [_cli_op(argv, 1, self._digests)
                for argv in query_pass(self._bins, self._groups, self.seed, index)]

    def warmup(self) -> None:
        for q in COUNT_QUANTITIES:
            call_cli(("count", "--n", "12", "--quantity", q) + (("--t", "3") if q == "Oj" else ()))
        call_cli(("count", "--n", "2", "--quantity", "ratios", "--t", "2"))
        call_cli(("indicators", "--n", "6", "--t", "2"))


WORKLOADS = {w.name: w for w in (Verify, Census, Queries, Verify12)}
