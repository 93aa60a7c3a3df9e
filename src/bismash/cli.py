"""Command-line front end: census tables, verification reports, plot data.

Three subcommands, each taking --n, --format and --out:

  indicators   per-module indicator rows for one degree (optionally one
               dimension), plus summary tallies on stderr
  count        rows of the counting tower: M, T, R, X, O, Oj, Iplus,
               Izero, It2, ratios
  verify       oracle-equivalence and axiom suite; exit 3 on mismatch

indicators and verify enumerate under the workload guard (--max-work);
count evaluates closed forms.  Arguments are checked before --out is
opened; one the counting tower rejects is a usage error in its words.

Importing this module loads only counting, guard, argparse and csv, and
count needs no more (ratios adds fractions, --format json adds json), so
a shell call of count costs little more than the interpreter's start.
indicators and verify import numpy and the other layers as work starts.

Data goes to stdout (or --out FILE) as CSV (RFC-4180-style quoting,
header row) or JSON (array of objects); diagnostics go to stderr.
Output is byte-deterministic for fixed arguments: rows are sorted, the
column set is fixed per subcommand, and no timestamps appear.

Exit codes: 0 success, 1 usage error, 2 workload guard exceeded,
3 verification mismatch, 141 stdout closed by its reader (no traceback).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from collections.abc import Iterable, Sequence
from contextlib import nullcontext

from .counting import (
    CountContext,
    count_I_odd,
    count_I_t2,
    count_M,
    count_O,
    count_R,
    count_T,
    count_X,
    divisors,
    e_set,
    profile_at,
    profile_O,
    profile_O_j,
    profile_R,
    profile_X,
    ratio_report,
)
from .guard import WorkloadExceeded, default_max_work

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WORKLOAD = 2
EXIT_MISMATCH = 3
EXIT_CLOSED = 141  # 128 + SIGPIPE, as for a writer stopped by a closed pipe


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad args; the contract reserves 2 for the
    # workload guard, so route usage failures to exit code 1.
    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="bismash", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help: str, guarded: bool) -> argparse.ArgumentParser:
        # The flags of every subcommand; --max-work where a guard runs.
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        if guarded:
            sp.add_argument(
                "--max-work",
                type=int,
                default=None,
                help="candidate cap for enumerations (default BISMASH_MAX_WORK or 1e8)",
            )
        return sp

    sp = subcommand("indicators", "indicator table for one degree", guarded=True)
    sp.add_argument("--t", type=int, default=None, help="restrict to one dimension")

    sp = subcommand("count", "counting-tower census rows", guarded=False)
    sp.add_argument(
        "--quantity",
        required=True,
        choices=("M", "T", "R", "X", "O", "Oj", "Iplus", "Izero", "It2", "ratios"),
    )
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--j", type=int, default=None, help="orbit value x(t)/t for Oj")
    sp.add_argument(
        "--m-max", type=int, default=200, help="largest multiplier for ratios"
    )

    subcommand("verify", "oracle equivalence and axiom suite", guarded=True)
    return p


def _check_args(args) -> None:
    # The CLI's own argument rules, checked once, before --out is opened or
    # any work starts.  verify has no --t, and count no --max-work.
    n, t = args.n, getattr(args, "t", None)
    if t is None and getattr(args, "quantity", None) == "ratios":
        t = args.t = 2  # ratios' default t obeys the same rule as --t
    if n < 2:
        raise _UsageError(f"--n must be at least 2, got {n}")
    if t is not None and (t < 1 or n % t):
        raise _UsageError(f"--t must divide n={n}")
    if "max_work" not in vars(args):
        return
    if args.max_work is None:
        try:
            args.max_work = default_max_work()
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    elif args.max_work < 0:
        raise _UsageError(f"--max-work must be non-negative, got {args.max_work}")


def _output(args):
    # The --out file, or stdout (left open).  A file that cannot be opened
    # is a usage error.
    if not args.out:
        return nullcontext(sys.stdout)
    try:
        return open(args.out, "w")
    except OSError as exc:
        raise _UsageError(f"cannot open --out {args.out}: {exc.strerror or exc}") from None


def _emit(fh, rows: Iterable[Sequence], columns: list[str], fmt: str) -> None:
    # Rows are sequences in column order, written as they arrive; the JSON
    # framing reproduces json.dumps(list(rows), indent=0) + "\n" byte for
    # byte, one object per row.
    if fmt == "json":
        import json

        encoder = json.JSONEncoder(indent=0)
        sep = "[\n"
        for row in rows:
            fh.write(sep + encoder.encode(dict(zip(columns, row))))
            sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")
    else:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


_COUNT_COLUMNS = ["n", "t", "quantity", "r", "j", "i", "value"]
_VERIFY_COLUMNS = ["check", "detail", "status"]


# Table rows become Python lists this many at a time, so the lists stay
# a few tens of MB: at (48, 6) a representative and its values take 576
# bytes as lists against 56 in the int8 arrays, so lists of the whole
# entry, 2.6M representatives, would take about 1.5 GB.
_TOLIST_ROWS = 1 << 16


def _cmd_indicators(args) -> int:
    from .indicator import indicator_table, tally_indicators
    from .perm import cycle_notation

    n = args.n
    with _output(args) as fh:
        try:
            table = indicator_table(n, args.t, max_work=args.max_work)
        except ValueError as exc:  # the row-width limit on n
            raise _UsageError(str(exc)) from None
        # _emit's layout from line templates: one prefix per representative
        # and, per t, one suffix per (i, v), listed for v = 0, 1, -1 so that
        # v indexes them.  No CSV field needs quoting; JSON is indent=0.
        if args.format == "json":
            prefix = '{{\n"n": {},\n"t": {},\n"orbit_rep": "{}",\n"i": '.format
            suffix = '{},\n"indicator": {}\n}}'.format
            lead, sep, close, empty = "[\n", ",\n", "\n]\n", "[]\n"
        else:
            prefix, suffix = "{},{},{},".format, "{},{}\n".format
            lead = empty = "n,t,orbit_rep,i,indicator\n"
            sep = close = ""
        gap = lead
        for t, reps, values in table:
            suffixes = [[suffix(i, v) for v in (0, 1, -1)] for i in range(n // t)]
            for lo in range(0, len(reps), _TOLIST_ROWS):
                block = slice(lo, lo + _TOLIST_ROWS)
                for rep, vals in zip(reps[block].tolist(), values[block].tolist()):
                    head = prefix(n, t, cycle_notation(rep))
                    fh.write(gap + sep.join([head + suffixes[i][v] for i, v in enumerate(vals)]))
                    gap = sep
        fh.write(empty if gap == lead else close)
    tal = tally_indicators(table)
    print(
        f"summary n={n} t={args.t if args.t is not None else 'all'}: "
        f"+1={tal[1]} -1={tal[-1]} 0={tal[0]}",
        file=sys.stderr,
    )
    return EXIT_OK


# The r each r-indexed count takes at (n, t), as (first, last): R counts
# fixed points, X and Oj the involutions of an orbit, O orbits by their
# number of involutions.  count lists these r unless --r is given, and
# verify checks every one of them.
_R_RANGES = {"R": (1, "n"), "X": (1, "t"), "Oj": (1, "t"), "O": (0, "t")}


def _r_range(quantity: str, n: int, t: int) -> range:
    first, last = _R_RANGES[quantity]
    return range(first, (n if last == "n" else t) + 1)


def _count_rows(args) -> list[tuple]:
    # The tower checks its own arguments and raises ValueError.  Without
    # --t, the rows run over the t | n that the quantity is defined for.
    n, q = args.n, args.quantity
    ctx = CountContext(n)
    if args.t is not None:
        ts = [args.t]
    elif q == "Oj":
        ts = divisors(n)[1:-1]
    elif q in ("Iplus", "Izero"):
        ts = [t for t in divisors(n) if t % 2]
    else:
        ts = divisors(n)
    rows: list[tuple] = []

    def row(quantity, value, t=None, r="", j="", i=""):
        rows.append((n, t, quantity, r, j, i, value))

    def rs(t):
        return [args.r] if args.r is not None else _r_range(q, n, t)

    if q in ("M", "T"):
        count = count_M if q == "M" else count_T
        for t in ts:
            row(q, count(ctx, t), t)
    elif q in ("R", "X", "O"):
        # One r-indexed profile per row group, read at every listed r.
        profile = {"R": profile_R, "X": profile_X, "O": profile_O}[q]
        for t in ts:
            prof = profile(ctx, t)
            for r in rs(t):
                row(q, profile_at(prof, r), t, r)
    elif q == "Oj":
        for t in ts:
            for j in [args.j] if args.j is not None else e_set(n // t):
                prof = profile_O_j(ctx, t, j)
                for r in rs(t):
                    row("Oj", profile_at(prof, r), t, r, j)
    elif q in ("Iplus", "Izero"):
        for t in ts:
            plus, zero = count_I_odd(ctx, t)
            row(q, plus if q == "Iplus" else zero, t)
    elif q == "It2":
        if args.t not in (None, 2):
            raise _UsageError(f"It2 is the dimension-2 census, got --t {args.t}")
        for name, value in zip(("It2_plus", "It2_minus", "It2_zero"), count_I_t2(ctx)):
            row(name, value, 2)
    elif q == "ratios":
        t = args.t
        for rep in ratio_report(t, range(2, args.m_max + 1)):
            for name in ("ratio_nonzero", "t_over_m", "m_over_inv"):
                row(name, f"{float(rep[name]):.12g}", t, rep["m"])
            for name in ("e_size", "e_bound", "omega", "phi"):
                row(name, rep[name], t, rep["m"])
            for name in ("omega_bound", "phi_bound"):
                val = rep[name]
                row(name, "" if val is None else f"{val:.12g}", t, rep["m"])
    return rows


def _cmd_count(args) -> int:
    try:
        rows = _count_rows(args)
    except ValueError as exc:  # an argument the tower rejects, such as --j
        raise _UsageError(str(exc)) from None
    with _output(args) as fh:
        _emit(fh, rows, _COUNT_COLUMNS, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    with _output(args) as fh:
        rows = _verify_rows(args.n, args.max_work)
        _emit(fh, rows, _VERIFY_COLUMNS, args.format)
    failed = [(check, detail) for check, detail, status in rows if status == "FAIL"]
    for check, detail in failed:
        print(f"mismatch: {check}: {detail}", file=sys.stderr)
    return EXIT_MISMATCH if failed else EXIT_OK


def _verify_rows(n: int, max_work: int) -> list[tuple]:
    from . import bulk
    from .hopf import (
        check_antipode_axiom,
        check_counit_axiom,
        check_multiplication_associative,
    )

    # The sweep runs first: its workload guard refuses before any work.
    res = bulk.sweep(n, max_work)
    rows: list[tuple] = []

    def report(check: str, ok: bool, detail: str) -> None:
        rows.append((check, detail, "PASS" if ok else "FAIL"))

    for k in range(2, min(n, 4) + 1):
        bad = check_counit_axiom(k)
        report(f"hopf_counit n={k}", not bad, f"{len(bad)} offending basis elements")
        bad = check_antipode_axiom(k)
        report(f"hopf_antipode n={k}", not bad, f"{len(bad)} offending basis elements")
        bad = check_multiplication_associative(k)
        report(f"hopf_associative n={k}", not bad, f"{len(bad)} offending triples")

    report(
        "indicator_oracle_equivalence",
        res.mismatches == 0,
        f"{res.mismatches} mismatches over {res.irrep_classes} modules",
    )
    ctx = CountContext(n)
    m_ok = all(res.m_counts[t] == count_M(ctx, t) for t in divisors(n))
    report("stabilizer_census", m_ok, f"M counts for t in {divisors(n)}")
    sum_ok = sum(res.m_counts.values()) == math.factorial(n - 1)
    report("stabilizer_partition", sum_ok, f"sum M = (n-1)! = {math.factorial(n-1)}")
    dim_ok = res.dim_squared_sum == math.factorial(n)
    report("dimension_identity", dim_ok, f"sum dim^2 = n! = {math.factorial(n)}")

    # T and R against the involutions found in the exhaustive listing.
    t_ok, r_ok = True, True
    for t in divisors(n):
        fixed = res.involution_fixed_points[t]
        t_ok &= sum(fixed.values()) == count_T(ctx, t)
        for r in _r_range("R", n, t):
            r_ok &= fixed.get(r, 0) == count_R(ctx, t, r)
    report("involution_census", t_ok, "T counts vs enumeration, all t")
    report("fixed_point_census", r_ok, "R counts vs enumeration, all (t, r)")

    xo_ok = True
    for t in divisors(n):
        hist = res.orbit_involutions[t]
        for r in _r_range("O", n, t):
            xo_ok &= hist.get(r, 0) == count_O(ctx, t, r)
        for r in _r_range("X", n, t):
            xo_ok &= r * hist.get(r, 0) == count_X(ctx, t, r)
    report("orbit_involution_census", xo_ok, "X and O counts vs enumeration")

    if n % 2 == 0:
        plus, minus, zero = count_I_t2(ctx)
        tal = res.tallies[2]
        ok = (tal[1], tal[-1], tal[0]) == (plus, minus, zero)
        report("I_t2", ok, f"{n} -> ({plus},{minus},{zero})")
    return rows


_parser: _Parser | None = None


def main(argv: list[str] | None = None) -> int:
    # The parser holds no per-call state: build it on first use only.
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
        _check_args(args)
        if args.command == "indicators":
            code = _cmd_indicators(args)
        elif args.command == "count":
            code = _cmd_count(args)
        else:
            code = _cmd_verify(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WorkloadExceeded as exc:
        print(f"workload exceeded: {exc}", file=sys.stderr)
        return EXIT_WORKLOAD
    except BrokenPipeError:
        # The reader closed stdout (`... | head`): stop quietly, and send
        # what is still buffered, flushed again at exit, to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
