import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bismash import bulk, cli, indicator
from bismash.cli import main
from bismash.counting import CountContext, count_O, count_O_j, count_R, count_X

DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_indicators_dimension_two_census(capsys):
    code, out, err = run_cli(capsys, "indicators", "--n", "12", "--t", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 24
    weighted = {"1": 0, "-1": 0, "0": 0}
    for row in rows:
        weighted[row["indicator"]] += int(row["t"])
    assert weighted == {"1": 30, "-1": 2, "0": 16}
    assert "+1=30 -1=2 0=16" in err


def test_indicators_degree_two(capsys):
    code, out, _err = run_cli(capsys, "indicators", "--n", "2")
    assert code == 0
    rows = parse_csv(out)
    assert [row["indicator"] for row in rows] == ["1", "1"]


def test_indicators_rejects_bad_degree(capsys):
    code, _out, err = run_cli(capsys, "indicators", "--n", "0")
    assert code == 1 and "usage error" in err
    code, _out, _err = run_cli(capsys, "indicators", "--n", "12", "--t", "5")
    assert code == 1


def test_indicators_row_width_limit_is_usage_error(capsys):
    # Within the workload guard (16000 candidates) but past the int16 rows.
    code, out, err = run_cli(capsys, "indicators", "--n", "40000", "--t", "1")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "n <= 32767" in err
    assert len(err.splitlines()) == 1


def test_indicators_workload_guard(capsys):
    code, _out, err = run_cli(
        capsys, "indicators", "--n", "12", "--t", "12", "--max-work", "1000"
    )
    assert code == 2 and "workload" in err


def test_count_stabilizer_census(capsys):
    code, out, _err = run_cli(capsys, "count", "--n", "12", "--quantity", "M")
    assert code == 0
    rows = parse_csv(out)
    got = {int(r["t"]): int(r["value"]) for r in rows}
    assert got[1] == 4 and got[2] == 8 and got[3] == 60
    assert got[6] == 3768 and got[4] == 312
    assert sum(got.values()) == 39916800


def test_count_dimension_two(capsys):
    code, out, _err = run_cli(capsys, "count", "--n", "36", "--quantity", "It2")
    assert code == 0
    rows = parse_csv(out)
    vals = {r["quantity"]: int(r["value"]) for r in rows}
    assert vals["It2_minus"] == 8
    code, _out, err = run_cli(capsys, "count", "--n", "35", "--quantity", "It2")
    assert code == 1 and "even" in err
    # --t 2 names the one dimension It2 covers; any other t is refused.
    code, out_t2, _err = run_cli(capsys, "count", "--n", "36", "--quantity", "It2", "--t", "2")
    assert code == 0 and parse_csv(out_t2) == rows
    code, out, err = run_cli(capsys, "count", "--n", "12", "--quantity", "It2", "--t", "3")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_count_quantities_cover_tower(capsys):
    for q in ("T", "R", "X", "O"):
        code, out, _err = run_cli(capsys, "count", "--n", "8", "--quantity", q)
        assert code == 0
        assert parse_csv(out)
    code, out, _err = run_cli(
        capsys, "count", "--n", "12", "--quantity", "Oj", "--t", "3"
    )
    assert code == 0
    rows = parse_csv(out)
    assert {(r["r"], r["j"]) for r in rows} == {
        (str(r), str(j)) for r in (1, 2, 3) for j in (1, 3)
    }
    code, out, _err = run_cli(capsys, "count", "--n", "9", "--quantity", "Iplus")
    assert code == 0
    code, _out, _err = run_cli(
        capsys, "count", "--n", "8", "--quantity", "Iplus", "--t", "2"
    )
    assert code == 1  # even dimension has no odd-dimension census


def test_count_ratios(capsys):
    code, out, _err = run_cli(
        capsys, "count", "--n", "2", "--quantity", "ratios", "--t", "1",
        "--m-max", "6",
    )
    assert code == 0
    rows = parse_csv(out)
    names = {r["quantity"] for r in rows}
    assert {"ratio_nonzero", "t_over_m", "m_over_inv", "e_size"} <= names
    # Even t > 2 has no closed-form census; the tower's refusal is one line.
    # The default t = 2 must divide n like an explicit --t.
    for argv in (("--n", "4", "--t", "4"), ("--n", "3")):
        code, out, err = run_cli(capsys, "count", *argv, "--quantity", "ratios")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1


def test_csv_json_equivalence(tmp_path, capsys):
    for argv in (
        ("count", "--n", "12", "--quantity", "M"),
        ("indicators", "--n", "12", "--t", "2"),
        ("indicators", "--n", "4", "--t", "2"),
    ):
        code, out_csv, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        csv_rows = parse_csv(out_csv)
        json_rows = json.loads(out_json)
        assert len(csv_rows) == len(json_rows)
        for a, b in zip(csv_rows, json_rows):
            assert a == {k: str(v) for k, v in b.items()}
    # (4, 2) has no modules: an empty JSON array and a bare CSV header.
    assert out_json == "[]\n"
    assert out_csv == "n,t,orbit_rep,i,indicator\n"


def test_indicator_tables_byte_for_byte(tmp_path, capsys):
    # JSON stdout is json.dumps(rows, indent=0) of the typed CSV rows, and
    # --out writes exactly the stdout bytes, in both formats.  --n 10 is
    # the all-t case (t = n included); --n 12 would write about 130 MB.
    for argv in (
        ("indicators", "--n", "10"),
        ("indicators", "--n", "12", "--t", "2"),
        ("indicators", "--n", "24", "--t", "6"),
        ("indicators", "--n", "4", "--t", "2"),
    ):
        outs = {}
        for fmt in ("csv", "json"):
            code, outs[fmt], _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0
            target = tmp_path / f"table.{fmt}"
            code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(target))
            assert code == 0 and out == ""
            assert target.read_bytes() == outs[fmt].encode(), (argv, fmt)
        lines = csv.reader(io.StringIO(outs["csv"]))
        assert next(lines) == ["n", "t", "orbit_rep", "i", "indicator"]
        rows = [
            {"n": int(n), "t": int(t), "orbit_rep": rep, "i": int(i), "indicator": int(v)}
            for n, t, rep, i, v in lines
        ]
        assert outs["json"] == json.dumps(rows, indent=0) + "\n", argv


def test_indicators_convert_rows_in_blocks(capsys, monkeypatch):
    # (24, 6) has 40,868 representatives; blocks of 1000 rows write the
    # same bytes as the default blocks of 2^16, which hold the whole entry.
    argv = ("indicators", "--n", "24", "--t", "6")
    for fmt in ("csv", "json"):
        code, whole, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_TOLIST_ROWS", 1000)
            code, blocks, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0 and blocks == whole, fmt


def test_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "indicators", "--n", "10", "--t", "2")
    _, out2, _ = run_cli(capsys, "indicators", "--n", "10", "--t", "2")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "count", "--n", "6", "--quantity", "T", "--out", str(target)
    )
    assert code == 0 and out == ""
    rows = parse_csv(target.read_text())
    assert {int(r["t"]): int(r["value"]) for r in rows} == {1: 2, 2: 2, 3: 4, 6: 18}


def test_unopenable_out_is_usage_error(tmp_path, capsys, monkeypatch):
    # The file is opened before any work starts, as a shell's `> FILE` is.
    def never(*args, **kwargs):
        pytest.fail("work started before --out was opened")

    monkeypatch.setattr(bulk, "sweep", never)
    # indicators imports its table builder at call time, from its module.
    monkeypatch.setattr(indicator, "indicator_table", never)
    # A path under a missing directory, and a path that is a directory.
    for target in (tmp_path / "missing" / "rows.csv", tmp_path):
        for argv in (
            ("count", "--n", "6", "--quantity", "M"),
            ("indicators", "--n", "6"),
            ("verify", "--n", "3"),
        ):
            code, out, err = run_cli(capsys, *argv, "--out", str(target))
            assert code == 1 and out == "", argv
            assert err.startswith("usage error:") and err.count("\n") == 1, argv
            assert str(target) in err
    assert not (tmp_path / "missing").exists()


def test_count_Oj_default_skips_t_outside_range(capsys):
    # Without --t, Oj runs over the t | n with 1 < t < n, in order.
    code, out, _err = run_cli(capsys, "count", "--n", "12", "--quantity", "Oj")
    assert code == 0
    rows = parse_csv(out)
    want = []
    for t in ("2", "3", "4", "6"):
        code, out_t, _err = run_cli(
            capsys, "count", "--n", "12", "--quantity", "Oj", "--t", t
        )
        assert code == 0
        want += parse_csv(out_t)
    assert rows == want and rows
    code, out, _err = run_cli(capsys, "count", "--n", "7", "--quantity", "Oj")
    assert code == 0 and out == "n,t,quantity,r,j,i,value\n"
    for t in ("1", "12"):
        code, out, err = run_cli(
            capsys, "count", "--n", "12", "--quantity", "Oj", "--t", t
        )
        assert code == 1 and out == "" and err.startswith("usage error:")


def test_verify_small_degree(capsys):
    code, out, _err = run_cli(capsys, "verify", "--n", "6")
    assert code == 0
    rows = parse_csv(out)
    assert all(r["status"] == "PASS" for r in rows)
    names = {r["check"] for r in rows}
    assert "indicator_oracle_equivalence" in names
    assert "hopf_antipode n=4" in names
    assert "I_t2" in names


def test_verify_rejects_degree_one(capsys):
    code, _out, _err = run_cli(capsys, "verify", "--n", "1")
    assert code == 1


def test_verify_workload_guard(capsys):
    code, _out, err = run_cli(capsys, "verify", "--n", "13")
    assert code == 2 and "workload" in err


def test_bad_max_work_env_is_usage_error(capsys, monkeypatch):
    for env in ("abc", "-1"):
        monkeypatch.setenv("BISMASH_MAX_WORK", env)
        for argv in (("indicators", "--n", "6", "--t", "2"), ("verify", "--n", "4")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("usage error:") and "BISMASH_MAX_WORK" in err
            assert err.count("\n") == 1
    # 0 is a valid limit, which refuses every job.
    monkeypatch.setenv("BISMASH_MAX_WORK", "0")
    code, _out, err = run_cli(capsys, "indicators", "--n", "6")
    assert code == 2 and "limit 0" in err


def test_negative_max_work_is_usage_error(capsys):
    for argv in (("indicators", "--n", "6"), ("verify", "--n", "4")):
        code, out, err = run_cli(capsys, *argv, "--max-work", "-1")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "--max-work" in err
        assert err.count("\n") == 1
        code, _out, err = run_cli(capsys, *argv, "--max-work", "0")
        assert code == 2 and "limit 0" in err


def test_subcommand_flags():
    # --max-work only where a workload guard runs: count evaluates closed
    # forms and enumerates nothing.
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {opt for action in sp._actions for opt in action.option_strings}
        - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    assert flags == {
        "indicators": {"--n", "--t", "--format", "--out", "--max-work"},
        "count": {"--n", "--quantity", "--t", "--r", "--j", "--m-max", "--format", "--out"},
        "verify": {"--n", "--format", "--out", "--max-work"},
    }


def test_count_rejects_max_work(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "12", "--quantity", "M", "--max-work", "5")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_refused_job_leaves_out_empty(tmp_path, capsys):
    # --out is opened before the guard runs, so a refused job truncates it.
    for argv in (("indicators", "--n", "12"), ("verify", "--n", "12")):
        target = tmp_path / "rows.csv"
        target.write_text("stale\n")
        code, out, err = run_cli(capsys, *argv, "--max-work", "10", "--out", str(target))
        assert code == 2 and out == "" and "workload" in err
        assert target.read_text() == ""


def test_unknown_quantity_rejected(capsys):
    code, _out, _err = run_cli(capsys, "count", "--n", "8", "--quantity", "Z")
    assert code == 1


def test_count_rejects_bad_j_in_one_line(capsys):
    # 2 is not a square root of 1 mod 12/3 = 4.
    code, out, err = run_cli(
        capsys, "count", "--n", "12", "--quantity", "Oj", "--t", "3", "--j", "2"
    )
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "j=2" in err


def _child_env():
    # The environment of a fresh interpreter that imports this checkout.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    return {**os.environ, "PYTHONPATH": path}


def _run_alone(*argv):
    # One call in a fresh interpreter, as a shell would run it.
    return subprocess.run(
        [sys.executable, "-m", "bismash.cli", *argv],
        capture_output=True,
        check=True,
        env=_child_env(),
    ).stdout


def _fresh_python(source):
    # Python source run in a fresh interpreter under the default guard;
    # returns its stdout.
    env = _child_env()
    env.pop("BISMASH_MAX_WORK", None)
    return subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, check=True, env=env
    ).stdout


def test_count_calls_load_no_numpy():
    # Importing the CLI and every count quantity, ratios included, stay
    # clear of the array engine and so of numpy.
    calls = [["count", "--n", "12", "--quantity", q] for q in
             ("M", "T", "R", "X", "O", "Iplus", "Izero", "It2")]
    calls += [["count", "--n", "12", "--quantity", "Oj", "--t", "3"],
              ["count", "--n", "3", "--quantity", "ratios", "--t", "3"]]
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "import bismash.cli\n"
        f"calls = {calls!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [bismash.cli.main(argv) for argv in calls]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    assert out == f"{[0] * len(calls)} False\n"


def test_count_call_loads_only_the_counting_path():
    # import bismash.cli plus a count call load counting, guard and the
    # CLI: no numpy, no scalar layer, and none of the stdlib modules that
    # only other paths use.
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import bismash.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = bismash.cli.main(['count', '--n', '144', '--quantity', 'X'])\n"
        "banned = {'numpy', 'bismash.perm', 'bismash.matched_pair', 'bismash.cyclotomic',\n"
        "          'dataclasses', 'inspect', 'fractions', 'json'}\n"
        "print(code, sorted(banned & (set(sys.modules) - before)))\n"
    )
    assert out == "0 []\n"


def test_package_names_resolve_lazily():
    # The names of the numpy-backed modules load on first read and are
    # then bound in the package; submodules resolve after a bare import.
    out = _fresh_python(
        "import sys\n"
        "import bismash\n"
        "print('numpy' in sys.modules, 'indicator_table' in vars(bismash))\n"
        "f = bismash.indicator_table\n"
        "print(f is sys.modules['bismash.indicator'].indicator_table,\n"
        "      vars(bismash)['indicator_table'] is f, 'numpy' in sys.modules)\n"
        "print(bismash.bulk is sys.modules['bismash.bulk'])\n"
    )
    assert out == "False False\nTrue True True\nTrue\n"
    # The pure-Python layers outside the counting path load the same way.
    out = _fresh_python(
        "import sys\n"
        "import bismash\n"
        "print('Permutation' in vars(bismash), 'bismash.perm' in sys.modules)\n"
        "print(bismash.perm is sys.modules['bismash.perm'])\n"
        "print(bismash.Permutation is bismash.perm.Permutation,\n"
        "      bismash.matched_pair.divisors is bismash.counting.divisors)\n"
    )
    assert out == "False False\nTrue\nTrue True\n"
    import bismash

    names = {}
    exec("from bismash import *", names)
    assert all(names[name] is getattr(bismash, name) for name in bismash.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        bismash.no_such_name


def test_guard_names_are_one_object():
    # main catches the guard error by the name it imports, so every
    # module that raises or re-exports it must hold the same class.
    import bismash
    from bismash import construct, guard

    for name in ("WorkloadExceeded", "default_max_work"):
        obj = getattr(guard, name)
        assert getattr(bulk, name) is obj and getattr(construct, name) is obj
        assert getattr(bismash, name) is obj and getattr(cli, name) is obj


def test_guard_refusals_exit_2_in_a_fresh_process():
    # The array engine loads after the CLI; its refusals still exit 2.
    out = _fresh_python(
        "import contextlib, io\n"
        "import bismash.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [bismash.cli.main(['verify', '--n', '13']),\n"
        "             bismash.cli.main(['indicators', '--n', '13']),\n"
        "             bismash.cli.main(['indicators', '--n', '12', '--max-work', '1000'])]\n"
        "print(codes)\n"
    )
    assert out == "[2, 2, 2]\n"


def test_count_rows_read_the_per_r_counts():
    # count reads one r-indexed profile per row group; every row it
    # prints equals the per-r count, on a context of its own, for every
    # n <= 150, and so does an --r outside the listed range.
    per_r = {"R": count_R, "X": count_X, "O": count_O}
    parser = cli._build_parser()
    for n in range(2, 151):
        ctx = CountContext(n)
        extra = [[]] + ([["--r", r] for r in ("-1", "0", str(n + 1))] if n in (6, 12) else [])
        for q in ("R", "X", "O", "Oj"):
            for more in extra:
                args = parser.parse_args(["count", "--n", str(n), "--quantity", q, *more])
                for _n, t, _q, r, j, _i, value in cli._count_rows(args):
                    want = count_O_j(ctx, t, r, j) if q == "Oj" else per_r[q](ctx, t, r)
                    assert value == want, (n, q, t, r, j)


def test_parser_reuse_keeps_calls_apart(capsys):
    # One parser serves every call in a process; no option of one call
    # may leak into the next.
    run_cli(capsys, "count", "--n", "12", "--quantity", "R", "--r", "3")
    code, out, _err = run_cli(capsys, "count", "--n", "12", "--quantity", "R")
    assert code == 0
    rows = parse_csv(out)
    assert [(int(r["t"]), int(r["r"])) for r in rows] == [
        (t, r) for t in (1, 2, 3, 4, 6, 12) for r in range(1, 13)
    ]
    json_argv = ("indicators", "--n", "6", "--format", "json")
    csv_argv = ("indicators", "--n", "6")
    _code, out_json, _err = run_cli(capsys, *json_argv)
    _code, out_csv, _err = run_cli(capsys, *csv_argv)
    assert out_json.encode() == _run_alone(*json_argv)
    assert out_csv.encode() == _run_alone(*csv_argv)
    code, out, err = run_cli(capsys, "count", "--n", "8", "--quantity", "Z")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_closed_stdout_exits_quietly():
    # `indicators --n 10` writes about 1 MB; the reader takes two lines
    # and closes the pipe, as `| head -2` does.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bismash.cli", "indicators", "--n", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _out, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert head == [b"n,t,orbit_rep,i,indicator\n", b"10,1,(),0,1\n"]
    assert err == b""


def test_stdout_matches_recorded_digests(capsys):
    # Byte-identical stdout: every recorded `indicators` table, every
    # recorded `count` call (the tower for n <= 150, ratios included) and
    # the `verify` runs at n = 10 and 11 give their recorded exit code and
    # stdout sha256.
    digests = json.loads(DIGESTS.read_text())
    tables = [call for call in digests if call.startswith("indicators ")]
    counts = [call for call in digests if call.startswith("count ")]
    assert len(tables) == 93 and len(counts) == 1603
    for call in tables + counts + ["verify --n 10", "verify --n 11"]:
        code, out, _err = run_cli(capsys, *call.split())
        assert [code, hashlib.sha256(out.encode()).hexdigest()] == digests[call], call
