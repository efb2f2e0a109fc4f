"""The command-line front end: check, bench, and compare."""

import csv
import importlib.metadata as md
import re
import sys
from pathlib import Path

import pytest

import soundreach as sr
from soundreach.cli import CSV_HEADER
from conftest import branching_mdp_model, slow_chain_model, two_route_mdp_model

RESULT_RE = re.compile(
    r"^result=(?P<r>\S+) bounds=\[(?P<lo>\S+),(?P<hi>\S+)\] "
    r"iterations=(?P<k>\d+) time_ms=(?P<ms>\d+\.\d{3})$"
)
TRACE_RE = re.compile(
    r"^iter=(?P<k>\d+) lower=\S+ upper=\S+ decision=\S+ y_init=\S+$"
)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A directory holding both golden models plus a two-line manifest."""
    root = tmp_path_factory.mktemp("cli_models")
    sr.write_model(slow_chain_model(), root / "chain.tra", root / "chain.lab")
    sr.write_model(branching_mdp_model(), root / "branch.tra", root / "branch.lab")
    (root / "suite.manifest").write_text(
        "slow chain.tra chain.lab goal prob max\n"
        "branch branch.tra branch.lab goal prob max\n"
    )
    return root


@pytest.fixture(scope="module")
def bench_csv(model_dir):
    """One shared bench run (svi + ii on both instances, loose epsilon)."""
    out = model_dir / "results.csv"
    assert run(["bench", model_dir / "suite.manifest", "--out", out,
                "--epsilon", "1e-2"]) == 0
    return out


def run(argv):
    return sr.run_cli([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def col(name):
    return CSV_HEADER.index(name)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_result_line(model_dir, capsys):
    code = run(["check", "--tra", model_dir / "chain.tra",
                "--lab", model_dir / "chain.lab", "--goal", "goal"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    m = RESULT_RE.match(out[0])
    assert m, out[0]
    assert float(m["r"]) == pytest.approx(0.75, abs=1e-6)
    assert int(m["k"]) == 3
    # the printed floats are full-precision reprs and parse back exactly
    assert float(m["lo"]) <= float(m["r"]) <= float(m["hi"])


def test_check_trace_lines(model_dir, capsys):
    code = run(["check", "--tra", model_dir / "branch.tra",
                "--lab", model_dir / "branch.lab", "--goal", "goal", "--trace"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert RESULT_RE.match(lines[-1])
    trace = lines[:-1]
    assert len(trace) == 3
    for i, line in enumerate(trace):
        m = TRACE_RE.match(line)
        assert m, line
        assert int(m["k"]) == i + 1


def test_check_trace_starts_probability_inside_zero_one(model_dir, capsys):
    # without --lower/--upper, svi starts a probability query at [0, 1]
    code = run(["check", "--tra", model_dir / "branch.tra",
                "--lab", model_dir / "branch.lab", "--goal", "goal", "--trace"])
    assert code == 0
    first = capsys.readouterr().out.splitlines()[0]
    m = re.match(r"^iter=1 lower=(?P<lo>\S+) upper=(?P<hi>\S+) ", first)
    assert m, first
    assert 0.0 <= float(m["lo"]) <= float(m["hi"]) <= 1.0


def test_check_min_direction(tmp_path, capsys):
    tra, lab = tmp_path / "m.tra", tmp_path / "m.lab"
    sr.write_model(two_route_mdp_model(), tra, lab)
    code = run(["check", "--tra", tra, "--lab", lab, "--goal", "goal",
                "--direction", "min", "--epsilon", "1e-8"])
    assert code == 0
    m = RESULT_RE.match(capsys.readouterr().out.strip())
    assert float(m["r"]) == pytest.approx(0.152, abs=1e-8)


def test_check_vi_warns_on_stderr(model_dir, capsys):
    code = run(["check", "--tra", model_dir / "chain.tra",
                "--lab", model_dir / "chain.lab", "--goal", "goal",
                "--method", "vi"])
    assert code == 0
    captured = capsys.readouterr()
    assert "no guarantee" in captured.err
    assert "warning" in captured.err
    assert RESULT_RE.match(captured.out.strip())


def test_check_unknown_goal_label_is_a_model_error(model_dir, capsys):
    code = run(["check", "--tra", model_dir / "chain.tra",
                "--lab", model_dir / "chain.lab", "--goal", "jackpot"])
    assert code == 2
    assert "jackpot" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    code = run(["check", "--tra", tmp_path / "nope.tra",
                "--lab", tmp_path / "nope.lab", "--goal", "goal"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_solver_error_exit_code(tmp_path, capsys):
    # expected reward toward a goal the losing sink never reaches: the
    # sink's self-loop is an end component, so no finite answer exists
    model = sr.validate_model(
        [[{1: 0.5, 2: 0.5}], [{1: 1.0}], [{2: 1.0}]],
        rewards=[[1.0], [0.0], [0.0]],
        labels={"init": [0], "goal": [1]},
    )
    tra, lab = tmp_path / "r.tra", tmp_path / "r.lab"
    sr.write_model(model, tra, lab)
    code = run(["check", "--tra", tra, "--lab", lab, "--goal", "goal",
                "--objective", "reward"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_check_nan_upper_bound_is_a_config_error(model_dir, capsys):
    code = run(["check", "--tra", model_dir / "branch.tra",
                "--lab", model_dir / "branch.lab", "--goal", "goal", "--upper", "nan"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_nan_reward_is_a_model_error(tmp_path, capsys):
    # a contracting chain, so only the reward stands between it and exit 0
    model = sr.validate_model(
        [[{0: 0.5, 1: 0.5}], [{1: 1.0}]], labels={"init": [0], "goal": [1]}
    )
    tra, lab, trew = tmp_path / "r.tra", tmp_path / "r.lab", tmp_path / "r.trew"
    sr.write_model(model, tra, lab)
    trew.write_text("0 0 nan\n")
    code = run(["check", "--tra", tra, "--lab", lab, "--trew", trew, "--goal", "goal",
                "--objective", "reward"])
    assert code == 2
    assert "state 0 choice 0" in capsys.readouterr().err


def test_check_stats_appends(model_dir, tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    for _ in range(2):
        assert run(["check", "--tra", model_dir / "chain.tra",
                    "--lab", model_dir / "chain.lab", "--goal", "goal",
                    "--stats", stats]) == 0
    capsys.readouterr()
    rows = read_rows(stats)
    assert rows[0] == CSV_HEADER
    assert len(rows) == 3  # header once, one record per invocation
    assert rows[1][col("model")] == "chain"
    assert rows[1][col("method")] == "svi"
    assert int(rows[1][col("iterations")]) == 3
    # numeric cells are reprs: they parse back to the exact float
    assert float(rows[1][col("result")]) == pytest.approx(0.75, abs=1e-6)


# the stats header of earlier versions, with a column that is gone now
OLD_HEADER = (
    "model,states,choices,transitions,method,gauss_seidel,topological,"
    "direction,objective,epsilon,result,lower,upper,iterations,time_ms\n"
)


@pytest.mark.parametrize(
    "header", ["model,states,something_else\n", OLD_HEADER], ids=["foreign", "old"]
)
def test_check_stats_refuses_another_header(model_dir, tmp_path, capsys, header):
    stats = tmp_path / "stats.csv"
    stats.write_text(header)
    assert run(["check", "--tra", model_dir / "chain.tra",
                "--lab", model_dir / "chain.lab", "--goal", "goal",
                "--stats", stats]) == 2
    assert "unexpected header" in capsys.readouterr().err
    assert stats.read_text() == header


def test_check_rejects_removed_flag(model_dir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["check", "--tra", model_dir / "chain.tra",
             "--lab", model_dir / "chain.lab", "--goal", "goal", "--gauss-seidel"])
    assert exit_info.value.code == 2
    assert "--gauss-seidel" in capsys.readouterr().err


def test_check_topological_flag(model_dir, capsys):
    code = run(["check", "--tra", model_dir / "chain.tra",
                "--lab", model_dir / "chain.lab", "--goal", "goal",
                "--topological"])
    assert code == 0
    m = RESULT_RE.match(capsys.readouterr().out.strip())
    assert float(m["r"]) == pytest.approx(0.75, abs=1e-6)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_writes_rows(bench_csv):
    rows = read_rows(bench_csv)
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2 * 2  # two instances x {svi, ii}
    keys = [(r[col("model")], r[col("method")]) for r in rows[1:]]
    assert keys == [
        ("slow", "svi"), ("slow", "ii"), ("branch", "svi"), ("branch", "ii")
    ]
    by_key = dict(zip(keys, rows[1:]))
    assert int(by_key[("slow", "svi")][col("iterations")]) == 3
    assert int(by_key[("slow", "ii")][col("iterations")]) > 10_000
    for row in rows[1:]:
        assert len(row) == len(CSV_HEADER)
        lo, hi = float(row[col("lower")]), float(row[col("upper")])
        assert lo <= float(row[col("result")]) <= hi


def test_bench_error_rows_keep_going(model_dir, tmp_path):
    broken = tmp_path / "broken.manifest"
    broken.write_text(
        (model_dir / "suite.manifest").read_text()
        + "ghost missing.tra missing.lab goal prob max\n"
    )
    out = tmp_path / "results.csv"
    assert run(["bench", broken, "--out", out, "--methods", "svi"]) == 0
    rows = read_rows(out)
    assert len(rows) == 4
    ghost = [r for r in rows[1:] if r[col("model")] == "ghost"]
    assert len(ghost) == 1
    assert len(ghost[0]) == len(CSV_HEADER) + 1  # the error tag rides along
    assert int(ghost[0][col("iterations")]) == -1
    assert ghost[0][col("result")] == ""
    # the healthy instances still produced ordinary rows
    assert {r[col("model")] for r in rows[1:]} == {"slow", "branch", "ghost"}


def test_bench_paths_resolve_against_manifest_dir(model_dir):
    sub = model_dir / "nested"
    sub.mkdir(exist_ok=True)
    manifest = sub / "up.manifest"
    manifest.write_text("up ../chain.tra ../chain.lab goal prob max\n")
    out = sub / "up.csv"
    assert run(["bench", manifest, "--out", out, "--methods", "svi"]) == 0
    rows = read_rows(out)
    assert rows[1][col("model")] == "up"
    assert int(rows[1][col("iterations")]) == 3


def test_bench_variant_matrix(model_dir, tmp_path):
    out = tmp_path / "variants.csv"
    assert run(["bench", model_dir / "suite.manifest", "--out", out,
                "--methods", "svi,vi", "--variants", "plain,topological",
                "--epsilon", "1e-2"]) == 0
    rows = read_rows(out)
    # topological only applies to svi: vi x topological is skipped
    combos = {
        (r[col("model")], r[col("method")], r[col("topological")])
        for r in rows[1:]
    }
    assert ("slow", "svi", "True") in combos
    assert ("slow", "vi", "False") in combos
    assert not any(m == "vi" and t == "True" for _, m, t in combos)
    assert len(rows) == 1 + 2 * 3


@pytest.mark.parametrize("variant", ["gauss-seidel", "gs"])
def test_bench_rejects_removed_variants(model_dir, tmp_path, capsys, variant):
    out = tmp_path / "variants.csv"
    assert run(["bench", model_dir / "suite.manifest", "--out", out,
                "--variants", variant]) == 2
    err = capsys.readouterr().err
    assert variant in err and "plain" in err and "topological" in err
    assert not out.exists()


def test_bench_reward_manifest_extras(tmp_path):
    model = sr.validate_model(
        [[{0: 0.5, 1: 0.5}], [{1: 1.0}]],
        rewards=[[1.0], [0.0]],
        labels={"init": [0], "goal": [1]},
    )
    sr.write_model(model, tmp_path / "r.tra", tmp_path / "r.lab",
                   tmp_path / "r.trew")
    manifest = tmp_path / "r.manifest"
    manifest.write_text("toy r.tra r.lab goal reward max trew=r.trew\n")
    out = tmp_path / "r.csv"
    assert run(["bench", manifest, "--out", out, "--methods", "svi"]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert float(rows[1][col("result")]) == pytest.approx(2.0, abs=1e-6)
    assert rows[1][col("objective")] == "reward"


def test_bench_manifest_start_bounds(tmp_path, capsys):
    model = sr.validate_model(
        [[{0: 0.5, 1: 0.5}], [{1: 1.0}]],
        rewards=[[1.0], [0.0]],
        labels={"init": [0], "goal": [1]},
    )
    sr.write_model(model, tmp_path / "r.tra", tmp_path / "r.lab", tmp_path / "r.trew")
    manifest = tmp_path / "r.manifest"
    out = tmp_path / "r.csv"
    # interval iteration needs start bounds for rewards
    manifest.write_text("toy r.tra r.lab goal reward max trew=r.trew\n")
    assert run(["bench", manifest, "--out", out, "--methods", "ii"]) == 0
    assert read_rows(out)[1][-1] == "MissingRewardBounds"
    manifest.write_text("toy r.tra r.lab goal reward max trew=r.trew lower=0 upper=10\n")
    assert run(["bench", manifest, "--out", out, "--methods", "ii,svi"]) == 0
    rows = read_rows(out)
    assert [row[col("method")] for row in rows[1:]] == ["ii", "svi"]
    for row in rows[1:]:
        assert len(row) == len(CSV_HEADER)
        assert float(row[col("result")]) == pytest.approx(2.0, abs=1e-6)
    manifest.write_text("toy r.tra r.lab goal reward max trew=r.trew lower=abc\n")
    assert run(["bench", manifest, "--out", tmp_path / "x.csv"]) == 2
    assert "abc" in capsys.readouterr().err


def test_bench_empty_manifest(tmp_path):
    manifest = tmp_path / "empty.manifest"
    manifest.write_text("# nothing but comments\n")
    out = tmp_path / "empty.csv"
    assert run(["bench", manifest, "--out", out]) == 0
    assert read_rows(out) == [CSV_HEADER]


def test_bench_bad_manifest_line(tmp_path, capsys):
    manifest = tmp_path / "bad.manifest"
    manifest.write_text("only three fields\n")
    assert run(["bench", manifest, "--out", tmp_path / "x.csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_unknown_extra_key(tmp_path, capsys):
    manifest = tmp_path / "bad.manifest"
    manifest.write_text("a b.tra b.lab goal prob max color=red\n")
    assert run(["bench", manifest, "--out", tmp_path / "x.csv"]) == 2
    assert "color" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_report(bench_csv, capsys):
    assert run(["compare", bench_csv]) == 0
    report = capsys.readouterr().out
    assert "instances: 2" in report
    slow_line = next(l for l in report.splitlines() if l.startswith("slow:"))
    m = re.search(r"iterations_ratio=([0-9.e+-]+)", slow_line)
    assert m and float(m.group(1)) > 1000  # ii needs vastly more sweeps here
    assert "geometric_mean:" in report
    assert "scatter iterations (svi ii)" in report
    assert "scatter time_ms (svi ii)" in report
    # the scatter block carries one "svi ii" pair per complete instance
    lines = report.splitlines()
    start = lines.index("scatter iterations (svi ii)")
    pairs = lines[start + 1:start + 3]
    assert all(re.match(r"^\d+ \d+$", p) for p in pairs)


def test_compare_handles_missing_method(model_dir, tmp_path, capsys):
    manifest = tmp_path / "one.manifest"
    manifest.write_text(f"solo {model_dir}/chain.tra {model_dir}/chain.lab goal prob max\n")
    out = tmp_path / "solo.csv"
    assert run(["bench", manifest, "--out", out, "--methods", "svi"]) == 0
    capsys.readouterr()
    assert run(["compare", out]) == 0
    report = capsys.readouterr().out
    assert "solo:" in report
    assert "n/a" in report


def test_compare_rejects_foreign_csv(tmp_path, capsys):
    bad = tmp_path / "foreign.csv"
    for text in ("a,b,c\n1,2,3\n", OLD_HEADER):
        bad.write_text(text)
        assert run(["compare", bad]) == 2
        assert "unexpected header" in capsys.readouterr().err
        with pytest.raises(sr.MalformedCsv):
            sr.compare_report(bad)


def test_compare_rejects_corrupt_numbers(bench_csv, tmp_path, capsys):
    rows = read_rows(bench_csv)
    rows[1][col("iterations")] = "three"
    corrupted = tmp_path / "corrupt.csv"
    with open(corrupted, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run(["compare", corrupted]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_missing_file(tmp_path, capsys):
    assert run(["compare", tmp_path / "void.csv"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# invocation plumbing
# ---------------------------------------------------------------------------


def test_cli_entry_point_installed(monkeypatch, capsys):
    # Installing the package (``pip install -e .``) turns the declaration in
    # pyproject.toml into the ``soundreach`` command.  The suite runs from a
    # source checkout, so it checks that declaration and its target; where a
    # distribution is installed, its console script must match it.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert scripts.get("soundreach") == "soundreach.cli:main"

    entry = md.EntryPoint(
        name="soundreach", value=scripts["soundreach"], group="console_scripts"
    )
    main = entry.load()
    monkeypatch.setattr(sys, "argv", ["soundreach", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: soundreach")

    try:
        dist = md.distribution("soundreach")
    except md.PackageNotFoundError:
        return
    installed = {e.name: e.value for e in dist.entry_points if e.group == "console_scripts"}
    assert installed.get("soundreach") == scripts["soundreach"]
