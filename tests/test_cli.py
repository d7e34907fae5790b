import csv
import gc
import io
import json
import os
import pathlib
import re

import pytest

from btq import calibration, cli, extrema
from btq.errors import CalibrationError
from btq.symbols import parse, symbol_to_json


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(argv):
    return cli.main(argv)


def test_calibrate_is_a_check_that_writes_nothing(workdir, capsys, monkeypatch):
    assert run(["calibrate"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "defect at m = 4: built-in sign, opposite sign"
    assert [line.split(":")[0] for line in out[1:]] == ["  laplace_sign", "  poisson_constant"]
    assert os.listdir(workdir) == []
    # experiments take the built-in conventions: no flag, no file
    assert run(["thm1", "--f", "x3", "--levels", "2,4"]) == 0
    report = json.loads(capsys.readouterr().out)
    conventions = {"total_area": 6.283185307179586, "poisson_constant": 2.0,
                   "laplace_sign": 1, "laplace_scale": 2.0}
    assert report["conventions"] == conventions
    assert list(report["conventions"]) == list(conventions)
    assert os.listdir(workdir) == []
    # a failed check prints one line, names the convention and exits 3
    def fails():
        raise CalibrationError("laplace_sign: defect 0.67 with the built-in sign")

    monkeypatch.setattr(calibration, "calibrate", fails)
    assert run(["calibrate"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "btq: calibration failed: laplace_sign: defect 0.67 with the built-in sign\n"
    assert os.listdir(workdir) == []


def test_thm1_csv_gap_column(workdir, capsys):
    rc = run(["thm1", "--f", "x3", "--levels", "8,16,32,64,128",
              "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [int(r["m"]) for r in rows] == [8, 16, 32, 64, 128]
    for r in rows:
        m = int(r["m"])
        assert abs(float(r["gap"]) - 2.0 / (m + 2)) < 1e-10


def test_thm2_same_symbol_all_gaps_zero(workdir, capsys):
    rc = run(["thm2", "--f", "x3", "--g", "x3", "--levels", "2,4,8",
              "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert all(float(r["gap"]) == 0.0 for r in rows)


def test_unknown_identifier_exit2(workdir, capsys):
    rc = run(["thm1", "--f", "x4"])
    assert rc == 2
    assert "x4" in capsys.readouterr().err


def test_non_finite_coefficient_exit2(workdir, capsys):
    assert run(["crosscheck", "--f", "1e400*x1", "--levels", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("btq: expression error") and err.count("\n") == 1
    # finite but huge: refused before any operator can overflow
    for argv in (["tuynman", "--f", "1e308*x3^2"],
                 ["thm1", "--f", "1e308*x3 - 1e308*x1"],
                 *([cmd, "--f", "1e308*x3^2"]
                   for cmd in ("thm1", "crosscheck", "coherent")),
                 *([cmd, "--f", "1e308*x3^2", "--g", "x1"]
                   for cmd in ("thm2", "thm3"))):
        assert run([*argv, "--levels", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("btq: expression error") and err.count("\n") == 1
    # two symbols under the bound whose products would overflow
    for cmd in ("thm2", "thm3"):
        assert run([cmd, "--f", "1e200*x1", "--g", "1e200*x2", "--levels", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("btq: --f and --g") and err.count("\n") == 1


def test_usage_errors(workdir, capsys):
    assert run(["thm1", "--f", "x3", "--levels", "8,4"]) == 2
    assert run(["thm1", "--f", "x3", "--levels", "0,4"]) == 2
    assert run(["thm1", "--f", "x3", "--levels", "abc"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["thm2", "--f", "x1", "--levels", "2,4"]) == 2  # missing --g
    # the quadrature is exact, the runs deterministic and every fit over the
    # upper half of --levels: none of these options exists
    for flag, value in (("--margin", "2"), ("--seed", "7")):
        assert run(["thm1", "--f", "x3", "--levels", "8", flag, value]) == 2
    for cmd in ("thm1", "thm2", "thm3", "tuynman", "coherent", "crosscheck"):
        g = ["--g", "x2"] if cmd in ("thm2", "thm3") else []
        assert run([cmd, "--f", "x3", *g, "--levels", "4,8,16", "--window", "8,16"]) == 2
        assert "unrecognized arguments: --window" in capsys.readouterr().err


def test_level_cap_is_capacity_error(workdir, capsys):
    # hilbert.MAX_LEVEL is the cap unless --max-level sets a lower one
    assert run(["thm1", "--f", "x3", "--levels", "8,512"]) == 0
    capsys.readouterr()
    assert run(["thm1", "--f", "x3", "--levels", "8,301", "--max-level", "300"]) == 3
    assert "level cap 300" in capsys.readouterr().err
    assert run(["thm1", "--f", "x3", "--levels", "8,300",
                "--max-level", "300"]) == 0
    capsys.readouterr()
    # the level cap, refused before any rule is built, and the symbol
    # degree cap, refused before the power is formed
    for args, cap in ((["--f", "x3", "--levels", "4100", "--max-level", "5000"],
                       "level cap"),
                      (["--f", "x3^5000", "--levels", "8"], "degree cap")):
        assert run(["thm1"] + args) == 3
        err = capsys.readouterr().err
        assert err.startswith("btq: ") and cap in err
        assert err.count("\n") == 1


def test_levels_above_max_level_refused_before_any_work(workdir, capsys,
                                                      monkeypatch):
    from btq import operators

    def built(*args):
        raise AssertionError("a rule or table was built")

    monkeypatch.setattr(operators, "make_rule", built)
    monkeypatch.setattr(operators, "basis_eval_grid", built)
    for levels, top in (("8,1000,1021", "2000"), ("4100", "5000")):
        assert run(["thm1", "--f", "x3", "--levels", levels,
                    "--max-level", top]) == 3
        err = capsys.readouterr().err
        assert err.startswith("btq: ") and err.count("\n") == 1
        assert "level cap 1020" in err


def test_pair_above_degree_cap_is_capacity_error(workdir, capsys):
    # each symbol is within the degree cap of 64 and their degrees sum to 65,
    # which the CLI's summed-degree rule refuses.  {f,g} has degree 64, so
    # thm2's refusal is that rule alone; only thm3's f g and C1 would be
    # folded at degree 65
    for cmd in ("thm2", "thm3"):
        assert run([cmd, "--f", "x1^33", "--g", "x2^32", "--levels", "8"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("btq: --f and --g") and "degree cap" in err
        assert err.count("\n") == 1


def test_deep_nesting_is_expression_error(workdir, capsys):
    for f in ("(" * 400 + "x3" + ")" * 400, "-" * 1200 + "x3"):
        assert run(["thm1", f"--f={f}", "--levels", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("btq: expression error") and err.count("\n") == 1


def test_unwritable_path_exit2(workdir, capsys):
    missing = workdir / "missing"
    assert run(["thm1", "--f", "x3", "--levels", "8",
                "--out", str(missing / "x.json")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("btq: ") and str(missing) in lines[0]
    assert not missing.exists()


def test_directory_as_output_path_is_named(workdir, capsys):
    target = workdir / "d"
    target.mkdir()
    assert run(["thm1", "--f", "x3", "--levels", "8", "--out", str(target)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    # the message names the given path, not the temp file beside it
    assert lines[0].startswith("btq: ") and lines[0].endswith(repr(str(target)))
    assert ".btq_" not in lines[0]
    assert [p for p in os.listdir(workdir) if p.startswith(".btq_")] == []
    assert os.listdir(target) == []


def test_under_resolved_rule_exit3_without_traceback(workdir, capsys,
                                                     monkeypatch):
    from btq import operators
    from btq.errors import UnderResolvedRuleError

    def refuse(m, rule):
        raise UnderResolvedRuleError("Gram self-test defect 1.4e-12 exceeds 1.0e-12")

    monkeypatch.setattr(operators, "basis_eval_grid", refuse)
    assert run(["thm2", "--f", "x1", "--g", "x2", "--levels", "2,4,8"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("btq: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["thm2", "--f=(0.5-1e249)", "--g=x2^27", "--levels", "14,26,30,36"],
    ["thm3", "--f=x3^53", "--g=((x1*0)-3.7^8)^46", "--levels", "49,53,108"],
], ids=["thm2", "thm3"])
def test_norms_of_huge_entries_do_not_overflow(workdir, capsys, argv):
    # residuals near 1e234 and 1e194: A^H A of them overflowed to inf, and
    # LAPACK raised; a power-of-two scale keeps the norm in range
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    rows = json.loads(out)["rows"]
    assert [r["m"] for r in rows] == [int(m) for m in argv[-1].split(",")]
    assert all(1e150 < r["measured"] < 1e300 for r in rows)


def test_main_leaves_the_heap_unfrozen_and_run_freezes_it(workdir, capsys):
    # tests call `main` in process, so only `run`, the process's entry
    # point, may freeze the heap
    assert gc.get_freeze_count() == 0
    assert run(["thm1", "--f", "x3", "--levels", "2,4"]) == 0
    assert gc.get_freeze_count() == 0
    try:
        assert cli.run(["thm1", "--f", "x3", "--levels", "2,4"]) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out.count('"experiment"') == 2


def test_csv_json_contain_identical_numbers(workdir):
    assert run(["thm1", "--f", "0.3 + x1 + 0.5*x2*x3", "--levels", "4,8,16",
                "--format", "csv", "--out", "r.csv"]) == 0
    assert run(["thm1", "--f", "0.3 + x1 + 0.5*x2*x3", "--levels", "4,8,16",
                "--format", "json", "--out", "r.json"]) == 0
    jrows = json.loads((workdir / "r.json").read_text())["rows"]
    crows = list(csv.DictReader(io.StringIO((workdir / "r.csv").read_text())))
    assert len(jrows) == len(crows) == 3
    for j, c in zip(jrows, crows):
        for key in ("hbar", "measured", "reference", "gap"):
            assert float(c[key]) == j[key]


def test_runs_bit_reproducible(workdir):
    args = ["thm3", "--f", "x1", "--g", "x2", "--levels", "4,8,16",
            "--format", "json"]
    assert run(args + ["--out", "a.json"]) == 0
    assert run(args + ["--out", "b.json"]) == 0
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()
    obj = json.loads((workdir / "a.json").read_text())
    assert obj["experiment"] == "thm3[N=2]"


def test_thm3_order_flag(workdir):
    assert run(["thm3", "--f", "x3", "--g", "x3", "--levels", "2,4",
                "--order", "1", "--out", "o1.json"]) == 0
    obj = json.loads((workdir / "o1.json").read_text())
    assert obj["experiment"] == "thm3[N=1]"
    assert abs(obj["rows"][0]["measured"] - 0.2) < 1e-12


def test_coherent_and_crosscheck_subcommands(workdir, capsys):
    rc = run(["coherent", "--f", "x3", "--levels", "4,8,16", "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    for r in rows:
        m = int(r["m"])
        assert abs(float(r["measured"]) - m / (m + 2)) < 1e-10
    assert run(["crosscheck", "--f", "x1*x2", "--levels", "4,8"]) == 0
    assert run(["tuynman", "--f", "x3^2", "--levels", "2,4,8"]) == 0
    capsys.readouterr()
    # the |f| maximizer is the south pole; the report keeps the symbol as given
    f = "x3 - 2*x3^2 + 0.3*x1"
    assert run(["coherent", "--f", f, "--levels", "4,8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f"] == symbol_to_json(parse(f))


def test_coherent_runs_the_sup_norm_search_once(workdir, capsys, monkeypatch):
    # the maximizer x0 and ||f||_inf come from one search; `sup_norm` and
    # `sup_norm_argmax` read `extrema`'s binding of `grid_extrema`
    calls = []
    search = extrema.grid_extrema

    def counted(f):
        calls.append(f)
        return search(f)

    monkeypatch.setattr(extrema, "grid_extrema", counted)
    for f in ("x3", "x3 - 2*x3^2 + 0.3*x1"):
        calls.clear()
        assert run(["coherent", "--f", f, "--levels", "4,8"]) == 0
        assert calls == [parse(f)]
    capsys.readouterr()


def test_leading_minus_expressions(workdir, capsys):
    # argparse reads "--f -x3" as an option; "--f=-x3" passes the expression
    assert run(["coherent", "--f", "-x3", "--levels", "4,8"]) == 2
    assert "expected one argument" in capsys.readouterr().err
    assert run(["coherent", "--f=-x3", "--levels", "4,8"]) == 0
    assert json.loads(capsys.readouterr().out)["f"] == symbol_to_json(parse("-x3"))
    assert run(["thm2", "--f=-x3", "--g=-x2", "--levels", "4,8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f"] == symbol_to_json(parse("-x3"))
    assert report["g"] == symbol_to_json(parse("-x2"))


def test_output_written_atomically(workdir):
    assert run(["thm1", "--f", "x3", "--levels", "2,4", "--out",
                "sub.json"]) == 0
    assert json.loads((workdir / "sub.json").read_text())["experiment"] == "thm1"
    leftovers = [p for p in os.listdir(workdir) if p.startswith(".btq_")]
    assert leftovers == []


def test_readme_documents_every_flag():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    top = cli._build_parser()
    subcommands = next(a for a in top._actions if isinstance(a.choices, dict))
    parsers = [top, *subcommands.choices.values()]
    options = {o for p in parsers for a in p._actions for o in a.option_strings
               if o.startswith("--")} - {"--help"}
    assert documented == options


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "thm1" in capsys.readouterr().out
    assert run(["thm3", "--help"]) == 0


def test_console_script_installed(workdir):
    import shutil
    import subprocess
    exe = shutil.which("btq")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "calibrate"], capture_output=True, text=True,
                          cwd=workdir)
    assert proc.returncode == 0
    assert os.listdir(workdir) == []
