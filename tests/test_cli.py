import csv
import io
import json
import os

import pytest

from btq import cli
from btq.calibration import LEDGER_ENV, LEDGER_NAME


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(LEDGER_ENV, raising=False)
    return tmp_path


def run(argv):
    return cli.main(argv)


def test_calibrate_writes_definite_ledger(workdir, capsys):
    assert run(["calibrate"]) == 0
    ledger = workdir / LEDGER_NAME
    assert ledger.exists()
    obj = json.loads(ledger.read_text())
    assert obj["laplace_sign"] in (1, -1)
    assert obj["poisson_constant"] in (2.0, -2.0)
    out = capsys.readouterr().out
    assert "poisson_constant" in out


def test_calibrate_idempotent_bytes(workdir):
    assert run(["calibrate"]) == 0
    first = (workdir / LEDGER_NAME).read_bytes()
    assert run(["calibrate"]) == 0
    assert (workdir / LEDGER_NAME).read_bytes() == first


def test_calibrate_corrupted_ledger_exit3(workdir, capsys):
    (workdir / LEDGER_NAME).write_text("{broken")
    assert run(["calibrate"]) == 3
    assert "force" in capsys.readouterr().err
    assert run(["calibrate", "--force"]) == 0
    assert run(["calibrate"]) == 0


def test_experiments_require_ledger(workdir, capsys):
    rc = run(["thm1", "--f", "x3", "--levels", "2,4"])
    assert rc == 2
    assert "calibrate" in capsys.readouterr().err
    rc = run(["thm1", "--f", "x3", "--levels", "2,4", "--auto-calibrate"])
    assert rc == 0
    assert (workdir / LEDGER_NAME).exists()


def test_corrupted_ledger_blocks_experiments(workdir, capsys):
    (workdir / LEDGER_NAME).write_text('{"format": "btq-conventions-v1"}')
    rc = run(["thm1", "--f", "x3", "--levels", "2,4"])
    assert rc == 3
    assert "calibrate" in capsys.readouterr().err


def test_ledger_env_override(workdir, monkeypatch, tmp_path_factory):
    other = tmp_path_factory.mktemp("ledger") / "conv.json"
    monkeypatch.setenv(LEDGER_ENV, str(other))
    assert run(["calibrate"]) == 0
    assert other.exists()
    assert not (workdir / LEDGER_NAME).exists()
    assert run(["thm1", "--f", "x3", "--levels", "2,4"]) == 0


def test_thm1_csv_gap_column(workdir, capsys):
    run(["calibrate"])
    capsys.readouterr()
    rc = run(["thm1", "--f", "x3", "--levels", "8,16,32,64,128",
              "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [int(r["m"]) for r in rows] == [8, 16, 32, 64, 128]
    for r in rows:
        m = int(r["m"])
        assert abs(float(r["gap"]) - 2.0 / (m + 2)) < 1e-10


def test_thm2_same_symbol_all_gaps_zero(workdir, capsys):
    run(["calibrate"])
    capsys.readouterr()
    rc = run(["thm2", "--f", "x3", "--g", "x3", "--levels", "2,4,8",
              "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert all(float(r["gap"]) == 0.0 for r in rows)


def test_unknown_identifier_exit2(workdir, capsys):
    run(["calibrate"])
    rc = run(["thm1", "--f", "x4"])
    assert rc == 2
    assert "x4" in capsys.readouterr().err


def test_non_finite_coefficient_exit2(workdir, capsys):
    run(["calibrate"])
    capsys.readouterr()
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
    run(["calibrate"])
    assert run(["thm1", "--f", "x3", "--levels", "8,4"]) == 2
    assert run(["thm1", "--f", "x3", "--levels", "0,4"]) == 2
    assert run(["thm1", "--f", "x3", "--levels", "4,8",
                "--window", "4,16"]) == 2
    assert run(["thm1", "--f", "x3", "--levels", "abc"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["thm2", "--f", "x1", "--levels", "2,4"]) == 2  # missing --g
    assert run(["thm1", "--f", "x3", "--levels", "8", "--margin", "-1"]) == 2


def test_level_cap_is_capacity_error(workdir, capsys):
    run(["calibrate"])
    capsys.readouterr()
    assert run(["thm1", "--f", "x3", "--levels", "8,512"]) == 3
    assert "max-level" in capsys.readouterr().err
    assert run(["thm1", "--f", "x3", "--levels", "8,300",
                "--max-level", "300"]) == 0
    capsys.readouterr()
    # the radial quadrature cap, refused before any node is allocated
    for f, margin in (("x3", "20000"), ("x3^5000", "0")):
        assert run(["thm1", "--f", f, "--levels", "8", "--margin", margin]) == 3
        err = capsys.readouterr().err
        assert err.startswith("btq: ") and "radial nodes" in err
        assert err.count("\n") == 1


def test_under_resolved_rule_exit3_without_traceback(workdir, capsys,
                                                     monkeypatch):
    from btq import lab
    from btq.errors import UnderResolvedRuleError

    def refuse(m, rule):
        raise UnderResolvedRuleError("Gram self-test defect 1.4e-12 exceeds 1.0e-12")

    run(["calibrate"])
    capsys.readouterr()
    monkeypatch.setattr(lab, "basis_eval_grid", refuse)
    assert run(["thm2", "--f", "x1", "--g", "x2", "--levels", "2,4,8"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("btq: ") and err.count("\n") == 1


def test_csv_json_contain_identical_numbers(workdir):
    run(["calibrate"])
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
    run(["calibrate"])
    args = ["thm3", "--f", "x1", "--g", "x2", "--levels", "4,8,16",
            "--seed", "7", "--format", "json"]
    assert run(args + ["--out", "a.json"]) == 0
    assert run(args + ["--out", "b.json"]) == 0
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()
    obj = json.loads((workdir / "a.json").read_text())
    assert obj["seed"] == 7
    assert obj["experiment"] == "thm3[N=2]"


def test_thm3_order_flag(workdir):
    run(["calibrate"])
    assert run(["thm3", "--f", "x3", "--g", "x3", "--levels", "2,4",
                "--order", "1", "--out", "o1.json"]) == 0
    obj = json.loads((workdir / "o1.json").read_text())
    assert obj["experiment"] == "thm3[N=1]"
    assert abs(obj["rows"][0]["measured"] - 0.2) < 1e-12


def test_coherent_and_crosscheck_subcommands(workdir, capsys):
    run(["calibrate"])
    capsys.readouterr()
    rc = run(["coherent", "--f", "x3", "--levels", "4,8,16", "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    for r in rows:
        m = int(r["m"])
        assert abs(float(r["measured"]) - m / (m + 2)) < 1e-10
    assert run(["crosscheck", "--f", "x1*x2", "--levels", "4,8"]) == 0
    assert run(["tuynman", "--f", "x3^2", "--levels", "2,4,8"]) == 0


def test_output_written_atomically(workdir):
    run(["calibrate"])
    assert run(["thm1", "--f", "x3", "--levels", "2,4", "--out",
                "sub.json"]) == 0
    assert json.loads((workdir / "sub.json").read_text())["experiment"] == "thm1"
    leftovers = [p for p in os.listdir(workdir) if p.startswith(".btq_out_")]
    assert leftovers == []


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
    assert (workdir / LEDGER_NAME).exists()
