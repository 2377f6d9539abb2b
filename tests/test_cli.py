import os
import re
import subprocess
import sys

import pytest

import dtm
from dtm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# transform


def test_transform_numeric_route(capsys):
    code, out, _ = run(
        capsys,
        "transform", "--f", "sqrt(t + y^2)", "--t0", "1",
        "--seed", "Y(0)=0,Y(1)=0.5", "--n", "1", "--method", "t1",
    )
    assert code == 0
    assert out.splitlines() == ["F(0) = 1", "F(1) = 0.5"]


def test_transform_symbolic_route(capsys):
    code, out, _ = run(
        capsys,
        "transform", "--f", "ln(t+y)", "--t0", "1",
        "--seed", "Y(0)=0,Y(1)=1", "--n", "2", "--method", "t2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "F(0) = ln(t0 + Y(0))"
    assert "Y(1)" in lines[1] and "t0 + Y(0)" in lines[1]
    assert "Y(2)" in lines[2]


def test_transform_identity_all_coefficients(capsys):
    code, out, _ = run(capsys, "transform", "--f", "y", "--n", "3", "--method", "t2")
    assert code == 0
    assert out.splitlines() == [f"F({k}) = Y({k})" for k in range(4)]


def test_transform_both_reports_discrepancy(capsys, monkeypatch):
    from dtm import transform

    calls = []
    recurrence = transform.dt_recurrence
    monkeypatch.setattr(
        transform, "dt_recurrence", lambda *a: calls.append(a) or recurrence(*a)
    )
    code, out, _ = run(
        capsys,
        "transform", "--f", "sin(t*y)", "--seed", "Y(0)=1,Y(1)=-0.1",
        "--n", "4", "--method", "both",
    )
    assert code == 0
    m = re.search(r"max discrepancy = (\S+)", out)
    assert m and float(m.group(1)) <= 1e-12
    assert len(calls) == 1  # each route runs once


def test_transform_parse_error_exit_code(capsys):
    code, _, errtext = run(capsys, "transform", "--f", "ln(t +", "--n", "2")
    assert code == 2
    assert errtext.startswith("ERROR:parse:")
    assert "\n" not in errtext.strip("\n")


def test_transform_domain_error_exit_code(capsys):
    code, _, errtext = run(
        capsys, "transform", "--f", "ln(y)", "--seed", "Y(0)=-1", "--n", "2"
    )
    assert code == 2
    assert errtext.startswith("ERROR:parse:")


def test_transform_system_seeds(capsys):
    code, out, _ = run(
        capsys,
        "transform", "--f", "4/y1 - ln(t + y2)",
        "--seed", "Y1(0)=2,Y2(0)=1", "--n", "1", "--method", "t1",
    )
    assert code == 0
    assert out.splitlines()[0] == "F(0) = 2"


# ---------------------------------------------------------------------------
# solve


def test_solve_bundled_delay_problem(capsys):
    code, out, _ = run(capsys, "solve", "ex6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Y(0) = 1"
    assert lines[1] == "Y(1) = 1"
    assert lines[2] == "Y(2) = 0"


def test_solve_csv_to_stdout_matches_published_row(capsys):
    code, out, _ = run(capsys, "solve", "ex1", "--order", "5")
    assert code == 0
    assert "t,approx,reference,abs_error" in out
    last = out.strip().splitlines()[-1]
    assert last.startswith("2.0,")
    assert last.split(",")[3][:6] == "1.6151"


def test_solve_writes_csv_file(tmp_path, capsys):
    out_path = tmp_path / "ex1.csv"
    code, _, _ = run(capsys, "solve", "ex1", "--out", str(out_path))
    assert code == 0
    content = out_path.read_bytes()
    assert content.startswith(b"t,approx,reference,abs_error\n")
    assert b"\r" not in content
    assert len(content.strip().splitlines()) == 7
    # byte-for-byte deterministic across runs
    again = tmp_path / "again.csv"
    run(capsys, "solve", "ex1", "--out", str(again))
    assert again.read_bytes() == content


def test_transform_order_zero_of_time_is_input_error(capsys):
    code, _, errtext = run(capsys, "transform", "--f", "t", "--n", "0")
    assert code == 2
    assert errtext.startswith("ERROR:parse:")


def test_solve_multi_unknown_writes_per_unknown_files(tmp_path, capsys):
    out_path = tmp_path / "ex7.csv"
    code, _, _ = run(capsys, "solve", "ex7", "--out", str(out_path))
    assert code == 0
    assert (tmp_path / "ex7_y1.csv").exists()
    assert (tmp_path / "ex7_y2.csv").exists()


def test_solve_branch_selector(capsys):
    code, out, _ = run(capsys, "solve", "ex3", "--branch", "neg")
    assert code == 0
    assert "Y(1) = -0.5" in out


def test_solve_missing_file_is_io_error(capsys):
    code, _, errtext = run(capsys, "solve", "missing.dtm")
    assert code == 4
    assert errtext.startswith("ERROR:io:")


def test_solve_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "singular.dtm"
    bad.write_text(
        "name: singular\nt0: 0\norder: 4\nunknown: y\n"
        "eq: 0*diff(y, 1) = y solves y order 1\ninit y: 1\n"
    )
    code, _, errtext = run(capsys, "solve", str(bad))
    assert code == 3
    assert errtext.startswith("ERROR:solve:")


def test_solve_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.dtm"
    bad.write_text("name: broken\nt0: 0\norder: 4\nunknown: y\n")
    code, _, errtext = run(capsys, "solve", str(bad))
    assert code == 2
    assert errtext.startswith("ERROR:parse:")


# ---------------------------------------------------------------------------
# reference


def test_reference_bundled_literal_model(capsys):
    code, out, errtext = run(capsys, "reference", "ex2_literal")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,y"
    assert lines[1].startswith("0.0,1.000000000e+00")
    assert "# accepted" in errtext


def test_reference_rejects_implicit_problem(capsys):
    code, _, errtext = run(capsys, "reference", "ex3")
    assert code == 2
    assert errtext.startswith("ERROR:parse:")


def test_reference_system(capsys):
    code, out, _ = run(capsys, "reference", "ex7")
    assert code == 0
    assert out.splitlines()[0] == "t,y1,y2"


# ---------------------------------------------------------------------------
# tables


def test_tables_command(tmp_path, capsys):
    code, out, _ = run(capsys, "tables", "--outdir", str(tmp_path))
    assert code == 0
    for k in range(2, 7):
        assert (tmp_path / f"tables{k}.csv").exists()
    assert "overall: PASS" in out
    assert "diagnostic" in out


def test_tables_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    from dtm import tables

    problem, cells = tables.EXPECTED["table2"]
    corrupted = dict(cells)
    corrupted[("y", 2.0, 5)] = 9.9e-2  # not what the solver produces
    monkeypatch.setitem(tables.EXPECTED, "table2", (problem, corrupted))
    code, out, errtext = run(capsys, "tables", "--outdir", str(tmp_path))
    assert code == 5
    assert "overall: FAIL" in out
    assert errtext.startswith("ERROR:acceptance:")


# ---------------------------------------------------------------------------
# every failure ends in one ERROR line with its documented exit code

_SCALED_OFF_ZERO = (
    "name: scaled\nt0: 1\norder: 5\nunknown: y\n"
    "eq: diff(y, 1) = y(0.5*t) solves y order 1\ninit y: 1\n"
)
_EXP_TOWER = (
    "name: tower\nt0: 0\norder: 5\nunknown: y\n"
    "eq: diff(y, 1) = exp(exp(exp(y))) solves y order 1\ninit y: 3\npoints: 0.1\n"
)
_MUL_OVERFLOW = (
    "name: overflow\nt0: 0\norder: 5\nunknown: y\n"
    "eq: diff(y, 1) = y*y solves y order 1\ninit y: 1e200\npoints: 0.5\n"
)
_LOOKAHEAD = (
    "name: lookahead\nt0: 0\norder: 5\nunknown: y\n"
    "eq: diff(y, 1) = y*diff(y, 2) + 1 solves y order 1\ninit y: 1\n"
)


@pytest.mark.parametrize(
    "argv, code, category",
    [
        (["transform", "--f", "y(2*t)", "--t0", "1", "--n", "3"], 2, "parse"),
        (["solve", "{scaled}"], 2, "parse"),
        (["transform", "--f", "exp(1000) + y", "--n", "2", "--method", "both"], 2, "parse"),
        (["transform", "--f", "exp(y)", "--seed", "Y(0)=1000", "--n", "2"], 2, "parse"),
        (["solve", "{tower}"], 3, "solve"),
        (["reference", "{tower}"], 3, "solve"),
        (["transform", "--f", " + ".join(["y"] * 1000), "--n", "2", "--method", "t2"],
         2, "parse"),
        (["transform", "--f", "(" * 200 + "y" + ")" * 200, "--n", "2"], 2, "parse"),
        (["transform", "--f", "1e999 + y", "--n", "2"], 2, "parse"),
        (["transform", "--f", "y*y", "--seed", "Y(0)=1e200", "--n", "1", "--method", "both"],
         2, "parse"),
        (["solve", "{overflow}"], 3, "solve"),
        (["reference", "{overflow}"], 3, "solve"),
        (["solve", "{lookahead}"], 2, "parse"),
    ],
    ids=[
        "transform-scaled-off-zero", "problem-scaled-off-zero", "exp-overflow-both",
        "exp-overflow-seed", "exp-tower-solve", "exp-tower-reference", "sum-of-1000",
        "200-parentheses", "literal-overflow", "mul-overflow-both", "mul-overflow-solve",
        "mul-overflow-reference", "diff-reads-ahead",
    ],
)
def test_failures_end_in_one_error_line(tmp_path, capsys, argv, code, category):
    files = {
        "scaled": _SCALED_OFF_ZERO, "tower": _EXP_TOWER, "overflow": _MUL_OVERFLOW,
        "lookahead": _LOOKAHEAD,
    }
    for name, text in files.items():
        (tmp_path / f"{name}.dtm").write_text(text)
    argv = [a.format(**{n: str(tmp_path / f"{n}.dtm") for n in files}) for a in argv]
    got, _, errtext = run(capsys, *argv)
    assert got == code
    lines = errtext.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ERROR:{category}: ")


def test_scaled_unknown_off_zero_names_its_line(tmp_path, capsys):
    path = tmp_path / "scaled.dtm"
    path.write_text(_SCALED_OFF_ZERO)
    _, _, errtext = run(capsys, "solve", str(path))
    assert "line 5: y(0.5*t)" in errtext


def test_overflowing_constant_stays_symbolic(capsys):
    # like 10^400, exp(1000) is exact as a term; only evaluating it fails
    code, out, errtext = run(
        capsys, "transform", "--f", "exp(1000) + y", "--n", "2", "--method", "t2"
    )
    assert code == 0 and errtext == ""
    assert out.splitlines()[0] == "F(0) = exp(1000) + Y(0)"


def test_deep_sum_still_transforms():
    # run as a fresh process: the test runner's own frames eat into the
    # interpreter's recursion limit
    src = os.path.dirname(os.path.dirname(dtm.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    term = " + ".join(["y"] * 450)
    proc = subprocess.run(
        [sys.executable, "-m", "dtm", "transform", "--f", term, "--seed", "Y(0)=1",
         "--n", "2", "--method", "both"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "F(0) = 450"
