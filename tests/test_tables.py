import pytest

from dtm.tables import format_sci, run_all, run_table, summary_lines, write_csv


@pytest.fixture(scope="module")
def runs():
    return run_all()


def test_gated_tables_reproduce_every_cell(runs):
    for run in runs:
        if run.gates:
            assert run.failed == [], (run.name, run.failed)


def test_cells_cover_orders_and_points(runs):
    for run in runs:
        orders = {c.order for c in run.cells}
        assert orders == {5, 10, 15}
        ts = sorted({c.t for c in run.cells})
        assert len(ts) == 6


def test_expansion_point_rows_are_exact_zero(runs):
    for run in runs:
        t0 = min(c.t for c in run.cells)
        for c in run.cells:
            if c.t == t0:
                assert c.expected == 0.0
                assert c.computed == 0.0
                assert c.status == "ok"


def test_epsilon_regime_cells_use_bound(runs):
    table2 = next(r for r in runs if r.name == "table2")
    cell = next(c for c in table2.cells if c.t == 1.2 and c.order == 10)
    # published 6.0021e-16 sits in the machine-epsilon regime
    assert cell.expected <= 1e-13
    assert cell.status == "bound"
    assert abs(cell.computed) <= 5e-13


def test_three_significant_figure_cells(runs):
    spot = {
        ("table2", "y", 2.0, 5): 1.6152e-3,
        ("table4", "y", 1.0, 5): 1.9568e-4,
        ("table4", "y", 1.0, 10): 2.4892e-8,
        ("table5", "y", 0.8, 10): 1.0280e-3,
        ("table5", "y", 1.0, 10): 1.4903e-2,
        ("table6", "y1", 1.0, 5): 2.4255e-3,
        ("table6", "y1", 0.8, 5): 6.5259e-4,
        ("table6", "y2", 1.0, 5): 1.6152e-3,
    }
    by_name = {r.name: r for r in runs}
    for (name, unknown, t, order), want in spot.items():
        cell = next(
            c
            for c in by_name[name].cells
            if c.unknown == unknown and c.t == t and c.order == order
        )
        assert cell.expected == want
        assert cell.status == "ok"
        assert cell.computed == pytest.approx(want, rel=5e-3)


def test_large_order_truncation_cells_still_match(runs):
    # the tangent problem keeps truncation-dominated cells even at order 15
    table5 = next(r for r in runs if r.name == "table5")
    cell = next(c for c in table5.cells if c.t == 1.0 and c.order == 15)
    assert cell.expected == 9.9212e-4
    assert cell.status == "ok"


def test_diagnostic_table_records_without_gating(runs):
    table3 = next(r for r in runs if r.name == "table3")
    assert table3.diagnostic and not table3.gates
    assert {c.status for c in table3.cells} <= {"ok", "fail"}
    assert len(table3.cells) == 18
    _, passed = summary_lines(runs)
    assert passed  # failures in the diagnostic table never gate


def test_csv_format_and_determinism(tmp_path, runs):
    table2 = next(r for r in runs if r.name == "table2")
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(str(p1), table2)
    write_csv(str(p2), table2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b"\r" not in b1
    lines = b1.decode().splitlines()
    assert lines[0] == "t,unknown,N,abs_error,expected,status"
    assert len(lines) == 1 + len(table2.cells)
    # a second independent run produces identical bytes
    again = run_table("table2")
    p3 = tmp_path / "c.csv"
    write_csv(str(p3), again)
    assert p3.read_bytes() == b1


def test_format_sci_ten_significant_digits():
    assert format_sci(1.6152e-3) == "1.615200000e-03"
    assert format_sci(0.0) == "0.000000000e+00"


def test_one_solve_serves_every_order(monkeypatch):
    from dtm import solver
    from dtm.tables import ORDERS

    spec = solver.load_bundled("ex1")
    per_order = {}
    for order in ORDERS:
        sol = solver.solve(spec, order=order)
        for t, _, _, err in solver.error_table(spec.with_order(order), sol, spec.exact)["y"]:
            per_order[(t, order)] = err
    calls = []
    solve = solver.solve
    monkeypatch.setattr(solver, "solve", lambda *a, **k: calls.append(a) or solve(*a, **k))
    run = run_table("table2")
    assert len(calls) == 1
    # bitwise: lower orders are prefixes of the highest-order coefficients
    assert {(c.t, c.order): c.computed for c in run.cells} == per_order
