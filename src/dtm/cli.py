"""Command-line front end.

Subcommands::

    dtm transform --f EXPR [--t0 T] [--seed "Y(0)=..,Y(1)=.."] --n N [--method t1|t2|both]
    dtm solve PROBLEM [--order N] [--branch pos|neg] [--out CSV]
    dtm reference PROBLEM [--atol A] [--rtol R] [--out CSV]
    dtm tables [--outdir DIR]

PROBLEM is a path to a problem file, or the name of a bundled problem
(ex1 .. ex7, ex2_paper, ex2_literal).  Exit codes: 0 ok, 2 parse or
input-domain error, 3 solve/integration failure, 4 I/O error, 5 table
comparison mismatch.  Every failure prints one line to stderr of the form
``ERROR:<category>: <message>``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import errors as err
from . import expr as ex
from . import solver, tables, transform
from .reference import RefConfig, rk45_solve
from .tables import format_sci

def _fail(category: str, message: object, code: int) -> int:
    print(f"ERROR:{category}: {message}", file=sys.stderr)
    return code


def _load_problem(ref: str) -> solver.ProblemSpec:
    if os.path.exists(ref):
        return solver.load_problem_file(ref)
    if os.sep not in ref and ref.removesuffix(".dtm") in solver.bundled_names():
        return solver.load_bundled(ref)
    raise OSError(f"no such problem file or bundled problem: {ref!r}")


_SEED_RE = re.compile(r"^Y(\d*)\((\d+)\)$")


def _parse_seeds(seed_text: str, unknowns: list[str], n: int) -> dict[str, list[float]]:
    """Parse "Y(0)=a,Y(1)=b" (or "Y1(0)=..." for systems) into seed lists."""
    seeds = {name: [0.0] * (n + 1) for name in unknowns}
    if not seed_text.strip():
        return seeds
    for chunk in seed_text.split(","):
        key, _, value = chunk.partition("=")
        if not _:
            raise err.ParseError(f"seed entry {chunk!r} is not 'Y(i)=value'")
        m = _SEED_RE.match(key.strip())
        if m is None:
            raise err.ParseError(f"seed key {key.strip()!r} is not Y(i) or Yj(i)")
        j = int(m.group(1)) if m.group(1) else 1
        if m.group(1) == "" and len(unknowns) > 1:
            raise err.ParseError("bare Y(i) is ambiguous for a multi-unknown term")
        if not 1 <= j <= len(unknowns):
            raise err.ParseError(f"seed key {key.strip()!r} has no matching unknown")
        i = int(m.group(2))
        if i <= n:
            seeds[unknowns[j - 1]][i] = float(value)
    return seeds


def cmd_transform(args) -> int:
    unknowns = ex.scan_unknowns(args.f)
    f = ex.parse(args.f, unknowns)
    seeds = _parse_seeds(args.seed, unknowns, args.n)
    req = transform.TransformRequest(f, args.t0, seeds, args.n)
    if args.method in ("t1", "both"):
        values = transform.dt_compose(req)
        for k, v in enumerate(values):
            print(f"F({k}) = {v:.12g}")
    if args.method in ("t2", "both"):
        st = transform.dt_recurrence(f, unknowns, args.n)
        for k, term in enumerate(st.terms):
            print(f"F({k}) = {ex.to_text(term)}")
    if args.method == "both":
        recurred = transform.instantiate(st, args.t0, seeds)
        print(f"max discrepancy = {transform.max_discrepancy(values, recurred):.3e}")
    return 0


def _print_coefficients(spec: solver.ProblemSpec, sol: solver.SolutionSeries) -> None:
    single = len(spec.unknowns) == 1
    for j, u in enumerate(spec.unknowns, start=1):
        label = "Y" if single else f"Y{j}"
        for k, c in enumerate(sol.coeffs(u)):
            print(f"{label}({k}) = {c + 0.0:.12g}")


def _error_csv_lines(rows) -> list[str]:
    lines = ["t,approx,reference,abs_error"]
    for t, approx, ref, delta in rows:
        lines.append(f"{t!r},{format_sci(approx)},{format_sci(ref)},{format_sci(delta)}")
    return lines


def cmd_solve(args) -> int:
    spec = _load_problem(args.problem)
    if args.order is not None:
        spec = spec.with_order(args.order)
    if args.branch == "neg":
        spec = spec.with_flipped_sqrt()
    try:
        sol = solver.solve(spec)
    except (err.DomainError, err.DivisionBySingularSeries) as exc:
        raise err.SolveError(str(exc)) from exc
    _print_coefficients(spec, sol)
    if spec.exact and spec.points:
        table = solver.error_table(spec, sol, spec.exact)
        multi = len(spec.unknowns) > 1
        for u in spec.unknowns:
            if u not in spec.exact:
                continue
            lines = _error_csv_lines(table[u])
            if args.out:
                path = args.out
                if multi:
                    stem, dot, suffix = path.rpartition(".")
                    path = f"{stem}_{u}.{suffix}" if dot else f"{path}_{u}"
                tables.write_lines(path, lines)
            else:
                print(f"# unknown {u}")
                print("\n".join(lines))
    return 0


def cmd_reference(args) -> int:
    spec = _load_problem(args.problem)
    rhs: dict[str, ex.Expr] = {}
    for u in spec.unknowns:
        eq = spec.equation_for(u)
        if eq.lhs != ex.Deriv(u, 1, 1.0):
            raise err.ValidationError(
                f"{spec.name!r}: reference integration needs explicit first-order "
                f"equations with lhs diff({u}, 1)"
            )
        rhs[u] = eq.rhs
    y0 = [spec.init[u][0] for u in spec.unknowns]
    cfg = RefConfig(atol=args.atol, rtol=args.rtol)
    t_end = max(spec.points) if spec.points else spec.t0 + 1.0
    points = spec.points or (t_end,)
    try:
        sol = rk45_solve(rhs, y0, spec.t0, t_end, points, cfg)
    except (err.DomainError, err.DivisionBySingularSeries) as exc:
        raise err.SolveError(str(exc)) from exc
    lines = ["t," + ",".join(spec.unknowns)]
    for t, state in zip(sol.points, sol.states):
        lines.append(f"{t!r}," + ",".join(format_sci(v) for v in state))
    if args.out:
        tables.write_lines(args.out, lines)
    else:
        print("\n".join(lines))
    print(
        f"# accepted {sol.n_accepted} steps, rejected {sol.n_rejected}",
        file=sys.stderr,
    )
    return 0


def cmd_tables(args) -> int:
    runs = tables.run_all()
    os.makedirs(args.outdir, exist_ok=True)
    for run in runs:
        filename = f"tables{run.name.removeprefix('table')}.csv"
        tables.write_csv(os.path.join(args.outdir, filename), run)
    lines, passed = tables.summary_lines(runs)
    print("\n".join(lines))
    if not passed:
        print("ERROR:acceptance: published table cells not reproduced", file=sys.stderr)
        return 5
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtm",
        description="Series solutions of differential and integro-differential "
        "equations via transform recurrences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="transform coefficients of a nonlinear term")
    p.add_argument("--f", required=True, help="expression in t and unknowns")
    p.add_argument("--t0", type=float, default=0.0, help="expansion point")
    p.add_argument("--seed", default="", help='e.g. "Y(0)=0,Y(1)=1" or "Y1(0)=2"')
    p.add_argument("--n", type=int, required=True, help="highest coefficient index")
    p.add_argument("--method", choices=("t1", "t2", "both"), default="t1")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("solve", help="series solution of a problem file")
    p.add_argument("problem", help="problem file path or bundled name")
    p.add_argument("--order", type=int, help="override the truncation order")
    p.add_argument("--branch", choices=("pos", "neg"), default="pos")
    p.add_argument("--out", help="write the error table CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reference", help="adaptive numeric trajectory of a problem")
    p.add_argument("problem", help="problem file path or bundled name")
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--out", help="write the sampled trajectory CSV here")
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("tables", help="reproduce the published error tables")
    p.add_argument("--outdir", default=".", help="directory for tables*.csv")
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except err.DtmError as exc:
        return _fail(exc.category, exc, exc.exit_code)
    except ValueError as exc:  # malformed numbers, e.g. an order-0 jet of t
        return _fail("parse", exc, 2)
    except OSError as exc:
        return _fail("io", exc, 4)
    except RecursionError:
        return _fail("parse", "expression nests too deeply", 2)


if __name__ == "__main__":
    sys.exit(main())
