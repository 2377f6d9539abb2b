"""Span tracer that wraps the public functions of the ``dtm`` layers.

The program carries no instrumentation of its own, so the benchmark wraps
the functions at the layer boundaries from outside.  ``Tracer.install``
replaces each target function in every ``dtm`` module that holds it,
including names rebound by ``from .expr import ...``, and ``uninstall``
puts the originals back.  A span's self time is its duration minus the
time covered by the spans it opened.  A recursive function (the tree
walkers ``eval_series`` and ``to_text``) opens one span at its outermost
call: inside the span its own module sees the original function, so the
inner calls run unwrapped and count as self time.

Spans are aggregated in memory as (calls, self seconds) per span name,
next to counters that hooks derive from each call's arguments and result.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# Multiply-adds per call, from the loop bounds of each kernel at order N.
# Calls a kernel makes to mul/div are counted by their own spans.
_ELEMENTARY_MADDS = {
    "exp": lambda n: n * (n + 1) // 2,
    "ln": lambda n: n * (n - 1) // 2,
    "sin": lambda n: n * (n + 1),
    "cos": lambda n: n * (n + 1),
    "tan": lambda n: n * (n + 1),
    "asin": lambda n: n * (n - 1) // 2,
    "atan": lambda n: 0,
    "sqrt_pos": lambda n: n * (n - 1) // 2,
    "sqrt_neg": lambda n: n * (n - 1) // 2,
}


def dag_nodes(terms) -> int:
    """Distinct nodes reachable from the given expression trees."""
    from dtm import expr as ex

    seen: set[int] = set()
    stack = list(terms)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ex.Unary):
            stack.append(node.child)
        elif isinstance(node, ex.Binary):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, ex.Integral):
            stack.append(node.body)
    return len(seen)


def _mul_madds(t, args, result):
    n = args[0].order
    t.counts["series.madds"] += (n + 1) * (n + 2) // 2


def _div_madds(t, args, result):
    n = args[0].order
    t.counts["series.madds"] += n * (n + 1) // 2


def _elementary_madds(t, args, result):
    kind, u = args
    t.counts["series.madds"] += _ELEMENTARY_MADDS[kind](u.order)


def _rhs_eval(t, args, result):
    # inside the integrator, one right-hand-side evaluation calls
    # eval_numeric once per unknown with the binding {t, unknowns...}
    if "reference.rk45_solve" in t.active:
        t.counts["reference.rhs_evals"] += 1 / (len(args[1]) - 1)


def _text_bytes(t, args, result):
    t.counts["expr.to_text.bytes"] += len(result.encode())


def _fn_nodes(t, args, result):
    t.counts["transform.fn_nodes"] += dag_nodes(result.terms)


def _coefficients(t, args, result):
    t.counts["solver.coefficients"] += len(args[0].equations)


def _integrator_steps(t, args, result):
    t.counts["reference.steps_accepted"] += result.n_accepted
    t.counts["reference.steps_rejected"] += result.n_rejected


def _table_cells(t, args, result):
    t.counts["tables.cells"] += len(result.cells)
    t.counts["tables.cells_failed"] += len(result.failed)


_LINEAR = (
    "add", "sub", "negate", "scale", "constant", "time_var",
    "integrate", "formal_derivative", "rescale_argument", "from_coeffs",
)

# (module, function, span name, hook)
OP_TARGETS = (
    [
        ("series", "mul", "series.mul", _mul_madds),
        ("series", "div", "series.div", _div_madds),
        ("series", "elementary", "series.elementary", _elementary_madds),
    ]
    + [("series", name, "series.linear", None) for name in _LINEAR]
    + [
        ("expr", "eval_series", "expr.eval_series", None),
        ("expr", "eval_numeric", "expr.eval_numeric", _rhs_eval),
        ("expr", "simplify", "expr.simplify", None),
        ("expr", "diff_sym", "expr.diff_sym", None),
        ("expr", "to_text", "expr.to_text", _text_bytes),
        ("transform", "dt_recurrence", "transform.dt_recurrence", _fn_nodes),
        ("transform", "dt_compose", "transform.dt_compose", None),
        ("transform", "instantiate", "transform.instantiate", None),
        ("solver", "step", "solver.step", _coefficients),
        ("solver", "equation_series", "solver.equation_series", None),
        ("reference", "rk45_solve", "reference.rk45_solve", _integrator_steps),
        ("tables", "run_table", "tables.run_table", _table_cells),
        ("tables", "write_csv", "tables.write_csv", None),
        ("cli", "main", "cli.main", None),
    ]
)

# the set-up work that setup_s times: loading problems and parsing terms
SETUP_TARGETS = (
    ("expr", "parse", "expr.parse", None),
    ("solver", "load_problem", "solver.load_problem", None),
)


class Tracer:
    """Aggregated spans and counters over the calls made while installed."""

    def __init__(self, targets):
        self.targets = targets
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.active: set[str] = set()
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, hook):
        stats = self.stats[span]
        active = self.active
        child_time = self._child_time
        home, name = fn.__globals__, fn.__name__

        def traced(*args, **kwargs):
            if span in active:
                return fn(*args, **kwargs)
            active.add(span)
            child_time.append(0.0)
            # recursive calls inside the span go straight to the original
            home[name] = fn
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                home[name] = traced
                inner = child_time.pop()
                active.discard(span)
                stats[0] += 1
                stats[1] += elapsed - inner
                if child_time:
                    child_time[-1] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        from dtm import series

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dtm"]
        for module_name, func_name, span, hook in self.targets:
            original = getattr(sys.modules[f"dtm.{module_name}"], func_name)
            wrapper = self._wrap(span, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

        post_init = series.TruncatedSeries.__post_init__
        counts = self.counts

        def counted_post_init(obj):
            counts["series.objects"] += 1
            post_init(obj)

        self._patched.append((series.TruncatedSeries, "__post_init__", post_init))
        series.TruncatedSeries.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self, span: str) -> int:
        return self.stats[span][0] if span in self.stats else 0

    def self_time(self, span: str) -> float:
        return self.stats[span][1] if span in self.stats else 0.0
