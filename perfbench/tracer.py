"""Span tracer for one benchmark job, installed from outside the package.

``install()`` replaces every public function of the qkonc modules (plus
``GramMatrix.to_csv``) with a wrapper that records a span: id, parent span
id, name, start, end and a few work counts.  A function is replaced at every
module namespace that binds it, so ``kernels.embed_batch`` and
``embeddings.embed_batch`` feed the same span name, and ``_accel``
primitives (spans ``accel.*``) are caught through the module-attribute
lookups of their callers.
Spans stay in memory until ``Tracer.write`` dumps them as JSON lines.

``aggregate()`` turns span files into per-name self times (span duration
minus the union of its child spans), call counts and summed counts.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import time
import types

MODULES = (
    "_accel",
    "core",
    "embeddings",
    "kernels",
    "estimators",
    "noise",
    "analysis",
    "learning",
    "datasets",
    "cli",
)


def _in_place(state, *aux):
    # computed from array shapes: the state batch is read and written once,
    # every other array argument is read once
    return {"bytes": 2 * state.nbytes + sum(a.nbytes for a in aux)}


def _out_of_place(*arrays):
    # computed from array shapes: inputs read once, the result written once
    return {"bytes": sum(a.nbytes for a in arrays)}


def _file_bytes(path, result):
    return {"bytes": os.path.getsize(path)}


def _shots(shots, result, strategy="sampled"):
    return {"shots": 0 if strategy == "exact" else int(shots)}


def _gram_entries(xs, estimator, result):
    npts = len(xs)
    key = "entries_exact" if estimator is None or estimator.strategy == "exact" else "entries_shot"
    return {key: npts * (npts - 1) // 2}


# span name -> (parameters passed to the counter, counter(*values, result))
COUNTERS = {
    "accel.apply_1q_rows": (("states", "gates"), lambda s, g, r: _in_place(s, g)),
    "accel.apply_1q_uniform": (("states",), lambda s, r: _in_place(s)),
    "accel.apply_phase": (("states", "mask"), lambda s, m, r: _in_place(s, m)),
    "accel.apply_perm": (("states", "src"), lambda s, p, r: _in_place(s, p)),
    "accel.pair_absq": (("bra", "ket"), lambda a, b, r: _out_of_place(a, b, r)),
    "accel.bloch_batch": (("states",), lambda s, r: _out_of_place(s, r)),
    "accel.product_cos2": (("x", "y"), lambda x, y, r: _out_of_place(x, y, r)),
    "embeddings.embed_batch": ((), lambda r: {"states": len(r)}),
    "analysis.concentration_scan": (("pairs",), lambda p, r: {"pairs": int(p)}),
    "kernels.gram": (("xs", "estimator"), _gram_entries),
    "kernels.kernel_matrix": ((), lambda r: {"entries": int(r.size)}),
    "kernels.GramMatrix.to_csv": (("path",), _file_bytes),
    "estimators.loschmidt_record": (("shots",), _shots),
    "estimators.swap_record": (("shots",), _shots),
    "estimators.projected_estimate_from_bloch": (
        ("shots", "strategy"),
        lambda shots, strategy, r: _shots(shots, r, strategy),
    ),
    "learning.krr_fit": ((), lambda r: {"condition_max": r.condition_number}),
    "learning.svm_fit": ((), lambda r: {"iterations": r.iterations, "converged": int(r.converged)}),
    "datasets.save_csv": (("path",), _file_bytes),
    "cli.write_csv": (("path",), _file_bytes),
}


def _argument_getter(fn, names):
    """Fetch named arguments from (args, kwargs) without binding the signature."""
    params = inspect.signature(getattr(fn, "py_func", fn)).parameters
    slots = [
        (i, p.name, p.default)
        for name in names
        for i, p in enumerate(params.values())
        if p.name == name
    ]
    if len(slots) != len(names):
        raise ValueError(f"{fn.__qualname__} lacks one of the parameters {names}")

    def get(args, kwargs):
        return [args[i] if i < len(args) else kwargs.get(n, d) for i, n, d in slots]

    return get


# counts combined by max over calls; every other count is summed
MAX_COUNTS = {"condition_max"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        names, counter = COUNTERS.get(name, ((), None))
        get_args = _argument_getter(fn, names) if counter else None
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [next(self._ids), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(*get_args(args, kwargs), result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(package) -> Tracer:
    """Wrap the public functions of ``package``'s modules in every namespace."""
    tracer = Tracer()
    modules = [package] + [getattr(package, m) for m in MODULES]
    wrapped: dict[int, object] = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            primitive = short == "_accel" and attr in package._accel.IMPLEMENTATIONS["numpy"]
            defined_here = isinstance(value, types.FunctionType) and value.__module__ == mod.__name__
            if primitive or defined_here:
                # metric names start with a letter, so _accel spans are "accel.*"
                wrapped[id(value)] = tracer.wrap(value, f"{short.lstrip('_')}.{attr}")
    gm = package.kernels.GramMatrix
    gm.to_csv = tracer.wrap(gm.to_csv, "kernels.GramMatrix.to_csv")
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            replacement = wrapped.get(id(value))
            if replacement is not None:
                setattr(mod, attr, replacement)
    return tracer


def aggregate(paths) -> dict[str, float]:
    """Flat per-layer table from span files, merged over the files:
    ``<name>.s`` (self time), ``<name>.calls`` and ``<name>.<count>`` for
    every recorded count."""
    table: dict[str, float] = {}
    for path in paths:
        spans = {}
        children: dict[int, list[tuple[float, float]]] = {}
        with open(path) as fh:
            for line in fh:
                sid, parent, name, t0, t1, counts = json.loads(line)
                spans[sid] = (name, t0, t1, counts)
                if parent is not None:
                    children.setdefault(parent, []).append((t0, t1))
        for sid, (name, t0, t1, counts) in spans.items():
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            table[f"{name}.s"] = table.get(f"{name}.s", 0.0) + (t1 - t0 - covered)
            table[f"{name}.calls"] = table.get(f"{name}.calls", 0) + 1
            for key, value in (counts or {}).items():
                full = f"{name}.{key}"
                if key in MAX_COUNTS:
                    table[full] = max(table.get(full, value), value)
                else:
                    table[full] = table.get(full, 0) + value
    return table
