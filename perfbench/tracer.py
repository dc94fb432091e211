"""Per-layer tracing of `pcgl`, installed from outside the program.

The tracer wraps the public functions of every layer module of `pcgl`
(plus a few methods and private helpers named below) and rebinds each
wrapper under every name that refers to the original in any `pcgl`
module, so that names taken in with `from .x import f` are traced too.

A wrapped call records a span: name, start, end, parent span and run id.
Spans stay in memory (one typed array per field) and are written out
once, at the end.  Self time is a span's duration minus the time its
direct child spans cover.  Hot leaf calls are counted but get no span,
so the span store stays bounded.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("qpoly", "pbracket", "grading", "linalg", "ideals", "cgl", "cauchon", "strata", "cli")

# Counted, but no span: these run millions of times on the 3x3 tower.
COUNT_ONLY = (
    "qpoly.Polynomial.__init__",
    "qpoly.Polynomial.__mul__",
    "qpoly.Polynomial.__add__",
    "qpoly.Polynomial.__sub__",
    "qpoly.Monomial.make",
    "qpoly.grevlex_key",
    "grading.monomial_weight",
    "ideals.leading_monomial",
)

# Spans beyond the public module-level functions.
EXTRA_SPANS = (
    "ideals.Ideal.groebner",
    "ideals.Ideal.member",
    "ideals.Ideal.normal_form",
    "cauchon._normal_atoms",
    "cauchon._try_denominator",
)


def _metric_stem(qualname: str) -> str:
    """`ideals.Ideal.groebner` stays; `qpoly.Polynomial.__init__` -> `qpoly.Polynomial.init`."""
    return ".".join(part.strip("_") if part.startswith("__") else part
                    for part in qualname.split("."))


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.found = [0]   # d_element_search results that are not None
        self.normal_ok = [0]  # is_poisson_normal certificates with ok
        self.cells = [0]   # rows x columns of the systems given to solve_affine
        self.run_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _counter(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, fn, name, after=None):
        nid = self._name_id(name)
        names, parents, runs, outer = self.span_name, self.span_parent, self.span_run, self.span_outer
        starts, ends, stack, depth = self.span_start, self.span_end, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        def spanned(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                depth[nid] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return spanned

    def _after_hooks(self):
        def d_found(args, kwargs, result):
            self.found[0] += result is not None

        def normal_ok(args, kwargs, result):
            self.normal_ok[0] += bool(result.ok)

        def cells(args, kwargs, result):
            A = args[0] if args else kwargs.get("A", ())
            if A:
                self.cells[0] += len(A) * len(A[0])

        return {
            "cauchon.d_element_search": d_found,
            "pbracket.is_poisson_normal": normal_ok,
            "linalg.solve_affine": cells,
        }

    # -- installation ---------------------------------------------------

    def _targets(self, pkg):
        """(qualified name, owner class or None, attribute, original) per target."""
        out = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{pkg.__name__}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    out.append((f"{layer}.{attr}", None, attr, obj))
            for qual in COUNT_ONLY + EXTRA_SPANS:
                lay, *path = qual.split(".")
                if lay != layer:
                    continue
                if len(path) == 1:
                    obj = vars(mod).get(path[0])
                    if inspect.isfunction(obj) and not any(t[0] == qual for t in out):
                        out.append((qual, None, path[0], obj))
                else:
                    cls = vars(mod).get(path[0])
                    if inspect.isclass(cls) and path[1] in vars(cls):
                        out.append((qual, cls, path[1], vars(cls)[path[1]]))
        return out

    def install(self, pkg) -> None:
        """Wrap the targets of the already imported package `pkg`."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == pkg.__name__ or n.startswith(pkg.__name__ + "."))]
        hooks = self._after_hooks()
        for qual, cls, attr, orig in self._targets(pkg):
            fn = orig.__func__ if isinstance(orig, classmethod) else orig
            stem = _metric_stem(qual)
            if qual in COUNT_ONLY:
                wrapper = self._counter(fn, stem)
            else:
                wrapper = self._spanner(fn, stem, hooks.get(qual))
            if cls is not None:
                setattr(cls, attr, classmethod(wrapper) if isinstance(orig, classmethod) else wrapper)
                self._restore.append((cls, attr, orig))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self_s, total_s (outermost spans only)."""
        n = len(self.span_name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        child = [0.0] * n
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                child[p] += ends[sid] - starts[sid]
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        by_id = [stats[name] for name in self.names]
        for sid in range(n):
            s = by_id[names[sid]]
            dur = ends[sid] - starts[sid]
            s["calls"] += 1
            s["self_s"] += dur - child[sid]
            if self.span_outer[sid]:
                s["total_s"] += dur
        for name, cell in self.counts.items():
            stats[name] = {"calls": cell[0], "self_s": 0.0, "total_s": 0.0}
        return stats

    def groebner_hits(self) -> tuple[int, int]:
        """(calls served from the per-Ideal cache, all calls) of Ideal.groebner:
        a call is served from the cache when it made no buchberger call."""
        g = self._ids.get("ideals.Ideal.groebner")
        b = self._ids.get("ideals.buchberger")
        if g is None:
            return 0, 0
        names, parents = self.span_name, self.span_parent
        calls = sum(1 for nid in names if nid == g)
        computed = {parents[sid] for sid in range(len(names))
                    if names[sid] == b and parents[sid] >= 0 and names[parents[sid]] == g}
        return calls - len(computed), calls

    def per_layer(self, names, stats, round_s: float, stdout_bytes: int) -> dict[str, float]:
        """The per-layer metrics `names`, from `aggregate()` of a round of
        `round_s` seconds.  Times are shares of the round's wall time: the
        machine's speed drifts, and a share moves with it much less than
        seconds do.  `total_share` counts only the outermost span of a name,
        so recursion is not counted twice."""
        empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        hits, gcalls = self.groebner_hits()
        d_calls = stats.get("cauchon.d_element_search", empty)["calls"]
        n_calls = stats.get("pbracket.is_poisson_normal", empty)["calls"]
        special = {
            "cauchon.d_element_search.found_ratio": self.found[0] / d_calls if d_calls else 0.0,
            "pbracket.is_poisson_normal.ok_ratio": self.normal_ok[0] / n_calls if n_calls else 0.0,
            "linalg.solve_affine.cells": self.cells[0],
            "ideals.Ideal.groebner.hit_ratio": hits / gcalls if gcalls else 0.0,
            "cli.stdout_bytes": stdout_bytes,
            "trace.spans": len(self.span_name),
        }
        for layer in LAYERS:
            special[f"{layer}.self_share"] = sum(
                s["self_s"] for name, s in stats.items() if name.split(".", 1)[0] == layer) / round_s
        out = {}
        for metric in names:
            if metric in special:
                out[metric] = special[metric]
                continue
            stem, stat = metric.rsplit(".", 1)
            s = stats.get(stem, empty)
            if stat == "calls":
                out[metric] = s["calls"]
            else:
                out[metric] = s[stat.replace("_share", "_s")] / round_s
        return out

    def write_spans(self, path: Path) -> None:
        """One line per span: id, name, start, end (microseconds from the
        first span), parent id (-1 at the top) and run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\trun\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.names[self.span_name[sid]]}\t"
                    f"{(self.span_start[sid] - t0) * 1e6:.1f}\t{(self.span_end[sid] - t0) * 1e6:.1f}\t"
                    f"{self.span_parent[sid]}\t{self.span_run[sid]}\n"
                )
