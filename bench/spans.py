"""Span recorder that times the axc layers from outside the package.

``install`` wraps public functions and methods of the ``axc`` modules in
place; an untraced run never calls it.  A wrapped call records nothing unless
an item is running (``Recorder.item`` is set), so input generation and output
checks stay out of the trace.

Every wrapped call opens a span: name, start, end, parent span and item id.
Self time is a span's duration minus the time its child spans cover.  Spans
of the coarse layers are kept in memory and written out when the run ends.
``polyring`` calls number in the millions per pass, so they are folded into
per-name totals and charged to their parent's child time instead of being
kept one by one.  A ``polyring`` call made inside another ``polyring`` call
(the products inside ``Poly.shift``) is part of the outer call and opens no
span of its own.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from array import array
from time import perf_counter_ns


class Recorder:
    def __init__(self):
        self.item = None                # id of the running item; None = not recording
        self.names: list[str] = []
        self.keep: list[bool] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = {}
        self.watched: set[int] = set()  # names whose time each open ancestor sums
        self.polyring: set[int] = set()
        # open frames: [name id, start ns, child ns, span index, watched descendant ns]
        self.stack: list[list] = []
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("q")
        self.s_item = array("q")

    def name_id(self, name: str, keep: bool = True) -> int:
        if name not in self.names:
            self.names.append(name)
            self.keep.append(keep)
            self.calls.append(0)
            self.self_ns.append(0)
            if name.startswith("polyring."):
                self.polyring.add(len(self.names) - 1)
        return self.names.index(name)

    def add(self, key: str, value: int):
        self.counts[key] = self.counts.get(key, 0) + value

    def enter(self, sid: int) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        idx = parent
        if self.keep[sid]:
            idx = len(self.s_name)
            self.s_name.append(sid)
            self.s_start.append(0)
            self.s_end.append(0)
            self.s_parent.append(parent)
            self.s_item.append(self.item)
        frame = [sid, 0, 0, idx, None]
        self.stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def exit(self, frame: list) -> int:
        end = perf_counter_ns()
        self.stack.pop()
        sid, start, child, idx, _ = frame
        dur = end - start
        self.calls[sid] += 1
        self.self_ns[sid] += dur - child
        if self.keep[sid]:
            self.s_start[idx] = start
            self.s_end[idx] = end
        if self.stack:
            self.stack[-1][2] += dur
            if sid in self.watched:
                for f in self.stack:
                    f[4] = f[4] or {}
                    f[4][sid] = f[4].get(sid, 0) + dur
        return dur

    def stat(self, name: str) -> tuple[int, int]:
        """(calls, self ns) of one span name; zeros when never wrapped."""
        if name not in self.names:
            return 0, 0
        i = self.names.index(name)
        return self.calls[i], self.self_ns[i]

    def write(self, path):
        """Write the kept spans (columns, start/end in ns) and the folded totals."""
        doc = {
            "names": self.names,
            "name": list(self.s_name),
            "start_ns": list(self.s_start),
            "end_ns": list(self.s_end),
            "parent": list(self.s_parent),
            "item": list(self.s_item),
            "folded": {n: {"calls": c, "self_ns": s}
                       for n, k, c, s in zip(self.names, self.keep, self.calls, self.self_ns)
                       if not k},
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(rec: Recorder, span: str, orig, keep: bool, after=None):
    sid = rec.name_id(span, keep)
    inner = sid in rec.polyring

    def traced(*args, **kwargs):
        if rec.item is None or (inner and rec.stack and rec.stack[-1][0] in rec.polyring):
            return orig(*args, **kwargs)
        frame = rec.enter(sid)
        try:
            result = orig(*args, **kwargs)
        finally:
            dur = rec.exit(frame)
        if after is not None:
            after(frame, dur, args, kwargs, result)
        return result

    return traced


# -- work counts, taken after the wrapped call returns ---------------------

def _after_hooks(rec: Recorder) -> dict:
    def mul(frame, dur, args, kwargs, result):
        a, b = args
        if hasattr(b, "terms"):
            rec.add("polyring.mul.term_pairs", len(a.terms) * len(b.terms))

    def shift(frame, dur, args, kwargs, result):
        rec.add("polyring.shift.terms_in", len(args[0].terms))

    homotopy_H = rec.name_id("homotopy.H")

    def form_add(frame, dur, args, kwargs, result):
        if rec.stack and rec.stack[-1][0] == homotopy_H:
            rec.add("homotopy.H.form_adds", 1)

    solve_sparse = rec.name_id("linsolve.solve_sparse")
    laplace_solve = rec.name_id("solvers.laplace_solve")
    rec.watched.update((solve_sparse, laplace_solve))

    def laplace(frame, dur, args, kwargs, result):
        rec.add("solvers.laplace_solve.assembly_ns", dur - (frame[4] or {}).get(solve_sparse, 0))
        rhs, k = args[0], args[1]
        bound = kwargs.get("max_degree", args[3] if len(args) > 3 else None)
        if bound is None:
            # the solver's documented basis: coefficient degree <= deg(rhs) + 2
            bound = max(rhs.max_coeff_degree(), 0) + 2
        n = rhs.ctx.n
        if 0 <= k <= n:
            rec.add("solvers.laplace_solve.unknowns", math.comb(n, k) * math.comb(n + bound, n))

    def pipeline(frame, dur, args, kwargs, result):
        rec.add("solvers.pipeline.non_laplace_ns", dur - (frame[4] or {}).get(laplace_solve, 0))

    def sparse(frame, dur, args, kwargs, result):
        rows = args[0]
        rec.add("linsolve.rows", len(rows))
        rec.add("linsolve.nonzeros", sum(len(r) for r in rows))
        rec.add("linsolve.solution_nonzeros", len(result))

    return {"polyring.mul": mul, "polyring.shift": shift, "forms.add": form_add,
            "solvers.laplace_solve": laplace, "solvers.pipeline": pipeline,
            "linsolve.solve_sparse": sparse}


# (span name, module, attribute path, kept as individual spans)
TARGETS = [
    ("polyring.mul", "axc.polyring", "Poly.__mul__", False),
    ("polyring.mul", "axc.polyring", "Poly.__rmul__", False),
    ("polyring.add", "axc.polyring", "Poly.__add__", False),
    ("polyring.partial", "axc.polyring", "Poly.partial", False),
    ("polyring.shift", "axc.polyring", "Poly.shift", True),
    ("forms.d", "axc.forms", "Form.d", True),
    ("forms.wedge", "axc.forms", "Form.wedge", True),
    ("forms.add", "axc.forms", "Form.__add__", True),
    ("forms.interior", "axc.forms", "interior", True),
    ("hodge.star", "axc.hodge", "hodge_star", True),
    ("hodge.star_inv", "axc.hodge", "hodge_star_inv", True),
    ("hodge.codifferential", "axc.hodge", "codifferential", True),
    ("homotopy.H", "axc.homotopy", "homotopy_H", True),
    ("homotopy.h", "axc.homotopy", "cohomotopy_h", True),
    ("homotopy.decompose", "axc.homotopy", "decompose", True),
    ("homotopy.membership", "axc.homotopy", "membership", True),
    ("clifford.apply_operator", "axc.clifford", "apply_operator", True),
    ("clifford.laplace_beltrami", "axc.clifford", "laplace_beltrami", True),
    ("solvers.laplace_solve", "axc.solvers", "laplace_solve", True),
    ("solvers.pipeline", "axc.solvers", "maxwell_solve", True),
    ("solvers.pipeline", "axc.solvers", "maxwell_solve_magnetic", True),
    ("solvers.pipeline", "axc.solvers", "kalb_ramond_solve", True),
    ("solvers.pipeline", "axc.solvers", "dirac_source_solve", True),
    ("linsolve.solve_sparse", "axc.linsolve", "solve_sparse", True),
    ("textio.parse", "axc.textio", "parse_form", True),
    ("textio.print", "axc.textio", "print_form", True),
    ("textio.json_out", "axc.textio", "form_to_json", True),
    ("textio.json_in", "axc.textio", "form_from_json", True),
    ("cli.main", "axc.cli", "main", True),
]


def _rebind(modules, orig, wrapped):
    """Replace ``orig`` wherever a module bound it by name, and in
    module-level dicts such as the CLI's operator table."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is orig:
                        value[dkey] = wrapped


def install(rec: Recorder):
    """Wrap every target in place, in every axc module that bound it."""
    for name in ("axc", "axc.cli", "axc.identities"):
        importlib.import_module(name)
    modules = [m for name, m in sys.modules.items() if name == "axc" or name.startswith("axc.")]
    hooks = _after_hooks(rec)
    for span, modname, path, keep in TARGETS:
        module = sys.modules[modname]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, _wrap(rec, span, vars(owner)[attr], keep, hooks.get(span)))
        else:
            orig = getattr(module, attr)
            _rebind(modules, orig, _wrap(rec, span, orig, keep, hooks.get(span)))
    checks = sys.modules["axc.identities"].CHECKS
    for name, check in list(checks.items()):
        checks[name] = _wrap(rec, "identities.check", check, True)


PER_LAYER_SPANS = [
    "polyring.mul", "polyring.add", "polyring.partial", "polyring.shift",
    "forms.d", "forms.wedge", "forms.interior", "forms.add",
    "hodge.star", "hodge.star_inv", "hodge.codifferential",
    "homotopy.H", "homotopy.h", "homotopy.decompose", "homotopy.membership",
    "clifford.apply_operator",
    "linsolve.solve_sparse",
    "textio.parse", "textio.print", "textio.json_out", "textio.json_in",
    "cli.main",
    "identities.check",
]


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    out = {}
    for span in PER_LAYER_SPANS:
        calls, self_ns = rec.stat(span)
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.self_s"] = (self_ns / 1e9, "s")
    c = rec.counts.get
    out["polyring.mul.term_pairs"] = (c("polyring.mul.term_pairs", 0), "count")
    out["polyring.shift.terms_in"] = (c("polyring.shift.terms_in", 0), "count")
    out["homotopy.H.form_adds"] = (c("homotopy.H.form_adds", 0), "count")
    out["clifford.laplace_beltrami.calls"] = (rec.stat("clifford.laplace_beltrami")[0], "count")
    out["solvers.laplace_solve.calls"] = (rec.stat("solvers.laplace_solve")[0], "count")
    out["solvers.laplace_solve.assembly_s"] = (c("solvers.laplace_solve.assembly_ns", 0) / 1e9, "s")
    out["solvers.laplace_solve.unknowns"] = (c("solvers.laplace_solve.unknowns", 0), "count")
    out["solvers.pipeline.calls"] = (rec.stat("solvers.pipeline")[0], "count")
    out["solvers.pipeline.non_laplace_s"] = (c("solvers.pipeline.non_laplace_ns", 0) / 1e9, "s")
    out["linsolve.rows"] = (c("linsolve.rows", 0), "count")
    out["linsolve.nonzeros"] = (c("linsolve.nonzeros", 0), "count")
    unknowns = c("solvers.laplace_solve.unknowns", 0)
    out["linsolve.useful_share"] = (
        c("linsolve.solution_nonzeros", 0) / unknowns if unknowns else 0.0, "ratio")
    out["textio.chars_out"] = (c("textio.chars_out", 0), "count")
    return out
