"""The three benchmark workloads: item schedules, inputs, runners, checkers.

A workload turns a seed into one *pass*: a fixed list of items whose shapes
(pipeline, chart, degree, command) are the same for every seed, while the
coefficients come from ``axc.randforms`` seeded by (seed, item index).  Fixed
shapes keep the cost of a pass steady from seed to seed; seeded coefficients
keep the inputs from being tuned to one draw.

Each workload offers:

* ``setup(seed, workdir)`` builds ``self.items``;
* ``prepare(item, in_process)`` returns a zero-argument callable, the part
  that is timed;
* ``check(item, result)`` decides, exactly, whether the result is right;
* ``corrupted(item, result)`` lists wrong results the checker must reject.

Library functions are looked up through their modules at call time, so a
traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from axc import cli, clifford, hodge, homotopy, identities, randforms, solvers, textio
from axc.errors import AxcError
from axc.forms import Form
from axc.polyring import Context, Poly


def _ctx(chart: str, center=None) -> Context:
    n = int(chart[1:])
    make = Context.euclidean if chart[0] == "E" else Context.minkowski
    return make(n, center)


def _resample(rng: random.Random, make, size: int, size_of=Form.max_coeff_degree) -> Form:
    """Draw from ``make(rng)`` until the form is nonzero and ``size_of`` it
    (by default its coefficient degree) is exactly ``size``.  The rng is
    seeded, so the draw is too."""
    for _ in range(500):
        form = make(rng)
        if not form.is_zero and size_of(form) == size:
            return form
    raise RuntimeError(f"no sample of size {size} in 500 draws")


# -- fields ----------------------------------------------------------------

def _maxwell_source(ctx, rng, degree):
    # A conserved current: delta of a random 2-form.  The solver's system has
    # degree bound deg(d h j) + 2, so that degree is the one held fixed.
    return _resample(rng, lambda r: hodge.codifferential(
        randforms.random_homogeneous(ctx, r, 2, degree + 1)), degree,
        lambda j: max(homotopy.cohomotopy_h(j).d().max_coeff_degree(), 0))


def _magnetic_source(ctx, rng, degree):
    # a closed 3-form: d of a random 2-form
    return _resample(rng, lambda r: randforms.random_homogeneous(ctx, r, 2, degree + 1).d(), degree)


def _kalb_ramond_source(ctx, rng, degree):
    return _resample(rng, lambda r: hodge.codifferential(
        randforms.random_homogeneous(ctx, r, 3, degree + 1)), degree)


def _dirac_source(k):
    return lambda ctx, rng, degree: _resample(
        rng, lambda r: randforms.random_homogeneous(ctx, r, k, degree), degree)


# (pipeline, chart, source builder, source coefficient degree, items per pass).
# Maxwell on Minkowski 4-space is the largest share, at degree bounds 2, 3
# and 4.  The counts put the median inside the bound-3 cluster of item times
# and the 90th percentile inside the bound-4 cluster.
FIELDS_MIX = [
    ("maxwell", "M4", _maxwell_source, 0, 10),
    ("maxwell", "M4", _maxwell_source, 1, 30),
    ("maxwell", "M4", _maxwell_source, 2, 16),
    ("maxwell", "E5", _maxwell_source, 0, 4),
    ("maxwell", "E5", _maxwell_source, 1, 2),
    ("magnetic", "E3", _magnetic_source, 1, 4),
    ("magnetic", "M4", _magnetic_source, 1, 6),
    ("kalb_ramond", "M4", _kalb_ramond_source, 1, 8),
    ("dirac1", "E3", _dirac_source(1), 2, 6),
    ("dirac2", "E3", _dirac_source(2), 2, 6),
    ("dirac1", "M4", _dirac_source(2), 1, 4),
    ("dirac2", "M4", _dirac_source(1), 1, 4),
]

_PIPELINES = {
    "maxwell": lambda src: solvers.maxwell_solve(src),
    "magnetic": lambda src: solvers.maxwell_solve_magnetic(src),
    "kalb_ramond": lambda src: solvers.kalb_ramond_solve(src),
    "dirac1": lambda src: solvers.dirac_source_solve(src, 1),
    "dirac2": lambda src: solvers.dirac_source_solve(src, 2),
}


class Fields:
    """Item = one field-equation solve; correct iff the report is certified."""

    name = "fields"

    def setup(self, seed: int, workdir: str):
        self.items = []
        for pipeline, chart, build, degree, count in FIELDS_MIX:
            for _ in range(count):
                rng = randforms.sample_rng(seed, len(self.items))
                self.items.append((pipeline, build(_ctx(chart), rng, degree)))
        random.Random(seed).shuffle(self.items)

    def warm_up(self):
        pipeline, source = min(self.items, key=lambda it: (it[1].ctx.n, it[1].max_coeff_degree()))
        _PIPELINES[pipeline](source)

    def prepare(self, item, in_process: bool):
        pipeline, source = item
        return lambda: _PIPELINES[pipeline](source)

    def check(self, item, result) -> bool:
        return isinstance(result, solvers.SolveReport) and result.success is True

    def corrupted(self, item, result):
        bad = dict(result.residuals)
        name = next(iter(bad))
        bad[name] = bad[name] + Form.scalar(item[1].ctx, 1)
        return [solvers.SolveReport(result.outputs, bad, result.gauge_notes), None]


# -- identities ------------------------------------------------------------

IDENTITY_DIMS = range(1, 7)
IDENTITY_SAMPLES = 12   # samples per (check, dimension, signature) in a pass
IDENTITY_MAX_DEGREE = 3
# Coefficient terms per sample, cycled over the samples of each check.  The
# cost of a check grows with the terms of its sample, so holding the mix of
# sizes fixed keeps the cost of a pass from drifting with the seed.
IDENTITY_TERMS = (1, 2, 2, 3, 3, 4)


def _terms(form: Form) -> int:
    return sum(len(p.terms) for row in form.components.values() for p in row.values())


class Identities:
    """Item = one identity check on one seeded sample; correct iff it returns True."""

    name = "identities"

    def setup(self, seed: int, workdir: str):
        self.items = []
        names = list(identities.CHECKS)
        for n in IDENTITY_DIMS:
            for ctx in (Context.euclidean(n), Context.minkowski(n)):
                for s in range(IDENTITY_SAMPLES):
                    for name in names:
                        rng = randforms.sample_rng(seed, len(self.items))
                        form = _resample(
                            rng, lambda r: randforms.random_form(ctx, r, IDENTITY_MAX_DEGREE),
                            IDENTITY_TERMS[s % len(IDENTITY_TERMS)], _terms)
                        # a seed for the draws the check itself makes
                        self.items.append((name, ctx, form, rng.getrandbits(64)))

    def warm_up(self):
        for item in self.items[:len(identities.CHECKS)]:
            self.prepare(item, True)()

    def prepare(self, item, in_process: bool):
        name, ctx, form, check_seed = item
        rng = random.Random(check_seed)
        check = identities.CHECKS[name]
        return lambda: check(ctx, form, rng)

    def check(self, item, result) -> bool:
        return result is True

    def corrupted(self, item, result):
        return [False, None]


# -- cli-offcenter ---------------------------------------------------------

# Star centers are drawn from these off-center rationals.  They share one
# denominator because the cost of re-basing grows with the size of the
# center's denominator; mixing denominators would make the cost of a pass
# depend on the seed.
CENTERS = [Fraction(k, 7) for k in (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)]

# (command argv, chart, coefficient degree, input kind, input format).
# "dense": every monomial up to the degree on one basis component;
# "exact": d of a dense form one degree higher, so it is closed and exact.
CLI_SHAPES = [
    ("apply --op d", "E2", 7, "dense", "text"),
    ("apply --op H --json", "M2", 7, "dense", "text"),
    ("apply --op h", "E3", 4, "dense", "json"),
    ("apply --op star --json", "M3", 4, "dense", "text"),
    ("apply --op laplace", "E2", 6, "dense", "text"),
    ("apply --op d --json", "M4", 4, "dense", "json"),
    ("apply --op H", "E2", 11, "dense", "text"),
    ("decompose --mode exact", "E2", 10, "dense", "text"),
    ("decompose --mode coexact --json", "E3", 4, "dense", "text"),
    ("decompose --mode exact --json", "M3", 4, "dense", "json"),
    ("decompose --mode coexact", "M2", 6, "dense", "text"),
    ("decompose --mode exact", "E3", 6, "dense", "text"),
    ("member --space E", "E3", 5, "exact", "text"),
    ("member --space A", "M2", 8, "dense", "text"),
    ("member --space C", "E4", 4, "dense", "text"),
    ("member --space Y", "M3", 4, "dense", "json"),
    ("potential", "E3", 4, "exact", "text"),
    ("potential --json", "M2", 10, "exact", "text"),
    ("potential", "M4", 3, "exact", "text"),
    ("potential", "E2", 8, "dense", "text"),
    ("member --space E", "M3", 3, "exact", "json"),
    ("apply --op star", "E4", 3, "dense", "text"),
]
CLI_ROUNDS = 5   # each shape appears this many times per pass, with fresh draws
# 22 shapes x 5 rounds = 110 items: the 90th percentile then falls among the
# 11th and 12th costliest items, inside the third-heaviest shape's cluster
# rather than on the boundary between two shapes (as it would with 100).

_APPLY = {
    "d": lambda w: w.d(),
    "H": lambda w: homotopy.homotopy_H(w),
    "h": lambda w: homotopy.cohomotopy_h(w),
    "star": lambda w: hodge.hodge_star(w),
    "laplace": lambda w: clifford.laplace_beltrami(w),
}
_SPACES = {"E": homotopy.SpaceTag.EXACT, "A": homotopy.SpaceTag.ANTIEXACT,
           "C": homotopy.SpaceTag.COEXACT, "Y": homotopy.SpaceTag.ANTICOEXACT}
_DECOMPOSE = {"exact": (homotopy.DecompositionMode.EXACT_ANTIEXACT, ("exact", "antiexact")),
              "coexact": (homotopy.DecompositionMode.COEXACT_ANTICOEXACT,
                          ("coexact", "anticoexact"))}


def _dense_poly(rng: random.Random, n: int, degree: int) -> Poly:
    return Poly(n, {e: randforms.random_rational(rng)
                    for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree})


def _cli_input(rng: random.Random, chart: str, degree: int, kind: str) -> Form:
    """A form in absolute coordinates (a chart centered at the origin)."""
    ctx = _ctx(chart)
    n = ctx.n
    if kind == "exact":
        k = rng.randint(0, n - 2)
        idx = tuple(sorted(rng.sample(range(1, n + 1), k)))
        return Form.basis(ctx, idx, _dense_poly(rng, n, degree + 1)).d()
    k = rng.randint(1, n - 1)
    idx = tuple(sorted(rng.sample(range(1, n + 1), k)))
    return Form.basis(ctx, idx, _dense_poly(rng, n, degree))


class CliItem:
    __slots__ = ("argv", "ctx", "text", "command", "expected", "verified")

    def __init__(self, argv, ctx, text, command):
        self.argv, self.ctx, self.text, self.command = argv, ctx, text, command
        self.expected = None    # (exit code, answer) from the library, computed once
        self.verified = set()   # (exit code, stdout) pairs already checked exactly


def _chart_flags(ctx: Context) -> list[str]:
    if all(s == 1 for s in ctx.signature):
        flags = ["--dim", str(ctx.n)]
    else:
        flags = ["--metric", "".join("+" if s == 1 else "-" for s in ctx.signature)]
    # "=" keeps argparse from reading a leading minus sign as an option
    return flags + ["--center=" + ",".join(str(c) for c in ctx.center)]


class CliOffcenter:
    """Item = one fresh ``python -m axc.cli`` process on an off-center chart.

    Correct iff the exit code is the one the library's answer implies and
    stdout parses back (``load_form_text``) to the library's form.
    """

    name = "cli-offcenter"

    def __init__(self, env: dict):
        self.env = env
        self.child_rss_kb = 0
        self.chars_out = 0

    def setup(self, seed: int, workdir: str):
        self.items = []
        for _ in range(CLI_ROUNDS):
            for command, chart, degree, kind, fmt in CLI_SHAPES:
                rng = randforms.sample_rng(seed, len(self.items))
                absolute = _cli_input(rng, chart, degree, kind)
                ctx = _ctx(chart, rng.sample(CENTERS, int(chart[1:])))
                path = os.path.join(workdir, f"in{len(self.items)}.txt")
                if fmt == "json":
                    # coordinates in the JSON body are absolute; only the header
                    # names the off-center chart
                    doc = textio.form_to_json(absolute)
                    doc["center"] = [str(c) for c in ctx.center]
                    text = json.dumps(doc)
                else:
                    text = textio.print_form(absolute)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                argv = _chart_flags(ctx) + command.split() + ["--in", path]
                self.items.append(CliItem(argv, ctx, text, command.split()))
        self.stdout_path = os.path.join(workdir, "stdout")
        self.stderr_path = os.path.join(workdir, "stderr")

    def warm_up(self):
        light = min(self.items, key=lambda it: len(it.text))
        self.prepare(light, False)()

    def prepare(self, item: CliItem, in_process: bool):
        return (lambda: self._in_process(item)) if in_process else (lambda: self._spawn(item))

    def _spawn(self, item: CliItem):
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "axc.cli", *item.argv],
                                    stdout=out, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        with open(self.stdout_path, encoding="utf-8") as fh:
            return proc.returncode, fh.read()

    def _in_process(self, item: CliItem):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(item.argv)
            except SystemExit as exc:
                code = exc.code
        self.chars_out += len(out.getvalue())
        return code, out.getvalue()

    def _expected(self, item: CliItem):
        """(exit code, answer) the library gives for the item's command."""
        omega = textio.load_form_text(item.text, item.ctx)
        cmd = item.command
        try:
            if cmd[0] == "apply":
                return 0, _APPLY[cmd[2]](omega)
            if cmd[0] == "decompose":
                mode, names = _DECOMPOSE[cmd[2]]
                dec = homotopy.decompose(omega, mode)
                return 0, {names[0]: dec.first, names[1]: dec.second}
            if cmd[0] == "member":
                verdict = homotopy.membership(omega, _SPACES[cmd[2]])
                return (0 if verdict else 1), verdict
            return 0, homotopy.potential(omega)
        except AxcError:
            return 2, None

    def check(self, item: CliItem, result) -> bool:
        if result in item.verified:
            return True
        if self._check(item, result):
            item.verified.add(result)
            return True
        return False

    def _check(self, item: CliItem, result) -> bool:
        code, stdout = result
        if item.expected is None:
            item.expected = self._expected(item)
        want_code, answer = item.expected
        if code != want_code:
            return False
        if answer is None:
            return stdout == ""
        cmd = item.command
        if cmd[0] == "member":
            return stdout == ("true\n" if answer else "false\n")
        if cmd[0] == "decompose":
            if "--json" in cmd:
                parts = {k: json.dumps(v) for k, v in json.loads(stdout).items()}
            else:
                parts = dict(line.split(" = ", 1) for line in stdout.splitlines())
            return (parts.keys() == answer.keys()
                    and all(textio.load_form_text(parts[k], item.ctx) == answer[k] for k in answer))
        return textio.load_form_text(stdout, item.ctx) == answer

    def corrupted(self, item: CliItem, result):
        code, stdout = result
        # a wrong exit code, and a wrong answer: one more constant term
        return [(1 if code == 0 else 0, stdout), (code, stdout.rstrip("\n") + " + (1)\n")]


WORKLOADS = ("fields", "identities", "cli-offcenter")


def make(name: str, child_env: dict):
    """The named workload; ``child_env`` is the environment of any child
    interpreter it starts."""
    if name == "fields":
        return Fields()
    if name == "identities":
        return Identities()
    return CliOffcenter(child_env)
