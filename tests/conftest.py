import argparse
import re
from fractions import Fraction

import pytest

from axc import Context, Form, Poly

_CRITERIA = {
    1: "exact identity suite (n=1..4, both signatures, 100 samples)",
    2: "direct-sum decompositions, membership, projector idempotence",
    3: "star duality: closed->coclosed, antiexact->anticoexact",
    4: "Maxwell: plane desk example + 100 random Minkowski currents",
    5: "Kalb-Ramond randomized solves + coupled Maxwell check",
    6: "Dirac: vacuum classifier, sourced solver, massive verifier",
    7: "oscillator spectrum +1/-1 per middle grade, 100 samples",
    8: "homotopy operator vs 64-node Gauss-Legendre quadrature",
    9: "CLI contract: parse/print fixed point + deterministic identities",
}
_criterion_outcomes = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match and report.when == "call":
        _criterion_outcomes[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        outcome = _criterion_outcomes.get(num)
        if outcome is None:
            continue
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict} - {_CRITERIA[num]}")


@pytest.fixture
def e2():
    return Context.euclidean(2)


@pytest.fixture
def e3():
    return Context.euclidean(3)


@pytest.fixture
def m4():
    return Context.minkowski(4)


def B(ctx, idx, poly=None):
    """The basis form poly * dx^idx, 1 when poly is None."""
    return Form.basis(ctx, idx, poly)


def var(ctx, i):
    """The centered coordinate y_i as a polynomial on ctx."""
    return Poly.variable(ctx.n, i)


def all_contexts(max_dim=4):
    out = []
    for n in range(1, max_dim + 1):
        out.append(Context.euclidean(n))
        out.append(Context.minkowski(n))
    return out


def oracle_contexts(max_dim=6):
    """Euclidean, Minkowski and an alternating (-, +, -, ...) signature per n."""
    out = all_contexts(max_dim)
    for n in range(1, max_dim + 1):
        out.append(Context(n, (0,) * n, tuple(-1 if i % 2 == 0 else 1 for i in range(n))))
    return out


def _cli_subparsers() -> dict:
    """The ``axc`` subcommand parsers by name, read from the CLI's own parser."""
    from axc.cli import _build_parser

    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def cli_subcommands_with(dest: str) -> list[str]:
    """The ``axc`` subcommands whose parser has an option stored in ``dest``."""
    return [name for name, sub in _cli_subparsers().items()
            if any(a.dest == dest for a in sub._actions)]


def cli_choices(command: str, dest: str) -> list[str]:
    """The choices of one option of one ``axc`` subcommand."""
    option = next(a for a in _cli_subparsers()[command]._actions if a.dest == dest)
    return list(option.choices)


def frac(s):
    return Fraction(s)
