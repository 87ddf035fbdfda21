"""`axc` command-line front end.

Exit codes: 0 success / predicate true; 1 predicate false or not a solution;
2 input error; 3 solver inconsistency.

The ``dirac``, ``antidirac``, ``laplace`` and ``hbar`` rows of ``apply --op`` come
from :class:`OperatorTag`; ``--in`` and ``--json`` are declared once, as parent parsers,
and the ``--in`` form is read once, before the subcommand runs.
"""

from __future__ import annotations

import argparse
import sys

from . import errors, identities, solvers
from .clifford import OperatorTag, apply_operator, oscillator_eigencheck
from .forms import Form
from .hodge import codifferential, hodge_star, hodge_star_inv
from .homotopy import (
    DecompositionMode,
    SpaceTag,
    cohomotopy_h,
    copotential,
    decompose,
    homotopy_H,
    membership,
    potential,
)
from .polyring import Context, _require_dimension
from .textio import form_to_json, load_form_text, parse_rational, print_form

_OPS = {
    "d": lambda w: w.d(),
    "delta": codifferential,
    "H": homotopy_H,
    "h": cohomotopy_h,
    "star": hodge_star,
    "star-inv": hodge_star_inv,
    "eta": lambda w: w.eta(),
    # each row reads the apply_operator global when called, so a rebinding is seen
    **{tag.value: lambda w, tag=tag: apply_operator(tag, w)
       for tag in OperatorTag if tag is not OperatorTag.ANTI_LAPLACE},
}

_POTENTIALS = {"potential": potential, "copotential": copotential}

# solve systems: (source, --approach) -> SolveReport; each row reads its solver
# when called, so that only `solve` loads the solvers module
_SYSTEMS = {
    "maxwell": lambda j, _: solvers.maxwell_solve(j),
    "maxwell-magnetic": lambda j, _: solvers.maxwell_solve_magnetic(j),
    "kalb-ramond": lambda J, _: solvers.kalb_ramond_solve(J),
    "dirac-source": lambda j, approach: solvers.dirac_source_solve(j, approach),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="axc", description="exact exterior-calculus kernel")
    parser.add_argument("--dim", type=int, default=None, help="chart dimension n (default 2)")
    parser.add_argument("--metric", default=None, help="signature string of + and -, e.g. +---")
    parser.add_argument("--center", default=None, help="comma-separated rationals for the star center")
    sub = parser.add_subparsers(dest="command", required=True)
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--in", dest="infile", required=True)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    both = [infile, as_json]

    p = sub.add_parser("apply", parents=both, help="apply an operator to a form")
    p.add_argument("--op", required=True, choices=sorted(_OPS))

    p = sub.add_parser("decompose", parents=both, help="split into (co)exact and anti(co)exact parts")
    p.add_argument("--mode", required=True, choices=[m.value for m in DecompositionMode])

    p = sub.add_parser("member", parents=[infile],
                       help="space membership predicate (exit code carries the verdict)")
    p.add_argument("--space", required=True, choices=sorted(t.value for t in SpaceTag))

    for name in _POTENTIALS:
        sub.add_parser(name, parents=both, help=f"canonical {name} of a closed/coclosed form")

    p = sub.add_parser("identities", help="run the randomized exact identity suite")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", parents=both, help="field-equation pipelines")
    p.add_argument("system", choices=list(_SYSTEMS))
    p.add_argument("--approach", type=int, choices=[1, 2], default=1)

    p = sub.add_parser("classify", help="classify candidate solutions")
    p.add_argument("what", choices=["vacuum-dirac"])
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--grade", type=int, default=None)

    sub.add_parser("oscillator", parents=[infile], help="cohomotopic oscillator eigencheck")
    return parser


def _context_from_args(args) -> Context:
    if args.metric is not None and args.dim not in (None, len(args.metric)):
        raise errors.DimensionMismatch(f"--dim {args.dim} disagrees with --metric {args.metric!r}")
    n = len(args.metric) if args.metric is not None else 2 if args.dim is None else args.dim
    _require_dimension(n)  # before "+" * n or (0,) * n is built
    metric = "+" * n if args.metric is None else args.metric
    if set(metric) - {"+", "-"}:
        raise errors.DimensionMismatch(f"bad metric string {metric!r}")
    sig = tuple(1 if c == "+" else -1 for c in metric)
    center = (0,) * n
    if args.center is not None:
        try:
            center = tuple(parse_rational(c) for c in args.center.split(","))
        except errors.AxcError as exc:
            raise errors.NonRationalLiteral(f"--center {args.center!r}: {exc}") from None
    return Context(n, center, sig)


def _read_form(path: str, ctx: Context) -> Form:
    with open(path, "r", encoding="utf-8") as fh:
        return load_form_text(fh.read(), ctx)


def _print_named(forms: dict, prefix: str = ""):
    for name, form in forms.items():
        print(f"{prefix}{name} = {print_form(form)}")


def _print_json(doc):
    """Write a JSON document, each form in it as :func:`form_to_json` writes it."""
    import json  # here, so that a text-only command never loads it

    print(json.dumps(doc, indent=2, sort_keys=True, default=form_to_json))


def _run(args) -> int:
    ctx = _context_from_args(args)
    omega = _read_form(args.infile, ctx) if "infile" in args else None

    unary = _OPS[args.op] if args.command == "apply" else _POTENTIALS.get(args.command)
    if unary is not None:
        if args.json:
            _print_json(unary(omega))
        else:
            print(print_form(unary(omega)))
        return 0

    if args.command == "decompose":
        dec = decompose(omega, DecompositionMode(args.mode))
        parts = {args.mode: dec.first, "anti" + args.mode: dec.second}
        if args.json:
            _print_json(parts)
        else:
            _print_named(parts)
        return 0

    if args.command == "member":
        verdict = membership(omega, SpaceTag(args.space))
        print("true" if verdict else "false")
        return 0 if verdict else 1

    if args.command == "identities":
        results = identities.run_identities(ctx, args.samples, args.max_degree, args.seed)
        width = max(len(name) for name in identities.CHECKS)
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            extra = "" if r.passed else f"  (sample {r.first_failure})"
            print(f"{status} {r.name.ljust(width)} samples={r.samples}{extra}")
        return 0 if all(r.passed for r in results) else 1

    if args.command == "solve":
        report = _SYSTEMS[args.system](omega, args.approach)
        if args.json:
            _print_json({"outputs": report.outputs, "residuals": report.residuals,
                         "gauge_notes": report.gauge_notes, "success": report.success})
        else:
            _print_named(report.outputs)
            _print_named(report.residuals, "residual ")
            for note in report.gauge_notes:
                print(f"gauge: {note}")
            print("status:", "success" if report.success else "FAILED " + ",".join(report.failed))
        return 0 if report.success else 1

    if args.command == "classify":
        result = solvers.vacuum_dirac_classify(_read_form(args.alpha, ctx),
                                               _read_form(args.beta, ctx), args.grade)
        print(result.kind.value)
        if result.kind is solvers.VacuumDiracKind.NOT_A_SOLUTION:
            _print_named({name: form for name, form in result.residuals.items()
                          if not form.is_zero}, "residual ")
            return 1
        return 0

    # oscillator: the subcommand is required, so argparse admits no other
    report = oscillator_eigencheck(omega)
    if report.is_eigenvector:
        print(f"eigenvector with eigenvalue {report.eigenvalue:+d}")
    else:
        print("not an eigenvector")
        _print_named({"coexact part": report.coexact_part,
                      "anticoexact part": report.anticoexact_part})
    return 0


def _join_center(argv: list[str]) -> list[str]:
    """Rewrite ``--center VALUE`` as ``--center=VALUE``: argparse takes a
    separate value with a leading minus, such as ``-2/9,1/7``, for an option."""
    out = []
    args = iter(argv)
    for arg in args:
        if arg == "--center":
            value = next(args, None)
            if value is not None:
                arg = f"--center={value}"
        out.append(arg)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_center(sys.argv[1:] if argv is None else list(argv)))
    try:
        return _run(args)
    except errors.NotASolution as exc:
        print(f"not a solution: {exc}", file=sys.stderr)
        return 1
    except errors.InconsistentSystem as exc:
        print(f"inconsistent system: {exc}", file=sys.stderr)
        return 3
    except (errors.AxcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
