"""Sparse exact Gaussian elimination over the rationals.

Rows are dicts keyed by hashable variable names.  The solution is
deterministic: variables are eliminated in sorted order and every free
variable is set to zero.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InconsistentSystem
from .polyring import _as_fraction


def solve_sparse(rows, rhs):
    """Solve ``rows . x = rhs`` exactly.

    rows: list of dict[var, rational]; rhs: list of rational.  Every entry is
    read by the library's exact-rational rule: a ``Fraction``, an ``int`` or a
    rational string; a float or a bool raises ``TypeError``.
    Returns dict var -> Fraction with free variables omitted (i.e. zero).
    Raises InconsistentSystem naming the first row, by its index, that
    reduces to 0 = c with c != 0 when no solution exists.
    """
    system = [({var: _as_fraction(c) for var, c in r.items()}, _as_fraction(v))
              for r, v in zip(rows, rhs)]
    var_rows: dict[object, set[int]] = {}
    for ridx, (r, _) in enumerate(system):
        for var in r:
            var_rows.setdefault(var, set()).add(ridx)

    pivot_of: dict[object, int] = {}
    used_rows: set[int] = set()

    for var in sorted(var_rows):
        candidates = [ridx for ridx in var_rows.get(var, ()) if ridx not in used_rows]
        if not candidates:
            continue
        # smallest row first keeps fill-in down; index breaks ties deterministically
        pridx = min(candidates, key=lambda r: (len(system[r][0]), r))
        prow, prhs = system[pridx]
        pcoef = prow[var]
        for ridx in list(var_rows[var]):
            if ridx == pridx:
                continue
            row, rv = system[ridx]
            factor = row[var] / pcoef
            for pv, pc in prow.items():
                nc = row.get(pv, Fraction(0)) - factor * pc
                if nc:
                    row[pv] = nc
                    var_rows.setdefault(pv, set()).add(ridx)
                else:
                    row.pop(pv, None)
                    var_rows[pv].discard(ridx)
            system[ridx] = (row, rv - factor * prhs)
        pivot_of[var] = pridx
        used_rows.add(pridx)

    for ridx, (row, rv) in enumerate(system):
        if not row and rv != 0:
            raise InconsistentSystem(f"row {ridx} reduces to 0 = {rv}", equation=(ridx, rv))

    solution: dict[object, Fraction] = {}
    for var, ridx in sorted(pivot_of.items(), reverse=True):
        row, rv = system[ridx]
        acc = rv
        for v, c in row.items():
            if v != var:
                acc -= c * solution.get(v, Fraction(0))
        solution[var] = acc / row[var]
    return {v: c for v, c in solution.items() if c}
