"""Randomized exact-identity suite for the operator kernel.

Every check below is an algebraic identity that must hold bit-exactly on
polynomial forms; a single failing sample falsifies the kernel.  The suite
doubles as the CLI `identities` subcommand and as the acceptance harness.
Each check computes each operator image once: an image that appears twice in
its equation (H(w) in HdH = H, d(w) in dHd = d, delta h(w) in the projector
law) is bound to a name and read again.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from .forms import interior
from .hodge import codifferential, hodge_star, hodge_star_inv, musical_flat, musical_sharp
from .homotopy import (
    DecompositionMode,
    SpaceTag,
    center_pullback,
    center_top_eval,
    cohomotopy_h,
    decompose,
    homotopy_H,
    k_field,
    membership,
)
from .polyring import Context, _require_operand
from .randforms import random_form, random_homogeneous, sample_rng


@functools.lru_cache(maxsize=64)
def _radial(ctx: Context) -> tuple:
    """(K, K^flat) of ``ctx``, built once per chart by the public constructors
    for the four checks that test i_K and K^flat ^ themselves."""
    kf = k_field(ctx)
    return kf, musical_flat(kf)


def _dh(w):  # delta h
    return codifferential(cohomotopy_h(w))


def _hd(w):  # h delta
    return cohomotopy_h(codifferential(w))


def _check_d2(ctx, w, rng):
    return w.d().d().is_zero


def _check_delta2(ctx, w, rng):
    return codifferential(codifferential(w)).is_zero


def _check_H2(ctx, w, rng):
    return homotopy_H(homotopy_H(w)).is_zero


def _check_HdH(ctx, w, rng):
    Hw = homotopy_H(w)
    return homotopy_H(Hw.d()) == Hw


def _check_dHd(ctx, w, rng):
    dw = w.d()
    return homotopy_H(dw).d() == dw


def _check_iK_H(ctx, w, rng):
    return interior(_radial(ctx)[0], homotopy_H(w)).is_zero


def _check_H_iK(ctx, w, rng):
    return homotopy_H(interior(_radial(ctx)[0], w)).is_zero


def _check_homotopy_invariance(ctx, w, rng):
    return homotopy_H(w).d() + homotopy_H(w.d()) == w - center_pullback(w)


def _check_h2(ctx, w, rng):
    return cohomotopy_h(cohomotopy_h(w)).is_zero


def _check_delta_h_delta(ctx, w, rng):
    delta_w = codifferential(w)
    return codifferential(cohomotopy_h(delta_w)) == delta_w


def _check_h_delta_h(ctx, w, rng):
    hw = cohomotopy_h(w)
    return cohomotopy_h(codifferential(hw)) == hw


def _check_cohomotopy_invariance(ctx, w, rng):
    return _dh(w) + _hd(w) == w - center_top_eval(w)


def _check_kwedge_h(ctx, w, rng):
    return _radial(ctx)[1].wedge(cohomotopy_h(w)).is_zero


def _check_h_kwedge(ctx, w, rng):
    return cohomotopy_h(_radial(ctx)[1].wedge(w)).is_zero


def _check_insertion_vs_star(ctx, w, rng):
    alpha = random_homogeneous(ctx, rng, 1)
    return interior(musical_sharp(alpha), hodge_star(w)) == hodge_star(w.wedge(alpha))


def _check_star_star(ctx, w, rng):
    # star star = sig (-1)^(r(n-r)) on grade r: sig for odd n, sig eta for even n
    return hodge_star(hodge_star(w)) == (w.eta() if ctx.n % 2 == 0 else w).scale(ctx.sig)


def _check_star_inv(ctx, w, rng):
    return hodge_star_inv(hodge_star(w)) == w and hodge_star(hodge_star_inv(w)) == w


def _check_h_sign_form(ctx, w, rng):
    # the definition h = eta star_inv H star, on the whole form
    return cohomotopy_h(w) == hodge_star_inv(homotopy_H(hodge_star(w))).eta()


def _check_projectors(ctx, w, rng):
    dh_w, hd_w = _dh(w), _hd(w)
    return _dh(dh_w) == dh_w and _hd(hd_w) == hd_w


def _check_decompose_exact(ctx, w, rng):
    dec = decompose(w, DecompositionMode.EXACT_ANTIEXACT)
    return (
        dec.first + dec.second == w
        and membership(dec.first, SpaceTag.EXACT)
        and membership(dec.second, SpaceTag.ANTIEXACT)
    )


def _check_decompose_coexact(ctx, w, rng):
    dec = decompose(w, DecompositionMode.COEXACT_ANTICOEXACT)
    return (
        dec.first + dec.second == w
        and membership(dec.first, SpaceTag.COEXACT)
        and membership(dec.second, SpaceTag.ANTICOEXACT)
    )


def _check_direct_sum_trivial(ctx, w, rng):
    # only the zero form sits in both halves of either decomposition
    in_E_and_A = membership(w, SpaceTag.EXACT) and membership(w, SpaceTag.ANTIEXACT)
    in_C_and_Y = membership(w, SpaceTag.COEXACT) and membership(w, SpaceTag.ANTICOEXACT)
    if w.is_zero:
        return in_E_and_A and in_C_and_Y
    return not in_E_and_A and not in_C_and_Y


def _check_duality(ctx, w, rng):
    # star maps closed to coclosed and antiexact to anticoexact
    closed, antiexact = decompose(w, DecompositionMode.EXACT_ANTIEXACT)
    return membership(hodge_star(closed), SpaceTag.COEXACT) and membership(
        hodge_star(antiexact), SpaceTag.ANTICOEXACT
    )


CHECKS: dict[str, Callable] = {
    "d2_zero": _check_d2,
    "delta2_zero": _check_delta2,
    "H2_zero": _check_H2,
    "HdH_eq_H": _check_HdH,
    "dHd_eq_d": _check_dHd,
    "iK_after_H_zero": _check_iK_H,
    "H_after_iK_zero": _check_H_iK,
    "homotopy_invariance": _check_homotopy_invariance,
    "h2_zero": _check_h2,
    "delta_h_delta_eq_delta": _check_delta_h_delta,
    "h_delta_h_eq_h": _check_h_delta_h,
    "cohomotopy_invariance": _check_cohomotopy_invariance,
    "kwedge_after_h_zero": _check_kwedge_h,
    "h_after_kwedge_zero": _check_h_kwedge,
    "insertion_vs_star": _check_insertion_vs_star,
    "star_star_law": _check_star_star,
    "star_inverse_law": _check_star_inv,
    "h_sign_form": _check_h_sign_form,
    "projector_idempotence": _check_projectors,
    "decompose_exact_antiexact": _check_decompose_exact,
    "decompose_coexact_anticoexact": _check_decompose_coexact,
    "direct_sum_triviality": _check_direct_sum_trivial,
    "star_duality": _check_duality,
}


class IdentityResult(NamedTuple):
    name: str
    passed: bool
    samples: int
    first_failure: int | None = None


def run_identities(ctx: Context, samples: int = 100, max_degree: int = 3,
                   seed: int = 0, names=None) -> list[IdentityResult]:
    _require_operand(ctx, Context)
    if not type(samples) is type(max_degree) is type(seed) is int:
        raise ValueError("need int samples, max_degree and seed; "
                         f"got {samples!r}, {max_degree!r}, {seed!r}")
    for name, value, low in (("samples", samples, 1), ("max_degree", max_degree, 0)):
        if value < low:
            raise ValueError(f"{name} {value} is below {low}")
    if isinstance(names, str):
        raise ValueError(f"names is a collection of check names, not the str {names!r}")
    names = tuple(CHECKS if names is None else names)
    if unknown := [name for name in names if name not in CHECKS]:
        raise ValueError(f"unknown identity checks: {', '.join(map(repr, unknown))}")
    # seeded by a check's place in CHECKS: a subset run draws the full run's samples
    place = {name: cidx for cidx, name in enumerate(CHECKS)}
    results = []
    for name in names:
        check = CHECKS[name]
        failure = None
        for i in range(samples):
            rng = sample_rng(seed, place[name] * samples + i)
            w = random_form(ctx, rng, max_degree)
            if not check(ctx, w, rng):
                failure = i
                break
        results.append(IdentityResult(name, failure is None, samples, failure))
    return results
