"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line through the terminal
summary hook in conftest.py.  Everything except criterion 8 is exact
(zero-tolerance Fraction equality); criterion 8 cross-validates the closed
form of the homotopy operator against 64-node Gauss-Legendre quadrature.
"""

import subprocess
import sys
import time
from fractions import Fraction

from axc import (
    Context,
    Form,
    OperatorTag,
    Poly,
    SpaceTag,
    VacuumDiracKind,
    apply_operator,
    codifferential,
    cohomotopy_h,
    dirac_source_solve,
    homotopy_H,
    interior,
    k_field,
    kalb_ramond_solve,
    kr_maxwell_couple,
    massive_dirac_check,
    maxwell_solve,
    membership,
    parse_form,
    print_form,
    run_identities,
    vacuum_dirac_classify,
)
from axc.homotopy import center_pullback
from axc.randforms import random_form, random_homogeneous, sample_rng
from tests.conftest import all_contexts

SAMPLES = 100


def test_criterion_1_identity_suite():
    """Exact operator identities, n in 1..4, both signatures, 100 samples."""
    names = [
        "d2_zero", "delta2_zero", "H2_zero", "HdH_eq_H", "dHd_eq_d",
        "iK_after_H_zero", "H_after_iK_zero", "homotopy_invariance",
        "h2_zero", "delta_h_delta_eq_delta", "h_delta_h_eq_h",
        "cohomotopy_invariance", "kwedge_after_h_zero", "h_after_kwedge_zero",
        "insertion_vs_star", "star_star_law", "star_inverse_law", "h_sign_form",
    ]
    started = time.time()
    for ctx in all_contexts():
        results = run_identities(ctx, samples=SAMPLES, seed=0, names=names)
        bad = [r for r in results if not r.passed]
        assert not bad, f"{ctx}: {[(r.name, r.first_failure) for r in bad]}"
    elapsed = time.time() - started
    assert elapsed < 60, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_direct_sum_suite():
    """Both decompositions reassemble, parts pass membership, projectors
    are idempotent, and only zero lies in both halves."""
    names = [
        "projector_idempotence", "decompose_exact_antiexact",
        "decompose_coexact_anticoexact", "direct_sum_triviality",
    ]
    for ctx in all_contexts():
        results = run_identities(ctx, samples=SAMPLES, seed=1, names=names)
        bad = [r for r in results if not r.passed]
        assert not bad, f"{ctx}: {[(r.name, r.first_failure) for r in bad]}"


def test_criterion_3_duality_suite():
    """Star maps closed k-forms to coclosed (n-k)-forms and antiexact forms
    to anticoexact forms, 100 samples per (n, k)."""
    from axc import hodge_star
    for ctx in all_contexts():
        for k in range(ctx.n + 1):
            for i in range(SAMPLES):
                rng = sample_rng(2, 1000 * (10 * ctx.n + k) + i)
                w = random_homogeneous(ctx, rng, k)
                closed = homotopy_H(w).d() + center_pullback(w)
                antiexact = homotopy_H(w.d())
                assert membership(hodge_star(closed), SpaceTag.COEXACT)
                assert membership(hodge_star(antiexact), SpaceTag.ANTICOEXACT)


def test_criterion_4_maxwell():
    """Plane desk example reproduced exactly, then 100 randomized conserved
    Minkowski four-space currents with zero residuals."""
    e2 = Context.euclidean(2)
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    report = maxwell_solve(Form.basis(e2, (2,)))
    assert report.success, report.failed
    assert report.outputs["F"] == Form.basis(e2, (1, 2), -x1)
    expected_A = (Form.basis(e2, (1,), x1 * x2)
                  - Form.basis(e2, (2,), x1 * x1)).scale(Fraction(1, 3))
    assert report.outputs["A"] == expected_A

    m4 = Context.minkowski(4)
    for i in range(SAMPLES):
        j = codifferential(random_homogeneous(m4, sample_rng(4, i), 2))
        report = maxwell_solve(j)
        assert report.success, (i, report.failed)


def test_criterion_5_kalb_ramond():
    """Randomized conserved currents solve exactly; the coupled system
    check passes when composed with Maxwell output."""
    m4 = Context.minkowski(4)
    for i in range(25):
        J = codifferential(random_homogeneous(m4, sample_rng(5, i), 3))
        report = kalb_ramond_solve(J)
        assert report.success, (i, report.failed)

    # coupled configuration: an antiexact coclosed 2-form potential whose
    # induced 2-form current closes the system, composed with a Maxwell field
    x1, x2, x3, x4 = (Poly.variable(4, i) for i in range(1, 5))
    B2 = (Form.basis(m4, (1, 2), x3 * x4 * x4)
          + Form.basis(m4, (1, 3), -(x2 * x4 * x4))
          + Form.basis(m4, (2, 3), x1 * x4 * x4))
    assert membership(B2, SpaceTag.ANTIEXACT) and membership(B2, SpaceTag.COEXACT)
    J = codifferential(B2.d())
    j = codifferential(random_homogeneous(m4, sample_rng(5, 1000), 2))
    F = maxwell_solve(j).outputs["F"]
    coupled = kr_maxwell_couple(B2, F, j, J)
    assert coupled.success, coupled.failed


def test_criterion_6_dirac_suites():
    """Vacuum classifier, sourced solver (both approaches and their
    difference), and the massive-system verifier."""
    e3 = Context.euclidean(3)
    y1 = Poly.variable(3, 1)

    # gauge case: Hodge harmonic pair, d and delta kill alpha and beta
    alpha, beta = Form.scalar(e3, 1), Form.basis(e3, (1, 2))
    verdict = vacuum_dirac_classify(alpha, beta, 1)
    assert verdict.kind is VacuumDiracKind.GAUGE_CASE
    assert all(f.is_zero for f in (alpha.d(), codifferential(alpha),
                                   beta.d(), codifferential(beta)))

    # non-gauge case: d(alpha) = delta(beta) = dx1, harmonic but nonzero
    alpha, beta = Form.from_poly(e3, y1), cohomotopy_h(Form.basis(e3, (1,)))
    verdict = vacuum_dirac_classify(alpha, beta, 1)
    assert verdict.kind is VacuumDiracKind.NON_GAUGE_CASE
    assert alpha.d() == codifferential(beta) == Form.basis(e3, (1,))
    assert alpha.d().d().is_zero and codifferential(codifferential(beta)).is_zero

    # sourced solver on solvable-by-construction instances, both approaches
    for ctx in (e3, Context.minkowski(4)):
        for i in range(10):
            rng = sample_rng(6, 100 * ctx.n + i)
            alpha0 = codifferential(cohomotopy_h(random_homogeneous(ctx, rng, 1)))
            beta0 = random_homogeneous(ctx, rng, 2).d()
            src = alpha0.d() - codifferential(beta0)
            if src.is_zero:
                continue
            r1 = dirac_source_solve(src, 1)
            r2 = dirac_source_solve(src, 2)
            assert r1.success, (i, r1.failed)
            assert r2.success, (i, r2.failed)
            diff = vacuum_dirac_classify(
                r1.outputs["alpha"] - r2.outputs["alpha"],
                r1.outputs["beta"] - r2.outputs["beta"], 2)
            assert diff.kind is not VacuumDiracKind.NOT_A_SOLUTION

    # massive verifier: zero is the only polynomial solution
    zero = Form.zero(e3)
    assert massive_dirac_check(zero, zero, zero, zero).success
    alpha = Form.basis(e3, (1,), Poly.variable(3, 2))
    bad = massive_dirac_check(alpha, alpha.d().scale(-1), zero, zero)
    assert not bad.success
    assert "laplace_alpha_minus_alpha" in bad.failed


def test_criterion_7_oscillator_spectrum():
    """The oscillator operator acts as +1 on anticoexact and -1 on coexact
    parts, 100 samples per middle grade."""
    for ctx in (Context.euclidean(3), Context.minkowski(4)):
        for k in range(1, ctx.n):
            for i in range(SAMPLES):
                rng = sample_rng(7, 1000 * (10 * ctx.n + k) + i)
                w = random_homogeneous(ctx, rng, k)
                anticoexact = cohomotopy_h(codifferential(w))
                coexact = codifferential(cohomotopy_h(w))
                hbar = lambda f: apply_operator(OperatorTag.OSCILLATOR_HBAR, f)
                assert hbar(anticoexact) == anticoexact
                assert hbar(coexact) == coexact.scale(-1)


def test_criterion_8_quadrature_cross_validation():
    """64-node Gauss-Legendre quadrature of the homotopy integral agrees
    with the exact closed form to relative error 1e-9."""
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t_nodes = (nodes + 1.0) / 2.0
    t_weights = weights / 2.0

    ctx = Context.euclidean(3)
    kf = k_field(ctx)

    def poly_float(p, point):
        total = 0.0
        for exps, coef in p.terms.items():
            term = float(coef)
            for x, e in zip(point, exps):
                term *= x ** e
            total += term
        return total

    for sample in range(20):
        rng = sample_rng(8, sample)
        w = random_form(ctx, rng)
        exact_H = homotopy_H(w)
        for pt in range(10):
            prng = sample_rng(8, 10_000 + 100 * sample + pt)
            point = [Fraction(prng.randint(-8, 8), prng.randint(1, 5))
                     for _ in range(3)]
            fpoint = [float(v) for v in point]

            numeric = {}
            for k in w.grades():
                if k == 0:
                    continue
                for idx, poly in w.components[k].items():
                    # integral of t^{k-1} * coefficient(t * y) dt, with the
                    # insertion slot carrying the full (unscaled) radial field
                    integral = 0.0
                    for tj, wj in zip(t_nodes, t_weights):
                        scaled = [tj * x for x in fpoint]
                        integral += wj * tj ** (k - 1) * poly_float(poly, scaled)
                    contracted = interior(kf, Form.basis(ctx, idx))
                    for out_idx, cpoly in contracted.components.get(k - 1, {}).items():
                        numeric[out_idx] = numeric.get(out_idx, 0.0) + \
                            integral * poly_float(cpoly, fpoint)

            exact = {}
            for k, idx_map in exact_H.components.items():
                for idx, poly in idx_map.items():
                    exact[idx] = float(poly.eval(point))

            for idx in set(numeric) | set(exact):
                num = numeric.get(idx, 0.0)
                ex = exact.get(idx, 0.0)
                assert abs(num - ex) <= 1e-9 * max(1.0, abs(ex)), (sample, pt, idx)


def test_criterion_9_cli_contract():
    """Parse/print fixed point on 500 random forms and byte-identical
    identity-suite output across two CLI processes."""
    count = 0
    ctxs = all_contexts()
    i = 0
    while count < 500:
        ctx = ctxs[i % len(ctxs)]
        w = random_form(ctx, sample_rng(9, i))
        text = print_form(w)
        again = parse_form(text, ctx)
        assert again == w
        assert print_form(again) == text
        count += 1
        i += 1

    cmd = [sys.executable, "-m", "axc.cli", "--dim", "2", "identities",
           "--samples", "10", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    assert first.returncode == 0, first.stderr.decode()
    assert first.stdout == second.stdout
    assert b"FAIL" not in first.stdout
