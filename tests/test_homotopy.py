import itertools
from fractions import Fraction

import pytest

from axc import (
    DecompositionMode,
    Form,
    Poly,
    SpaceTag,
    anticoexact_wedge_factor,
    codifferential,
    cohomotopy_h,
    copotential,
    decompose,
    hodge_star,
    homotopy_H,
    interior,
    k_field,
    membership,
    musical_flat,
    potential,
)
from axc.errors import GradeOutOfRange, NoCopotential, NotClosed, NotCoclosed
from axc.homotopy import center_pullback, center_top_eval
from axc.randforms import random_form, random_homogeneous, sample_rng
from tests.conftest import B, all_contexts, chart_id, offcenter_contexts, oracle_contexts, var
from tests.oracles import (
    composite_cohomotopy_h,
    contraction_homotopy_H,
    loop_anticoexact_wedge_factor,
)


class TestRadialField:
    def test_components(self, e2):
        assert k_field(e2).components == (var(e2, 1), var(e2, 2))

    def test_vanishes_at_center(self, e3):
        for comp in k_field(e3).components:
            assert comp.eval([0, 0, 0]) == 0


class TestHomotopyOperator:
    def test_on_dx1(self, e2):
        assert homotopy_H(B(e2, (1,))) == Form.from_poly(e2, var(e2, 1))

    def test_zero_on_scalars(self, e2):
        assert homotopy_H(Form.from_poly(e2, var(e2, 1) * var(e2, 2) + Poly.const(2, 5))).is_zero

    def test_on_area_form(self, e2):
        expected = (B(e2, (2,), var(e2, 1)) + B(e2, (1,), -var(e2, 2))).scale(Fraction(1, 2))
        assert homotopy_H(B(e2, (1, 2))) == expected

    def test_nilpotent_and_projector_identities(self):
        for ctx in all_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(71, 10 * ctx.n + i))
                H = homotopy_H
                assert H(H(w)).is_zero
                assert H(H(w).d()) == H(w)
                assert H(w.d()).d() == w.d()

    def test_invariance_formula(self):
        for ctx in all_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(73, 10 * ctx.n + i))
                lhs = homotopy_H(w).d() + homotopy_H(w.d())
                assert lhs == w - center_pullback(w)

    def test_insertion_interplay(self, e3):
        kf = k_field(e3)
        for i in range(10):
            w = random_form(e3, sample_rng(79, i))
            assert interior(kf, homotopy_H(w)).is_zero
            assert homotopy_H(interior(kf, w)).is_zero

    def test_term_map_matches_contraction_loop(self):
        for ctx in oracle_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(83, 10 * ctx.n + i))
                assert homotopy_H(w) == contraction_homotopy_H(w)


@pytest.mark.parametrize("ctx", all_contexts(), ids=chart_id)
def test_constants_with_zero_weight_map_to_zero(ctx):
    # H divides by |a| + k and h by |a| + n - k: both are 0 on these terms,
    # whose generator tables are empty, so H and h skip them; beside other
    # terms, on several weights, they add nothing to the image
    n, top = ctx.n, tuple(range(1, ctx.n + 1))
    scalar, volume = Form.scalar(ctx, Fraction(-3, 2)), B(ctx, top, Poly.const(n, 5))
    for op, skipped in ((homotopy_H, scalar), (cohomotopy_h, volume)):
        assert op(skipped).is_zero
        for i in range(4):
            w = random_form(ctx, sample_rng(97, 10 * n + i))
            assert op(w + skipped) == op(w)


class TestCohomotopyOperator:
    def test_term_map_matches_literal_composite(self):
        for ctx in oracle_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(411, 10 * ctx.n + i))
                assert cohomotopy_h(w) == composite_cohomotopy_h(w)

    def test_term_map_on_every_basis_term(self):
        for ctx in oracle_contexts(4):
            for k in range(ctx.n + 1):
                for idx in itertools.combinations(range(1, ctx.n + 1), k):
                    for exps in itertools.product(range(2), repeat=ctx.n):
                        e = B(ctx, idx, Poly.monomial(ctx.n, exps))
                        assert cohomotopy_h(e) == composite_cohomotopy_h(e)

    def test_on_dx1_plane(self, e2):
        assert cohomotopy_h(B(e2, (1,))) == B(e2, (1, 2), var(e2, 2))

    def test_zero_on_top_grade(self, e2):
        assert cohomotopy_h(B(e2, (1, 2), var(e2, 1))).is_zero

    def test_on_negative_unit_scalar(self, e2):
        expected = (B(e2, (1,), var(e2, 1)) + B(e2, (2,), var(e2, 2))).scale(Fraction(1, 2))
        assert cohomotopy_h(Form.scalar(e2, -1)) == expected

    def test_grade_raising(self, e3):
        w = random_homogeneous(e3, sample_rng(83, 0), 1)
        image = cohomotopy_h(w)
        assert image.grades() in ([], [2])

    def test_nilpotent_and_projector_identities(self):
        for ctx in all_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(89, 10 * ctx.n + i))
                h, delta = cohomotopy_h, codifferential
                assert h(h(w)).is_zero
                assert delta(h(delta(w))) == delta(w)
                assert h(delta(h(w))) == h(w)

    def test_invariance_formula(self):
        for ctx in all_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(97, 10 * ctx.n + i))
                lhs = codifferential(cohomotopy_h(w)) + cohomotopy_h(codifferential(w))
                assert lhs == w - center_top_eval(w)

    def test_wedge_interplay(self, e3):
        kflat = musical_flat(k_field(e3))
        for i in range(10):
            w = random_form(e3, sample_rng(101, i))
            assert kflat.wedge(cohomotopy_h(w)).is_zero
            assert cohomotopy_h(kflat.wedge(w)).is_zero


class TestDecompose:
    def test_plane_exact_antiexact(self, e2):
        w = B(e2, (2,), var(e2, 1))
        dec = decompose(w, DecompositionMode.EXACT_ANTIEXACT)
        exact = (B(e2, (1,), var(e2, 2)) + B(e2, (2,), var(e2, 1))).scale(Fraction(1, 2))
        antiexact = (B(e2, (2,), var(e2, 1)) - B(e2, (1,), var(e2, 2))).scale(Fraction(1, 2))
        assert dec.first == exact
        assert dec.second == antiexact
        assert exact == Form.from_poly(e2, var(e2, 1) * var(e2, 2)).scale(Fraction(1, 2)).d()

    def test_plane_coexact_anticoexact(self, e2):
        w = B(e2, (1,), var(e2, 1))
        dec = decompose(w, DecompositionMode.COEXACT_ANTICOEXACT)
        coexact = (B(e2, (1,), var(e2, 1)) - B(e2, (2,), var(e2, 2))).scale(Fraction(1, 2))
        anticoexact = (B(e2, (1,), var(e2, 1)) + B(e2, (2,), var(e2, 2))).scale(Fraction(1, 2))
        assert dec.first == coexact
        assert dec.second == anticoexact

    def test_closed_forms_pass_through(self, e3):
        for i in range(10):
            closed = random_form(e3, sample_rng(103, i)).d()
            dec = decompose(closed, DecompositionMode.EXACT_ANTIEXACT)
            assert dec.first == closed
            assert dec.second.is_zero

    def test_reassembly_and_membership(self):
        for ctx in all_contexts():
            for i in range(5):
                w = random_form(ctx, sample_rng(107, 10 * ctx.n + i))
                for mode, tags in (
                    (DecompositionMode.EXACT_ANTIEXACT, (SpaceTag.EXACT, SpaceTag.ANTIEXACT)),
                    (DecompositionMode.COEXACT_ANTICOEXACT,
                     (SpaceTag.COEXACT, SpaceTag.ANTICOEXACT)),
                ):
                    dec = decompose(w, mode)
                    assert dec.first + dec.second == w
                    assert membership(dec.first, tags[0])
                    assert membership(dec.second, tags[1])

    def test_star_carries_the_exact_split_onto_the_coexact_split(self):
        # both splits are direct, and star maps closed to coclosed and antiexact
        # to anticoexact (criterion 3), so the coexact split of star w is star
        # of the exact split of w; a wrongly paired half fails here
        for c, ctx in enumerate(oracle_contexts(5)):
            for i in range(30):
                w = random_form(ctx, sample_rng(139, 30 * c + i))
                exact = decompose(w, DecompositionMode.EXACT_ANTIEXACT)
                coexact = decompose(hodge_star(w), DecompositionMode.COEXACT_ANTICOEXACT)
                assert coexact.first == hodge_star(exact.first)
                assert coexact.second == hodge_star(exact.second)

    def test_rejects_unknown_mode(self, e2):
        # a mode string, even the CLI's own "exact", is not a DecompositionMode
        for mode in ("exact", "coexact", None, SpaceTag.EXACT):
            with pytest.raises(ValueError):
                decompose(B(e2, (2,), var(e2, 1)), mode)


class TestMembership:
    def test_constant_basis_is_closed(self, e2):
        assert membership(B(e2, (1,)), SpaceTag.EXACT)

    def test_antiexact_sample(self, e2):
        w = (B(e2, (2,), var(e2, 1)) - B(e2, (1,), var(e2, 2))).scale(Fraction(1, 2))
        assert membership(w, SpaceTag.ANTIEXACT)
        assert not membership(w, SpaceTag.EXACT)

    def test_anticoexact_sample(self, e2):
        w = (B(e2, (1,), var(e2, 1)) + B(e2, (2,), var(e2, 2))).scale(Fraction(1, 2))
        assert membership(w, SpaceTag.ANTICOEXACT)

    def test_rejects_a_tag_name(self, e2):
        # "E" is the CLI's name of the exact space, not a SpaceTag
        with pytest.raises(ValueError, match="unknown space tag 'E'"):
            membership(B(e2, (1,)), "E")

    def test_harmonic_and_antiharmonic(self, e2):
        assert membership(B(e2, (1,)), SpaceTag.HODGE_HARMONIC)
        assert membership(Form.zero(e2), SpaceTag.HODGE_ANTIHARMONIC)

    @pytest.mark.parametrize("ctx", oracle_contexts(), ids=lambda c: f"{c.n}{chart_id(c)}")
    def test_only_the_zero_form_is_antiharmonic(self, ctx):
        # i_K(K^flat ^ w) + K^flat ^ i_K w = Q w with Q = sum_i eps_i y_i^2, a
        # nonzero polynomial, so a form in both A and Y is zero; the samples
        # hold nonzero members of each
        members = {SpaceTag.ANTIEXACT: 0, SpaceTag.ANTICOEXACT: 0}
        for i in range(24):
            w = random_form(ctx, sample_rng(127, 100 * ctx.n + i))
            antiexact = decompose(w, DecompositionMode.EXACT_ANTIEXACT).second
            anticoexact = decompose(w, DecompositionMode.COEXACT_ANTICOEXACT).second
            for x in (w, antiexact, anticoexact,
                      decompose(antiexact, DecompositionMode.COEXACT_ANTICOEXACT).second,
                      decompose(anticoexact, DecompositionMode.EXACT_ANTIEXACT).second):
                assert membership(x, SpaceTag.HODGE_ANTIHARMONIC) == x.is_zero, x
                for tag in members:
                    members[tag] += membership(x, tag) and not x.is_zero
        assert all(members.values()), members

    def test_direct_sum_triviality(self):
        for ctx in all_contexts():
            for i in range(5):
                w = random_form(ctx, sample_rng(109, 10 * ctx.n + i))
                if w.is_zero:
                    continue
                assert not (membership(w, SpaceTag.EXACT)
                            and membership(w, SpaceTag.ANTIEXACT))
                assert not (membership(w, SpaceTag.COEXACT)
                            and membership(w, SpaceTag.ANTICOEXACT))


# The K-based definitions of the antiexact and anticoexact spaces, kept as the
# oracle of membership, which tests the same spaces through H and h.
def _antiexact_by_contraction(w):
    return interior(k_field(w.ctx), w).is_zero and w.at_center().is_zero


def _anticoexact_by_wedge(w):
    return musical_flat(k_field(w.ctx)).wedge(w).is_zero and w.at_center().is_zero


MEMBERSHIP_CHARTS = offcenter_contexts()


def _blocks(w) -> set:
    """The (coefficient degree, grade) blocks a form has terms in."""
    return {(sum(exps), len(idx)) for idx, exps, _ in w.terms()}


def _membership_samples(ctx):
    """Seeded forms with both parts of each decomposition, then hand-built
    edges: 0-forms (H has no rows), top-grade forms (h has no rows) and a
    constant top form, where h's weight r + n - k is 0."""
    n, top = ctx.n, tuple(range(1, ctx.n + 1))
    for i in range(8):
        w = random_form(ctx, sample_rng(113, 10 * ctx.n + i))
        yield w
        for mode in DecompositionMode:
            yield from decompose(w, mode)[:2]
    yield Form.scalar(ctx, Fraction(-3, 2))
    yield Form.from_poly(ctx, var(ctx, 1) + Poly.const(n, 2))
    yield Form.from_poly(ctx, var(ctx, n) * var(ctx, 1))
    yield B(ctx, top, var(ctx, 1))
    yield B(ctx, top, var(ctx, 1) + Poly.const(n, 1)) + B(ctx, (1,), var(ctx, n))
    yield B(ctx, top, Poly.const(n, 5))


@pytest.mark.parametrize("ctx", MEMBERSHIP_CHARTS, ids=chart_id)
def test_membership_through_H_and_h_matches_the_radial_field(ctx):
    # H is i_K / (r + k) and h is -K^flat ^ / (r + n - k) on the block of
    # degree r and grade k, so the kernels agree on every form
    verdicts = {SpaceTag.ANTIEXACT: set(), SpaceTag.ANTICOEXACT: set()}
    mixed = 0
    for w in _membership_samples(ctx):
        mixed += len(_blocks(w)) > 1
        for tag, oracle in ((SpaceTag.ANTIEXACT, _antiexact_by_contraction),
                            (SpaceTag.ANTICOEXACT, _anticoexact_by_wedge)):
            verdict = membership(w, tag)
            assert verdict == oracle(w), (tag, w)
            verdicts[tag].add(verdict)
    assert verdicts == {SpaceTag.ANTIEXACT: {True, False}, SpaceTag.ANTICOEXACT: {True, False}}
    assert mixed >= 8, mixed


@pytest.mark.parametrize("ctx", MEMBERSHIP_CHARTS, ids=chart_id)
def test_center_maps_match_grade_select_then_at_center(ctx):
    # each center map is one term map; the two-pass composite is its oracle
    n, top = ctx.n, tuple(range(1, ctx.n + 1))
    samples = [random_form(ctx, sample_rng(139, 10 * n + i)) for i in range(8)]
    samples += [Form.scalar(ctx, Fraction(-3, 2)), B(ctx, top, Poly.const(n, 5))]
    kept = {0: 0, n: 0}
    for w in samples:
        for k, center in ((0, center_pullback), (n, center_top_eval)):
            got = center(w)
            assert got == w.grade_select(k).at_center(), (k, w)
            kept[k] += not got.is_zero
    assert all(kept.values()), kept


class TestPotential:
    def test_of_area_form(self, e2):
        expected = (B(e2, (2,), var(e2, 1)) - B(e2, (1,), var(e2, 2))).scale(Fraction(1, 2))
        assert potential(B(e2, (1, 2))) == expected

    def test_of_dx1(self, e2):
        assert potential(B(e2, (1,))) == Form.from_poly(e2, var(e2, 1))

    def test_of_linear_one_form(self, e2):
        got = potential(B(e2, (1,), var(e2, 1)))
        assert got == Form.from_poly(e2, (var(e2, 1) * var(e2, 1)).scale(Fraction(1, 2)))

    def test_rejects_not_closed(self, e2):
        with pytest.raises(NotClosed):
            potential(B(e2, (2,), var(e2, 1)))

    def test_rejects_grade_zero(self, e2):
        with pytest.raises(GradeOutOfRange):
            potential(Form.scalar(e2, 1))

    @pytest.mark.parametrize("solve", [potential, copotential])
    def test_zero_form_has_zero_potential(self, solve):
        # the zero form has no grade, passes both closedness checks, and H and h
        # map it to zero
        for ctx in offcenter_contexts():
            assert solve(Form.zero(ctx)) == Form.zero(ctx)

    def test_d_of_potential_recovers(self, e3):
        for i in range(10):
            closed = random_homogeneous(e3, sample_rng(113, i), 1).d()
            if closed.is_zero:
                continue
            assert potential(closed).d() == closed


class TestCopotential:
    def test_of_dx2(self, e2):
        got = copotential(B(e2, (2,)))
        assert got == B(e2, (1, 2), -var(e2, 1))
        assert codifferential(got) == B(e2, (2,))

    def test_of_constant_scalar(self, e2):
        c = Fraction(3)
        got = copotential(Form.scalar(e2, c))
        assert codifferential(got) == Form.scalar(e2, c)

    def test_rejects_top_grade(self, e2):
        with pytest.raises(NoCopotential):
            copotential(B(e2, (1, 2)))

    def test_rejects_not_coclosed(self, e2):
        with pytest.raises(NotCoclosed):
            copotential(B(e2, (1,), var(e2, 1)))

    def test_delta_of_copotential_recovers(self, e3):
        for i in range(10):
            coclosed = codifferential(random_homogeneous(e3, sample_rng(127, i), 2))
            if coclosed.is_zero:
                continue
            assert codifferential(copotential(coclosed)) == coclosed


class TestAnticoexactStructure:
    def test_wedge_factor_matches_star_loop(self):
        for ctx in oracle_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(413, 10 * ctx.n + i))
                assert anticoexact_wedge_factor(w) == loop_anticoexact_wedge_factor(w)
                member = cohomotopy_h(codifferential(w))
                assert anticoexact_wedge_factor(member) == loop_anticoexact_wedge_factor(member)

    def test_wedge_factor_reconstructs(self):
        # every anticoexact form is K-flat wedge something
        for ctx in all_contexts(4):
            if ctx.n < 2:
                continue
            kflat = musical_flat(k_field(ctx))
            for i in range(10):
                w = random_form(ctx, sample_rng(131, 10 * ctx.n + i))
                member = cohomotopy_h(codifferential(w))
                factor = anticoexact_wedge_factor(member)
                assert kflat.wedge(factor) == member

    def test_module_property(self, e3):
        # multiplying an anticoexact form by any polynomial stays anticoexact
        for i in range(10):
            rng = sample_rng(137, i)
            member = cohomotopy_h(codifferential(random_form(e3, rng)))
            scaled = member.wedge(Form.from_poly(e3, Poly.variable(3, 1) + Poly.const(3, 2)))
            assert membership(scaled, SpaceTag.ANTICOEXACT)
