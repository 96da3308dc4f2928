"""Flat-model Rumin complex.

Claims:
    - d = sum eps(theta^i) X_i + CE-part satisfies d^2 = 0 symbolically and
      its order-0 part is the CE differential
    - delta is a rational matrix with delta^2 = 0 and equals the CE adjoint
    - G delta, for G the Green operator of the Kostant Laplacian
      box = delta d0 + d0 delta, is d0^+: per weight block, (box + P)^-1 delta
      with P = h pi equals pseudo_inverse of the d0 block on 235, h3, h5, h7
      and abelian:3 under the identity and two random metrics
    - the splitting L satisfies its three defining conditions exactly in every
      degree of 235, h3, h5, h7 and abelian:3, under the identity and a random
      metric; it is unique (perturbing any coefficient breaks a condition), and
      for h3 carries an order-1 correction into the theta^3 component; every
      coefficient in row I of L_q has Heisenberg order exactly
      weight(I) - p_q
    - the size of L is bounded before the cohomology is formed: heisenberg11
      is outside MAX_SPLITTING_COEFFICIENTS
    - D = pi d L: D^2 = 0, Heisenberg orders match k_q (h7 included), D_0 on
      the (2,3,5) model is (X_1, X_2), abelian models give back the full de
      Rham operator
    - L is a chain map, d_q L_q = L_{q+1} D_q, on 235, h3, h5 and h7 under
      the identity and a random metric, and doubling D_0 breaks it
    - D is exactly identical across random graded inner products once
      expressed over a common reference complex, and expressing a complex
      over itself changes nothing; the change of basis C_q = pi_q^ref h_q^rc
      leaves h_q^rc - h_q^ref C_q inside img d_{q-1} in every degree (235,
      h3, h5, abelian and a rescaled 235)
    - the star conjugation identity (D_q)* = (-1)^(q+1) star^-1 D_{m-q-1} star
      holds on the (2,3,5), h3 and one-dimensional abelian models
    - non-pure algebras are rejected
"""

import random
from fractions import Fraction

import pytest

from nilrumin.ce_cohomology import (
    _block,
    _weight_blocks,
    ce_differential,
    exterior_basis,
    identity_metric,
    random_graded_inner_product,
    weight_of,
)
from nilrumin import rumin_flat
from nilrumin.errors import NotPure, OutOfRange
from nilrumin.graded_lie import abelian, algebra_235, build_algebra, heisenberg
from nilrumin.rumin_flat import (
    expressed_over,
    gr_equals_ce,
    invariant_de_rham,
    kostant_delta,
    rumin_D,
    star_duality_check,
)
from nilrumin.rational import column_space, mat_mul, pseudo_inverse, rank, solve
from nilrumin.uea import UEA, UEAOperatorMatrix
from conftest import scaled_235


PRESETS = [algebra_235, lambda: heisenberg(1), lambda: abelian(3)]


class TestInvariantDeRham:
    @pytest.mark.parametrize("make", PRESETS)
    def test_d_squared_zero(self, make):
        alg = make()
        d = invariant_de_rham(alg)
        for q in range(alg.dim - 1):
            assert (d[q + 1] @ d[q]).is_zero()

    @pytest.mark.parametrize("make", PRESETS)
    def test_gr_d_is_ce(self, make):
        alg = make()
        assert gr_equals_ce(alg, invariant_de_rham(alg))

    def test_abelian_has_no_algebraic_part(self):
        alg = abelian(3)
        for dq in invariant_de_rham(alg):
            for row in dq.entries:
                for e in row:
                    assert e.constant_term() == 0

    def test_235_on_functions(self):
        alg = algebra_235()
        u = UEA(alg)
        d0 = invariant_de_rham(alg, u)[0]
        for i in range(5):
            assert d0.entries[i][0] == u.generator(i)


class TestKostantDelta:
    def test_delta_squared_zero(self):
        alg = algebra_235()
        deltas = kostant_delta(alg, identity_metric(alg))
        for q in range(1, 5):
            assert not any(map(any, mat_mul(deltas[q], deltas[q + 1])))

    def test_abelian_delta_zero(self):
        deltas = kostant_delta(abelian(2), identity_metric(abelian(2)))
        assert not any(any(map(any, d)) for d in deltas.values())

    def test_rank_on_two_forms(self):
        alg = algebra_235()
        deltas = kostant_delta(alg, identity_metric(alg))
        assert rank(deltas[2]) == 3


def green_delta_reference(alg, inner, q, h, pi):
    """(box + P)^-1 delta_{q+1} per weight block w of Lambda^q, with box the
    Kostant Laplacian delta d0 + d0 delta and P = h pi; since P delta = 0 it is
    G delta for the Green operator G = (box + P)^-1 - P."""
    deltas = kostant_delta(alg, inner)
    d0, d0_prev = ce_differential(alg, q), ce_differential(alg, q - 1)
    delta, delta_q = deltas[q + 1], deltas.get(q)
    below, here, above = (_weight_blocks(alg, q + s) for s in (-1, 0, 1))
    out = {}
    for w, rows in here.items():
        cols, lower = above.get(w), below.get(w, [])
        if not cols:
            continue
        # box + P = [delta | d0_prev | h] [d0 ; delta_q ; pi] on the block
        left = [[delta[r][c] for c in cols] + [d0_prev[r][c] for c in lower] + h[r]
                for r in rows]
        right = ([[d0[c][r] for r in rows] for c in cols]
                 + [[delta_q[c][r] for r in rows] for c in lower]
                 + [[row[r] for r in rows] for row in pi])
        out[w] = solve(mat_mul(left, right), [[delta[r][c] for c in cols] for r in rows])
    return out


class TestGreenOperator:
    @pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(1), lambda: heisenberg(2),
                                      lambda: heisenberg(3), lambda: abelian(3)],
                             ids=["235", "heisenberg3", "heisenberg5", "heisenberg7", "abelian3"])
    def test_green_delta_is_the_pseudo_inverse_of_d0(self, make, rng):
        alg = make()
        for inner in (identity_metric(alg), random_graded_inner_product(alg, rng),
                      random_graded_inner_product(alg, rng)):
            rc = rumin_D(alg, inner)
            compared = 0
            for q in range(alg.dim):
                d0, above = ce_differential(alg, q), _weight_blocks(alg, q + 1)
                gram, gram_above = inner.lambda_gram(q), inner.lambda_gram(q + 1)
                reference = green_delta_reference(alg, inner, q, rc.cohomology.harmonic[q],
                                                  rc.pis[q])
                for w, block in reference.items():
                    rows, cols = _weight_blocks(alg, q)[w], above[w]
                    assert block == pseudo_inverse(_block(d0, cols, rows),
                                                   _block(gram, rows, rows),
                                                   _block(gram_above, cols, cols))
                    compared += 1
            # abelian:3 has d0 = 0 and no weight shared by Lambda^q and Lambda^(q+1)
            assert compared or not any(any(map(any, ce_differential(alg, q)))
                                       for q in range(alg.dim))


class TestSplitting:
    def test_abelian_identity(self):
        alg = abelian(3)
        for lq in rumin_D(alg, identity_metric(alg)).L:
            assert lq.order() == 0
            part = lq.order_zero_part()
            assert all(part[i][j] == (1 if i == j else 0)
                       for i in range(len(part)) for j in range(len(part[0])))

    def test_235_degree_zero_is_inclusion(self):
        alg = algebra_235()
        assert rumin_D(alg, identity_metric(alg)).L[0].order() == 0

    def test_h3_order_one_correction(self):
        alg = heisenberg(1)
        l1 = rumin_D(alg, identity_metric(alg)).L[1]
        assert l1.order() == 1
        # the theta^3 row carries the order-1 coefficients
        theta3_row = l1.entries[2]
        assert any(not e.is_zero() and e.order() == 1 for e in theta3_row)

    @pytest.mark.parametrize("make,degrees", [
        (lambda: heisenberg(1), (0, 1, 2, 3)),
        (algebra_235, (1, 2)),
        (lambda: heisenberg(2), ()),
        (lambda: heisenberg(3), ()),
        (lambda: abelian(3), ()),
    ])
    def test_uniqueness_by_perturbation(self, make, degrees, rng):
        # under the identity and a random metric, L satisfies its three
        # conditions in every degree, and adding 1 to any single monomial
        # coefficient of L_q, q in ``degrees``, breaks one
        alg = make()
        for inner in (identity_metric(alg), random_graded_inner_product(alg, rng)):
            rc = rumin_D(alg, inner)
            uea, deltas = rc.uea, kostant_delta(alg, inner)
            for q, lq in enumerate(rc.L):
                ident = UEAOperatorMatrix.from_scalar(
                    uea, [[1 if i == j else 0 for j in range(rc.cohomology.betti[q])]
                          for i in range(rc.cohomology.betti[q])])

                def conditions_hold(op):
                    if q >= 1 and not (deltas[q] @ op).is_zero():
                        return False
                    if q < alg.dim and not (deltas[q + 1] @ (rc.d_ops[q] @ op)).is_zero():
                        return False
                    return (rc.pis[q] @ op) == ident

                assert conditions_hold(lq)
                if q not in degrees:
                    continue
                slots = [(i, j, mono)
                         for i, row in enumerate(lq.entries)
                         for j, e in enumerate(row)
                         for mono in e.coeffs]
                for (i, j, mono) in slots:
                    perturbed = UEAOperatorMatrix(
                        uea, [[e for e in row] for row in lq.entries])
                    perturbed.entries[i][j] = perturbed.entries[i][j] + uea.element(
                        {mono: Fraction(1)})
                    assert not conditions_hold(perturbed)

    @pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(1),
                                      lambda: heisenberg(2), lambda: heisenberg(3)])
    @pytest.mark.parametrize("metric", ["identity", "random"])
    def test_entries_have_exactly_the_defect_order(self, make, metric, rng):
        # every coefficient in row I of L_q has Heisenberg order weight(I) - p_q
        alg = make()
        inner = (identity_metric(alg) if metric == "identity"
                 else random_graded_inner_product(alg, rng))
        rc = rumin_D(alg, inner)
        for q, lq in enumerate(rc.L):
            for I, row in zip(exterior_basis(alg.dim, q), lq.entries):
                orders = {rc.uea.monomial_order(mono)
                          for e in row for mono, c in e.coeffs.items() if c}
                assert orders <= {weight_of(alg, I) - rc.p[q]}

    def test_not_pure_rejected(self):
        mixed = build_algebra((-1, -2), {})  # H^1 weights {1, 2}
        with pytest.raises(NotPure):
            rumin_D(mixed, identity_metric(mixed))


class TestSystemBound:
    def test_heisenberg11_rejected_before_cohomology(self, monkeypatch):
        monkeypatch.setattr(rumin_flat, "betti_and_weights",
                            lambda *args: pytest.fail("cohomology formed"))
        alg = heisenberg(5)
        with pytest.raises(OutOfRange, match="MAX_SPLITTING_COEFFICIENTS"):
            rumin_D(alg, identity_metric(alg))


class TestRuminD:
    def test_orders_match_k(self):
        for make, expected in ((algebra_235, (1, 3, 2, 3, 1)),
                               (lambda: heisenberg(1), (1, 2, 1)),
                               (lambda: heisenberg(3), (1, 1, 1, 2, 1, 1, 1)),
                               (lambda: abelian(3), (1, 1, 1))):
            alg = make()
            rc = rumin_D(alg, identity_metric(alg))
            assert rc.orders == expected
            assert tuple(rc.k) == expected

    def test_d_squared_zero(self):
        for make in PRESETS:
            alg = make()
            rc = rumin_D(alg, identity_metric(alg))
            for q in range(alg.dim - 1):
                assert (rc.D[q + 1] @ rc.D[q]).is_zero()

    def test_235_degree_zero(self):
        alg = algebra_235()
        uea = UEA(alg)
        rc = rumin_D(alg, identity_metric(alg))
        d0 = rc.D[0]
        cols = {d0.entries[i][0] for i in range(2)}
        assert cols == {uea.generator(0), uea.generator(1)}

    def test_abelian_is_de_rham(self):
        alg = abelian(3)
        rc = rumin_D(alg, identity_metric(alg))
        d_ops = invariant_de_rham(alg, rc.uea)
        for q in range(3):
            assert rc.D[q].order() == 1
            # harmonic bases are the identity here, so D must be d itself
            assert rc.D[q] == d_ops[q]

    def test_order_attained_not_exceeded(self):
        alg = algebra_235()
        rc = rumin_D(alg, identity_metric(alg))
        for q in range(5):
            orders = [e.order() for row in rc.D[q].entries
                      for e in row if not e.is_zero()]
            assert max(orders) == rc.k[q]

    @pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(1),
                                      lambda: heisenberg(2), lambda: heisenberg(3)])
    @pytest.mark.parametrize("metric", ["identity", "random"])
    def test_splitting_is_a_chain_map(self, make, metric, rng):
        # d_q L_q = L_{q+1} D_q; a wrong D breaks it
        alg = make()
        inner = (identity_metric(alg) if metric == "identity"
                 else random_graded_inner_product(alg, rng))
        rc = rumin_D(alg, inner)
        for q in range(alg.dim):
            assert rc.d_ops[q] @ rc.L[q] == rc.L[q + 1] @ rc.D[q]
        assert rc.d_ops[0] @ rc.L[0] != rc.L[1] @ rc.D[0].scale(2)

    @pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(2)])
    @pytest.mark.parametrize("metric", ["identity", "random"])
    def test_own_reference_changes_nothing(self, make, metric, rng):
        # [H | img d] has full column rank, so re-expressing a complex in its
        # own harmonic basis solves every column to e_j
        alg = make()
        inner = (identity_metric(alg) if metric == "identity"
                 else random_graded_inner_product(alg, rng))
        rc = rumin_D(alg, inner)
        assert expressed_over(rc, rc) == rc.D

    @pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(1),
                                      lambda: abelian(2, -2),
                                      lambda: scaled_235(random.Random(99)),
                                      lambda: heisenberg(2)])
    def test_metric_independence(self, make, rng):
        # D is the same in the reference basis, and the change of basis
        # C_q = pi_q^ref h_q^rc that expressed_over uses is the class map:
        # every column of h_q^rc - h_q^ref C_q is exact
        alg = make()
        base = rumin_D(alg, identity_metric(alg))
        for _ in range(5):
            rc = rumin_D(alg, random_graded_inner_product(alg, rng))
            assert expressed_over(rc, base) == base.D
            for q, (h, h_ref) in enumerate(zip(rc.cohomology.harmonic, base.cohomology.harmonic)):
                c = mat_mul(base.pis[q], h)
                diff = [[x - y for x, y in zip(r, s)] for r, s in zip(h, mat_mul(h_ref, c))]
                img = column_space(ce_differential(alg, q - 1))
                stacked = [[col[i] for col in img] + row for i, row in enumerate(diff)]
                assert rank(stacked) == len(img)


class TestStarDuality:
    def test_one_dimensional_classical(self):
        alg = abelian(1)
        report = star_duality_check(rumin_D(alg, identity_metric(alg)))
        assert report["all_hold"]

    @pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(1),
                                      lambda: heisenberg(2)])
    def test_presets(self, make):
        alg = make()
        report = star_duality_check(rumin_D(alg, identity_metric(alg)))
        assert report["all_hold"]
        assert all(report["degrees"].values())
        assert report["orders_palindromic"]

    def test_random_metric(self, rng):
        alg = heisenberg(1)
        inner = random_graded_inner_product(alg, rng)
        assert star_duality_check(rumin_D(alg, inner))["all_hold"]

    def test_opposite_orientation(self):
        alg = heisenberg(1)
        report = star_duality_check(rumin_D(alg, identity_metric(alg)), orientation=-1)
        assert report["all_hold"]


class TestExtendedMetrics235:
    def test_rumin_independent_of_extension(self, rng):
        # metrics extended from random 2x2 inner products on the plane
        # distribution still give the identical Rumin complex
        from fractions import Fraction as F

        from nilrumin.ce_cohomology import extend_metric_235
        from nilrumin.rational import mat_mul, transpose

        alg = algebra_235()
        base = rumin_D(alg, identity_metric(alg))
        for _ in range(3):
            a = [[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
            g = mat_mul(transpose(a), a)
            g[0][0] += 1
            g[1][1] += 1
            ext = extend_metric_235(alg, g)
            assert expressed_over(rumin_D(alg, ext), base) == base.D
