"""Flat-model Rumin complex.

Claims:
    - d = sum eps(theta^i) X_i + CE-part satisfies d^2 = 0 symbolically and
      its order-0 part is the CE differential
    - delta is order 0 with delta^2 = 0 and equals the CE adjoint
    - the splitting L satisfies its three defining conditions, is unique
      (perturbing any coefficient breaks a condition), and for h3 carries an
      order-1 correction into the theta^3 component; every coefficient in
      row I of L_q has Heisenberg order exactly weight(I) - p_q; a column
      block with a kernel, or an inconsistent one, is reported as
      AnsatzInsufficient from one call
    - each L-solve eliminates [a | rhs] exactly once (rank is not called), and
      its size is bounded before assembly by an upper bound on the cells of
      [a | rhs], computed before the cohomology too; heisenberg9 is inside
      MAX_SYSTEM_CELLS and heisenberg11 outside
    - D = pi d L: D^2 = 0, Heisenberg orders match k_q (h7 included), D_0 on
      the (2,3,5) model is (X_1, X_2), abelian models give back the full de
      Rham operator
    - D is exactly identical across random graded inner products once
      expressed over a common reference complex, and expressing a complex
      over itself changes nothing
    - the star conjugation identity (D_q)* = (-1)^(q+1) star^-1 D_{m-q-1} star
      holds on the (2,3,5), h3 and one-dimensional abelian models
    - non-pure algebras are rejected
"""

import random
from fractions import Fraction

import pytest

from nilrumin.ce_cohomology import (
    betti_and_weights,
    exterior_basis,
    identity_metric,
    random_graded_inner_product,
    weight_of,
)
from nilrumin import rumin_flat
from nilrumin.errors import AnsatzInsufficient, NotPure, OutOfRange
from nilrumin.graded_lie import abelian, algebra_235, build_algebra, heisenberg
from nilrumin.rational import orthogonal_projection
from nilrumin.rumin_flat import (
    _solve_L_degree,
    expressed_over,
    gr_equals_ce,
    invariant_de_rham,
    kostant_delta,
    rumin_D,
    solve_splitting_L,
    star_duality_check,
)
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
            assert (deltas[q] @ deltas[q + 1]).is_zero()
        assert all(deltas[q].order() == 0 for q in deltas)

    def test_abelian_delta_zero(self):
        deltas = kostant_delta(abelian(2), identity_metric(abelian(2)))
        assert all(d.is_zero() for d in deltas.values())

    def test_rank_on_two_forms(self):
        from nilrumin.rational import rank

        alg = algebra_235()
        deltas = kostant_delta(alg, identity_metric(alg))
        assert rank(deltas[2].order_zero_part()) == 3


class TestSplitting:
    def test_abelian_identity(self):
        alg = abelian(3)
        L, coh, _, _, _ = solve_splitting_L(alg, identity_metric(alg))
        for q, lq in enumerate(L):
            assert lq.order() == 0
            part = lq.order_zero_part()
            assert all(part[i][j] == (1 if i == j else 0)
                       for i in range(len(part)) for j in range(len(part[0])))

    def test_235_degree_zero_is_inclusion(self):
        alg = algebra_235()
        L, _, _, _, _ = solve_splitting_L(alg, identity_metric(alg))
        assert L[0].order() == 0

    def test_h3_order_one_correction(self):
        alg = heisenberg(1)
        L, _, _, _, _ = solve_splitting_L(alg, identity_metric(alg))
        l1 = L[1]
        assert l1.order() == 1
        # the theta^3 row carries the order-1 coefficients
        theta3_row = l1.entries[2]
        assert any(not e.is_zero() and e.order() == 1 for e in theta3_row)

    @pytest.mark.parametrize("make,degrees", [
        (lambda: heisenberg(1), (0, 1, 2, 3)),
        (algebra_235, (1, 2)),
    ])
    def test_uniqueness_by_perturbation(self, make, degrees):
        # adding 1 to any single monomial coefficient of L breaks a condition
        alg = make()
        inner = identity_metric(alg)
        uea = UEA(alg)
        L, coh, d_ops, deltas, pis = solve_splitting_L(alg, inner, uea)
        for q in degrees:
            lq = L[q]
            proj_op = pis[q]
            ident = UEAOperatorMatrix.from_scalar(
                uea, [[1 if i == j else 0 for j in range(coh.betti[q])]
                      for i in range(coh.betti[q])])

            def conditions_hold(op):
                if q >= 1 and not (deltas[q] @ op).is_zero():
                    return False
                if q < alg.dim and not (deltas[q + 1] @ (d_ops[q] @ op)).is_zero():
                    return False
                return (proj_op @ op) == ident

            assert conditions_hold(lq)
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

    def test_underdetermined_block_raises(self):
        # without the delta conditions, pi L = id alone leaves L free
        alg = heisenberg(1)
        inner = identity_metric(alg)
        uea = UEA(alg)
        coh = betti_and_weights(alg, inner)
        proj = orthogonal_projection(coh.harmonic[1], inner.lambda_gram(1))
        blocks = [UEAOperatorMatrix.from_scalar(uea, proj)]
        with pytest.raises(AnsatzInsufficient):
            _solve_L_degree(alg, uea, coh, blocks, 1)

    def test_inconsistent_block_raises(self):
        # [pi_q, pi_q] asks for pi L = 0 and pi L = id at once; no order
        # slack is tried, so one call names the inconsistency
        alg = heisenberg(1)
        inner, uea = identity_metric(alg), UEA(alg)
        coh = betti_and_weights(alg, inner)
        proj = UEAOperatorMatrix.from_scalar(
            uea, orthogonal_projection(coh.harmonic[1], inner.lambda_gram(1)))
        with pytest.raises(AnsatzInsufficient, match="degree 1 is inconsistent"):
            _solve_L_degree(alg, uea, coh, [proj, proj], 1)

    @pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(1),
                                      lambda: heisenberg(2), lambda: heisenberg(3)])
    @pytest.mark.parametrize("metric", ["identity", "random"])
    def test_entries_have_exactly_the_defect_order(self, make, metric, rng):
        # every coefficient in row I of L_q has Heisenberg order weight(I) - p_q
        alg = make()
        inner = (identity_metric(alg) if metric == "identity"
                 else random_graded_inner_product(alg, rng))
        uea = UEA(alg)
        L, coh, _, _, _ = solve_splitting_L(alg, inner, uea)
        for q, lq in enumerate(L):
            for I, row in zip(exterior_basis(alg.dim, q), lq.entries):
                orders = {uea.monomial_order(mono)
                          for e in row for mono, c in e.coeffs.items() if c}
                assert orders <= {weight_of(alg, I) - coh.p[q]}

    def test_not_pure_rejected(self):
        mixed = build_algebra((-1, -2), {})  # H^1 weights {1, 2}
        with pytest.raises(NotPure):
            solve_splitting_L(mixed, identity_metric(mixed))


class TestOneElimination:
    def test_one_row_echelon_per_solve(self, monkeypatch):
        echelons, per_call = [], []
        echelon, solve_degree = rumin_flat.row_echelon, rumin_flat._solve_L_degree

        def counted_echelon(a):
            echelons.append(a)
            return echelon(a)

        def counted_solve(*args):
            before = len(echelons)
            try:
                return solve_degree(*args)
            finally:
                per_call.append(len(echelons) - before)

        monkeypatch.setattr(rumin_flat, "row_echelon", counted_echelon)
        monkeypatch.setattr(rumin_flat, "_solve_L_degree", counted_solve)
        for alg in (algebra_235(), heisenberg(2)):
            rumin_D(alg, identity_metric(alg))
        assert len(per_call) == 6 + 6 and per_call == [1] * len(per_call)
        # an underdetermined block is told apart by the same one elimination
        alg = heisenberg(1)
        inner, uea = identity_metric(alg), UEA(alg)
        coh = betti_and_weights(alg, inner)
        proj = orthogonal_projection(coh.harmonic[1], inner.lambda_gram(1))
        with pytest.raises(AnsatzInsufficient):
            rumin_flat._solve_L_degree(alg, uea, coh, [UEAOperatorMatrix.from_scalar(uea, proj)],
                                       1)
        assert per_call[-1] == 1
        assert not hasattr(rumin_flat, "rank")


class TestSystemBound:
    @pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(1),
                                      lambda: heisenberg(2), lambda: heisenberg(3)])
    def test_bound_covers_the_system(self, make, monkeypatch):
        # per degree: bound before the cohomology >= bound with the actual
        # p_q and b_q >= cells of the [a | rhs] that is eliminated
        bounds, cells = [], []
        check, echelon = rumin_flat._check_system_size, rumin_flat.row_echelon
        monkeypatch.setattr(rumin_flat, "_check_system_size",
                            lambda *args: bounds.append(check(*args)) or bounds[-1])
        monkeypatch.setattr(rumin_flat, "row_echelon",
                            lambda a: cells.append(len(a) * len(a[0])) or echelon(a))
        alg = make()
        rc = rumin_D(alg, identity_metric(alg))
        n = alg.dim + 1
        assert len(bounds) == n and len(cells) == n
        for q in range(n):
            actual = check(alg, q, rc.p[q], rc.cohomology.betti[q])
            assert bounds[q] >= actual >= cells[q]

    def test_heisenberg11_rejected_before_cohomology(self, monkeypatch):
        monkeypatch.setattr(rumin_flat, "betti_and_weights",
                            lambda *args: pytest.fail("cohomology formed"))
        alg = heisenberg(5)
        with pytest.raises(OutOfRange, match="MAX_SYSTEM_CELLS"):
            solve_splitting_L(alg, identity_metric(alg))


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
                                      lambda: scaled_235(random.Random(99))])
    def test_metric_independence(self, make, rng):
        alg = make()
        base = rumin_D(alg, identity_metric(alg))
        for _ in range(5):
            inner = random_graded_inner_product(alg, rng)
            assert expressed_over(rumin_D(alg, inner), base) == base.D


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
