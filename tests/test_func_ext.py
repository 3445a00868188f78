"""Hermitian extensions of symmetric functionals on matrix-algebra ideals."""

import tracemalloc

import numpy as np
import pytest

from opext.errors import DimensionMismatch, HypothesisViolated, NotFBounded, NotSymmetric
from opext.func_ext import (
    FunctionalMatrix,
    LeftIdeal,
    PartialFunctional,
    _ideal_agreement,
    _witness_constant,
    cstar_extendibility,
    extend_functional,
    f_bound,
    functional_interval_member,
    gns,
    gns_realization,
    hahn_jordan,
    is_symmetric_on_ideal,
)
from opext.numkit import HermitianMatrix, PsdMatrix, Tolerances, eigh_desc, loewner_leq
from opext.oracle import Rng, min_completion_search
from opext.sa_ext import extend_symmetric
from planted import planted

E11 = np.diag([1.0, 0.0])


def matrix_units(m):
    out = []
    for i in range(m):
        for j in range(m):
            e = np.zeros((m, m), dtype=np.complex128)
            e[i, j] = 1.0
            out.append(e)
    return out


def fixture_functional():
    """g_0(a) = a_00 on the first-column ideal of M_2(C)."""
    return PartialFunctional(LeftIdeal(E11), E11)


class TestIdealAndFunctional:
    def test_non_projector_rejected(self):
        with pytest.raises(ValueError, match="projector"):
            LeftIdeal(np.diag([0.5, 0.0]))

    def test_basis_spans_ideal(self):
        ideal = LeftIdeal(E11)
        for a in ideal.basis():
            assert np.array_equal(a @ ideal.projection.a, a)

    def test_canonical_representative(self):
        pf = PartialFunctional(LeftIdeal(E11), np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(pf.gamma.a, np.array([[1.0, 2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("where", [(0, 1), (1, 0)], ids=["kept-row", "projected-row"])
    def test_non_finite_gamma_rejected(self, bad, where):
        # P = E11 drops row 1 of gamma, but 0 * nan and 0 * inf are nan, so P gamma is not finite either
        gamma = np.zeros((2, 2), dtype=np.complex128)
        gamma[where] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^matrix entries must be finite$"):
            PartialFunctional(LeftIdeal(E11), gamma)

    def test_gamma_of_the_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatch, match="^gamma must be 2x2, got 3x3$"):
            PartialFunctional(LeftIdeal(E11), np.eye(3))

    def test_evaluation(self):
        pf = fixture_functional()
        assert pf(np.array([[5.0, 0.0], [7.0, 0.0]])) == pytest.approx(5.0)


class TestSymmetry:
    def test_trace_restriction_symmetric(self):
        ideal = LeftIdeal(E11)
        assert is_symmetric_on_ideal(PartialFunctional(ideal, ideal.projection.a))

    def test_hermitian_density_on_full_algebra_symmetric(self):
        pf = PartialFunctional(LeftIdeal(np.eye(2)), np.array([[1.0, 2.0], [2.0, -1.0]]))
        assert is_symmetric_on_ideal(pf)

    def test_nilpotent_density_not_symmetric(self):
        pf = PartialFunctional(LeftIdeal(np.eye(2)), np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not is_symmetric_on_ideal(pf)

    def test_fixture_symmetric(self):
        assert is_symmetric_on_ideal(fixture_functional())

    @staticmethod
    def pairwise_symmetric(pf):
        """The defining test g_0(b* a) = conj g_0(a* b) over all basis pairs."""
        gamma = pf.gamma.a
        scale = 1e-8 * (1.0 + np.linalg.norm(gamma))
        basis = pf.ideal.basis()
        for a in basis:
            for b in basis:
                lhs = np.trace(gamma @ b.conj().T @ a)
                rhs = np.conj(np.trace(gamma @ a.conj().T @ b))
                if abs(lhs - rhs) > scale:
                    return False
        return True

    @staticmethod
    def random_case(gen, m):
        basis = np.linalg.qr(gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m)))[0]
        keep = basis[:, : int(gen.integers(1, m + 1))]
        h = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
        skew = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
        return LeftIdeal(keep @ keep.conj().T), h + h.conj().T, skew

    def test_matches_pairwise_definition(self):
        # symmetric and clearly asymmetric densities, m <= 4
        for i in range(40):
            gen = Rng(47).split(i).generator()
            ideal, herm, skew = self.random_case(gen, int(gen.integers(1, 5)))
            for gamma in (herm, herm + skew, skew):
                pf = PartialFunctional(ideal, gamma)
                assert is_symmetric_on_ideal(pf) == self.pairwise_symmetric(pf)

    def test_matches_pairwise_definition_at_the_tolerance(self):
        # asymmetry scaled to 0.9x and 1.1x the tolerance
        for i in range(40):
            gen = Rng(48).split(i).generator()
            ideal, herm, skew = self.random_case(gen, int(gen.integers(1, 5)))
            p = ideal.projection.a
            unit = np.abs(p @ (p @ skew - (p @ skew).conj().T) @ p).max()
            if unit < 1e-3:
                continue  # the ideal hides the skew part
            limit = 1e-8 * (1.0 + np.linalg.norm(p @ herm))
            for factor, expected in ((0.9, True), (1.1, False)):
                pf = PartialFunctional(ideal, herm + (factor * limit / unit) * skew)
                assert self.pairwise_symmetric(pf) is expected
                assert is_symmetric_on_ideal(pf) is expected


class TestDecisionsAtEveryScale:
    # from about 1.3e154 on, a Frobenius norm overflows on both sides of a rule and inf > inf is False;
    # each rule is degree-1 homogeneous, so it then decides on the data times a power of two (numpy warns
    # on the way, in the overflowing products)

    SCALES = [1.0, 1e100, 1e160, 1e200]

    @pytest.mark.parametrize("c", [1e150, 1e160, 1e200])
    def test_overflowing_non_projector_rejected(self, c):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="projector"):
            LeftIdeal(np.diag([c, 0.0]))

    @pytest.mark.parametrize("c", SCALES)
    def test_symmetry_on_ideal(self, c):
        full = LeftIdeal(np.eye(2))
        nilpotent = PartialFunctional(full, c * np.array([[0.0, 1.0], [0.0, 0.0]]))
        with np.errstate(over="ignore"):
            assert is_symmetric_on_ideal(PartialFunctional(full, c * np.array([[1.0, 2.0], [2.0, -1.0]])))
            assert not is_symmetric_on_ideal(nilpotent)
            with pytest.raises(NotSymmetric):
                cstar_extendibility(nilpotent)


class TestIdealAgreement:
    def test_matches_elementwise_definition(self):
        for i in range(20):
            gen = Rng(49).split(i).generator()
            m = int(gen.integers(1, 5))
            basis = np.linalg.qr(gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m)))[0]
            keep = basis[:, : int(gen.integers(1, m + 1))]
            pf = PartialFunctional(LeftIdeal(keep @ keep.conj().T), gen.standard_normal((m, m)))
            phi = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
            want = max(abs(np.trace(phi @ a) - pf(a)) for a in pf.ideal.basis())
            assert abs(_ideal_agreement(pf, phi) - want) <= 1e-12 * (1 + want)

    def test_restriction_agrees_exactly(self):
        pf = fixture_functional()
        assert _ideal_agreement(pf, np.array([[1.0, 0.0], [5.0, 3.0]])) == 0.0


class TestGns:
    def test_dimensions(self):
        assert gns(np.eye(2)).dim == 4
        assert gns(E11).dim == 2
        assert gns(np.zeros((2, 2))).dim == 0

    def test_representation_laws(self):
        for density in (np.eye(2), np.diag([2.0, 0.5]), E11):
            space = gns(density)
            units = matrix_units(2)
            for x in units:
                for y in units:
                    xy = space.rep(x) @ space.rep(y)
                    assert np.abs(xy - space.rep(x @ y)).max() <= 1e-10
                star = space.rep(x.conj().T) - space.rep(x).conj().T
                assert np.abs(star).max() <= 1e-10

    def test_vector_state_recovers_functional(self):
        gen = Rng(45).generator()
        from opext.oracle import random_psd

        density = random_psd(gen, 3) + 0.1 * np.eye(3)
        space = gns(density)
        for x in matrix_units(3):
            want = np.trace(density @ x)
            assert abs(space.functional_value(x) - want) <= 1e-9 * (1 + abs(want))

    def test_cyclic_vector_is_class_of_identity(self):
        space = gns(np.diag([2.0, 0.5]))
        np.testing.assert_allclose(space.vector(np.eye(2)), space.cyclic.a[:, 0])

    def test_inner_product_realizes_functional_pairing(self):
        # <[a], [x]> = f(x* a) in GNS coordinates
        gen = Rng(46).generator()
        from opext.oracle import random_psd

        density = random_psd(gen, 2) + 0.2 * np.eye(2)
        space = gns(density)
        for a in matrix_units(2):
            for x in matrix_units(2):
                got = np.vdot(space.vector(x), space.vector(a))
                want = np.trace(density @ (x.conj().T @ a))
                assert abs(got - want) <= 1e-9 * (1 + abs(want))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_kronecker_structure_is_exact(self, m):
        # the space is I_m (x) (lift of F): rep(x) = x (x) I_r, the class of x
        # is x J row by row, and the cyclic vector is the class of I
        from opext.oracle import complex_gaussian, random_psd

        gen = Rng(47).split(m).generator()
        for rank in range(m + 1):
            space = gns(random_psd(gen, m, rank=rank))
            assert space.row.rank == rank
            assert space.density is space.row.weight
            assert space.dim == m * rank
            j = space.row.embedding()
            for x in (complex_gaussian(gen, m, m), np.eye(m)):
                assert np.array_equal(space.rep(x), np.kron(x, np.eye(rank)))
                assert np.array_equal(space.vector(x), (x @ j).reshape(-1))
            assert np.array_equal(space.cyclic.a[:, 0], space.vector(np.eye(m)))

    def test_no_array_larger_than_the_algebra(self):
        import dataclasses

        from opext.numkit import ComplexMatrix
        from opext.oracle import random_psd

        m = 16
        space = gns(random_psd(Rng(48).generator(), m))
        assert space.dim == m * m
        values = [getattr(space, f.name) for f in dataclasses.fields(space)]
        values += [getattr(space.row, f.name) for f in dataclasses.fields(space.row)]
        arrays = [v.a if isinstance(v, ComplexMatrix) else v for v in values]
        rows = [a.shape[0] for a in arrays if isinstance(a, np.ndarray)]
        assert len(rows) == 5 and max(rows) <= m  # the weight, Q, rho and the held J, and the density


# LeftIdeal accepts diag(1, 5e-9, 0): its idempotency residual 5e-9 is within
# eq (1 + ||P||_F), so the ideal is that of diag(1, 0, 0), and so must be
# everything computed on it
NEAR_PROJECTOR = np.diag([1.0, 5e-9, 0.0])
EXACT_PROJECTOR = np.diag([1.0, 0.0, 0.0])


def near_projector_gamma():
    """Hermitian part of a 3x3 complex Gaussian: symmetric on either ideal, and its own extension."""
    gen = np.random.default_rng(3)
    x = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    return (x + x.conj().T) / 2


class TestNearProjector:
    def test_extend_functional_matches_the_projector(self):
        gamma = near_projector_gamma()
        near, exact = (
            extend_functional(PartialFunctional(LeftIdeal(p), gamma), np.eye(3)) for p in (NEAR_PROJECTOR, EXACT_PROJECTOR)
        )
        assert near[2] == exact[2]
        for got, want in zip(near[:2], exact[:2]):
            assert np.array_equal(got.density.a, want.density.a)

    def test_cstar_extendibility_matches_the_projector(self):
        gamma = near_projector_gamma()
        near, exact = (
            cstar_extendibility(PartialFunctional(LeftIdeal(p), gamma), extension=gamma)
            for p in (NEAR_PROJECTOR, EXACT_PROJECTOR)
        )
        for name in ("alpha", "exact_bound", "measured_bound"):
            assert getattr(near, name) == getattr(exact, name)
        for name in ("g_min", "g_max"):
            assert np.array_equal(getattr(near, name).density.a, getattr(exact, name).density.a)
        assert near.constant4_ok and near.violations == 0


class TestExtensionFixture:
    def test_oracle_sweep_confirms_endpoints(self):
        # hermitian extensions of the fixture with trace-bound 1 are
        # exactly diag(1, t) with |t| <= 1
        def family(p):
            return np.diag([1.0, p[0]])

        def feasible(phi):
            extends = abs(phi[0, 0] - 1.0) <= 1e-12 and abs(phi[0, 1]) <= 1e-12
            return extends and np.linalg.norm(phi, 2) <= 1.0 + 1e-9

        low = min_completion_search(
            family, feasible, lambda phi: phi[1, 1].real,
            bounds=[(-2.0, 2.0)], resolution=1001,
        )
        high = min_completion_search(
            family, feasible, lambda phi: -phi[1, 1].real,
            bounds=[(-2.0, 2.0)], resolution=1001,
        )
        assert low[1] == pytest.approx(-1.0, abs=1e-9)
        assert -high[1] == pytest.approx(1.0, abs=1e-9)

    def test_fixture_extensions(self):
        g_min, g_max, alpha = extend_functional(fixture_functional(), np.eye(2))
        assert alpha == pytest.approx(1.0, abs=1e-10)
        assert np.abs(g_min.density.a - np.diag([1.0, -1.0])).max() <= 1e-8
        assert np.abs(g_max.density.a - np.diag([1.0, 1.0])).max() <= 1e-8

    def test_f_bound_matches(self):
        assert f_bound(fixture_functional(), np.eye(2)) == pytest.approx(1.0, abs=1e-10)

    def test_extensions_agree_on_ideal(self):
        pf = fixture_functional()
        g_min, g_max, _ = extend_functional(pf, np.eye(2))
        for a in pf.ideal.basis():
            assert abs(g_min(a) - pf(a)) <= 1e-9
            assert abs(g_max(a) - pf(a)) <= 1e-9

    def test_full_ideal_collapses(self):
        phi = np.array([[1.0, 2.0], [2.0, -1.0]])
        pf = PartialFunctional(LeftIdeal(np.eye(2)), phi)
        g_min, g_max, alpha = extend_functional(pf, np.eye(2))
        assert np.abs(g_min.density.a - phi).max() <= 1e-8
        assert np.abs(g_max.density.a - phi).max() <= 1e-8
        assert alpha == pytest.approx(np.linalg.norm(phi, 2), rel=1e-9)

    def test_zero_functional(self):
        pf = PartialFunctional(LeftIdeal(E11), np.zeros((2, 2)))
        g_min, g_max, alpha = extend_functional(pf, np.eye(2))
        assert alpha == 0.0
        assert np.linalg.norm(g_min.density.a) <= 1e-10
        assert np.linalg.norm(g_max.density.a) <= 1e-10

    def test_unbounded_relative_to_degenerate_weight(self):
        pf = PartialFunctional(LeftIdeal(np.eye(2)), E11)
        with pytest.raises(NotFBounded):
            f_bound(pf, np.diag([0.0, 1.0]))


class TestRealizationLaws:
    def test_extension_realizes_functional_through_cyclic_vector(self):
        # <S [a], [x]> = g_0(x* a) for the extremal extension S
        for seed in range(8):
            child = Rng(47).split(seed)
            gen = child.generator()
            m = int(gen.integers(1, 4))
            (pf, density, _), _ = planted("functional", (m,), child.split(0))
            space, op = gns_realization(pf, density)
            interval = extend_symmetric(op, PsdMatrix(np.eye(space.dim)))
            s = interval.s_min.a
            scale = 1 + np.linalg.norm(pf.gamma.a) * np.linalg.norm(density.a)
            for a in pf.ideal.basis():
                for x in matrix_units(m):
                    got = np.vdot(space.vector(x), s @ space.vector(a))
                    want = pf(x.conj().T @ a)
                    assert abs(got - want) <= 1e-7 * scale

    def test_extremal_extension_commutes_with_representation(self):
        for seed in range(8):
            child = Rng(48).split(seed)
            gen = child.generator()
            m = int(gen.integers(1, 4))
            (partial, density, _), _ = planted("functional", (m,), child.split(0))
            space, op = gns_realization(partial, density)
            interval = extend_symmetric(op, PsdMatrix(np.eye(space.dim)))
            for s in (interval.s_min.a, interval.s_max.a):
                for x in matrix_units(m):
                    r = space.rep(x)
                    resid = np.linalg.norm(r @ s - s @ r)
                    assert resid <= 1e-8 * (1 + np.linalg.norm(s, 2))


class TestHahnJordan:
    def test_signature_split(self):
        plus, minus = hahn_jordan(FunctionalMatrix(np.diag([1.0, -1.0])))
        np.testing.assert_allclose(plus.density.a, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(minus.density.a, np.diag([0.0, 1.0]), atol=1e-12)

    def test_positive_part_only(self):
        phi = np.diag([2.0, 3.0])
        plus, minus = hahn_jordan(FunctionalMatrix(phi))
        np.testing.assert_allclose(plus.density.a, phi, atol=1e-12)
        assert np.linalg.norm(minus.density.a) <= 1e-12

    def test_offdiagonal_split(self):
        plus, minus = hahn_jordan(FunctionalMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(plus.density.a, 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-10)
        np.testing.assert_allclose(minus.density.a, 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-10)

    def test_difference_and_mutual_singularity(self):
        for seed in range(10):
            gen = Rng(49).split(seed).generator()
            from opext.oracle import random_hermitian

            phi = random_hermitian(gen, 4)
            plus, minus = hahn_jordan(FunctionalMatrix(phi))
            zero = np.zeros((4, 4))
            assert loewner_leq(zero, plus.density) and loewner_leq(zero, minus.density)
            assert np.abs(plus.density.a - minus.density.a - phi).max() <= 1e-10 * (
                1 + np.linalg.norm(phi)
            )
            assert np.linalg.norm(plus.density.a @ minus.density.a) <= 1e-9 * (
                1 + np.linalg.norm(phi) ** 2
            )


class TestIntervalMembership:
    def test_endpoints_and_midpoint(self):
        g_min, g_max, _ = extend_functional(fixture_functional(), np.eye(2))
        assert functional_interval_member(g_min, g_min, g_max)
        assert functional_interval_member(g_max, g_min, g_max)
        mid = FunctionalMatrix((g_min.density.a + g_max.density.a) / 2)
        assert functional_interval_member(mid, g_min, g_max)

    def test_outsider_rejected(self):
        g_min, g_max, _ = extend_functional(fixture_functional(), np.eye(2))
        assert not functional_interval_member(FunctionalMatrix(2.0 * np.eye(2)), g_min, g_max)

    def test_accepts_plain_arrays(self):
        assert functional_interval_member(np.zeros((2, 2)), -np.eye(2), np.eye(2))


class TestCstarExtendibility:
    def test_fixture_with_known_extension(self):
        pf = fixture_functional()
        decision = cstar_extendibility(pf, extension=FunctionalMatrix(np.diag([1.0, -1.0])))
        assert decision.extendible
        # f = g_+ + g_- for the supplied extension is the plain trace
        np.testing.assert_allclose(decision.density.density.a, np.eye(2), atol=1e-10)
        assert decision.alpha == pytest.approx(1.0, abs=1e-8)
        assert np.abs(decision.g_min.density.a - np.diag([1.0, -1.0])).max() <= 1e-8
        assert np.abs(decision.g_max.density.a - np.diag([1.0, 1.0])).max() <= 1e-8
        assert decision.violations == 0
        assert decision.constant4_ok
        assert decision.measured_bound <= 4.0
        assert decision.measured_bound == pytest.approx(1.0, abs=0.05)
        # 10 000 random pairs stay below the sharp constant the closed-form pair attains
        sampled, violations = reference_sampled_constant(
            pf, decision.density.density.a, 10_000, Rng(50).generator(), 1e-8
        )
        assert sampled <= decision.exact_bound * (1.0 + 1e-8)
        assert violations == 0

    def test_zero_functional_extendible(self):
        decision = cstar_extendibility(PartialFunctional(LeftIdeal(E11), np.zeros((2, 2))))
        assert decision.extendible
        assert decision.alpha == 0.0
        assert decision.constant4_ok is None

    def test_not_symmetric_raises(self):
        pf = PartialFunctional(LeftIdeal(np.eye(2)), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotSymmetric):
            cstar_extendibility(pf)

    def test_non_extension_rejected(self):
        with pytest.raises(HypothesisViolated, match="extend"):
            cstar_extendibility(
                fixture_functional(), extension=FunctionalMatrix(2.0 * np.eye(2))
            )

    def test_random_instances(self):
        for i in range(50):
            child = Rng(51).split(i)
            gen = child.generator()
            m = int(gen.integers(1, 5))
            (pf, _, source), witness = planted("functional", (m,), child.split(0))
            # the planted source restricts to the partial data
            for a in pf.ideal.basis():
                assert abs(source(a) - pf(a)) <= 1e-9 * (1 + np.linalg.norm(witness["source"]))
            decision = cstar_extendibility(pf, extension=source)
            assert decision.extendible
            assert decision.violations == 0
            assert decision.constant4_ok
            assert decision.measured_bound <= 4.0 + 1e-8
            sampled, violations = reference_sampled_constant(
                pf, decision.density.density.a, 500, child.split(1).generator(), 1e-8
            )
            assert sampled <= decision.exact_bound * (1.0 + 1e-8)
            assert violations == 0
            scale = 1e-7 * (1 + np.linalg.norm(pf.gamma.a))
            for a in pf.ideal.basis():
                assert abs(decision.g_min(a) - pf(a)) <= scale
                assert abs(decision.g_max(a) - pf(a)) <= scale
            for g in (decision.g_min.density.a, decision.g_max.density.a):
                assert np.linalg.norm(g - g.conj().T) <= 1e-10 * (1 + np.linalg.norm(g))
            assert functional_interval_member(decision.g_min, decision.g_min, decision.g_max)

    def test_exact_bound_is_alpha_and_decides_constant4(self):
        decision = cstar_extendibility(
            fixture_functional(), extension=FunctionalMatrix(np.diag([1.0, -1.0]))
        )
        assert decision.exact_bound == decision.alpha
        assert decision.constant4_ok is True
        assert decision.measured_bound <= decision.exact_bound * (1.0 + 1e-8)

    def test_exact_bound_under_a_density_override(self):
        # alpha is taken against the override; exact_bound still against |Phi|
        phi = np.diag([1.0, -1.0])
        decision = cstar_extendibility(
            fixture_functional(), density=4.0 * np.eye(2), extension=FunctionalMatrix(phi)
        )
        assert decision.alpha == pytest.approx(0.25, abs=1e-10)
        assert decision.exact_bound == pytest.approx(f_bound(fixture_functional(), np.eye(2)), abs=1e-14)
        assert decision.exact_bound == pytest.approx(1.0, abs=1e-10)

    def test_no_extension_no_exact_bound(self):
        assert cstar_extendibility(fixture_functional()).exact_bound is None

    @pytest.mark.parametrize("c", [1.0, 1e-4, 1e-9])
    def test_non_extension_rejected_at_every_scale(self, c):
        # c diag(-1, 0) gets g_0 = c E11 wrong by 200% on the ideal at any c
        pf = PartialFunctional(LeftIdeal(E11), c * E11)
        with pytest.raises(HypothesisViolated, match="extend"):
            cstar_extendibility(pf, extension=FunctionalMatrix(c * np.diag([-1.0, 0.0])))


def scaled_functional(partial, source, k):
    """The instance's partial data and source, restricted from Phi scaled by 2^k."""
    c = 2.0**k
    return PartialFunctional(partial.ideal, c * source.density.a), FunctionalMatrix(c * source.density.a)


class TestCstarClosedFormPair:
    def test_rng_is_ignored(self):
        (partial, _, source), _ = planted("functional", (6,), Rng(3))
        gen = np.random.default_rng(8)
        before = gen.bit_generator.state
        decision = cstar_extendibility(partial, extension=source, rng=gen)
        assert gen.bit_generator.state == before
        assert decision.violations == 0

    def test_default_peak_allocation(self):
        # drawing the 10 000 pairs the default once sampled peaked at 17.9 MB here
        (partial, _, source), _ = planted("functional", (6,), Rng(3))
        cstar_extendibility(partial, extension=source)  # warm caches outside the trace
        tracemalloc.start()
        try:
            cstar_extendibility(partial, extension=source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("override", [False, True])
    def test_measured_bound_attains_exact_bound(self, override):
        for i in range(60):
            child = Rng(206).split(i)
            m = int(child.generator().integers(1, 8))
            (partial, _, source), _ = planted("functional", (m,), child.split(0))
            density = None
            if override:
                z = np.random.default_rng([206, i]).standard_normal((m, 2 * m)).view(np.complex128)
                density = z @ z.conj().T
            decision = cstar_extendibility(partial, density=density, extension=source)
            assert decision.violations == 0
            assert decision.measured_bound == pytest.approx(decision.exact_bound, rel=1e-12, abs=0.0)

    def test_default_decomposition_count(self, decompositions):
        (partial, _, source), _ = planted("functional", (4,), Rng(3))
        with decompositions:
            cstar_extendibility(partial, extension=source)
        # eigh of Phi, whose eigenpairs also lift |Phi|^T; the svds of U and of Y; the endpoints' eigh of P* Y
        assert len(decompositions) == 4

    def test_trace_density_decomposition_count(self, decompositions):
        (partial, _, _), _ = planted("functional", (4,), Rng(3))
        with decompositions:
            cstar_extendibility(partial)
        # f = I is lifted from its known eigenpairs (ones, I): the svds of U and of Y, the endpoints' eigh of P* Y
        assert decompositions.shapes() == [(4, 2), (4, 2), (2, 2)]

    @pytest.mark.parametrize("k", [-60, -40, -20, 20, 40, 60])
    def test_scale_invariant(self, k):
        (partial, _, source), _ = planted("functional", (6,), Rng(4))
        base, scaled = (
            cstar_extendibility(pf, extension=phi)
            for pf, phi in (scaled_functional(partial, source, 0), scaled_functional(partial, source, k))
        )
        assert scaled.measured_bound == base.measured_bound
        assert scaled.violations == base.violations


def reference_sampled_constant(pf, f_density, samples, gen, eq):
    """Largest ratio |g_0(x* a)| / sqrt(f(x* x) f(a* a)) over random pairs, and the count above 4.

    Plain numpy: complex Gaussian (x, a0) drawn from ``gen``, a = a0 P in
    the ideal, batched matmuls and three-operand einsum forms in F; pairs
    whose denominator is at most ``eq`` are skipped.
    """
    m = pf.size
    p = pf.ideal.projection.a
    xs = (gen.standard_normal((samples, m, m)) + 1j * gen.standard_normal((samples, m, m))) / np.sqrt(2)
    a0 = (gen.standard_normal((samples, m, m)) + 1j * gen.standard_normal((samples, m, m))) / np.sqrt(2)
    aa = a0 @ p
    vals = np.abs(np.einsum("bwv,bwv->b", xs.conj(), aa @ pf.gamma.a))
    fxx = np.einsum("ij,bkj,bki->b", f_density, xs.conj(), xs).real
    faa = np.einsum("ij,bkj,bki->b", f_density, aa.conj(), aa).real
    denom = np.sqrt(np.clip(fxx, 0.0, None) * np.clip(faa, 0.0, None))
    keep = denom > eq
    ratios = vals[keep] / denom[keep]
    return (float(ratios.max()) if ratios.size else 0.0), int(np.count_nonzero(ratios > 4.0 + eq))


def witness_case(m, rank_p, rank_phi, seed):
    """Symmetric partial data on a rank-``rank_p`` ideal, restricted from a Hermitian Phi of rank ``rank_phi``."""
    gen = np.random.default_rng(seed)

    def unitary():
        z = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
        return np.linalg.qr(z)[0]

    u = unitary()
    w = np.zeros(m)
    w[:rank_phi] = gen.choice([-1.0, 1.0], rank_phi) * gen.uniform(0.1, 3.0, rank_phi)
    phi = (u * w) @ u.conj().T
    phi = (phi + phi.conj().T) / 2
    q = unitary()[:, :rank_p]
    return PartialFunctional(LeftIdeal(q @ q.conj().T), phi), phi


def witness(pf, phi, c=1.0):
    """``_witness_constant`` for the extension c Phi of c g_0, from one eigendecomposition of Phi."""
    w, v = eigh_desc(HermitianMatrix(phi))
    scaled = PartialFunctional(pf.ideal, c * pf.gamma.a)
    return _witness_constant(scaled, c * w, v, v * np.sqrt(np.abs(c * w)), Tolerances())


WITNESS_CASES = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (6, 3, 6), (6, 2, 4), (6, 5, 3), (16, 5, 16), (16, 16, 10), (16, 8, 8)]


class TestWitnessConstant:
    @pytest.mark.parametrize("m, rank_p, rank_phi", WITNESS_CASES)
    def test_matches_reference(self, m, rank_p, rank_phi):
        # the pair a = P, x = P U evaluated in plain numpy, and random pairs below it
        pf, phi = witness_case(m, rank_p, rank_phi, seed=100 + m + rank_p + rank_phi)
        measured, violations = witness(pf, phi)
        lam, v = np.linalg.eigh(phi)
        f_density = (v * np.abs(lam)) @ v.conj().T
        p = pf.ideal.projection.a
        x = p @ (v * np.sign(lam)) @ v.conj().T
        value = abs(np.trace(pf.gamma.a @ x.conj().T @ p))
        expected = value / np.sqrt(np.trace(x @ f_density @ x.conj().T).real * np.trace(p @ f_density @ p).real)
        assert measured == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert measured == pytest.approx(1.0, rel=1e-13, abs=0.0)
        assert violations == 0
        for seed in range(3):
            sampled, sampled_violations = reference_sampled_constant(
                pf, f_density, 2000, Rng(seed).generator(), Tolerances().eq
            )
            assert sampled <= measured * (1.0 + Tolerances().eq)
            assert sampled_violations == 0

    def test_degenerate_pair(self):
        # P |Phi| P = 0: g_0 vanishes, and so does the pair's denominator
        pf = PartialFunctional(LeftIdeal(E11), np.zeros((2, 2)))
        assert witness(pf, np.diag([0.0, -2.0])) == (0.0, 0)

    @pytest.mark.parametrize("k", [-60, -40, -30, -20, 20, 40, 60])
    def test_cutoff_scale_invariant(self, k):
        # an absolute cutoff would drop the pair at k = -40
        pf, phi = witness_case(6, 3, 6, seed=9)
        base, scaled = (witness(pf, phi, c) for c in (1.0, 2.0**k))
        assert scaled == base
        assert base[0] > 0.0


class TestCstarDecidesSymmetryOnce:
    @pytest.mark.parametrize("override", [False, True])
    @pytest.mark.parametrize("with_extension", [False, True])
    def test_one_symmetry_test_per_call(self, monkeypatch, override, with_extension):
        import opext.func_ext as func_ext

        (partial, _, source), _ = planted("functional", (4,), Rng(3))
        calls = []
        original = func_ext._symmetric_scale

        def counted(pf, eq):
            calls.append(pf)
            return original(pf, eq)

        monkeypatch.setattr(func_ext, "_symmetric_scale", counted)
        density = 2.0 * np.eye(4) if override else None
        decision = cstar_extendibility(partial, density=density, extension=source if with_extension else None)
        assert len(calls) == 1
        assert decision.extendible

    def test_public_entry_points_still_decide_symmetry(self):
        pf = PartialFunctional(LeftIdeal(np.eye(2)), np.array([[0.0, 1.0], [0.0, 0.0]]))
        for call in (extend_functional, f_bound, gns_realization):
            with pytest.raises(NotSymmetric):
                call(pf, np.eye(2))
        with pytest.raises(NotSymmetric, match="hermitian extensions cannot exist"):
            cstar_extendibility(pf, density=np.eye(2))
