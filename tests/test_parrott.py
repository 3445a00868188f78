"""Two-corner completions: generic, strong, and classical variants."""

import numpy as np
import pytest

from opext.errors import DimensionMismatch, HypothesisViolated, IncompatibleInstance
from opext.numkit import Tolerances
from opext.oracle import (
    Rng,
    complex_gaussian,
    min_completion_search,
    random_contraction,
    random_projection,
)
from opext.parrott import (
    ParrottInstance,
    StrongParrottInstance,
    assemble_symmetric,
    check_compatibility,
    classical_parrott,
    parrott_complete,
    strong_parrott,
)
from planted import planted

E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def fixture_instance():
    """T e1 = e2 and T* e1 = e2 on C^2, identity weights, unit bounds."""
    return ParrottInstance(E1, E2, E1, E2, np.eye(2), np.eye(2), 1.0, 1.0)


class TestConstructionTolerance:
    def test_weight_keeps_its_construction_rank(self):
        # weight1 has spectrum (1, 1e-4): rank 1 under rank = 1e-3, rank 2 under
        # the default cutoff.  The completion runs on the rank-1 lift taken at
        # construction whatever tol the call passes, so it annihilates e2
        built = Tolerances(rank=1e-3)
        inst = ParrottInstance(
            np.ones((2, 1)), [[0.5]], [[1.0]], [[0.5], [0.0]], np.diag([1.0, 1e-4]), [[1.0]], 1.0, 1.0, built
        )
        x = parrott_complete(inst).a
        assert np.array_equal(x, parrott_complete(inst, built).a)
        assert np.all(x[:, 1] == 0)
        np.testing.assert_allclose(x, [[0.5, 0.0]], atol=1e-12)


class TestOracleSweep:
    def test_only_contractive_completion_has_zero_corner(self):
        # any completion of the fixture has the form [[0,1],[1,t]]; the
        # norm constraint pins t to 0, so min and max feasible t coincide
        def family(p):
            return np.array([[0.0, 1.0], [1.0, p[0]]])

        def contractive(m):
            return np.linalg.norm(m, 2) <= 1.0 + 1e-9

        low = min_completion_search(
            family, contractive, lambda m: m[1, 1].real,
            bounds=[(-2.0, 2.0)], resolution=1001,
        )
        high = min_completion_search(
            family, contractive, lambda m: -m[1, 1].real,
            bounds=[(-2.0, 2.0)], resolution=1001,
        )
        assert low[1] == pytest.approx(0.0, abs=1e-9)
        assert high[1] == pytest.approx(0.0, abs=1e-9)


class TestCompatibility:
    def test_fixture_compatible(self):
        assert check_compatibility(fixture_instance())

    def test_empty_domains_compatible(self):
        inst = ParrottInstance(
            np.zeros((2, 0)), np.zeros((3, 0)),
            np.zeros((3, 0)), np.zeros((2, 0)),
            np.eye(2), np.eye(3), 0.0, 0.0,
        )
        assert check_compatibility(inst)

    def test_scalar_identity_compatible(self):
        inst = ParrottInstance([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], 1.0, 1.0)
        assert check_compatibility(inst)

    def test_mismatched_adjoint_data_incompatible(self):
        inst = ParrottInstance([[1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]], [[1.0]], 4.0, 4.0)
        assert not check_compatibility(inst)

    def test_declared_bound_too_small_incompatible(self):
        inst = ParrottInstance([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], 0.5, 1.0)
        assert not check_compatibility(inst)

    def test_incompatible_instance_raises_on_completion(self):
        inst = ParrottInstance([[1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]], [[1.0]], 4.0, 4.0)
        with pytest.raises(IncompatibleInstance):
            parrott_complete(inst)


class TestAssemble:
    def test_block_layout(self):
        inst = fixture_instance()
        op, weight = assemble_symmetric(inst)
        assert op.domain_basis.a.shape == (4, 2)
        assert op.values.a.shape == (4, 2)
        assert weight.a.shape == (4, 4)
        np.testing.assert_allclose(op.domain_basis.a[:2, :1], E1)
        np.testing.assert_allclose(op.domain_basis.a[2:, 1:], E1)
        # T1's values land in the second block, T2's in the first
        np.testing.assert_allclose(op.values.a[2:, :1], E2)
        np.testing.assert_allclose(op.values.a[:2, 1:], E2)
        np.testing.assert_allclose(weight.a, np.eye(4))


class TestGenericCompletion:
    def test_fixture_forced_completion(self):
        t = parrott_complete(fixture_instance())
        assert np.abs(t.a - SWAP).max() <= 1e-8

    def test_dependent_domain_rejected(self):
        # compatible and within its bounds, but domain1 repeats a column
        inst = ParrottInstance(np.hstack([E1, E1]), np.hstack([E2, E2]), E1, E2, np.eye(2), np.eye(2), 1.0, 1.0)
        assert check_compatibility(inst)
        with pytest.raises(ValueError, match="dependent") as excinfo:
            parrott_complete(inst)
        assert excinfo.type is ValueError

    def test_takes_no_endpoint(self):
        # there is one completion, so there is no endpoint to choose
        with pytest.raises(TypeError):
            parrott_complete(fixture_instance(), Tolerances(), "min")
        with pytest.raises(TypeError):
            parrott_complete(fixture_instance(), endpoint="min")

    def test_empty_domains_give_zero_completion(self):
        inst = ParrottInstance(
            np.zeros((2, 0)), np.zeros((3, 0)),
            np.zeros((3, 0)), np.zeros((2, 0)),
            np.eye(2), np.eye(3), 0.0, 0.0,
        )
        t = parrott_complete(inst)
        assert t.a.shape == (3, 2)
        assert np.linalg.norm(t.a) <= 1e-10

    def test_random_round_trip(self):
        for i in range(60):
            child = Rng(41).split(i)
            gen = child.generator()
            n1 = int(gen.integers(1, 6))
            n2 = int(gen.integers(1, 6))
            inst, _ = planted("parrott", (n1, n2), child.split(0))
            t = parrott_complete(inst)
            a1, a2 = inst.weight1.a, inst.weight2.a
            d1, v1 = inst.domain1.a, inst.values1.a
            d2, v2 = inst.domain2.a, inst.values2.a
            # weighted extension identities for both corners
            r1 = np.linalg.norm(a2 @ (t.a @ d1 - v1))
            r2 = np.linalg.norm(a1 @ (t.a.conj().T @ d2 - v2))
            assert r1 <= 1e-7 * (1 + np.linalg.norm(a2 @ v1))
            assert r2 <= 1e-7 * (1 + np.linalg.norm(a1 @ v2))
            # the total operator is itself a compatible instance at the
            # promised bound, checked through the public validator
            total = ParrottInstance(
                np.eye(n1), t.a, np.eye(n2), t.a.conj().T,
                a1, a2,
                max(inst.alpha1, inst.alpha2) * (1 + 1e-7) + 1e-9,
                max(inst.alpha1, inst.alpha2) * (1 + 1e-7) + 1e-9,
            )
            assert check_compatibility(total)


class TestStrongParrott:
    def test_fixture_forced_swap(self):
        inst = StrongParrottInstance(E1, E2, np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        x = strong_parrott(inst)
        assert np.abs(x.a - SWAP).max() <= 1e-8

    def test_identity_factorization_returns_contraction(self):
        gen = Rng(42).generator()
        from opext.oracle import random_contraction

        c = random_contraction(gen, 3, 4)
        inst = StrongParrottInstance(np.eye(4), c, np.zeros((1, 4)), np.zeros((1, 3)))
        x = strong_parrott(inst)
        assert np.abs(x.a - c).max() <= 1e-8

    def test_zero_targets_force_zero(self):
        inst = StrongParrottInstance(np.eye(3), np.zeros((2, 3)), np.zeros((2, 3)), np.eye(2))
        x = strong_parrott(inst)
        assert np.linalg.norm(x.a) <= 1e-8

    def test_intertwining_equality_violation_named(self):
        inst = StrongParrottInstance(
            E1, np.array([[0.1], [0.99]]), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])
        )
        with pytest.raises(HypothesisViolated, match="T1 S1 = T2 S2"):
            strong_parrott(inst)

    def test_left_defect_violation_named(self):
        inst = StrongParrottInstance(
            E1, 1.5 * E2, np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])
        )
        with pytest.raises(HypothesisViolated, match=r"S2\* S2 <= S1\* S1"):
            strong_parrott(inst)

    def test_right_defect_violation_named(self):
        inst = StrongParrottInstance(
            E1, E2, 1.5 * np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])
        )
        with pytest.raises(HypothesisViolated, match=r"T1 T1\* <= T2 T2\*"):
            strong_parrott(inst)

    def test_random_round_trip(self):
        for i in range(60):
            child = Rng(43).split(i)
            gen = child.generator()
            dim_h = int(gen.integers(1, 7))
            dim_k = int(gen.integers(1, 7))
            p = int(gen.integers(1, 5))
            inst, witness = planted("strong_parrott", (dim_h, dim_k, p), child.split(0))
            x = strong_parrott(inst)
            s_resid = np.linalg.norm(x.a @ inst.s1.a - inst.s2.a)
            t_resid = np.linalg.norm(inst.t2.a @ x.a - inst.t1.a)
            assert s_resid <= 1e-7 * (1 + np.linalg.norm(inst.s2.a))
            assert t_resid <= 1e-7 * (1 + np.linalg.norm(inst.t1.a))
            assert np.linalg.norm(x.a, 2) <= 1.0 + 1e-7
            # the planted contraction also solves the system
            hidden = witness["solution"]
            assert np.linalg.norm(hidden @ inst.s1.a - inst.s2.a) <= 1e-8 * (
                1 + np.linalg.norm(inst.s2.a)
            )


class TestClassicalParrott:
    # T1 = T1 P_H1 and T1' = P_K1 T1' are dimK x dimH matrices: no basis of either range enters
    def test_fixture_forced_swap(self):
        t = classical_parrott(
            np.diag([1.0, 0.0]), np.diag([1.0, 0.0]),
            np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]),
        )
        assert np.abs(t.a - SWAP).max() <= 1e-8

    def test_rank_two_fixture_forced_cycle(self):
        # P_H1 = P_K1 = diag(1, 1, 0): the cyclic shift e1 -> e2 -> e3 -> e1 is fixed
        # on e1, e2 by T1 and on its first two rows by T1', and no other contraction fits
        p = np.diag([1.0, 1.0, 0.0])
        cycle = np.roll(np.eye(3), 1, axis=0)
        t = classical_parrott(p, p, cycle @ p, p @ cycle)
        assert np.abs(t.a - cycle).max() <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_rounding_different_projectors_give_one_completion(self, seed):
        # each projector is built from two orthonormal bases of one subspace (rank 3 of 6
        # and rank 2 of 5), so the two copies differ by rounding only; the data T1, T1'
        # is the same, and so must be the completion
        gen = np.random.default_rng([seed, 49])

        def two_copies(n, r):
            b0 = np.linalg.qr(complex_gaussian(gen, n, r))[0]
            b1 = b0 @ np.linalg.qr(complex_gaussian(gen, r, r))[0]
            return b0 @ b0.conj().T, b1 @ b1.conj().T

        (p_h0, p_h1), (p_k0, p_k1) = two_copies(6, 3), two_copies(5, 2)
        assert max(np.linalg.norm(p_h0 - p_h1), np.linalg.norm(p_k0 - p_k1)) <= 1e-15
        hidden = random_contraction(gen, 5, 6)
        t1, t1_prime = hidden @ p_h0, p_k0 @ hidden
        t0 = classical_parrott(p_h0, p_k0, t1, t1_prime).a
        t = classical_parrott(p_h1, p_k1, t1, t1_prime).a
        assert np.linalg.norm(t - t0) <= 1e-12 * np.linalg.norm(t0)

    def test_extension_and_compression_on_random_contraction(self):
        for i in range(25):
            gen = Rng(44).split(i).generator()
            dim_h = int(gen.integers(1, 6))
            dim_k = int(gen.integers(1, 6))
            hidden = random_contraction(gen, dim_k, dim_h)
            p_h1 = random_projection(gen, dim_h, int(gen.integers(1, dim_h + 1)))
            p_k1 = random_projection(gen, dim_k, int(gen.integers(1, dim_k + 1)))
            t1, t1_prime = hidden @ p_h1, p_k1 @ hidden
            t = classical_parrott(p_h1, p_k1, t1, t1_prime)
            assert np.linalg.norm(t.a, 2) <= 1.0 + 1e-7
            assert np.linalg.norm(t.a @ p_h1 - t1) <= 1e-7 * (1 + np.linalg.norm(t1))
            assert np.linalg.norm(p_k1 @ t.a - t1_prime) <= 1e-7 * (1 + np.linalg.norm(t1_prime))

    def test_non_projector_rejected(self):
        with pytest.raises(ValueError, match="projector"):
            classical_parrott(
                np.diag([0.5, 0.0]), np.diag([1.0, 0.0]),
                np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]),
            )

    def test_non_contraction_rejected(self):
        with pytest.raises(HypothesisViolated, match="contraction"):
            classical_parrott(
                np.diag([1.0, 0.0]), np.diag([1.0, 0.0]),
                np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[0.0, 2.0], [0.0, 0.0]]),
            )

    def test_inconsistent_compression_rejected(self):
        with pytest.raises(HypothesisViolated, match="compression"):
            classical_parrott(
                np.diag([1.0, 0.0]), np.diag([1.0, 0.0]),
                np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.5, 0.5], [0.0, 0.0]]),
            )

    @pytest.mark.parametrize(
        "t1, t1_prime, message",
        [
            (np.array([[0.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2)), "||T1|| <= 1 fails: T1 does not vanish off ran P_H1"),
            (np.zeros((2, 2)), np.array([[0.0, 0.0], [0.0, 1.0]]), "||T1'|| <= 1 fails: T1' does not map into ran P_K1"),
        ],
        ids=["T1", "T1'"],
    )
    def test_data_outside_its_subspace_names_the_classical_hypothesis(self, t1, t1_prime, message):
        # the compressions agree (both vanish), but T1 acts off ran P_H1 = span e1, or T1' maps off ran P_K1
        p = np.diag([1.0, 0.0])
        with pytest.raises(HypothesisViolated) as excinfo:
            classical_parrott(p, p, t1, t1_prime)
        assert str(excinfo.value).startswith(message)

    def test_wrong_shape_names_both_operators(self):
        with pytest.raises(DimensionMismatch, match=r"T1 and T1' must be 2x2, got \(2, 1\) and \(2, 2\)"):
            classical_parrott(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.zeros((2, 1)), np.zeros((2, 2)))


class TestLiftedAsymmetry:
    @pytest.mark.parametrize("seed", range(10))
    def test_leak_out_of_the_weight_range_is_rejected(self, seed):
        # T1: C^1 -> (C^2, q q*) with a value leaking b z out of ran q q*
        # (inside the range tolerance), T2 on d = u q + c z with the value
        # that makes D2* V1 = V2* D1 exact; the stacked data is symmetric,
        # but its lifted form is off by conj(c) b
        gen = np.random.default_rng(6000 + seed)
        q, z = np.linalg.qr(complex_gaussian(gen, 2, 2))[0].T
        d = q * gen.uniform(0.3, 1.0) + z * gen.uniform(0.3, 1.0) * np.exp(2j * np.pi * gen.uniform())
        d /= np.linalg.norm(d)
        a = gen.uniform(0.2, 2.0) * np.exp(2j * np.pi * gen.uniform())
        v1 = q * a + z * gen.uniform(1e-9, 2e-9) * np.exp(2j * np.pi * gen.uniform()) / abs(z.conj() @ d)
        v2 = np.conj(d.conj() @ v1)
        beta1, beta2 = abs(a) ** 2, abs(v2) ** 2 / abs(q.conj() @ d) ** 2
        inst = ParrottInstance(
            np.ones((1, 1)), v1[:, None], d[:, None], np.array([[v2]]),
            np.eye(1), np.outer(q, q.conj()), 1.5 * beta1, 1.5 * beta2,
        )
        # the pairing is decided once, on the lifted corners
        assert not check_compatibility(inst)
        with pytest.raises(IncompatibleInstance):
            parrott_complete(inst)

    def test_pairing_off_by_less_than_eq_is_rejected_by_both(self):
        # D2* V1 = 0 against V2* D1 = 1e-9: inside tol.eq, outside tol.herm
        inst = ParrottInstance(E1, E2, E1, E2 + 1e-9 * E1, np.eye(2), np.eye(2), 1.0, 1.0)
        assert not check_compatibility(inst)
        for construct in (parrott_complete, assemble_symmetric):
            with pytest.raises(IncompatibleInstance):
                construct(inst)


def orthonormal_pair(domain, values):
    """Orthonormal basis of ran(domain) and the values on it, from numpy's own thin SVD."""
    u, s, vh = np.linalg.svd(domain, full_matrices=False)
    return u, (values @ vh.conj().T) / s


def projection_with_rank(gen, n):
    """A random orthogonal projector on C^n of a random rank, and that rank."""
    rank = int(gen.integers(1, n + 1))
    return rank, random_projection(gen, n, rank)


class TestSpecializationsAgreeWithTheWeightedPath:
    # the weighted completion on identity weights and unit bounds, built from
    # the same orthonormal pairs, is the reference for both specializations

    def test_strong_parrott(self):
        for i in range(100):
            child = Rng(46).split(i)
            gen = child.generator()
            dim_h, dim_k = (int(x) for x in gen.integers(1, 9, size=2))
            p, q = int(gen.integers(1, dim_h + 1)), int(gen.integers(1, dim_k + 1))
            inst, _ = planted("strong_parrott", (dim_h, dim_k, p, q), child.split(0))
            p1, y1 = orthonormal_pair(inst.s1.a, inst.s2.a)
            p2, y2 = orthonormal_pair(inst.t2.a.conj().T, inst.t1.a.conj().T)
            reference = parrott_complete(
                ParrottInstance(p1, y1, p2, y2, np.eye(dim_h), np.eye(dim_k), 1.0, 1.0)
            ).a
            x = strong_parrott(inst).a
            assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_classical_parrott(self):
        for i in range(100):
            gen = Rng(47).split(i).generator()
            dim_h, dim_k = (int(x) for x in gen.integers(1, 9, size=2))
            hidden = random_contraction(gen, dim_k, dim_h)
            r_h, p_h1 = projection_with_rank(gen, dim_h)
            r_k, p_k1 = projection_with_rank(gen, dim_k)
            # any orthonormal basis of each range serves the reference: numpy's own SVD's
            b_h1, b_k1 = np.linalg.svd(p_h1)[0][:, :r_h], np.linalg.svd(p_k1)[0][:, :r_k]
            reference = parrott_complete(
                ParrottInstance(b_h1, hidden @ b_h1, b_k1, hidden.conj().T @ b_k1, np.eye(dim_h), np.eye(dim_k), 1.0, 1.0)
            ).a
            t = classical_parrott(p_h1, p_k1, hidden @ p_h1, p_k1 @ hidden).a
            assert np.linalg.norm(t - reference) <= 1e-12 * np.linalg.norm(reference)


class TestSpecializationsDecideByTheirOwnTerms:
    # no pairing decision at tol.herm: a specialization solves within eq or
    # raises HypothesisViolated, never IncompatibleInstance
    EQ = Tolerances().eq

    @pytest.mark.parametrize("cond", [1e7, 1e8])
    @pytest.mark.parametrize("seed", range(4))
    def test_ill_conditioned_factorizations_solve(self, conditioned_strong_parrott, seed, cond):
        inst = conditioned_strong_parrott(seed, cond)
        s1, s2, t1, t2 = inst.s1.a, inst.s2.a, inst.t1.a, inst.t2.a
        x = strong_parrott(inst).a
        assert np.linalg.norm(x, 2) <= 1.0 + self.EQ
        assert np.linalg.norm(x @ s1 - s2) <= self.EQ * (1.0 + np.linalg.norm(s1))
        assert np.linalg.norm(t2 @ x - t1) <= self.EQ * (1.0 + np.linalg.norm(t2))

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_values_are_rejected_not_answered(self, conditioned_strong_parrott, seed):
        # T1 moved by 1e-9 relative: T1 S1 = T2 S2 still holds at eq, but the
        # reduced data is no longer paired and the completion misses the equations
        inst = conditioned_strong_parrott(seed, 1e4, delta=1e-9)
        s1, s2, t1, t2 = inst.s1.a, inst.s2.a, inst.t1.a, inst.t2.a
        assert np.linalg.norm(t1 @ s1 - t2 @ s2) <= self.EQ * (1.0 + np.linalg.norm(t1 @ s1))
        with pytest.raises(HypothesisViolated, match="fails on the completion"):
            strong_parrott(inst)

    def test_reduced_bound_above_one_is_a_hypothesis_violation(self):
        # S2* S2 <= S1* S1 holds within the positivity slack, yet X S1 = S2
        # forces ||X e2|| = 1.1
        inst = StrongParrottInstance(np.diag([1.0, 1e-5]), np.diag([1.0, 1.1e-5]), np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(HypothesisViolated, match="reduced data has norm 1.1"):
            strong_parrott(inst)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_reduced_bound_names_its_hypothesis(self, side):
        # each Loewner comparison passes within its slack; the reduced norm of
        # the failing side decides it, and the error names that hypothesis only
        big, small = np.diag([1.0, 1.1e-5]), np.diag([1.0, 1e-5])
        if side == "left":
            inst = StrongParrottInstance(small, big, np.zeros((1, 2)), np.zeros((1, 2)))
            named, other = r"S2\* S2 <= S1\* S1 fails: the reduced data has norm 1.1", "T1 T1*"
        else:
            inst = StrongParrottInstance(np.zeros((2, 1)), np.zeros((2, 1)), big, small)
            named, other = r"T1 T1\* <= T2 T2\* fails: the reduced data has norm 1.1", "S2* S2"
        with pytest.raises(HypothesisViolated, match=named) as excinfo:
            strong_parrott(inst)
        assert other not in str(excinfo.value)

    @pytest.mark.parametrize("seed", range(5))
    def test_classical_compression_mismatch_inside_eq_solves(self, seed):
        gen = np.random.default_rng([seed, 48])
        hidden = random_contraction(gen, 4, 5)
        p_h1, p_k1 = random_projection(gen, 5, 3), random_projection(gen, 4, 2)
        t1, t1_prime = hidden @ p_h1, p_k1 @ hidden
        t1_prime[:, 0] += 1e-9 * p_k1[:, 0]  # still into ran P_K1
        t = classical_parrott(p_h1, p_k1, t1, t1_prime).a
        assert np.linalg.norm(t, 2) <= 1.0 + self.EQ
        assert np.linalg.norm(t @ p_h1 - t1) <= self.EQ * (1.0 + np.linalg.norm(t1))
        assert np.linalg.norm(p_k1 @ t - t1_prime) <= self.EQ * (1.0 + np.linalg.norm(t1_prime))
