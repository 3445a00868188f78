"""Smallest positive extension of a partial positive operator."""

import numpy as np
import pytest

from opext.errors import IncompatibleInstance, NotPsd, RestrictionConditionFailed
from opext.kvn import HilbertLift, PartialPositiveOperator, check_restriction, hilbert_lift, kvn_extend
from opext.numkit import ComplexMatrix, PsdMatrix, Tolerances, loewner_leq
from opext.oracle import Rng, complex_gaussian, min_completion_search, random_psd
from opext.parrott import parrott_complete
from planted import planted

E1 = np.array([[1.0], [0.0]])


def psd_min_eig(m):
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())


class TestConstructionTolerance:
    # rank and positivity are decided under the tol the operator was built
    # with; a later call's tol supplies only its own eq check
    def test_gram_rank_is_decided_at_construction(self):
        op = PartialPositiveOperator(np.eye(2), np.diag([1.0, 1e-4]), Tolerances(rank=1e-3))
        assert not check_restriction(op)
        with pytest.raises(RestrictionConditionFailed):
            kvn_extend(op)
        ext = kvn_extend(op, Tolerances(eq=1e-3)).a
        np.testing.assert_allclose(ext, np.diag([1.0, 0.0]), atol=1e-12)

    # a ParrottInstance keeps only its weights' lifts from construction: the
    # completion's tol decides the domains' rank and the corner's positivity and rank
    @staticmethod
    def parrott_instance():
        return planted("parrott", (4, 3, 3, 2), Rng(3))[0]

    def test_parrott_domain_rank_is_decided_by_the_call(self):
        with pytest.raises(ValueError, match="dependent"):
            parrott_complete(self.parrott_instance(), Tolerances(rank=0.3))

    def test_parrott_corner_rank_is_decided_by_the_call(self):
        with pytest.raises(IncompatibleInstance):
            parrott_complete(self.parrott_instance(), Tolerances(rank=0.9))

    def test_parrott_loose_psd_keeps_the_completion(self):
        inst = self.parrott_instance()
        assert np.array_equal(parrott_complete(inst, Tolerances(psd=0.5)).a, parrott_complete(inst).a)


class TestRestrictionCondition:
    def test_invertible_gram_passes(self):
        op = PartialPositiveOperator(E1, np.array([[1.0], [1.0]]))
        assert check_restriction(op)

    def test_kernel_value_mismatch_fails(self):
        op = PartialPositiveOperator(E1, np.array([[0.0], [1.0]]))
        assert not check_restriction(op)

    def test_zero_values_pass(self):
        op = PartialPositiveOperator(E1, np.zeros((2, 1)))
        assert check_restriction(op)


class TestKvnExtend:
    def test_oracle_confirms_fixture_minimum(self):
        # independent grid search over PSD completions [[1,1],[1,t]]
        params, value = min_completion_search(
            family=lambda p: np.array([[1.0, 1.0], [1.0, p[0]]]),
            constraint=lambda m: psd_min_eig(m) >= -1e-12,
            objective=lambda m: m[1, 1].real,
            bounds=[(-2.0, 2.0)],
            resolution=1001,
        )
        assert value == pytest.approx(1.0, abs=1e-4)

    def test_fixture_closed_form(self):
        op = PartialPositiveOperator(E1, np.array([[1.0], [1.0]]))
        ext = kvn_extend(op)
        assert np.abs(ext.a - np.ones((2, 2))).max() <= 1e-8

    def test_full_domain_returns_input(self):
        gen = Rng(21).generator()
        a = random_psd(gen, 4)
        op = PartialPositiveOperator(np.eye(4), a)
        assert np.linalg.norm(kvn_extend(op).a - a) <= 1e-10 * (1 + np.linalg.norm(a))

    def test_zero_values_give_zero_extension(self):
        op = PartialPositiveOperator(E1, np.zeros((2, 1)))
        assert np.linalg.norm(kvn_extend(op).a) == 0.0

    def test_restriction_failure_raises_named_error(self):
        op = PartialPositiveOperator(E1, np.array([[0.0], [1.0]]))
        with pytest.raises(RestrictionConditionFailed, match="restriction"):
            kvn_extend(op)

    def test_dependent_domain_columns_rejected(self):
        with pytest.raises(ValueError):
            PartialPositiveOperator(np.array([[1.0, 2.0], [0.0, 0.0]]), np.ones((2, 2)))

    def test_indefinite_gram_rejected(self):
        # prescribing A e1 = -e1 makes the domain Gram negative
        with pytest.raises(NotPsd):
            PartialPositiveOperator(E1, np.array([[-1.0], [0.0]]))

    def test_extension_minimality_and_idempotence_random(self):
        for i in range(60):
            child = Rng(22).split(i)
            gen = child.generator()
            n = int(gen.integers(1, 13))
            op, witness = planted("kvn", (n,), child.split(0))
            assert check_restriction(op)
            ext = kvn_extend(op)
            d, g = op.domain_basis.a, op.values.a
            assert np.linalg.norm(ext.a @ d - g) <= 1e-8 * (1 + np.linalg.norm(g))
            assert loewner_leq(ext, witness["total"])
            again = kvn_extend(PartialPositiveOperator(np.eye(n), ext.a))
            assert np.linalg.norm(again.a - ext.a) <= 1e-8 * (1 + np.linalg.norm(ext.a))

    def test_commutation_transport_random(self):
        # a Hermitian operator that preserves the domain and intertwines
        # the values also commutes with the smallest positive extension
        tol = Tolerances()
        for i in range(40):
            gen = Rng(23).split(i).generator()
            n1, n2 = int(gen.integers(1, 5)), int(gen.integers(1, 5))
            n = n1 + n2
            blocks = (random_psd(gen, n1), random_psd(gen, n2))
            total = np.zeros((n, n), dtype=complex)
            total[:n1, :n1], total[n1:, n1:] = blocks
            d = np.zeros((n, 2), dtype=complex)
            d[:n1, 0] = complex_gaussian(gen, n1, 1)[:, 0]
            d[n1:, 1] = complex_gaussian(gen, n2, 1)[:, 0]
            b1, b2 = gen.uniform(-2, 2, 2)
            b = np.diag(np.concatenate([np.full(n1, b1), np.full(n2, b2)])).astype(complex)
            ext = kvn_extend(PartialPositiveOperator(d, total @ d))
            comm = np.linalg.norm(b @ ext.a - ext.a @ b)
            scale = np.linalg.norm(ext.a, 2) * np.linalg.norm(b, 2)
            assert comm <= tol.eq * (1 + scale)


def lift_sqrt(lift):
    """A^{1/2} = Q diag(rho) Q* from the lift's spectral factor."""
    q = lift.range_basis.a
    return (q * lift.roots) @ q.conj().T


def lift_sqrt_pinv(lift):
    """(A^{1/2})^+ = Q diag(1/rho) Q* from the lift's spectral factor."""
    q = lift.range_basis.a
    return (q / lift.roots) @ q.conj().T


def lift_range_projector(lift):
    """Orthogonal projector Q Q* onto ran A."""
    q = lift.range_basis.a
    return q @ q.conj().T


def block_diag(*blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=complex)
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out


def block_lift(*lifts):
    """Factor of diag(A_1, ..., A_p) assembled blockwise from the blocks' lifts (roots blockwise)."""
    return HilbertLift(
        weight=PsdMatrix(block_diag(*(lift.weight.a for lift in lifts))),
        rank=sum(lift.rank for lift in lifts),
        range_basis=ComplexMatrix(block_diag(*(lift.range_basis.a for lift in lifts))),
        roots=np.concatenate([lift.roots for lift in lifts]),
    )


class TestHilbertLift:
    def test_identity_weight(self):
        lift = hilbert_lift(PsdMatrix(np.eye(3)))
        assert lift.rank == 3
        assert np.allclose(lift_sqrt(lift), np.eye(3))

    def test_singular_diagonal(self):
        lift = hilbert_lift(PsdMatrix(np.diag([4.0, 0.0])))
        assert lift.rank == 1
        assert np.allclose(lift_sqrt(lift), np.diag([2.0, 0.0]))
        assert np.allclose(np.abs(lift.range_basis.a), E1)

    def test_embedding_factorizes_weight(self):
        for i in range(10):
            gen = Rng(24).split(i).generator()
            n = int(gen.integers(1, 9))
            a = random_psd(gen, n, rank=int(gen.integers(1, n + 1)))
            lift = hilbert_lift(PsdMatrix(a))
            j = lift.embedding()
            assert np.linalg.norm(j @ j.conj().T - a) <= 1e-8 * (1 + np.linalg.norm(a))
            q = lift.range_basis.a
            assert np.linalg.norm(q.conj().T @ q - np.eye(lift.rank)) <= 1e-10
            proj = lift_range_projector(lift)
            assert np.linalg.norm(proj @ proj - proj) <= 1e-10

    def test_sqrt_squares_to_weight(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        lift = hilbert_lift(PsdMatrix(a))
        assert lift.rank == 2
        assert np.linalg.norm(lift_sqrt(lift) @ lift_sqrt(lift) - a) <= 1e-10

    def test_zero_weight_degenerates_gracefully(self):
        lift = hilbert_lift(PsdMatrix(np.zeros((2, 2))))
        assert lift.rank == 0
        assert lift.range_basis.a.shape == (2, 0)

    @staticmethod
    def weights(seed):
        """Zero, identity, full-rank and rank-deficient weights of size n <= 8."""
        gen = Rng(25).split(seed).generator()
        n = int(gen.integers(1, 9))
        kind = seed % 4
        if kind == 0:
            return np.zeros((n, n))
        if kind == 1:
            return np.eye(n)
        return random_psd(gen, n, rank=n if kind == 2 else int(gen.integers(1, n + 1)))

    @staticmethod
    def assert_factor_identities(lift):
        q, roots = lift.range_basis.a, lift.roots
        assert lift.rank == roots.size == q.shape[1]
        assert np.all(roots > 0)
        assert not roots.flags.writeable
        assert np.array_equal(lift.coembedding(), lift.embedding().conj().T)
        assert np.linalg.norm(lift_sqrt_pinv(lift) @ lift_sqrt(lift) - lift_range_projector(lift)) <= 1e-10
        a = lift.weight.a
        j = lift.embedding()
        assert np.linalg.norm(j @ j.conj().T - a) <= 1e-10 * (1 + np.linalg.norm(a))
        assert np.linalg.norm(lift_sqrt(lift) @ lift_sqrt(lift) - a) <= 1e-10 * (1 + np.linalg.norm(a))

    @pytest.mark.parametrize("seed", range(12))
    def test_spectral_factor(self, seed):
        lift = hilbert_lift(PsdMatrix(self.weights(seed)))
        self.assert_factor_identities(lift)
        assert np.all(np.diff(lift.roots) <= 0)
        assert hash(lift) == hash(lift)  # the array field keeps the lift hashable

    @pytest.mark.parametrize("seed", range(12))
    def test_block_lift_matches_the_lift_of_the_block_diagonal(self, seed):
        # hilbert_lift of diag(A_1, A_2) agrees with the factor assembled from
        # the lifts of A_1 and A_2: same rank, roots, square roots and range
        a1, a2 = self.weights(seed), self.weights(seed + 5)
        stacked = block_diag(a1, a2)
        block = block_lift(hilbert_lift(PsdMatrix(a1)), hilbert_lift(PsdMatrix(a2)))
        direct = hilbert_lift(PsdMatrix(stacked))
        self.assert_factor_identities(block)
        assert block.rank == direct.rank
        np.testing.assert_allclose(np.sort(block.roots)[::-1], direct.roots, rtol=1e-10, atol=1e-12)
        for f in (lift_sqrt, lift_sqrt_pinv, lift_range_projector):
            np.testing.assert_allclose(f(block), f(direct), atol=1e-10)
        np.testing.assert_allclose(block.weight.a, direct.weight.a, atol=1e-10)
