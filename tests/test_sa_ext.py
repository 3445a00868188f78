"""Extremal bound-preserving self-adjoint extensions and their interval."""

import numpy as np
import pytest

from opext.errors import NotABounded, NotHermitian
from opext.kvn import PartialPositiveOperator, hilbert_lift, kvn_extend
from opext.numkit import PsdMatrix, Tolerances, _fro, _hermitian_part, _lifted_keep, eigh_desc, loewner_leq
from opext.oracle import (
    Rng,
    complex_gaussian,
    min_completion_search,
    random_hermitian,
    random_unitary,
    sampled_bound,
)
from opext.sa_ext import (
    SymmetricPartialOperator,
    _symmetric_lift,
    alpha_of_total,
    extend_symmetric,
    in_interval,
    lift_symmetric,
)
from planted import planted

E1 = np.array([[1.0], [0.0]])
I2 = PsdMatrix(np.eye(2))


def fixture_operator():
    """Prescribe S e1 = e1 on C^2 under the identity weight."""
    return SymmetricPartialOperator(E1, E1)


def endpoints_commute(b, interval, eq=1e-8):
    """Whether ``||S B - B S||_F <= eq (1 + ||B||_2 ||S||_2)`` for both endpoints S of the interval."""
    b_norm = np.linalg.norm(b, 2)
    return all(
        np.linalg.norm(s.a @ b - b @ s.a) <= eq * (1 + b_norm * np.linalg.norm(s.a, 2))
        for s in (interval.s_min, interval.s_max)
    )


class TestABound:
    def test_everywhere_defined_identity_weight_is_spectral_norm(self):
        op = SymmetricPartialOperator(np.eye(2), np.diag([2.0, 1.0]))
        assert lift_symmetric(op, I2).alpha == pytest.approx(2.0)

    def test_fixture_bound_is_one(self):
        assert lift_symmetric(fixture_operator(), I2).alpha == pytest.approx(1.0, abs=1e-12)

    def test_zero_values_give_zero(self):
        op = SymmetricPartialOperator(E1, np.zeros((2, 1)))
        assert lift_symmetric(op, I2).alpha == 0.0

    def test_weighted_worked_example(self):
        # weight diag(4,1), domain e1, value 2 e1: the sampled supremum of
        # |<S x, y>| / sqrt(<A x, x><A y, y>) peaks at 1/2
        op = SymmetricPartialOperator(E1, 2.0 * E1)
        weight = PsdMatrix(np.diag([4.0, 1.0]))
        alpha = lift_symmetric(op, weight).alpha
        assert alpha == pytest.approx(0.5, abs=1e-12)
        est = sampled_bound(op, weight, 10_000, Rng(31))
        assert est <= alpha + 1e-8
        assert est >= 0.98 * alpha

    def test_values_escaping_weight_range_rejected(self):
        op = SymmetricPartialOperator(E1, np.array([[0.0], [1.0]]))
        with pytest.raises(NotABounded):
            lift_symmetric(op, PsdMatrix(np.diag([1.0, 0.0]))).alpha

    def test_degenerate_zero_weight(self):
        op = SymmetricPartialOperator(E1, np.zeros((2, 1)))
        assert lift_symmetric(op, PsdMatrix(np.zeros((2, 2)))).alpha == 0.0

    def test_non_symmetric_values_rejected(self):
        with pytest.raises(NotHermitian):
            SymmetricPartialOperator(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExtendFixture:
    def test_oracle_sweep_confirms_endpoints(self):
        # all self-adjoint extensions of the fixture with spectral norm 1
        # are diag(1, t); sweeping t finds the extreme values -1 and +1
        def family(p):
            return np.diag([1.0, p[0]])

        def is_extension_with_norm_one(m):
            return np.linalg.norm(m @ E1 - E1) <= 1e-12 and np.linalg.norm(m, 2) <= 1 + 1e-12

        low = min_completion_search(
            family, is_extension_with_norm_one, lambda m: m[1, 1].real,
            bounds=[(-2.0, 2.0)], resolution=1001,
        )
        high = min_completion_search(
            family, is_extension_with_norm_one, lambda m: -m[1, 1].real,
            bounds=[(-2.0, 2.0)], resolution=1001,
        )
        assert low[1] == pytest.approx(-1.0, abs=1e-9)
        assert -high[1] == pytest.approx(1.0, abs=1e-9)

    def test_fixture_interval(self):
        interval = extend_symmetric(fixture_operator(), I2)
        assert interval.alpha == pytest.approx(1.0, abs=1e-10)
        assert np.abs(interval.s_min.a - np.diag([1.0, -1.0])).max() <= 1e-8
        assert np.abs(interval.s_max.a - np.diag([1.0, 1.0])).max() <= 1e-8

    def test_probe_membership(self):
        interval = extend_symmetric(fixture_operator(), I2)
        assert in_interval(np.diag([1.0, 0.5]), interval)
        assert not in_interval(np.diag([1.0, 2.0]), interval)
        assert in_interval(interval.s_min.a, interval)
        assert in_interval((interval.s_min.a + interval.s_max.a) / 2, interval)

    def test_everywhere_defined_interval_collapses(self):
        gen = Rng(32).generator()
        s = random_hermitian(gen, 4)
        op = SymmetricPartialOperator(np.eye(4), s)
        interval = extend_symmetric(op, PsdMatrix(np.eye(4)))
        assert np.linalg.norm(interval.s_min.a - s) <= 1e-8 * (1 + np.linalg.norm(s))
        assert np.linalg.norm(interval.s_max.a - s) <= 1e-8 * (1 + np.linalg.norm(s))

    def test_zero_values_collapse_to_zero(self):
        op = SymmetricPartialOperator(E1, np.zeros((2, 1)))
        interval = extend_symmetric(op, I2)
        assert interval.alpha == 0.0
        assert np.linalg.norm(interval.s_min.a) <= 1e-12
        assert np.linalg.norm(interval.s_max.a) <= 1e-12


class TestAlphaOfTotal:
    def test_weight_itself_has_bound_one(self):
        gen = Rng(33).generator()
        x = complex_gaussian(gen, 4, 4)
        a = PsdMatrix(x @ x.conj().T)
        assert alpha_of_total(a.a, a) == pytest.approx(1.0, abs=1e-9)

    def test_zero_operator(self):
        assert alpha_of_total(np.zeros((3, 3)), PsdMatrix(np.eye(3))) == 0.0

    def test_identity_weight_gives_spectral_norm(self):
        gen = Rng(34).generator()
        s = random_hermitian(gen, 5)
        got = alpha_of_total(s, PsdMatrix(np.eye(5)))
        assert got == pytest.approx(np.linalg.norm(s, 2), rel=1e-12)

    def test_kernel_mismatch_rejected(self):
        with pytest.raises(NotABounded):
            alpha_of_total(np.eye(2), PsdMatrix(np.diag([1.0, 0.0])))


class TestRandomInstanceProperties:
    def test_extensions_preserve_everything(self):
        for i in range(100):
            child = Rng(35).split(i)
            gen = child.generator()
            n = int(gen.integers(1, 13))
            k = int(gen.integers(1, n + 1))
            (op, weight), witness = planted("sa_ext", (n, k), child.split(0))
            interval = extend_symmetric(op, weight)
            aw, d, v = weight.a, op.domain_basis.a, op.values.a
            value_scale = 1e-7 * (1 + np.linalg.norm(aw @ v))
            for endpoint in (interval.s_min, interval.s_max):
                s = endpoint.a
                assert np.linalg.norm(s - s.conj().T) <= 1e-10 * (1 + np.linalg.norm(s))
                assert np.linalg.norm(aw @ (s @ d) - aw @ v) <= value_scale
                drift = abs(alpha_of_total(s, weight) - interval.alpha)
                assert drift <= 1e-7 * (1 + interval.alpha)
            assert loewner_leq(interval.s_min, interval.s_max)
            # hidden total the instance was restricted from lies in the interval
            hidden_alpha = alpha_of_total(witness["total"], weight)
            if hidden_alpha <= interval.alpha * (1 + 1e-9):
                assert in_interval(witness["total"], interval)

    def test_convex_combinations_stay_in_interval(self):
        for i in range(30):
            child = Rng(36).split(i)
            gen = child.generator()
            n = int(gen.integers(2, 10))
            (op, weight), _ = planted("sa_ext", (n,), child.split(0))
            interval = extend_symmetric(op, weight)
            for lam in np.linspace(0.0, 1.0, 11):
                s = (1 - lam) * interval.s_min.a + lam * interval.s_max.a
                assert in_interval(s, interval)
                drift = abs(alpha_of_total(s, weight) - interval.alpha)
                assert drift <= 1e-7 * (1 + interval.alpha)

    def test_bound_matches_sampling_oracle(self):
        for i in range(20):
            child = Rng(37).split(i)
            gen = child.generator()
            n = int(gen.integers(2, 9))
            (op, weight), _ = planted("sa_ext", (n,), child.split(0))
            alpha = lift_symmetric(op, weight).alpha
            est = sampled_bound(op, weight, 10_000, child.split(1))
            assert est <= alpha + 1e-8
            if alpha > 1e-9:
                assert est >= 0.98 * alpha


class TestDualPathIdentity:
    def test_endpoints_through_positive_extension_directly(self):
        # with the identity weight, the interval endpoints factor through
        # the smallest positive extension of the shifted operators
        for i in range(60):
            gen = Rng(38).split(i).generator()
            n = int(gen.integers(2, 10))
            k = int(gen.integers(1, n + 1))
            d = complex_gaussian(gen, n, k)
            s = random_hermitian(gen, n)
            op = SymmetricPartialOperator(d, s @ d)
            eye = PsdMatrix(np.eye(n))
            interval = extend_symmetric(op, eye)
            alpha = interval.alpha
            low = kvn_extend(PartialPositiveOperator(d, (s + alpha * np.eye(n)) @ d))
            high = kvn_extend(PartialPositiveOperator(d, (alpha * np.eye(n) - s) @ d))
            assert np.abs(interval.s_min.a - (low.a - alpha * np.eye(n))).max() <= 1e-8
            assert np.abs(interval.s_max.a - (alpha * np.eye(n) - high.a)).max() <= 1e-8


class TestCommutation:
    # under the identity weight, a Hermitian B that leaves the domain invariant
    # and intertwines with the values (S_0 B x = B S_0 x) commutes with both endpoints
    def test_identity_and_zero_commute(self):
        interval = extend_symmetric(fixture_operator(), I2)
        assert endpoints_commute(np.eye(2), interval)
        assert endpoints_commute(np.zeros((2, 2)), interval)

    def test_diagonal_b_on_fixture(self):
        assert endpoints_commute(np.diag([3.0, -2.0]), extend_symmetric(fixture_operator(), I2))

    def test_constructively_commuting_random(self):
        for i in range(40):
            gen = Rng(39).split(i).generator()
            n1, n2 = int(gen.integers(1, 5)), int(gen.integers(1, 5))
            n = n1 + n2
            s = np.zeros((n, n), dtype=complex)
            s[:n1, :n1] = random_hermitian(gen, n1)
            s[n1:, n1:] = random_hermitian(gen, n2)
            d = np.zeros((n, 2), dtype=complex)
            d[:n1, 0] = complex_gaussian(gen, n1, 1)[:, 0]
            d[n1:, 1] = complex_gaussian(gen, n2, 1)[:, 0]
            u = random_unitary(gen, n)
            b1, b2 = gen.uniform(-2, 2, 2)
            b = u @ np.diag(np.concatenate([np.full(n1, b1), np.full(n2, b2)])).astype(complex) @ u.conj().T
            op = SymmetricPartialOperator(u @ d, u @ (s @ d))
            assert endpoints_commute(b, extend_symmetric(op, PsdMatrix(np.eye(n))))


class TestLiftedAsymmetry:
    @pytest.mark.parametrize("seed", range(10))
    def test_leak_out_of_the_weight_range_is_rejected(self, seed):
        # weight q q* of rank one on C^2, one domain vector d = u q + c z:
        # the lifted form u* w = conj(u) a carries an imaginary part eps
        # that the value's leak b z (inside the range tolerance) cancels in
        # d* v, so the data passes as symmetric; extending it anyway can
        # miss the prescribed values by far more than the leak
        gen = np.random.default_rng(5000 + seed)
        q, z = np.linalg.qr(complex_gaussian(gen, 2, 2))[0].T
        d = q * gen.uniform(0.3, 1.0) + z * gen.uniform(0.3, 1.0) * np.exp(2j * np.pi * gen.uniform())
        d /= np.linalg.norm(d)
        u, c = q.conj() @ d, z.conj() @ d
        eps = gen.uniform(1e-9, 2e-9)
        a = (gen.uniform(-2.0, 2.0) + 1j * eps) / u.conj()
        v = q * a - z * (1j * eps / c.conj())
        op = SymmetricPartialOperator(d[:, None], v[:, None])
        with pytest.raises(NotHermitian):
            extend_symmetric(op, PsdMatrix(np.outer(q, q.conj())))


def endpoints_through_identity(op, weight, tol):
    """The interval endpoints with alpha subtracted as ``alpha * np.eye(r)``, as they were first written."""
    lift = hilbert_lift(weight, tol)
    _, _, p, y, alpha = _symmetric_lift(op.domain_basis.a, op.values.a, lift, tol)
    _, v = eigh_desc(p.conj().T @ y)
    pv, j = p @ v, lift.embedding()
    ends = []
    for sign in (1.0, -1.0):
        g = alpha * p + sign * y
        gv = g @ v
        w = np.einsum("ij,ij->j", pv.conj(), gv).real
        keep = _lifted_keep(w, lambda drop: (_fro(np.compress(drop, gv, axis=1)), _fro(g)), tol)
        c = np.compress(keep, gv, axis=1) / np.sqrt(w[keep])
        ends.append(_hermitian_part(j @ (sign * (c @ c.conj().T - alpha * np.eye(lift.rank))) @ j.conj().T))
    return ends


class TestEndpointShift:
    # alpha is subtracted on the diagonal of C C* in place: the same bits as through an identity matrix

    @staticmethod
    def cases():
        for i in range(40):
            child = Rng(204).split(i)
            gen = child.generator()
            n = int(gen.integers(1, 17))
            yield planted("sa_ext", (n, int(gen.integers(1, min(n, 5) + 1))), child.split(0))[0]
        gen = np.random.default_rng(205)
        for n, r, k in ((40, 40, 5), (40, 25, 3), (3, 3, 0), (6, 4, 2)):
            x = complex_gaussian(gen, n, r)
            weight = PsdMatrix(x @ x.conj().T)
            d = x @ complex_gaussian(gen, r, k)  # inside ran A, so a bound exists
            h = random_hermitian(gen, n)
            for values in (weight.a @ h @ weight.a @ d, np.zeros((n, k))):  # the second has alpha = 0
                yield SymmetricPartialOperator(d, values), weight

    def test_same_bits_as_through_the_identity(self):
        tol = Tolerances()
        for op, weight in self.cases():
            interval = extend_symmetric(op, weight, tol)
            s_min, s_max = endpoints_through_identity(op, weight, tol)
            for got, want in ((interval.s_min.a, s_min), (interval.s_max.a, s_max)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()  # signed zeros too
