"""The functional-extension pipeline through its Kronecker reduction.

The GNS inner product of f(x) = trace(F x) has Gram matrix kron(I_m, F^T)
in row-major coordinates, so every object of the m^2-dimensional
construction is I_m (x) (an m-by-m object).  These tests pin the m-by-m
pipeline against the m^2-dimensional one written out here, check that no
decomposition larger than m-by-m is made, and replay the rank m-1 regime
in which the m^2-dimensional pipeline used to reject feasible inputs.
The m-by-m pipeline is sa-ext on the density: its results are pinned, bit
for bit, to ``extend_symmetric`` of the pair (B, Gamma* B) with weight F.
"""

import numpy as np
import pytest

from opext.errors import NotFBounded, NotHermitian, NotSymmetric
from opext.func_ext import (
    LeftIdeal,
    PartialFunctional,
    _ideal_agreement,
    _row_operator,
    cstar_extendibility,
    extend_functional,
    f_bound,
    gns,
    gns_realization,
    is_symmetric_on_ideal,
)
from opext.kvn import hilbert_lift
from opext.numkit import DEFAULT_TOLERANCES, PsdMatrix, independent_columns, pinv
from opext.oracle import Rng
from opext.sa_ext import SymmetricPartialOperator, extend_symmetric
from planted import planted

EQ = DEFAULT_TOLERANCES.eq


def cgauss(gen, rows, cols):
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2)


def herm(x):
    return (x + x.conj().T) / 2


def projection(gen, m, rank):
    q = np.linalg.qr(cgauss(gen, m, m))[0][:, :rank]
    return herm(q @ q.conj().T)


def planted_density(gen, m, rank):
    """Density of rank exactly ``rank`` from explicit eigenpairs, and its square root."""
    q = np.linalg.qr(cgauss(gen, m, m))[0][:, :rank]
    w = gen.uniform(0.5, 2.0, rank)
    return herm((q * w) @ q.conj().T), herm((q * np.sqrt(w)) @ q.conj().T)


def reference_extension(pf, density):
    """Extremal densities and bound from the m^2-dimensional GNS construction.

    Gram matrix kron(I_m, F^T) on row-major vectorizations, the spanning
    family E_ij P of the ideal, the realized partial operator on the GNS
    space, its extremal extensions with the identity weight, and the
    densities read off the cyclic vector.
    """
    m = pf.size
    if not is_symmetric_on_ideal(pf):
        raise NotSymmetric("reference: not symmetric")
    lift = hilbert_lift(PsdMatrix(np.kron(np.eye(m), np.asarray(density).T)))
    q = lift.range_basis.a
    classes = lift.coembedding()
    family = pf.ideal.basis()
    u_all = np.column_stack([classes @ a.reshape(-1) for a in family])
    targets = np.column_stack([(a @ pf.gamma.a).reshape(-1) for a in family])
    escape = np.linalg.norm(targets - q @ (q.conj().T @ targets))
    if escape > EQ * (1 + np.linalg.norm(targets)):
        raise NotFBounded("reference: values escape the GNS space")
    w_all = q.conj().T @ (((q / lift.roots) @ q.conj().T) @ targets)
    idx = independent_columns(u_all)
    u, w = u_all[:, idx], w_all[:, idx]
    collapse = np.linalg.norm(w_all - w @ (pinv(u).a @ u_all))
    if collapse > EQ * (1 + np.linalg.norm(w_all)):
        raise NotFBounded("reference: values survive where the seminorm vanishes")
    interval = extend_symmetric(SymmetricPartialOperator(u, w), PsdMatrix(np.eye(lift.rank)))
    xi = classes @ np.eye(m).reshape(-1)
    densities = [((xi.conj() @ s) @ classes).reshape(m, m).T for s in (interval.s_min.a, interval.s_max.a)]
    return densities[0], densities[1], interval.alpha


def close(got, want, rel=1e-10):
    return np.abs(got - want).max() <= rel * (1 + np.abs(want).max())


class TestAgainstTheFullGnsConstruction:
    @pytest.mark.parametrize("seed", range(40))
    def test_bounded_inputs_agree(self, seed):
        gen = np.random.default_rng(1000 + seed)
        m = int(gen.integers(1, 6))
        rank_f = m if seed % 2 == 0 else int(gen.integers(1, m + 1))
        density, root = planted_density(gen, m, rank_f)
        # Gamma = root H root is bounded relative to any density with that root
        phi = root @ herm(cgauss(gen, m, m)) @ root
        pf = PartialFunctional(LeftIdeal(projection(gen, m, int(gen.integers(0, m + 1)))), phi)
        want_min, want_max, want_alpha = reference_extension(pf, density)
        g_min, g_max, alpha = extend_functional(pf, PsdMatrix(density))
        assert close(g_min.density.a, want_min)
        assert close(g_max.density.a, want_max)
        assert abs(alpha - want_alpha) <= 1e-10 * (1 + want_alpha)
        assert abs(f_bound(pf, PsdMatrix(density)) - want_alpha) <= 1e-10 * (1 + want_alpha)

    @pytest.mark.parametrize("seed", range(10))
    def test_asymmetric_inputs_fail_alike(self, seed):
        gen = np.random.default_rng(2000 + seed)
        m = int(gen.integers(2, 6))
        density = PsdMatrix(planted_density(gen, m, m)[0])
        pf = PartialFunctional(LeftIdeal(projection(gen, m, int(gen.integers(1, m + 1)))), cgauss(gen, m, m))
        with pytest.raises(NotSymmetric):
            reference_extension(pf, density.a)
        with pytest.raises(NotSymmetric):
            extend_functional(pf, density)
        with pytest.raises(NotSymmetric):
            f_bound(pf, density)

    @pytest.mark.parametrize("seed", range(10))
    def test_unbounded_inputs_fail_alike(self, seed):
        gen = np.random.default_rng(3000 + seed)
        m = int(gen.integers(2, 6))
        density = PsdMatrix(planted_density(gen, m, int(gen.integers(1, m)))[0])
        pf = PartialFunctional(LeftIdeal(projection(gen, m, int(gen.integers(1, m + 1)))), herm(cgauss(gen, m, m)))
        with pytest.raises(NotFBounded):
            reference_extension(pf, density.a)
        with pytest.raises(NotFBounded):
            extend_functional(pf, density)
        with pytest.raises(NotFBounded):
            f_bound(pf, density)


def test_no_decomposition_larger_than_the_algebra(decompositions):
    m = 8
    gen = np.random.default_rng(41)
    phi = herm(cgauss(gen, m, m))
    pf = PartialFunctional(LeftIdeal(projection(gen, m, 5)), phi)
    density = PsdMatrix(planted_density(gen, m, m)[0])

    with decompositions:
        extend_functional(pf, density)
        f_bound(pf, density)
        gns(density)
        gns_realization(pf, density)
        cstar_extendibility(pf, extension=phi)
        cstar_extendibility(pf)
    sides = [max(shape) for shape in decompositions.shapes()]

    assert sides and max(sides) <= m


@pytest.mark.parametrize("seed", range(6))
def test_gns_realization_adopts_the_kronecker_pair(decompositions, seed):
    # I_m (x) P and I_m (x) Y are built from the decided m-by-m pair and adopted: no
    # decomposition sees the m r-row domain, and the arrays are those the public
    # constructor accepts, bit for bit
    gen = np.random.default_rng(5000 + seed)
    m = int(gen.integers(2, 6))
    density, root = planted_density(gen, m, m if seed % 2 == 0 else int(gen.integers(1, m)))
    pf = PartialFunctional(LeftIdeal(projection(gen, m, int(gen.integers(1, m + 1)))),
                           root @ herm(cgauss(gen, m, m)) @ root)
    density = PsdMatrix(density)
    with decompositions:
        _, op = gns_realization(pf, density)
    assert max(max(shape) for shape in decompositions.shapes()) <= m

    p, y, _ = _row_operator(pf, hilbert_lift(density), DEFAULT_TOLERANCES)
    eye = np.eye(m, dtype=complex)
    want = SymmetricPartialOperator(np.kron(eye, p.conj()), np.kron(eye, y.conj()))
    for got, ref in ((op.domain_basis.a, want.domain_basis.a), (op.values.a, want.values.a)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert got.flags.c_contiguous and not got.flags.writeable


def test_ideal_rank_one_below_full():
    # the regime of ideal rank m - 1 in which the m^2-dimensional pipeline
    # raised NotHermitian on feasible inputs
    m = 6
    gen = np.random.default_rng(27)
    for _ in range(200):
        phi = herm(cgauss(gen, m, m))
        pf = PartialFunctional(LeftIdeal(projection(gen, m, m - 1)), phi)
        x = cgauss(gen, m, m)
        density = PsdMatrix(herm(x @ x.conj().T) + 0.25 * np.eye(m))
        g_min, g_max, alpha = extend_functional(pf, density)
        assert alpha >= 0
        for g in (g_min, g_max):
            d = g.density.a
            assert np.array_equal(d, d.conj().T)
            assert _ideal_agreement(pf, d) <= EQ


@pytest.mark.parametrize("seed", range(20))
def test_lifted_asymmetry_is_rejected(seed):
    # ideal and density of rank one: the values Gamma* conj(d) = conj(v) have
    # a 1e-9 component outside ran F = span conj(q) (inside the range
    # tolerance) that makes d* v real while the lifted form d* Q Q* v keeps
    # an imaginary part; the m^2 pipeline rejected such data as NotHermitian,
    # and extending it anyway can miss g_0 on the ideal by far more than the leak
    gen = np.random.default_rng(4000 + seed)
    basis = np.linalg.qr(cgauss(gen, 2, 2))[0]
    q, z = basis[:, 0], basis[:, 1]
    d = q * gen.uniform(0.3, 1.0) + z * gen.uniform(0.3, 1.0) * np.exp(2j * np.pi * gen.uniform())
    d /= np.linalg.norm(d)
    u = q.conj() @ d
    eta = gen.uniform(1e-9, 2e-9)
    v = q * (-gen.uniform(0.2, 2.0) * u + 1j * eta / u.conj()) - z * (1j * eta / (z.conj() @ d))
    density = PsdMatrix(np.outer(q, q.conj()).T)
    pf = PartialFunctional(LeftIdeal(np.outer(d, d.conj()).T), np.outer(d.conj(), v))
    assert is_symmetric_on_ideal(pf)
    with pytest.raises(NotHermitian):
        extend_functional(pf, density)
    with pytest.raises(NotHermitian):
        f_bound(pf, density)


def induced_interval(pf, weight):
    """``extend_symmetric`` of the pair (B, Gamma* B) on (C^m, F), B the ideal's decided range basis."""
    b = pf.ideal._range
    return extend_symmetric(SymmetricPartialOperator(b, pf.gamma.a.conj().T @ b), weight)


def assert_same_bits(g_min, g_max, alpha, interval, where):
    assert alpha == interval.alpha, where
    for got, want in ((g_min.density.a, interval.s_min.a), (g_max.density.a, interval.s_max.a)):
        assert np.array_equal(got, want), where


def test_functional_extensions_are_sa_ext_on_the_density():
    # extend_functional, f_bound and cstar_extendibility (with the trace, and with |Phi| of a
    # supplied extension) run one path: sa-ext on (B, Gamma* B) with their weight, bit for bit
    for seed in range(200):
        m = 1 + seed % 6
        (pf, density, source), _ = planted("functional", (m,), Rng(seed))
        where = f"seed {seed}, m {m}"
        g_min, g_max, alpha = extend_functional(pf, density)
        assert_same_bits(g_min, g_max, alpha, induced_interval(pf, density), where)
        assert f_bound(pf, density) == alpha, where
        for extension in (None, source):
            decision = cstar_extendibility(pf, extension=extension)
            weight = decision.density.density
            if extension is None:
                assert np.array_equal(weight.a, np.eye(m)), where
            assert_same_bits(decision.g_min, decision.g_max, decision.alpha, induced_interval(pf, weight), where)
            assert f_bound(pf, weight) == decision.alpha, where
