"""Each weight and density is decomposed once: by the ``eigh_desc`` that decides it positive.

A :class:`~opext.numkit.PsdMatrix` keeps the spectrum its construction
takes, and :func:`~opext.kvn.hilbert_lift` reads it, for a weight and for a
functional's density F alike.  The census below counts LAPACK calls on
``operators``- and ``functionals``-shaped inputs; the GNS row lift of F is
checked against the conjugate of a lift from a fresh ``eigh_desc(F^T)``.
"""

import numpy as np
import pytest

from opext.func_ext import LeftIdeal, PartialFunctional, extend_functional, gns
from opext.kvn import hilbert_lift
from opext.numkit import DEFAULT_TOLERANCES as T
from opext.errors import NotPsd
from opext.numkit import PsdMatrix, Tolerances, eigh_desc
from opext.sa_ext import SymmetricPartialOperator, extend_symmetric


def cgauss(gen, rows, cols):
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2)


def herm(x):
    return (x + x.conj().T) / 2


def planted(gen, n, rank):
    """Positive matrix of rank ``rank`` from explicit eigenpairs, and its square root."""
    q = np.linalg.qr(cgauss(gen, n, n))[0][:, :rank]
    w = gen.uniform(0.5, 2.0, rank)
    return herm((q * w) @ q.conj().T), herm((q * np.sqrt(w)) @ q.conj().T)


def calls_on(decompositions, a):
    """Names of the recorded calls whose input is ``a`` or its transpose."""
    return [name for name, x in decompositions if x.shape == a.shape and (np.allclose(x, a) or np.allclose(x, a.T))]


@pytest.mark.parametrize("n", [4, 8, 32, 160])
def test_lift_of_a_psd_matrix_takes_one_eigh(n, decompositions):
    a = planted(np.random.default_rng([n, 70]), n, n - n // 4)[0]
    with decompositions:
        hilbert_lift(PsdMatrix(a))
    assert [name for name, _ in decompositions] == ["eigh"]


def test_operators_shaped_extension_decomposes_its_weight_once(decompositions):
    # n = 160, weight rank 120, domain dimension 24, as the operators workload draws them
    gen = np.random.default_rng(71)
    n = 160
    weight, root = planted(gen, n, 120)
    d = cgauss(gen, n, 24)
    op = SymmetricPartialOperator(d, herm(root @ herm(cgauss(gen, n, n)) @ root) @ d)
    with decompositions:
        extend_symmetric(op, PsdMatrix(weight))
    names = [name for name, _ in decompositions]
    assert "cholesky" not in names and "eigvalsh" not in names
    assert calls_on(decompositions, weight) == ["eigh"]


def test_operators_shaped_domain_is_decided_by_its_lift(decompositions):
    # independence is read off the thin SVD of U = J* D (120 x 24) that the extension takes anyway:
    # neither the construction nor the extension decomposes D's own 160 x 24 shape
    gen = np.random.default_rng(72)
    n = 160
    weight, root = planted(gen, n, 120)
    d = cgauss(gen, n, 24)
    v = herm(root @ herm(cgauss(gen, n, n)) @ root) @ d
    with decompositions:
        op = SymmetricPartialOperator(d, v)
    assert decompositions == []
    with decompositions:
        extend_symmetric(op, PsdMatrix(weight))
    assert (120, 24) in decompositions.shapes("svd")
    assert (n, 24) not in decompositions.shapes()


def test_functionals_shaped_extension_decomposes_its_density_once(decompositions):
    # m = 6, as the functionals workload draws it
    gen = np.random.default_rng(72)
    m = 6
    q = np.linalg.qr(cgauss(gen, m, m))[0][:, :3]
    pf = PartialFunctional(LeftIdeal(herm(q @ q.conj().T)), herm(cgauss(gen, m, m)))
    c = cgauss(gen, m, m)
    f = herm(c @ c.conj().T) + 0.25 * np.eye(m)
    with decompositions:
        extend_functional(pf, PsdMatrix(f))
    assert "eigvalsh" not in [name for name, _ in decompositions]
    assert calls_on(decompositions, f) == ["eigh"]


@pytest.mark.parametrize("m", range(1, 17))
@pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
def test_row_lift_is_the_conjugate_of_a_fresh_transpose_lift(m, deficient):
    # F^T = conj F: the GNS row lift reads F's kept eigenpairs, and its Gram
    # J J* is the conjugate of the one a fresh eigh_desc(F^T) gives, up to rounding
    for seed in range(4):
        gen = np.random.default_rng([m, deficient, seed, 75])
        f = PsdMatrix(planted(gen, m, m // 2 if deficient else m)[0])
        space = gns(f, T)
        lift = space.row
        assert space.density is lift.weight

        w, v = eigh_desc(f.a.T)
        keep = w > T.rank_cutoff(m, m) * max(w[0], 0.0)
        roots = np.sqrt(w[keep])
        j = v[:, keep] * roots

        assert lift.rank == np.count_nonzero(keep)
        assert np.all(np.abs(lift.roots - roots) <= 1e-14 * roots.max(initial=0.0))
        got = lift.embedding() @ lift.embedding().conj().T
        assert np.linalg.norm(got - (j @ j.conj().T).conj()) <= 1e-13 * np.linalg.norm(j @ j.conj().T)


def test_a_lift_under_the_deciding_tolerances_reads_the_kept_mask(monkeypatch):
    # PsdMatrix keeps the mask its own decision returned; a lift under the same Tolerances decides nothing again
    from opext import kvn, numkit

    f = PsdMatrix(planted(np.random.default_rng(76), 6, 4)[0])
    calls = []
    keep = numkit._psd_keep
    for module in (numkit, kvn):
        monkeypatch.setattr(module, "_psd_keep", lambda w, tol: calls.append(tol) or keep(w, tol))
    assert hilbert_lift(f).rank == hilbert_lift(f, T).rank == 4
    assert calls == []


def test_a_weight_decided_under_other_tolerances_is_decided_again():
    # eigenvalues 1, 1e-4 and 0: Tolerances(rank=1e-3) keeps one, the default cutoff (6e-10) keeps two
    q = np.linalg.qr(cgauss(np.random.default_rng(77), 6, 6))[0]
    a = herm((q * np.array([1.0, 1e-4, 0.0, 0.0, 0.0, 0.0])) @ q.conj().T)
    coarse = Tolerances(rank=1e-3)
    f = PsdMatrix(a, coarse)
    assert hilbert_lift(f, coarse).rank == hilbert_lift(a, coarse).rank == 1
    assert hilbert_lift(f).rank == hilbert_lift(a).rank == 2
    assert np.array_equal(hilbert_lift(f).roots, hilbert_lift(a).roots)
    # positivity is decided again too: accepted at slack 1e-4, rejected at the default 1e-8
    loose = PsdMatrix(np.diag([1.0, -1e-5]), Tolerances(psd=1e-4))
    assert hilbert_lift(loose, Tolerances(psd=1e-4)).rank == 1
    with pytest.raises(NotPsd):
        hilbert_lift(loose)
