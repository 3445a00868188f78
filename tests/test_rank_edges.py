"""Rank decisions at the edges: near-cutoff Gram eigenvalues, domains
larger than the weight's rank or ill-conditioned at it, and the
decompositions a completion makes."""

import numpy as np
import pytest

from opext.errors import NumericalFailure, RestrictionConditionFailed
from opext.kvn import PartialPositiveOperator, check_restriction, kvn_extend
from opext.numkit import ComplexMatrix, PsdMatrix, loewner_leq
from opext.parrott import ParrottInstance, StrongParrottInstance, parrott_complete, strong_parrott
from opext import sa_ext
from opext.sa_ext import SymmetricPartialOperator, alpha_of_total, extend_symmetric

D12 = np.eye(3)[:, :2]


def cgauss(gen, rows, cols):
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2)


def unitary(gen, n):
    return np.linalg.qr(cgauss(gen, n, n))[0]


def planted_weight(gen, n, r):
    """Weight of rank exactly r from explicit eigenpairs, and its square root."""
    q = np.linalg.qr(cgauss(gen, n, r))[0]
    w = gen.uniform(0.5, 2.0, r)
    return (q * w) @ q.conj().T, (q * np.sqrt(w)) @ q.conj().T


class TestGramEigenvalueInsideSlack:
    # the Gram matrix D* G = diag(1, -1e-9): its second eigenvalue lies
    # inside the positivity slack (so the data is accepted) but its
    # magnitude is above the rank cutoff (2e-10)

    def test_values_off_the_kept_range_fail_restriction(self):
        g = np.array([[1.0, 0.0], [0.0, -1e-9], [0.0, 1.0]])
        op = PartialPositiveOperator(D12, g)
        assert not check_restriction(op)
        with pytest.raises(RestrictionConditionFailed):
            kvn_extend(op)

    def test_extension_has_no_negative_eigenvalue(self):
        g = np.array([[1.0, 0.0], [0.0, -1e-9], [0.0, 0.0]])
        op = PartialPositiveOperator(D12, g)
        assert check_restriction(op)
        ext = kvn_extend(op).a
        assert np.linalg.eigvalsh(ext).min() >= 0.0
        assert np.linalg.norm(ext @ D12 - g) <= 1e-8 * (1 + np.linalg.norm(g))


class TestDomainAboveWeightRank:
    # k > r at n >= 100: the Gram matrix is rank-deficient by k - r

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kvn(self, seed):
        gen = np.random.default_rng([seed, 31])
        n, r, k = 120, 50, 80
        total, _ = planted_weight(gen, n, r)
        d = cgauss(gen, n, k)
        g = total @ d
        ext = kvn_extend(PartialPositiveOperator(d, g)).a
        assert np.linalg.norm(ext @ d - g) <= 1e-8 * (1 + np.linalg.norm(g))
        assert np.linalg.eigvalsh(total - ext).min() >= -1e-8 * np.linalg.norm(total, 2)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sa_ext(self, seed):
        gen = np.random.default_rng([seed, 32])
        n, r, k = 120, 50, 80
        weight, root = planted_weight(gen, n, r)
        h = cgauss(gen, n, n)
        s = root @ (h + h.conj().T) @ root
        s = (s + s.conj().T) / 2.0
        d = cgauss(gen, n, k)
        v = s @ d
        interval = extend_symmetric(SymmetricPartialOperator(d, v), PsdMatrix(weight))
        for ext in (interval.s_min.a, interval.s_max.a):
            assert np.linalg.norm(ext @ d - v) <= 1e-8 * (1 + np.linalg.norm(v))
            drift = abs(alpha_of_total(ext, weight) - interval.alpha)
            assert drift <= 1e-8 * (1 + interval.alpha)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_parrott(self, seed):
        gen = np.random.default_rng([seed, 33])
        n1, n2, r1, r2, k1, k2 = 70, 50, 30, 20, 40, 30
        a1, root1 = planted_weight(gen, n1, r1)
        a2, root2 = planted_weight(gen, n2, r2)
        core = cgauss(gen, n2, n1)
        core *= 0.8 / np.linalg.norm(core, 2)
        hidden = root2 @ core @ root1
        d1, d2 = cgauss(gen, n1, k1), cgauss(gen, n2, k2)
        v1, v2 = hidden @ d1, hidden.conj().T @ d2
        x = parrott_complete(ParrottInstance(d1, v1, d2, v2, a1, a2, 0.64, 0.64)).a
        assert np.linalg.norm(x @ d1 - v1) <= 1e-8 * (1 + np.linalg.norm(v1))
        assert np.linalg.norm(x.conj().T @ d2 - v2) <= 1e-8 * (1 + np.linalg.norm(v2))


class TestDomainAtWeightRankNearCutoff:
    # n = 40, k = r = 39: the total's spectrum spans 1e-4 and the domain's
    # singular values 1e-3, so D* G spans about 1e-10, below its rank cutoff
    # 3.9e-9, though every direction is genuine; an orthonormal basis of the
    # domain sees only the total's spread

    N, R = 40, 39

    def planted(self, seed):
        """Seeded total B of rank R, its square root, and a domain of condition 1e3."""
        gen = np.random.default_rng([seed, 35])
        q = unitary(gen, self.N)[:, :self.R]
        spectrum = np.geomspace(1.0, 1e-4, self.R)
        total = (q * spectrum) @ q.conj().T
        root = (q * np.sqrt(spectrum)) @ q.conj().T
        d = (unitary(gen, self.N)[:, :self.R] * np.geomspace(1.0, 1e-3, self.R)) @ unitary(gen, self.R)
        return gen, total, root, d

    @pytest.mark.parametrize("seed", range(4))
    def test_kvn(self, seed):
        _, total, _, d = self.planted(seed)
        g = total @ d
        ext = kvn_extend(PartialPositiveOperator(d, g)).a
        assert np.linalg.norm(ext @ d - g) <= 1e-8 * (1 + np.linalg.norm(g))
        assert loewner_leq(ext, total)

    @pytest.mark.parametrize("seed", range(4))
    def test_sa_ext(self, seed):
        gen, weight, root, d = self.planted(seed)
        h = cgauss(gen, self.N, self.N)
        s = root @ (h + h.conj().T) @ root
        v = ((s + s.conj().T) / 2.0) @ d
        interval = extend_symmetric(SymmetricPartialOperator(d, v), PsdMatrix(weight))
        for ext in (interval.s_min.a, interval.s_max.a):
            assert np.linalg.norm(ext @ d - v) <= 1e-8 * (1 + np.linalg.norm(v))


def test_indefinite_shifted_gram_is_a_numerical_failure(monkeypatch):
    # an understated bound alpha / 2 < ||P* Y|| makes one shifted form alpha / 2 +/- P* Y indefinite
    h = cgauss(np.random.default_rng(41), 5, 5)
    d = np.eye(5)[:, :2]
    op = SymmetricPartialOperator(d, (h + h.conj().T) @ d)
    extend_symmetric(op, PsdMatrix(np.eye(5)))
    real = sa_ext._smax
    monkeypatch.setattr(sa_ext, "_smax", lambda a: 0.5 * real(a))
    with pytest.raises(NumericalFailure, match="positive lift rejected unexpectedly: eigenvalue .* is genuinely negative"):
        extend_symmetric(op, PsdMatrix(np.eye(5)))


def parrott_instance():
    """Planted instance with n1, n2, k1, k2 = 7, 5, 2, 1 and weights of rank 6 and 4."""
    gen = np.random.default_rng(34)
    n1, n2, k1, k2 = 7, 5, 2, 1
    a1, root1 = planted_weight(gen, n1, 6)
    a2, root2 = planted_weight(gen, n2, 4)
    core = cgauss(gen, n2, n1)
    hidden = root2 @ (core / np.linalg.norm(core, 2)) @ root1
    d1, d2 = cgauss(gen, n1, k1), cgauss(gen, n2, k2)
    return ParrottInstance(d1, hidden @ d1, d2, hidden.conj().T @ d2, a1, a2, 1.0, 1.0)


def test_parrott_complete_lifts_each_block_once(decompositions, corners):
    with decompositions:
        inst = parrott_instance()
        parrott_complete(inst)
    n1, n2 = inst.dim1, inst.dim2

    assert all(shape != (n1 + n2, n1 + n2) for shape in decompositions.shapes())
    # the stacked range coordinates (r1 + r2 = 10 rows) are assembled, never decomposed;
    # the fifth svd is the corner's, of its k2 x k1 = 1 x 2 coupling block
    svd_shapes = decompositions.shapes("svd")
    assert len(svd_shapes) == 5
    assert all(shape[0] != 6 + 4 for shape in svd_shapes)
    corners.assert_one_coupling_svd()
    eig_inputs = [m for name, m in decompositions if name != "svd"]
    for block in (inst.weight1.a, inst.weight2.a):
        same = [m for m in eig_inputs if m.shape == block.shape and np.allclose(m, block)]
        assert len(same) == 1


def constructed_rows(monkeypatch, call):
    """Row counts of every ComplexMatrix (of any subclass) constructed or adopted during ``call()``."""
    rows = []
    original = ComplexMatrix._own

    def recorded(self, a):
        rows.append(a.shape[0])
        return original(self, a)

    monkeypatch.setattr(ComplexMatrix, "_own", recorded)
    call()
    monkeypatch.undo()
    return rows


def test_parrott_complete_builds_nothing_in_the_stacked_space(monkeypatch):
    # the completion is read off the n2 x n1 corner of the range coordinates;
    # neither the block lift of diag(A1, A2) nor an (n1 + n2)-square extension is formed
    inst = parrott_instance()
    rows = constructed_rows(monkeypatch, lambda: parrott_complete(inst))
    assert rows and inst.dim1 + inst.dim2 not in rows


def strong_instance():
    """Instance solved by a planted contraction x0 (dimH, dimK, p, q = 7, 6, 3, 2), and x0."""
    gen = np.random.default_rng(36)
    x0 = cgauss(gen, 6, 7)
    x0 *= 0.8 / np.linalg.norm(x0, 2)
    s1, t2 = cgauss(gen, 7, 3), cgauss(gen, 2, 6)
    return StrongParrottInstance(s1, x0 @ s1, t2 @ x0, t2), x0


def test_strong_parrott_builds_nothing_in_the_stacked_space(monkeypatch):
    inst, _ = strong_instance()
    rows = constructed_rows(monkeypatch, lambda: strong_parrott(inst))
    assert rows and inst.dim_h + inst.dim_k not in rows


def test_strong_parrott_takes_one_svd_per_factorization(decompositions, corners):
    # one thin SVD of S1 and one of T2* reduce the data, the norms of the
    # two reduced values give the bound, and the corner takes one of its
    # coupling block; the orthonormal domains are never decomposed again
    inst, x0 = strong_instance()
    s1 = inst.s1.a

    with decompositions:
        x = strong_parrott(inst).a

    assert len(decompositions.shapes("svd")) == 5
    corners.assert_one_coupling_svd()
    assert np.linalg.norm(x @ s1 - x0 @ s1) <= 1e-8 * (1 + np.linalg.norm(x0 @ s1))


def test_strong_parrott_takes_one_coupling_svd_and_decomposes_no_identity(decompositions, corners):
    # the reduced data are orthonormal pairs on identity weights: the corner
    # decomposes only its coupling block, nothing is eigendecomposed, and no
    # identity weight is formed or lifted
    inst, _ = strong_instance()
    with decompositions:
        strong_parrott(inst)

    assert len(decompositions.shapes("eigh")) == 0
    corners.assert_one_coupling_svd()
    assert not any(
        m.shape[0] == m.shape[1] and np.array_equal(m, np.eye(m.shape[0])) for _, m in decompositions
    )


def test_parrott_complete_takes_one_coupling_svd(decompositions, corners):
    # the one completion comes from one svd of the k2 x k1 = 1 x 2 coupling
    # block; the weights took their one eigh each when the instance was built
    inst = parrott_instance()
    with decompositions:
        parrott_complete(inst)

    assert decompositions.shapes("eigh", "eigvalsh", "cholesky") == []
    corners.assert_one_coupling_svd()
    assert corners[0][0].shape == (1, 2)


def herm(a):
    return (a + a.conj().T) / 2.0


def planted_sa_ext(gen, n, r, k):
    a, root = planted_weight(gen, n, r)
    s = herm(root @ herm(cgauss(gen, n, n)) @ root)
    d = cgauss(gen, n, k)
    return SymmetricPartialOperator(d, s @ d), a


def planted_parrott(gen, n, r, k):
    a1, root1 = planted_weight(gen, n, r)
    a2, root2 = planted_weight(gen, n, r)
    core = cgauss(gen, n, n)
    hidden = root2 @ (core / np.linalg.norm(core, 2)) @ root1
    d1, d2 = cgauss(gen, n, k), cgauss(gen, n, k)
    return d1, hidden @ d1, d2, hidden.conj().T @ d2, a1, a2, 1.0, 1.0


def planted_strong(gen, n, p):
    x0 = cgauss(gen, n, n)
    x0 *= 0.8 / np.linalg.norm(x0, 2)
    s1, t2 = cgauss(gen, n, p), cgauss(gen, p, n)
    return s1, x0 @ s1, t2 @ x0, t2


class TestCallerPositivityIsCertified:
    # n = 32 (and p = q = 8 for strong Parrott): a caller weight is decided
    # by the one eigh its PsdMatrix keeps and its lift reads, so it costs no
    # Cholesky and no eigvalsh; both Loewner hypotheses are decided on the reduced pairs, by
    # the thin SVDs and norms the corner takes anyway, so they cost nothing
    # more; the eigh and svd counts are those of the eigvalsh-validating code,
    # but for the Parrott corner's decomposition, an svd of its coupling block

    def counts(self, decompositions):
        return {name: len(decompositions.shapes(name)) for name in ("svd", "eigh", "eigvalsh", "cholesky")}

    def test_extend_symmetric(self, decompositions):
        op, weight = planted_sa_ext(np.random.default_rng(70), 32, 24, 12)
        with decompositions:
            extend_symmetric(op, weight)
        assert self.counts(decompositions) == {"svd": 2, "eigh": 2, "eigvalsh": 0, "cholesky": 0}

    def test_parrott_complete(self, decompositions, corners):
        data = planted_parrott(np.random.default_rng(71), 16, 12, 6)
        with decompositions:
            parrott_complete(ParrottInstance(*data))
        assert self.counts(decompositions) == {"svd": 5, "eigh": 2, "eigvalsh": 0, "cholesky": 0}
        corners.assert_one_coupling_svd()

    def test_partial_positive_operator(self, decompositions):
        # positivity is decided by the Gram factor's own eigh, not on D* G
        gen = np.random.default_rng(73)
        f = cgauss(gen, 32, 24)
        d = cgauss(gen, 32, 12)
        with decompositions:
            PartialPositiveOperator(d, (f @ f.conj().T) @ d)
        assert self.counts(decompositions) == {"svd": 1, "eigh": 1, "eigvalsh": 0, "cholesky": 0}

    def test_strong_parrott(self, decompositions, corners):
        data = planted_strong(np.random.default_rng(72), 16, 8)
        with decompositions:
            strong_parrott(StrongParrottInstance(*data))
        assert self.counts(decompositions) == {"svd": 5, "eigh": 0, "eigvalsh": 0, "cholesky": 0}
        corners.assert_one_coupling_svd()
