"""Validated matrix primitives: structure checks, decompositions, order."""

from fractions import Fraction

import numpy as np
import pytest

from opext import func_ext, numkit
from opext.errors import DimensionMismatch, NotHermitian, NotPsd
from opext.func_ext import LeftIdeal, PartialFunctional
from opext.kvn import hilbert_lift
from opext.numkit import (
    ComplexMatrix,
    HermitianMatrix,
    PsdMatrix,
    Tolerances,
    _excess,
    _finite,
    _fro,
    _hermitian_part,
    _limit,
    eigh_desc,
    independent_columns,
    loewner_leq,
    numerical_rank,
    pinv,
    psd_eig,
)
from opext.oracle import Rng, complex_gaussian
from opext.parrott import ParrottInstance, check_compatibility


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.rank is None and t.psd == 1e-8 and t.herm == 1e-10 and t.eq == 1e-8

    def test_rank_cutoff_scales_with_dimension(self):
        t = Tolerances()
        assert t.rank_cutoff(4, 7) == pytest.approx(7e-10)
        assert Tolerances(rank=1e-6).rank_cutoff(4, 7) == 1e-6

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(ValueError):
            Tolerances(psd=-1e-8)
        with pytest.raises(ValueError):
            Tolerances(eq=float("nan"))

    @pytest.mark.parametrize("name", ["rank", "psd", "herm", "eq"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_booleans(self, name, flag):
        # bool is an int: True would be a tolerance of 1.0, rank=False a cutoff of 0
        with pytest.raises(ValueError, match=f"tolerance {name!r} must be a finite nonnegative real"):
            Tolerances(**{name: flag})
        with pytest.raises(ValueError, match=f"tolerance {name!r} must be a finite nonnegative real"):
            Tolerances(**{name: np.bool_(flag)})

    @pytest.mark.parametrize("name", ["rank", "psd", "herm", "eq"])
    @pytest.mark.parametrize("value", [np.float32(1e-8), np.float64(1e-8), np.int64(0), np.int32(2), 0, 3])
    def test_numpy_and_integer_reals_are_stored_as_float(self, name, value):
        # a float32 kept as is would stay float32 through eq * (1 + scale) and overflow above 3.4e38
        t = Tolerances(**{name: value})
        assert type(getattr(t, name)) is float and getattr(t, name) == float(value)
        assert np.isfinite(_limit(getattr(t, name), 1e300))

    @pytest.mark.parametrize("name", ["rank", "psd", "herm", "eq"])
    @pytest.mark.parametrize("value", [10**400, -10**400, Fraction(10**400, 3)], ids=["int", "negative-int", "fraction"])
    def test_rejects_reals_beyond_the_float_range(self, name, value):
        # float() of these overflows: the tolerance error, not an OverflowError from the conversion
        with pytest.raises(ValueError, match=f"tolerance {name!r} must be a finite nonnegative real"):
            Tolerances(**{name: value})


class TestComplexMatrix:
    def test_stores_immutable_complex_array(self):
        m = ComplexMatrix([[1, 2], [3, 4]])
        assert m.rows == 2 and m.cols == 2
        assert m.a.dtype == np.complex128
        with pytest.raises(ValueError):
            m.a[0, 0] = 5

    def test_vector_input_becomes_column(self):
        assert ComplexMatrix([1, 2, 3]).a.shape == (3, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ComplexMatrix([[np.inf]])
        with pytest.raises(ValueError):
            ComplexMatrix([[np.nan]])


class TestHermitianMatrix:
    def test_accepts_and_symmetrizes(self):
        h = HermitianMatrix([[1, 1j], [-1j, 2]])
        assert np.allclose(h.a, h.a.conj().T)

    def test_rejects_maximally_non_hermitian(self):
        with pytest.raises(NotHermitian):
            HermitianMatrix([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            HermitianMatrix(np.ones((2, 3)))


class TestPsdMatrix:
    def test_accepts_psd(self):
        PsdMatrix([[2, 1], [1, 2]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            PsdMatrix(np.diag([1.0, -1.0]))


def spectrum_matrix(gen, n, lam_max, lam_min, zeros=0):
    """Hermitian matrix with largest eigenvalue lam_max, smallest lam_min and ``zeros`` zero eigenvalues."""
    inner = np.geomspace(lam_max, lam_max * 1e-3, max(n - 2 - zeros, 0))
    w = np.concatenate([[lam_max], inner, np.zeros(zeros), [lam_min]])[:n]
    q = np.linalg.qr(complex_gaussian(gen, n, n))[0]
    return (q * w) @ q.conj().T


def spectral_psd_rule(a, tol):
    """Message of the NotPsd the rule raises for ``a`` on its deciding ``eigh_desc`` spectrum, or None when it accepts."""
    w = eigh_desc(HermitianMatrix(a, tol))[0]
    lo, hi = float(w[-1]), float(w[0])
    if lo < -tol.psd * (1.0 + hi):
        return f"eigenvalue {lo:.3e} is genuinely negative (largest {hi:.3e})"
    return None


def spectral_loewner_rule(a, b, tol):
    d = b - a
    d = (d + d.conj().T) / 2.0
    w = np.linalg.eigvalsh(d)
    return float(w[0]) >= -tol.psd * (1.0 + float(np.max(np.abs(w))))


def psd_decision(a, tol):
    try:
        PsdMatrix(a, tol)
    except NotPsd as exc:
        return str(exc)
    return None


class TestPositivityCertificate:
    # lambda_min = -c psd (1 + lambda_max): the rule accepts for c <= 1;
    # PsdMatrix decides on the one eigh_desc it keeps for its lifts, and
    # loewner_leq on the exact eigvalsh of the difference

    C = (0.0, 0.25, 0.49, 0.51, 0.75, 0.9, 1.1, 2.0, 10.0)

    @pytest.mark.parametrize("n", [4, 8, 32, 160])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_psd_matrix_decides_as_the_spectrum(self, n, scale):
        tol = Tolerances()
        gen = np.random.default_rng([n, int(np.log10(scale)) + 3, 60])
        for c in self.C:
            a = spectrum_matrix(gen, n, scale, -c * tol.psd * (1.0 + scale))
            assert psd_decision(a, tol) == spectral_psd_rule(a, tol), c

    @pytest.mark.parametrize("n", [4, 8, 32, 160])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_hilbert_lift_decides_a_raw_weight_as_psd_matrix(self, n, scale, decompositions):
        # a raw weight is validated as a PsdMatrix, whose one eigh the lift
        # reads: the same decision and NotPsd text, and no other decomposition
        tol = Tolerances()
        gen = np.random.default_rng([n, int(np.log10(scale)) + 3, 60])
        for c in self.C:
            a = spectrum_matrix(gen, n, scale, -c * tol.psd * (1.0 + scale))
            del decompositions[:]
            with decompositions:
                try:
                    hilbert_lift(a, tol)
                    decision = None
                except NotPsd as exc:
                    decision = str(exc)
            assert [name for name, _ in decompositions] == ["eigh"], c
            assert decision == psd_decision(a, tol), c

    @pytest.mark.parametrize("n", [4, 8, 32, 160])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_loewner_leq_decides_as_the_spectrum(self, n, scale):
        tol = Tolerances()
        gen = np.random.default_rng([n, int(np.log10(scale)) + 3, 61])
        for c in self.C:
            a = spectrum_matrix(gen, n, scale, scale * 1e-2)
            b = a + spectrum_matrix(gen, n, scale, -c * tol.psd * (1.0 + scale))
            assert loewner_leq(a, b, tol) == spectral_loewner_rule(a, b, tol), c

    @pytest.mark.parametrize("n", [8, 32, 160])
    @pytest.mark.parametrize("psd", [1e-8, 0.0])
    def test_rank_deficient_and_zero_slack(self, n, psd):
        tol = Tolerances(psd=psd)
        gen = np.random.default_rng([n, 62])
        for zeros in (1, n // 2, n - 1):
            a = spectrum_matrix(gen, n, 1.0, 0.0, zeros=zeros)
            assert psd_decision(a, tol) == spectral_psd_rule(a, tol)
            assert loewner_leq(np.zeros((n, n)), a, tol) == spectral_loewner_rule(np.zeros((n, n)), a, tol)
            assert loewner_leq(a, np.zeros((n, n)), tol) == spectral_loewner_rule(a, np.zeros((n, n)), tol)

    @pytest.mark.parametrize("n", [4, 8, 32])
    @pytest.mark.parametrize("lam_min", [0.5, -0.75 * 1e-8 * 2.0])
    @pytest.mark.parametrize("psd", [1e-8, 0.0])
    def test_psd_matrix_takes_one_eigh(self, n, lam_min, psd, decompositions):
        # -0.75 psd (1 + lambda_max) is inside the slack, beyond what a half-slack
        # shift could prove; at every size and slack one kept eigh decides
        gen = np.random.default_rng([n, 64])
        a = spectrum_matrix(gen, n, 1.0, lam_min)
        with decompositions:
            decision = psd_decision(a, Tolerances(psd=psd))
        assert [name for name, _ in decompositions] == ["eigh"]
        assert (decision is None) == (lam_min > 0.0 or psd > 0.0)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_loewner_leq_takes_only_the_spectrum(self, n, decompositions):
        gen = np.random.default_rng([n, 66])
        a = spectrum_matrix(gen, n, 1.0, 0.5)
        with decompositions:
            assert loewner_leq(np.zeros((n, n)), a)
            assert not loewner_leq(a, np.zeros((n, n)))
        assert [name for name, _ in decompositions] == ["eigvalsh"] * 2

    def test_zero_slack_loewner_leq_takes_only_the_spectrum(self, decompositions):
        gen = np.random.default_rng(65)
        large = spectrum_matrix(gen, 32, 1.0, 0.5)
        with decompositions:
            loewner_leq(np.zeros((32, 32)), large, Tolerances(psd=0.0))
        assert [name for name, _ in decompositions] == ["eigvalsh"]


class TestPinv:
    def test_scalar_inverse(self):
        assert pinv([[2.0]]).a == pytest.approx(np.array([[0.5]]))

    def test_zero_matrix_maps_to_zero(self):
        assert np.array_equal(pinv(np.zeros((2, 2))).a, np.zeros((2, 2)))

    def test_projection_is_own_pseudo_inverse(self):
        p = np.diag([1.0, 0.0])
        assert pinv(p).a == pytest.approx(p)

    def test_penrose_identities_random(self):
        t = Tolerances()
        for i in range(25):
            gen = Rng(10).split(i).generator()
            rows = int(gen.integers(1, 17))
            cols = int(gen.integers(1, 17))
            m = complex_gaussian(gen, rows, cols)
            mp = pinv(m).a
            scale = t.eq * (1 + np.linalg.norm(m))
            assert np.linalg.norm(m @ mp @ m - m) <= scale
            assert np.linalg.norm(mp @ m @ mp - mp) <= scale
            assert np.linalg.norm((m @ mp) - (m @ mp).conj().T) <= scale
            assert np.linalg.norm((mp @ m) - (mp @ m).conj().T) <= scale


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((2, 3))) == 0

    def test_rank_one(self):
        assert numerical_rank([[1, 1], [1, 1]]) == 1

    def test_noise_below_cutoff_ignored(self):
        assert numerical_rank(np.diag([1.0, 1e-15])) == 1


class TestLoewnerOrder:
    def test_zero_below_identity(self):
        assert loewner_leq(np.zeros((2, 2)), np.eye(2))

    def test_identity_not_below_zero(self):
        assert not loewner_leq(np.eye(2), np.zeros((2, 2)))

    def test_interval_endpoints(self):
        assert loewner_leq(np.diag([1.0, -1.0]), np.diag([1.0, 1.0]))

    def test_reflexive_and_transitive_random(self):
        slack = Tolerances(psd=2e-8)
        for i in range(20):
            gen = Rng(12).split(i).generator()
            n = int(gen.integers(1, 9))
            a = complex_gaussian(gen, n, n)
            a = (a + a.conj().T) / 2
            assert loewner_leq(a, a)
            p1 = complex_gaussian(gen, n, n)
            p2 = complex_gaussian(gen, n, n)
            b = a + p1 @ p1.conj().T
            c = b + p2 @ p2.conj().T
            assert loewner_leq(a, b) and loewner_leq(b, c)
            assert loewner_leq(a, c, slack)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loewner_leq(np.eye(2), np.eye(3))


class TestHermitize:
    def test_diagonal_passthrough(self):
        assert HermitianMatrix(np.diag([1.0, 2.0])).a == pytest.approx(np.diag([1.0, 2.0]))

    def test_symmetric_passthrough(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert HermitianMatrix(x).a == pytest.approx(x)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            HermitianMatrix([[0, 1], [0, 0]])


class TestEighDesc:
    def test_descending_order(self):
        w, _ = eigh_desc(np.diag([1.0, 3.0, 2.0]).astype(complex))
        assert list(w) == pytest.approx([3.0, 2.0, 1.0])

    @pytest.mark.parametrize("n", [0, 1, 5, 64, 160])
    @pytest.mark.parametrize("rank", ["full", "deficient"])
    def test_matches_column_loop(self, n, rank):
        # LAPACK's pairs, gathered one column at a time in descending order
        def reference(a):
            if a.shape[0] == 0:
                return np.zeros(0), np.zeros((0, 0), dtype=complex)
            w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
            order = np.argsort(-w, kind="stable")
            return w[order], np.column_stack([v[:, j] for j in order])

        gen = Rng(14).split(n).generator()
        x = complex_gaussian(gen, n, n if rank == "full" else n // 2)
        a = x @ x.conj().T if rank == "deficient" else x + x.conj().T
        w, v = eigh_desc(a)
        w_ref, v_ref = reference(a)
        assert np.array_equal(w, w_ref)
        assert v.shape == v_ref.shape
        assert np.abs(v - v_ref).max(initial=0.0) <= 1e-15
        assert np.abs(a @ v - v * w).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(w).max(initial=0.0))


    @staticmethod
    def spectra():
        """name -> (Hermitian matrix, whether LAPACK's eigenvalues tie exactly, or None when rounding decides)."""
        q = np.linalg.qr(complex_gaussian(np.random.default_rng(66), 6, 6))[0][:, :3]
        x = complex_gaussian(np.random.default_rng(67), 7, 7)
        return {
            "identity": (np.eye(5, dtype=np.complex128), True),
            "rank-3 projector": (np.diag([0.0, 1.0, 0.0, 1.0, 1.0, 0.0]).astype(np.complex128), True),
            "rotated rank-3 projector": (q @ q.conj().T, None),
            "distinct": (np.diag([3.0, -1.0, 2.0, 0.5]).astype(np.complex128), False),
            "random": (x + x.conj().T, False),
        }

    @pytest.mark.parametrize("name", ["identity", "rank-3 projector", "rotated rank-3 projector", "distinct", "random"])
    def test_the_reversal_is_the_stable_descending_order(self, monkeypatch, name):
        # LAPACK's ascending values without an exact tie are reversed; any exact tie takes the stable sort
        a, ties = self.spectra()[name]
        w_lapack, v_lapack = np.linalg.eigh((a + a.conj().T) / 2.0)
        order = np.argsort(-w_lapack, kind="stable")
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: sorts.append(1) or argsort(*args, **kwargs))
        w, v = eigh_desc(a)
        assert same_bits(w, w_lapack[order]) and same_bits(v, np.take(v_lapack, order, axis=1))
        assert v.flags.c_contiguous
        assert len(sorts) == int(bool(np.any(w_lapack[:-1] == w_lapack[1:])))
        if ties is not None:
            assert len(sorts) == int(ties)


class TestFinite:
    BAD = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf), complex(1.0, -np.inf),
           complex(np.nan, 1.0), complex(-np.inf, 0.0)]

    @pytest.mark.parametrize("value", BAD, ids=lambda v: repr(v))
    def test_rejects_nan_and_inf_in_either_part(self, value):
        a = np.ones((3, 4), dtype=np.complex128)
        a[2, 1] = value
        for x in (a, a.T, a[1:, ::2], a.real, a.imag):
            if np.isfinite(x).all():
                continue  # this view misses the bad entry
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                _finite(x)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (0,)])
    def test_accepts_empty_arrays(self, shape):
        for dtype in (np.float64, np.complex128):
            a = np.zeros(shape, dtype=dtype)
            assert _finite(a) is a

    def test_returns_its_finite_input(self):
        a = complex_gaussian(np.random.default_rng(68), 3, 2)
        assert _finite(a) is a


class TestPsdEig:
    def test_drops_noise_eigenvalues(self):
        w, v = psd_eig(np.diag([1.0, 1e-15]))
        assert w.shape == (1,) and v.shape == (2, 1)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            psd_eig(np.diag([1.0, -1.0]))


class TestIndependentColumns:
    def test_duplicate_column_dropped(self):
        assert independent_columns(np.array([[1.0, 1.0], [0.0, 0.0]])) == [0]

    def test_full_rank_keeps_all(self):
        assert independent_columns(np.eye(3)) == [0, 1, 2]

    def test_zero_matrix_keeps_none(self):
        assert independent_columns(np.zeros((3, 2))) == []


# -- bit-identity pins: the formulas numkit used before its primitives were
# made cheaper, kept here as the reference their outputs must equal bit for bit


def formula_eigh_desc(a):
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    h = (a + a.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    order = np.argsort(-w, kind="stable")
    return w[order], np.ascontiguousarray(v[:, order])


def formula_psd_eig(a, tol):
    a = np.asarray(a, dtype=np.complex128)
    w, v = formula_eigh_desc(a)
    if w.size == 0:
        return w, v
    hi = float(w[0])
    if float(w[-1]) < -tol.psd * (1.0 + hi):
        raise NotPsd("indefinite")
    keep = w > tol.rank_cutoff(*a.shape) * max(hi, 0.0)
    return w[keep], np.ascontiguousarray(v[:, keep])


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def pin_inputs():
    """(name, Hermitian ndarray): random at several sizes, exact ties, and zero first entries."""
    out = []
    for n in (1, 2, 6, 33, 160):
        x = complex_gaussian(np.random.default_rng([n, 61]), n, n)
        out.append((f"random {n}", x + x.conj().T))
    out += [("identity", np.eye(4, dtype=np.complex128)), ("tie", np.diag([2.0, 2.0, 1.0]).astype(np.complex128))]
    b = complex_gaussian(np.random.default_rng(62), 3, 3)
    block = np.zeros((4, 4), dtype=np.complex128)  # diag(1, B): B's eigenvectors have a zero first entry
    block[0, 0] = 1.0
    block[1:, 1:] = b + b.conj().T
    return out + [("zero first entries", block)]


def psd_pin_inputs():
    out = []
    for n, r in ((1, 1), (2, 1), (6, 3), (33, 10), (160, 160)):
        x = complex_gaussian(np.random.default_rng([n, r, 63]), n, r)
        out.append((f"rank {r} of {n}", x @ x.conj().T))
    return out + [(name, a) for name, a in pin_inputs() if name in ("identity", "tie")] + [("zero", np.zeros((3, 3)))]


class TestBitIdentityPins:
    @pytest.mark.parametrize("name, a", pin_inputs())
    def test_eigh_desc(self, name, a):
        nudged = a + 1e-13 * complex_gaussian(np.random.default_rng(64), *a.shape)  # symmetrized inside
        for arg, ref in ((a, a), (HermitianMatrix(a), a), (nudged, nudged)):
            w_ref, v_ref = formula_eigh_desc(ref)
            w, v = eigh_desc(arg)
            assert same_bits(w, w_ref) and same_bits(v, v_ref), name
            assert v.flags.c_contiguous

    @pytest.mark.parametrize("name, a", psd_pin_inputs())
    def test_psd_eig(self, name, a):
        tol = Tolerances()
        w_ref, v_ref = formula_psd_eig(a, tol)
        for arg in (a, HermitianMatrix(a), PsdMatrix(a)):
            w, v = psd_eig(arg, tol)
            assert same_bits(w, w_ref) and same_bits(v, v_ref), name
            assert v.flags.c_contiguous

    def test_empty(self):
        for w, v in (eigh_desc(np.zeros((0, 0))), psd_eig(np.zeros((0, 0)))):
            assert same_bits(w, np.zeros(0)) and same_bits(v, np.zeros((0, 0), dtype=np.complex128))

    def test_fro_is_numpy_norm(self):
        x = complex_gaussian(np.random.default_rng(65), 7, 5)
        cases = [x, x.real.copy(), x.T, x.conj().T, x[::2, 1::2], x[:1], x[:1].real, np.asfortranarray(x), x[:, 0],
                 np.zeros((0, 0)), np.zeros((0, 3), dtype=np.complex128)]
        for a in cases:
            assert _fro(a) == float(np.linalg.norm(a)), a.shape

    @staticmethod
    def signed_zero_matrix():
        re = np.array([[0.0, -0.0, 1.0], [0.0, -0.0, 5e-324], [1.0, -5e-324, -0.0]])
        im = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]])
        a = np.empty((3, 3), dtype=np.complex128)
        a.real, a.imag = re, im
        return a

    def test_hermitian_matrix_and_adopted_part_are_the_half_sum(self):
        x = complex_gaussian(np.random.default_rng(66), 12, 12)
        near = x + x.conj().T + 1e-12 * x
        for a in (near, np.asfortranarray(near), near[::2, ::2], near[::2, ::2].T, self.signed_zero_matrix()):
            ref = (a + a.conj().T) / 2.0
            assert same_bits(HermitianMatrix(a).a, ref)
            assert same_bits(PsdMatrix._adopt(_hermitian_part(a)).a, ref)


class TestWrapperInvariants:
    @staticmethod
    def wrappers(x, p):
        """Every wrapper the library builds from the caller's arrays x (Hermitian) and p (PSD)."""
        proj = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]).astype(np.complex128)
        ideal = LeftIdeal(proj)
        return {
            "ComplexMatrix": ComplexMatrix(x),
            "HermitianMatrix": HermitianMatrix(x),
            "PsdMatrix": PsdMatrix(p),
            "adopted part": PsdMatrix._adopt(_hermitian_part(p)),
            "lift range basis": hilbert_lift(p).range_basis,
            "LeftIdeal.projection": ideal.projection,
            "PartialFunctional.gamma": PartialFunctional(ideal, x).gamma,
        }, proj

    def inputs(self):
        gen = np.random.default_rng(67)
        x = complex_gaussian(gen, 6, 6)
        y = complex_gaussian(gen, 6, 3)
        return x + x.conj().T, y @ y.conj().T

    def test_contiguous_and_read_only(self):
        for name, m in self.wrappers(*self.inputs())[0].items():
            assert m.a.flags.c_contiguous and not m.a.flags.writeable, name
            assert m.a.dtype == np.complex128, name

    def test_no_aliasing_of_caller_arrays(self):
        x, p = self.inputs()
        built, proj = self.wrappers(x, p)
        before = {name: m.a.copy() for name, m in built.items()}
        for caller in (x, p, proj):
            assert caller.flags.writeable  # never frozen by a wrapper
            caller[...] = 7.0
        for name, m in built.items():
            assert same_bits(m.a, before[name]), name

    @staticmethod
    def adopted_part(a):
        with np.errstate(invalid="ignore"):  # _hermitian_part is internal: it takes finite arrays, and infj - infj is nan
            return PsdMatrix._adopt(_hermitian_part(a))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3, dtype=np.complex128)
        a[1, 1] = bad
        for build in (ComplexMatrix, HermitianMatrix, PsdMatrix, self.adopted_part):
            with pytest.raises(ValueError, match="finite"):
                build(a)

    @pytest.mark.parametrize("build", [HermitianMatrix, PsdMatrix])
    def test_overflowing_half_sum_rejected(self, build):
        # finite entries whose a + a* overflows: numpy warns on the way (||a||_F, the sum, inf / 2.0), and the
        # half-sum's finiteness check raises the same ValueError as for non-finite input
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            build(np.diag([1.5e308, 1.0]))

    def test_overflowing_norms_still_decide(self):
        # from about 1.3e154 on, ||.||_F overflows on both sides of the rule and inf > inf is False; the rule
        # then decides on the operands scaled by a power of two (numpy warns on the way, in the overflowing dot)
        h = np.array([[1e200, 1e200j], [-1e200j, 1e200]])
        d = 1e100 * np.eye(2)

        def compatible(a, b):
            # domains 1e100 I give the Parrott pairing block [[0, D1* V2], [D2* V1, 0]] = [[0, a], [b, 0]], and both
            # corners the bound ||V_i|| / 1e100 <= 2, so the pairing alone decides
            return check_compatibility(ParrottInstance(d, b / 1e100, d, a / 1e100, np.eye(2), np.eye(2), 4.0, 4.0))

        with np.errstate(over="ignore"):
            with pytest.raises(NotHermitian):
                HermitianMatrix([[1e200, 1e200], [0.0, 1e200]])
            assert not compatible(np.diag([1e200, 1e200]), np.diag([-1e200, 1e200]))
            assert np.array_equal(HermitianMatrix(h).a, h)
            assert compatible(h, h)

    def test_overflowed_rules_measure_once(self, monkeypatch):
        # both callers of _excess measured finite-or-not norms already; _excess measures only the prescaled blocks
        runs = []

        def spy(measure, blocks, rel):
            def counted(*scaled):
                runs[-1] += 1
                return measure(*scaled)

            runs.append(0)
            return _excess(counted, blocks, rel)

        monkeypatch.setattr(numkit, "_excess", spy)
        monkeypatch.setattr(func_ext, "_excess", spy)
        h, skew = np.array([[1e200, 1e200j], [-1e200j, 1e200]]), np.array([[1e200, 1e200], [0.0, 1e200]])
        with np.errstate(over="ignore"):
            with pytest.raises(NotHermitian):
                HermitianMatrix(skew)
            HermitianMatrix(h)
            assert func_ext.is_symmetric_on_ideal(PartialFunctional(LeftIdeal(np.eye(2)), h))
            assert not func_ext.is_symmetric_on_ideal(PartialFunctional(LeftIdeal(np.eye(2)), skew))
        assert runs == [1, 1, 1, 1]

    @pytest.mark.parametrize("n", [2, 6, 33])
    def test_not_hermitian_threshold(self, n):
        x = complex_gaussian(np.random.default_rng([n, 68]), n, n)
        a = x + x.conj().T + 1e-6 * x
        asym, scale = np.linalg.norm(a - a.conj().T), 1.0 + np.linalg.norm(a)
        with pytest.raises(NotHermitian):
            HermitianMatrix(a, Tolerances(herm=asym / scale * (1.0 - 1e-9)))
        HermitianMatrix(a, Tolerances(herm=asym / scale * (1.0 + 1e-9)))


def test_wrappers_are_immutable_and_copy_whole():
    import copy
    import pickle

    w = PsdMatrix(np.diag([2.0, 1.0]))
    with pytest.raises(AttributeError):
        w.a = np.eye(2)
    with pytest.raises(AttributeError):
        w.extra = 1
    for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(twin) is PsdMatrix and same_bits(twin.a, w.a)
        assert same_bits(twin._spectrum[0], w._spectrum[0])
        assert hilbert_lift(twin).rank == 2
