"""The closed-form Parrott corner against the stacked route it replaces.

``parrott._corner`` reads the corner G2 M^+ G1* off one thin SVD of the
k2 x k1 coupling block B, with one formula for every singular pair, and
decides like ``psd_eig`` on M at every rank cutoff.  The
reference below is the stacked (k1 + k2)-dimensional route, written out
with plain numpy: P = diag(P1, P2), Y = [[0, Y2], [Y1, 0]],
G = beta P + sign Y, the eigenpairs of the Hermitian part of M = P* G, the
psd rule and the rank cutoff of ``psd_eig``, the existence residual of G
on the dropped directions, and the corner sign (C[r1:] C[:r1]*) of
C = G Q W^{-1/2}.
sign = -1 is the maximal extension; the diag(I, -I) similarity makes its
corner the minimal one's.
"""

import numpy as np
import pytest

from opext import parrott
from opext.errors import NumericalFailure
from opext.numkit import Tolerances
from opext.parrott import StrongParrottInstance, strong_parrott

TOL = Tolerances()
REL = 1e-12


def cgauss(gen, rows, cols):
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2)


def orthonormal(gen, rows, cols):
    return np.linalg.qr(cgauss(gen, rows, cols))[0][:, :cols]


def stacked_corner(p1, y1, p2, y2, beta, tol, sign=1.0):
    """(corner, number of dropped eigenvalues) of the stacked route; NumericalFailure where it rejects M."""
    (r1, k1), (r2, k2) = p1.shape, p2.shape
    p = np.zeros((r1 + r2, k1 + k2), dtype=complex)
    p[:r1, :k1], p[r1:, k1:] = p1, p2
    y = np.zeros_like(p)
    y[:r1, k1:], y[r1:, :k1] = y2, y1
    g = beta * p + sign * y
    m = p.conj().T @ g
    w, q = np.linalg.eigh((m + m.conj().T) / 2)
    hi = w[-1] if w.size else 0.0
    if w.size and w[0] < -tol.psd * (1 + hi):
        raise NumericalFailure("indefinite stacked form")
    keep = w > tol.rank_cutoff(w.size, w.size) * max(hi, 0.0)
    q, w = q[:, keep], w[keep]
    if np.linalg.norm(g - (g @ q) @ q.conj().T) > tol.eq * (1 + np.linalg.norm(g)):
        raise NumericalFailure("G does not vanish on a dropped direction")
    c = (g @ q) / np.sqrt(w)
    return sign * (c[r1:] @ c[:r1].conj().T), int(np.count_nonzero(~keep))


def assert_matches(p1, y1, p2, y2, beta, tol=TOL):
    """The closed form against both stacked endpoints; returns the reference's dropped count."""
    x = parrott._corner(p1, y1, p2, y2, beta, tol)
    dropped = set()
    for sign in (1.0, -1.0):
        ref, n = stacked_corner(p1, y1, p2, y2, beta, tol, sign)
        dropped.add(n)
        assert x.shape == ref.shape
        assert np.linalg.norm(x - ref) <= REL * np.linalg.norm(ref)
    assert len(dropped) == 1
    return dropped.pop()


def same_outcome(p1, y1, p2, y2, beta, tol):
    """:func:`assert_matches` where the stacked route completes; None where both routes raise NumericalFailure."""
    try:
        stacked_corner(p1, y1, p2, y2, beta, tol)
    except NumericalFailure:
        with pytest.raises(NumericalFailure):
            parrott._corner(p1, y1, p2, y2, beta, tol)
        return None
    return assert_matches(p1, y1, p2, y2, beta, tol)


def planted(seed, k1, k2, scale=0.9):
    """Orthonormal pairs of a planted contraction X0 (Y1 = X0 P1, Y2 = X0* P2) and beta = max ||Y_i||."""
    gen = np.random.default_rng([seed, 83])
    r1, r2 = k1 + 3, k2 + 2
    p1, p2 = orthonormal(gen, r1, k1), orthonormal(gen, r2, k2)
    x0 = cgauss(gen, r2, r1)
    x0 *= scale / np.linalg.norm(x0, 2)
    y1, y2 = x0 @ p1, x0.conj().T @ p2
    beta = max((np.linalg.norm(y, 2) for y in (y1, y2) if y.size), default=0.0)
    return p1, y1, p2, y2, beta


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k1, k2", [(2, 5), (5, 2), (4, 4), (1, 6), (6, 1)])
def test_planted_corner_matches_the_stacked_route(seed, k1, k2):
    # the thin SVD of B takes k1 < k2, k1 > k2 and the vectors k1 or k2 = 1 alike
    assert assert_matches(*planted(seed, k1, k2)) == 0


@pytest.mark.parametrize("k1, k2", [(3, 0), (0, 3), (0, 0)])
def test_empty_side_leaves_one_product(k1, k2):
    p1, y1, p2, y2, beta = planted(7, k1, k2)
    assert assert_matches(p1, y1, p2, y2, beta) == 0
    x, product = parrott._corner(p1, y1, p2, y2, beta, TOL), y1 @ p1.conj().T + p2 @ y2.conj().T
    assert np.linalg.norm(x - product) <= REL * np.linalg.norm(product)


def test_zero_bound_gives_the_zero_corner():
    # every eigenvalue of the stacked M is zero, so the reference drops all k1 + k2
    p1, y1, p2, y2, beta = planted(8, 3, 2, scale=0.0)
    assert beta == 0.0
    x = parrott._corner(p1, y1, p2, y2, beta, TOL)
    assert x.shape == (p2.shape[0], p1.shape[0]) and not x.any()
    assert assert_matches(p1, y1, p2, y2, beta) == 5


def gap_pairs(seed, k1, k2, leak=0.0, tail=None):
    """Pairs whose coupling block has sigma_max = 1 and no leak out of ran P on its top pair.

    Y1 = P2 B + L1 and Y2 = P1 B* + L2, with B's other singular values at
    most 0.7 (``tail``, drawn when None) and L_i of norm 0.3 off ran P_j and
    off B's top pair, so both ||Y_i|| are 1; ``leak`` adds that much of Y1's
    top value off ran P2.
    """
    gen = np.random.default_rng([seed, 89])
    r1, r2 = k1 + 3, k2 + 2
    p1, p2 = orthonormal(gen, r1, k1), orthonormal(gen, r2, k2)
    u, _, vh = np.linalg.svd(cgauss(gen, k2, k1))
    m = min(k1, k2)
    sigma = np.concatenate([[1.0], gen.uniform(0.1, 0.7, m - 1) if tail is None else tail])
    b = (u[:, :m] * sigma) @ vh[:m]
    off1, off2 = np.eye(r2) - p2 @ p2.conj().T, np.eye(r1) - p1 @ p1.conj().T
    top1, top2 = np.eye(k1) - np.outer(vh[0].conj(), vh[0]), np.eye(k2) - np.outer(u[:, 0], u[:, 0].conj())
    l1, l2 = off1 @ cgauss(gen, r2, k1) @ top1, off2 @ cgauss(gen, r1, k2) @ top2
    y1 = p2 @ b + 0.3 * l1 / np.linalg.norm(l1, 2)
    y2 = p1 @ b.conj().T + 0.3 * l2 / np.linalg.norm(l2, 2)
    if leak:
        escape = off1 @ cgauss(gen, r2, 1)
        y1 = y1 + leak * (escape / np.linalg.norm(escape)) @ vh[:1]
    return p1, y1, p2, y2


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k1, k2", [(3, 5), (5, 3)])
@pytest.mark.parametrize("ratio, dropped", [(0.5, 1), (2.0, 0)])
def test_gap_near_the_rank_cutoff_is_decided_like_the_stacked_route(seed, k1, k2, ratio, dropped):
    """beta - sigma_max at ratio x the rank cutoff kappa (beta + sigma_max): dropped below it, kept above."""
    p1, y1, p2, y2 = gap_pairs(seed, k1, k2)
    kappa = TOL.rank_cutoff(k1 + k2, k1 + k2) * ratio
    beta = (1 + kappa) / (1 - kappa)  # beta - 1 = kappa (beta + 1)
    assert assert_matches(p1, y1, p2, y2, beta) == dropped


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k1, k2", [(3, 5), (5, 3)])
def test_gap_at_the_rank_cutoff_takes_one_of_its_two_decisions(seed, k1, k2):
    """At 1x the gap and the cutoff agree to rounding, so the rule may go either way, in either route.

    The corner must be the reference's for one decision: keep (the cutoff
    shrunk by 1e-6) or drop (grown by 1e-6).
    """
    p1, y1, p2, y2 = gap_pairs(seed, k1, k2)
    kappa = TOL.rank_cutoff(k1 + k2, k1 + k2)
    beta = (1 + kappa) / (1 - kappa)
    x = parrott._corner(p1, y1, p2, y2, beta, TOL)
    misses = []
    for nudge, dropped in ((1 - 1e-6, 0), (1 + 1e-6, 1)):
        ref, n = stacked_corner(p1, y1, p2, y2, beta, Tolerances(rank=kappa * nudge))
        assert n == dropped
        misses.append(np.linalg.norm(x - ref) / np.linalg.norm(ref))
    assert min(misses) <= REL < max(misses)


@pytest.mark.parametrize("k1, k2", [(3, 5), (5, 3)])
def test_leak_on_a_dropped_pair_is_a_numerical_failure(k1, k2):
    # beta = sigma_max: the top pair's beta - sigma direction is dropped, and G must vanish on it
    p1, y1, p2, y2 = gap_pairs(4, k1, k2, leak=1e-3)
    assert_matches(*gap_pairs(4, k1, k2, leak=1e-12), 1.0)
    for corner in (parrott._corner, stacked_corner):
        with pytest.raises(NumericalFailure):
            corner(p1, y1, p2, y2, 1.0, TOL)


@pytest.mark.parametrize("k1, k2", [(3, 5), (5, 3)])
def test_indefinite_form_is_a_numerical_failure(k1, k2):
    p1, y1, p2, y2 = gap_pairs(5, k1, k2)
    for corner in (parrott._corner, stacked_corner):
        with pytest.raises(NumericalFailure, match="genuinely negative|indefinite"):
            corner(p1, y1, p2, y2, 0.5, TOL)


def test_strong_parrott_with_an_understated_bound_is_a_numerical_failure(monkeypatch):
    # X0's top singular pair lies in both domains, so sigma_max(B) = ||X0|| = 0.8; halving
    # each reduced norm shifts M by beta = 0.4 < sigma_max: the form is indefinite
    gen = np.random.default_rng(97)
    x0 = cgauss(gen, 6, 7)
    x0 *= 0.8 / np.linalg.norm(x0, 2)
    u, _, vh = np.linalg.svd(x0)
    s1, t2 = vh[:4].conj().T, u[:, :3].conj().T
    inst = StrongParrottInstance(s1, x0 @ s1, t2 @ x0, t2)
    assert np.linalg.norm(strong_parrott(inst).a @ s1 - x0 @ s1) <= 1e-12
    real = parrott._smax
    monkeypatch.setattr(parrott, "_smax", lambda a: 0.5 * real(a))
    with pytest.raises(NumericalFailure, match="genuinely negative"):
        strong_parrott(inst)


def assert_matches_without_division_warnings(p1, y1, p2, y2, beta, tol=TOL):
    with np.errstate(divide="raise", invalid="raise"):
        return assert_matches(p1, y1, p2, y2, beta, tol)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("k1, k2", [(3, 5), (5, 3), (4, 4)])
def test_rank_deficient_coupling_block(seed, k1, k2):
    """B = diag(1, 0.4, 0, ...): its sigma = 0 pairs add nothing, and divide by nothing that vanishes."""
    p1, y1, p2, y2 = gap_pairs(seed, k1, k2, tail=[0.4] + [0.0] * (min(k1, k2) - 2))
    assert assert_matches_without_division_warnings(p1, y1, p2, y2, 1.0) == 1
    assert assert_matches_without_division_warnings(p1, y1, p2, y2, 1.25) == 0


@pytest.mark.parametrize("ratio", [0.49, 0.5, 0.51])
@pytest.mark.parametrize("k1, k2", [(3, 5), (5, 3)])
def test_pairs_either_side_of_half_the_bound(ratio, k1, k2):
    # sigma = (1, ratio, 0.2): at beta = 1 the second pair has sigma / beta = ratio, at beta = 1 / ratio the top
    p1, y1, p2, y2 = gap_pairs(9, k1, k2, tail=[ratio, 0.2])
    assert assert_matches(p1, y1, p2, y2, 1.0) == 1
    assert assert_matches(p1, y1, p2, y2, 1.0 / ratio) == 0


@pytest.mark.parametrize("k1, k2", [(3, 5), (5, 3)])
def test_a_rank_cutoff_of_three_tenths_drops_a_pair_below_half_the_bound(k1, k2):
    """sigma = (1, 0.45, 0.2) at beta = 1, where the cutoff is rank (beta + sigma_max) = 2 rank.

    At rank 0.2 the 0.45 pair's beta - sigma = 0.55 stays and both routes
    complete; at 0.3 it drops, G does not vanish on its e-, and both reject.
    """
    p1, y1, p2, y2 = gap_pairs(10, k1, k2, tail=[0.45, 0.2])
    assert assert_matches(p1, y1, p2, y2, 1.0, Tolerances(rank=0.2)) == 1
    for corner in (parrott._corner, stacked_corner):
        with pytest.raises(NumericalFailure):
            corner(p1, y1, p2, y2, 1.0, Tolerances(rank=0.3))


@pytest.mark.parametrize("k1, k2", [(3, 5), (5, 3), (4, 4)])
def test_a_zero_pair_drops_only_where_the_residual_rejects_it(k1, k2):
    """B = diag(1, 0, ...) at beta = 1: a cutoff of 0.3 keeps every sigma = 0 pair's beta - sigma = 1, and
    0.6 drops it, where ||G e-|| >= beta trips the existence residual before anything divides by sigma."""
    p1, y1, p2, y2 = gap_pairs(11, k1, k2, tail=[0.0] * (min(k1, k2) - 1))
    assert assert_matches_without_division_warnings(p1, y1, p2, y2, 1.0, Tolerances(rank=0.3)) == 1
    with np.errstate(divide="raise", invalid="raise"):
        for corner in (parrott._corner, stacked_corner):
            with pytest.raises(NumericalFailure):
                corner(p1, y1, p2, y2, 1.0, Tolerances(rank=0.6))


def isometric_pairs(swap):
    """Orthonormal P1 (6 x 3) and P2 (7 x 5) with Y1 = P2 B and Y2 = P1 B* + L for an isometric B (all sigma = 1).

    L, of norm 0.3, lies off ran P1 and off ran B, so B stays the coupling
    block and G1 = [P1, Y2] is nonzero on the two directions outside B's
    pairs.  ``swap`` exchanges the sides, so k1 > k2.
    """
    gen = np.random.default_rng(101)
    p1, p2, b = orthonormal(gen, 6, 3), orthonormal(gen, 7, 5), orthonormal(gen, 5, 3)
    leak = (np.eye(6) - p1 @ p1.conj().T) @ cgauss(gen, 6, 5) @ (np.eye(5) - b @ b.conj().T)
    pairs = (p1, p2 @ b, p2, p1 @ b.conj().T + 0.3 * leak / np.linalg.norm(leak, 2))
    return pairs[2:] + pairs[:2] if swap else pairs


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("eq", [1e-8, 10.0])
@pytest.mark.parametrize("rank", [None, 0.3, 0.49, 0.51, 0.6, 0.9])
def test_isometric_coupling_at_every_rank_cutoff(rank, eq, swap):
    """M has the eigenvalues 2 and 0, three times each, and 1 on the two directions outside B's pairs.

    G vanishes on the 0 pairs, which every cutoff drops.  From a cutoff of
    1/2 the two unpaired 1s drop as well, where ||G e|| >= 1: both routes
    reject at eq = 1e-8 and complete without their terms, which L makes
    nonzero, at eq = 10.
    """
    dropped = same_outcome(*isometric_pairs(swap), 1.0, Tolerances(rank=rank, eq=eq))
    if rank is None or rank < 0.5:
        assert dropped == 3
    else:
        assert dropped == (5 if eq == 10.0 else None)


@pytest.mark.parametrize("case", ["isometric", "swapped", "no second side", "no first side"])
def test_a_unit_cutoff_drops_the_whole_form(case):
    """At a rank cutoff of 1 every eigenvalue of M drops, the beta + sigma pairs too, and G must vanish everywhere.

    It does not: both routes reject at eq = 1e-8.  At eq = 10 the stacked
    corner is exactly zero, and the closed form's is zero up to rounding.
    """
    if case in ("isometric", "swapped"):
        p1, y1, p2, y2, beta = *isometric_pairs(case == "swapped"), 1.0
    else:
        p1, y1, p2, y2, beta = planted(7, 3, 0) if case == "no second side" else planted(7, 0, 3)
    for corner in (parrott._corner, stacked_corner):
        with pytest.raises(NumericalFailure):
            corner(p1, y1, p2, y2, beta, Tolerances(rank=1.0))
    ref, dropped = stacked_corner(p1, y1, p2, y2, beta, Tolerances(rank=1.0, eq=10.0))
    assert dropped == p1.shape[1] + p2.shape[1] and not ref.any()
    x = parrott._corner(p1, y1, p2, y2, beta, Tolerances(rank=1.0, eq=10.0))
    assert np.linalg.norm(x) <= REL * np.linalg.norm(y1 @ p1.conj().T + p2 @ y2.conj().T)
