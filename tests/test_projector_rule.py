"""A projector is decided on its spectrum, as the matrix rule decides it.

``numkit._projector`` accepts a Hermitian P when ``||P^2 - P||_F <= eq (1 + ||P||_F)``, and returns the
orthonormal basis B of its eigenvectors above 1/2.  It reads both norms off one eigendecomposition,
``||P^2 - P||_F = ||w (w - 1)||`` and ``||P||_F = ||w||``, so these checks write the rule out on the
matrix with numpy and compare it with what ``LeftIdeal`` and ``classical_parrott`` decide:

* near projectors ``B B* + eps H``, with eps put at 0.5 and 2 times the limit, are accepted or rejected
  as the matrix rule decides, and an accepted one keeps the range numpy's eigenvectors above 1/2 span;
* a non-projector is rejected at every scale, and the residual it reports is a number (``inf`` once
  ``w (w - 1)`` overflows), never ``nan``.
"""

import re

import numpy as np
import pytest

from opext.func_ext import LeftIdeal
from opext.numkit import DEFAULT_TOLERANCES as T
from opext.oracle import random_hermitian, random_projection
from opext.parrott import classical_parrott

SIZES = (2, 8, 16)
DRAWS = 6
FACTORS = (0.5, 2.0)


def matrix_rule(p):
    """``(residual, limit)`` of the idempotency rule written on the Hermitian part of p."""
    pm = (p + p.conj().T) / 2.0
    return np.linalg.norm(pm @ pm - pm), T.eq * (1.0 + np.linalg.norm(pm))


def near_projector(m, seed, f):
    """``B B* + eps H`` of rank drawn in 0..m, with eps set so that the matrix residual is f times its limit."""
    gen = np.random.default_rng([seed, m, 441])
    q = random_projection(gen, m, int(gen.integers(0, m + 1)))
    h = random_hermitian(gen, m)
    h /= np.linalg.norm(h)
    eps = T.eq
    for _ in range(50):  # the residual is about linear in eps: a fixed point
        resid, limit = matrix_rule(q + eps * h)
        eps *= f * limit / resid
    p = q + eps * h
    resid, limit = matrix_rule(p)
    assert abs(resid / limit - f) < 1e-6
    return p


def range_projector(p):
    """B B* for B numpy's eigenvectors above 1/2 of the Hermitian part of p."""
    w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
    b = v[:, w > 0.5]
    return b @ b.conj().T


def reported_residual(exc):
    return float(re.search(r"idempotency residual (\S+)\)", str(exc)).group(1))


@pytest.mark.parametrize("f", FACTORS, ids=["half", "twice"])
@pytest.mark.parametrize("m", SIZES)
def test_left_ideal_decides_as_the_matrix_rule(m, f):
    misses = []
    for seed in range(DRAWS):
        p = near_projector(m, seed, f)
        resid, limit = matrix_rule(p)
        where = f"m {m} seed {seed} residual/limit {resid / limit:.3f}"
        try:
            ideal = LeftIdeal(p)
        except ValueError as exc:
            if resid <= limit:
                misses.append(f"{where}: rejected ({exc})")
            elif abs(reported_residual(exc) - resid) > 1e-3 * resid:  # printed to four digits
                misses.append(f"{where}: reported {exc}")
            continue
        if resid > limit:
            misses.append(f"{where}: accepted")
            continue
        b = ideal._range
        miss = np.linalg.norm(b @ b.conj().T - range_projector(p))
        if not miss <= 1e-12:
            misses.append(f"{where}: range moved {miss:.2e}")
    assert misses == []


@pytest.mark.parametrize("f", FACTORS, ids=["half", "twice"])
@pytest.mark.parametrize("m", SIZES)
def test_classical_parrott_decides_as_the_matrix_rule(m, f):
    zero = np.zeros((m, m))
    misses = []
    for seed in range(DRAWS):
        p = near_projector(m, seed, f)
        resid, limit = matrix_rule(p)
        for which, args in (("first", (p, np.eye(m))), ("second", (np.eye(m), p))):
            where = f"m {m} seed {seed} {which} projector, residual/limit {resid / limit:.3f}"
            try:
                classical_parrott(*args, zero, zero)
            except ValueError as exc:
                if resid <= limit or not str(exc).startswith(f"{which} projector is not an orthogonal projector"):
                    misses.append(f"{where}: rejected ({exc})")
                continue
            if resid > limit:
                misses.append(f"{where}: accepted")
    assert misses == []


@pytest.mark.parametrize(
    "c, reported", [(3.0, "6.000e+00"), (1e150, "inf"), (1e160, "inf"), (1e200, "inf")],
    ids=["3", "1e150", "1e160", "1e200"],
)
def test_non_projector_reports_its_residual_at_every_scale(c, reported):
    # ||w (w - 1)|| is inf once its square overflows (c from about 1e77), and w (w - 1) itself overflows
    # from about 1.3e154 (numpy warns there); a P^2 - P product would form inf - inf, nan, from 1e160 on
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="projector") as caught:
        LeftIdeal(np.diag([c, 0.0]))
    assert str(caught.value) == f"not an orthogonal projector (idempotency residual {reported})"
