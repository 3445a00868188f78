"""Shared fixtures."""

import numpy as np
import pytest


class DecompositionLog(list):
    """``(name, input array)`` of each ``np.linalg`` eigh / eigvalsh / svd / cholesky call made inside ``with log:``."""

    recording = False

    def __enter__(self):
        self.recording = True
        return self

    def __exit__(self, *exc):
        self.recording = False

    def shapes(self, *names):
        """Input shapes of the recorded calls to ``names`` (all four when empty)."""
        return [m.shape for name, m in self if not names or name in names]


@pytest.fixture
def decompositions(monkeypatch):
    log = DecompositionLog()
    for name in ("eigh", "eigvalsh", "svd", "cholesky"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            if log.recording:
                log.append((_name, np.array(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return log


@pytest.fixture
def conditioned_strong_parrott():
    """Factory of strong-Parrott data solved by a planted X0 (12 x 10, ||X0|| = 0.8).

    ``build(seed, cond, delta=0.0)``: S1 (10 x 6) and T2 (5 x 12) have
    singular values geomspace(1, 1/cond), S2 = X0 S1 and T1 = T2 X0; a
    nonzero ``delta`` moves T1 by that fraction of its Frobenius norm.
    """
    from opext.parrott import StrongParrottInstance

    def cgauss(gen, rows, cols):
        return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2)

    def conditioned(gen, rows, cols, cond):
        r = min(rows, cols)
        u, v = np.linalg.qr(cgauss(gen, rows, r))[0], np.linalg.qr(cgauss(gen, cols, r))[0]
        return (u * np.geomspace(1.0, 1.0 / cond, r)) @ v.conj().T

    def build(seed, cond, delta=0.0):
        gen = np.random.default_rng([seed, 37])
        x0 = cgauss(gen, 12, 10)
        x0 *= 0.8 / np.linalg.norm(x0, 2)
        s1, t2 = conditioned(gen, 10, 6, cond), conditioned(gen, 5, 12, cond)
        t1 = t2 @ x0
        e = cgauss(gen, 5, 10)
        t1 = t1 + delta * np.linalg.norm(t1) * e / np.linalg.norm(e)
        return StrongParrottInstance(s1, x0 @ s1, t1, t2)

    return build


class CornerLog(list):
    """``(coupling block B, decompositions made inside the call)`` of each ``parrott._corner`` call."""

    def assert_one_coupling_svd(self):
        """One corner was taken, and its only decomposition is one svd of its k2 x k1 coupling block."""
        assert len(self) == 1
        b, inner = self[0]
        assert [name for name, _ in inner] == ["svd"]
        assert inner[0][1].shape == b.shape and np.allclose(inner[0][1], b)


@pytest.fixture
def corners(monkeypatch, decompositions):
    """CornerLog of the corners taken inside ``with decompositions:``; B = (P2* Y1 + (P1* Y2)*) / 2."""
    from opext import parrott

    log = CornerLog()
    original = parrott._corner

    def spied(p1, y1, p2, y2, *args):
        start = len(decompositions)
        x = original(p1, y1, p2, y2, *args)
        if decompositions.recording:
            log.append(((p2.conj().T @ y1 + y2.conj().T @ p1) / 2, decompositions[start:]))
        return x

    monkeypatch.setattr(parrott, "_corner", spied)
    return log
