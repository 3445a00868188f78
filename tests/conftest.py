"""Shared fixtures."""

import numpy as np
import pytest


class DecompositionLog(list):
    """``(name, input array)`` of each ``np.linalg`` eigh / eigvalsh / svd call made inside ``with log:``."""

    recording = False

    def __enter__(self):
        self.recording = True
        return self

    def __exit__(self, *exc):
        self.recording = False

    def shapes(self, *names):
        """Input shapes of the recorded calls to ``names`` (all three when empty)."""
        return [m.shape for name, m in self if not names or name in names]


@pytest.fixture
def decompositions(monkeypatch):
    log = DecompositionLog()
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            if log.recording:
                log.append((_name, np.array(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return log
