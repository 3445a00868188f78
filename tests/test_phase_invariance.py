"""Eigenvector phases carry no information the library reads.

Extensions, completions and GNS data depend on a weight only through
A = J J*, and a change of range coordinates J -> J U by a unitary U leaves
them unchanged.  So ``numkit.eigh_desc`` imposes no phase convention.  The
tests below check that premise: each pipeline runs once as it is, and once
with every ``eigh_desc`` eigenvector multiplied by a seeded random unit
phase, on the oracle's planted instances.  The two runs must agree within
1e-12 relative to the size of each result.
"""

import numpy as np
import pytest

from opext import func_ext, kvn, numkit, sa_ext
from opext.func_ext import cstar_extendibility, extend_functional
from opext.kvn import kvn_extend
from opext.oracle import Rng
from opext.parrott import parrott_complete
from opext.sa_ext import extend_symmetric
from planted import planted

# every module that calls eigh_desc through its own global name
CALLERS = (numkit, kvn, sa_ext, func_ext)


def rotated(seed):
    """``eigh_desc`` with each eigenvector column times a unit phase drawn from ``seed``."""
    original = numkit.eigh_desc
    gen = np.random.default_rng(seed)

    def eigh_desc(a):
        w, v = original(a)
        return w, v * np.exp(2j * np.pi * gen.random(v.shape[1]))

    return eigh_desc


def outputs(kind, dims, rng):
    """The arrays and scalars one pipeline returns on the planted instance of ``kind``."""
    objects, _ = planted(kind, dims, rng)
    if kind == "kvn":
        return [kvn_extend(objects).a]
    if kind == "sa_ext":
        interval = extend_symmetric(*objects)
        return [interval.alpha, interval.s_min.a, interval.s_max.a]
    if kind == "parrott":
        return [parrott_complete(objects).a]
    partial, density, source = objects
    g_min, g_max, alpha = extend_functional(partial, density)
    decision = cstar_extendibility(partial, extension=source)
    return [g_min.density.a, g_max.density.a, alpha, decision.alpha, decision.g_min.density.a,
            decision.g_max.density.a, decision.exact_bound, decision.measured_bound]


DIMS = {
    "kvn": [(1,), (4,), (8, 3), (12,)],
    "sa_ext": [(1,), (4,), (8, 3), (12,)],
    "parrott": [(2, 3), (4, 4), (6, 5, 2, 3)],
    "functional": [(1,), (3,), (5,)],
}


@pytest.mark.parametrize("kind", DIMS)
def test_results_ignore_eigenvector_phases(kind, monkeypatch):
    cases = [(dims, 10 * i + j) for i, dims in enumerate(DIMS[kind]) for j in range(5)]
    plain = [outputs(kind, dims, Rng(seed)) for dims, seed in cases]
    for caller in CALLERS:
        monkeypatch.setattr(caller, "eigh_desc", rotated([len(kind), 71]))
    for (dims, seed), ref in zip(cases, plain):
        got = outputs(kind, dims, Rng(seed))
        for x, y in zip(ref, got):
            x, y = np.asarray(x), np.asarray(y)
            assert np.abs(x - y).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(x).max(initial=0.0)), (dims, seed)


def test_rotation_reaches_every_caller(monkeypatch):
    # every pipeline above calls the wrapper, so the comparison is not vacuous
    seen = []
    wrapped = rotated(72)

    def spy(a):
        seen.append(a)
        return wrapped(a)

    for caller in CALLERS:
        monkeypatch.setattr(caller, "eigh_desc", spy)
    for kind, dims in (("kvn", (4,)), ("sa_ext", (4,)), ("parrott", (3, 3)), ("functional", (3,))):
        del seen[:]
        outputs(kind, dims, Rng(0))
        assert seen, kind
