"""One Parrott completion, domains decided on their own side, and a corner
whose one decomposition is the thin SVD of its coupling block.

* The sign similarity diag(I, -I) carries the minimal shifted extension of
  the stacked pair to the maximal one, so both have the completion as
  their corner: ``parrott_complete`` matches the n2 x n1 corner of each
  extremal extension of the stacked operator, computed on the sa-ext path.
* A domain D_i is independent when its range coordinates U_i = J_i* D_i
  are; only a collapsed U_i has D_i's own rank decided, on D_i's own scale,
  so two domains at very different scales complete.
* No decomposition on the Parrott paths sees a stacked (k1' + k2')- or
  (r1 + r2)-row matrix, and none but the weights' lifts is an eigh; the
  corner's one decomposition is the svd of the k2' x k1' coupling block.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from opext import cli
from opext.errors import IncompatibleInstance
from opext.oracle import random_contraction, random_projection
from opext.parrott import (
    ParrottInstance,
    StrongParrottInstance,
    assemble_symmetric,
    classical_parrott,
    parrott_complete,
    strong_parrott,
)
from opext.sa_ext import extend_symmetric

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
DEPENDENT = "domain basis columns are dependent; supply an independent set"


def cgauss(gen, rows, cols):
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2)


def weight(gen, n, r):
    """Weight of rank exactly r and its square root, from explicit eigenpairs."""
    q = np.linalg.qr(cgauss(gen, n, r))[0]
    w = gen.uniform(0.5, 2.0, r)
    return (q * w) @ q.conj().T, (q * np.sqrt(w)) @ q.conj().T


def planted(seed, n1, n2, r1, r2, k1, k2, norm=0.8, alphas=(1.0, 1.0)):
    """Corners of a hidden weighted contraction A2^{1/2} K A1^{1/2}, ||K|| = norm, as a ParrottInstance."""
    gen = np.random.default_rng([seed, 101])
    a1, root1 = weight(gen, n1, r1)
    a2, root2 = weight(gen, n2, r2)
    core = cgauss(gen, n2, n1)
    hidden = root2 @ (norm * core / np.linalg.norm(core, 2)) @ root1
    d1, d2 = cgauss(gen, n1, k1), cgauss(gen, n2, k2)
    return ParrottInstance(d1, hidden @ d1, d2, hidden.conj().T @ d2, a1, a2, *alphas)


def instance_from(payload):
    data = cli._PARSERS["parrott"](payload)
    keys = ("domain1", "values1", "domain2", "values2", "weight1", "weight2", "alpha1", "alpha2")
    return ParrottInstance(*(data[key] for key in keys))


def generated(tmp_path, seed):
    out = tmp_path / f"parrott-{seed}.json"
    assert cli.main(["gen", "--kind", "parrott", "--seed", str(seed), "--out", str(out)]) == 0
    return instance_from(json.loads(out.read_text())["payload"])


def assert_one_completion(inst):
    """The completion is the n2 x n1 corner of both extremal extensions of the stacked operator."""
    x = parrott_complete(inst).a
    interval = extend_symmetric(*assemble_symmetric(inst))
    for s in (interval.s_min, interval.s_max):
        corner = s.a[inst.dim1:, :inst.dim1]
        assert np.linalg.norm(x - corner) <= 1e-12 * (1 + np.linalg.norm(corner))


class TestTheCompletionIsBothStackedCorners:
    def test_committed_instance(self):
        assert_one_completion(instance_from(json.loads((INSTANCES / "parrott.json").read_text())["payload"]))

    @pytest.mark.parametrize("seed", range(12))
    def test_generated(self, tmp_path, seed):
        assert_one_completion(generated(tmp_path, seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_unequal_bound_constants(self, seed):
        # k1 > k2 and k1 < k2, each corner under its own declared constant
        assert_one_completion(planted(seed, 9, 7, 9, 7, 4, 2, alphas=(0.7, 0.9)))
        assert_one_completion(planted(seed, 9, 7, 9, 7, 2, 5, alphas=(0.9, 0.7)))

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_deficient_weights(self, seed):
        assert_one_completion(planted(seed, 10, 8, 6, 5, 4, 3))


def identity_instance(c):
    """D1 = I[:, :2] on C^4 and D2 = c I[:, :2] on C^3, identity weights, values of a contraction."""
    gen = np.random.default_rng(103)
    hidden = cgauss(gen, 3, 4)
    hidden *= 0.8 / np.linalg.norm(hidden, 2)
    d1, d2 = np.eye(4)[:, :2], c * np.eye(3)[:, :2]
    return ParrottInstance(d1, hidden @ d1, d2, hidden.conj().T @ d2, np.eye(4), np.eye(3), 1.0, 1.0), hidden


class TestDomainsAreDecidedOnTheirOwnSide:
    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e6, 1e12])
    def test_independent_domains_at_any_relative_scale(self, c):
        inst, _ = identity_instance(c)
        x = parrott_complete(inst).a
        for d, v, m in ((inst.domain1.a, inst.values1.a, x), (inst.domain2.a, inst.values2.a, x.conj().T)):
            assert np.linalg.norm(m @ d - v) <= 1e-12 * np.linalg.norm(v)
        assert np.linalg.norm(x, 2) <= 1.0 + 1e-12

    def test_full_rank_lifts_decompose_no_domain(self, decompositions, corners):
        # each side's range coordinates and bound (two svds each), then the corner's 2 x 2 coupling block
        inst, _ = identity_instance(1e12)
        with decompositions:
            parrott_complete(inst)
        assert len(decompositions.shapes("svd")) == 5
        corners.assert_one_coupling_svd()

    def test_duplicated_column_is_dependent(self):
        inst, hidden = identity_instance(1.0)
        d1 = np.eye(4)[:, [0, 0]]
        dup = ParrottInstance(d1, hidden @ d1, inst.domain2, inst.values2, np.eye(4), np.eye(3), 1.0, 1.0)
        with pytest.raises(ValueError, match=DEPENDENT):
            parrott_complete(dup)

    def test_duplicated_column_with_inconsistent_values_is_incompatible_first(self):
        inst, hidden = identity_instance(1.0)
        d1 = np.eye(4)[:, [0, 0]]
        v1 = hidden @ d1
        v1[:, 1] += 0.1
        dup = ParrottInstance(d1, v1, inst.domain2, inst.values2, np.eye(4), np.eye(3), 1.0, 1.0)
        with pytest.raises(IncompatibleInstance):
            parrott_complete(dup)

    def test_independent_domain_collapsing_in_the_kernel_follows_the_collapse_rule(self, decompositions):
        # D1 = [e1, e3] against A1 = diag(1, 1, 0): U1 has rank 1, so D1's own rank (2) is decided;
        # its value on e3 must vanish
        d1 = np.eye(3)[:, [0, 2]]
        d2 = np.eye(2)[:, :1]
        hidden = np.array([[0.5, 0.0, 0.0], [0.0, 0.3, 0.0]])
        weights = (np.diag([1.0, 1.0, 0.0]), np.eye(2))
        inst = ParrottInstance(d1, hidden @ d1, d2, hidden.conj().T @ d2, *weights, 1.0, 1.0)
        with decompositions:
            x = parrott_complete(inst).a
        assert (3, 2) in decompositions.shapes("svd")
        assert np.linalg.norm(x @ d1 - hidden @ d1) <= 1e-12
        v1 = hidden @ d1
        v1[1, 1] = 0.2
        with pytest.raises(IncompatibleInstance):
            parrott_complete(ParrottInstance(d1, v1, d2, hidden.conj().T @ d2, *weights, 1.0, 1.0))


def assert_no_stacked_decomposition(decompositions, corners, stacked_rows, coupling, fixed):
    """No decomposed matrix has ``stacked_rows`` rows, no eigh sees an array other than ``fixed``,
    and the corner's only decomposition is one svd of its ``coupling``-shaped coupling block."""
    assert all(shape[0] not in stacked_rows for shape in decompositions.shapes())
    others = [
        m.shape for name, m in decompositions
        if name == "eigh" and not any(m.shape == f.shape and np.allclose(m, f) for f in fixed)
    ]
    assert others == []
    corners.assert_one_coupling_svd()
    assert corners[0][0].shape == coupling


class TestTheCornerDecomposesOnlyTheCouplingBlock:
    @pytest.mark.parametrize("k1, k2", [(3, 2), (2, 3)])
    def test_parrott_complete(self, decompositions, corners, k1, k2):
        # n1, n2 = 11, 9 and r1, r2 = 8, 6: the stacked k1 + k2 = 5 and r1 + r2 = 14 rows
        inst = planted(0, 11, 9, 8, 6, k1, k2)
        with decompositions:
            parrott_complete(inst)
        assert_no_stacked_decomposition(decompositions, corners, (k1 + k2, 14), (k2, k1), (inst.weight1.a, inst.weight2.a))

    def test_strong_parrott(self, decompositions, corners):
        # dimH, dimK, p, q = 9, 8, 4, 3: the stacked 7 and 17 rows
        gen = np.random.default_rng(105)
        x0 = cgauss(gen, 8, 9)
        x0 *= 0.8 / np.linalg.norm(x0, 2)
        s1, t2 = cgauss(gen, 9, 4), cgauss(gen, 3, 8)
        with decompositions:
            strong_parrott(StrongParrottInstance(s1, x0 @ s1, t2 @ x0, t2))
        assert_no_stacked_decomposition(decompositions, corners, (7, 17), (3, 4), ())

    def test_classical_parrott(self, decompositions, corners):
        # dimH, dimK = 7, 6 with ranks 3 and 2: the stacked 5 and 13 rows
        gen = np.random.default_rng(107)
        hidden = random_contraction(gen, 6, 7)
        p_h1, p_k1 = random_projection(gen, 7, 3), random_projection(gen, 6, 2)
        with decompositions:
            classical_parrott(p_h1, p_k1, hidden @ p_h1, p_k1 @ hidden)
        assert_no_stacked_decomposition(decompositions, corners, (5, 13), (2, 3), (p_h1, p_k1))
        # the projectors' eighs are the only square dimH- or dimK-sized decompositions: the reduction takes the
        # thin svds of the 7 x 3 and 6 x 2 range bases
        square = [name for name, m in decompositions if m.shape in {(7, 7), (6, 6)}]
        assert square == ["eigh", "eigh"]
        assert {(7, 3), (6, 2)} <= set(decompositions.shapes("svd"))
