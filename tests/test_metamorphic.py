"""Metamorphic relations: a transformed instance whose effect on the result is known.

* The corner swap.  Exchanging the two corners of a Parrott instance (domains,
  values, weights and declared bounds) turns T1, T2 into T2, T1, so a
  completion X of the instance gives the completion X* of the swapped one.
  The stacked pair and its pairing block [[0, U1* W2], [U2* W1, 0]] are
  symmetric under the swap, so the relation holds to rounding, and an
  instance whose pairing fails is rejected in both orientations.
* The strong Parrott adjoint.  X S1 = S2 and T2 X = T1 say X* T2* = T1* and
  S1* X* = S2*, so (s1, s2, t1, t2) -> (t2*, t1*, s2*, s1*) is again an
  instance, and X* solves it.  The construction reduces the same two pairs
  in swapped roles, so it returns X* to rounding; a draw that raises is
  listed with its exception.
* Ambient unitary covariance.  A unitary change of coordinates U of each
  ambient space carries every datum and every answer along: kvn's
  D -> UD, G -> UG gives A_N -> U A_N U*; sa-ext's A -> UAU*, D -> UD,
  V -> UV gives s -> U s U* for both endpoints and keeps alpha; Parrott's
  corners, with U1 on H1 and U2 on H2 (weights conjugated, D1 -> U1 D1,
  V1 -> U2 V1, D2 -> U2 D2, V2 -> U1 V2), and strong Parrott's S1 -> U1 S1,
  S2 -> U2 S2, T1 -> T1 U1*, T2 -> T2 U2* give X -> U2 X U1*; and P, Gamma
  and F conjugated by U give g -> U g U* for both extensions and keep alpha.
  Rounding moves the answers, so each is compared within a fixed relative
  Frobenius bound, about 35 times the worst move seen on these draws.
* The domain basis change.  Every answer is a function of the prescribed
  map on the domain's span, not of the basis that spans it, so an
  invertible R on the coefficient side keeps it: kvn's D -> DR, V -> VR
  keeps A_N; sa-ext's keeps both endpoints and alpha; Parrott's
  D1 -> D1 R1, V1 -> V1 R1, D2 -> D2 R2, V2 -> V2 R2 and strong Parrott's
  S1 -> S1 R, S2 -> S2 R, T1 -> R' T1, T2 -> R' T2 keep X.  R is drawn with
  cond(R) in {1, 1e2, 1e4}; the rounding of DR grows with cond(R), so the
  relative bound is max(1e-12, 1e-13 cond(R)), at least five times the
  worst move seen on these draws (sa-ext's, 1.8e-10 at cond(R) 1e4).

Each check compares two library runs with numpy alone, on seeded planted
instances with dimensions drawn from 1 to 16.
"""

import numpy as np
import pytest

from opext.errors import IncompatibleInstance, OpExtError
from opext.func_ext import LeftIdeal, PartialFunctional, extend_functional
from opext.kvn import PartialPositiveOperator, kvn_extend
from opext.oracle import MAX_DIM, Rng, random_instance_with_witness, random_unitary
from opext.parrott import ParrottInstance, StrongParrottInstance, parrott_complete, strong_parrott
from opext.sa_ext import SymmetricPartialOperator, extend_symmetric

COUNT = 200
SIDES = (("domain1", "domain2"), ("values1", "values2"), ("weight1", "weight2"), ("alpha1", "alpha2"), ("n1", "n2"))
KEYS = ("domain1", "values1", "domain2", "values2", "weight1", "weight2", "alpha1", "alpha2")


def planted_parrott(seed):
    dims = tuple(int(n) for n in np.random.default_rng([seed, 181]).integers(1, MAX_DIM + 1, size=2))
    return dims, random_instance_with_witness("parrott", dims, Rng(seed))[0]


def swapped(fields):
    out = dict(fields)
    for one, two in SIDES:
        out[one], out[two] = fields[two], fields[one]
    return out


def complete(fields):
    return parrott_complete(ParrottInstance(*(fields[key] for key in KEYS))).a


def test_swapped_corners_complete_to_the_adjoint():
    misses = []
    for seed in range(COUNT):
        dims, fields = planted_parrott(seed)
        x, y = complete(fields), complete(swapped(fields))
        miss = np.linalg.norm(y - x.conj().T)
        if not miss <= 1e-12 * np.linalg.norm(x):
            misses.append(f"seed {seed} dims {dims}: relative miss {miss / np.linalg.norm(x):.2e}")
    assert misses == []


def test_incompatible_instance_is_rejected_in_both_orientations():
    accepted = []
    for seed in range(COUNT):
        dims, fields = planted_parrott(seed)
        # A1 E A2 D2 lies in ran A1 and vanishes where A2 D2 does, so T2 keeps a finite bound and the pairing decides
        e = np.random.default_rng([seed, 182]).standard_normal((fields["n1"], fields["n2"]))
        shift = fields["weight1"] @ e @ fields["weight2"] @ fields["domain2"]
        values2 = fields["values2"]
        broken = {**fields, "values2": values2 + 1e-3 * np.linalg.norm(values2) * shift / np.linalg.norm(shift)}
        for name, instance in (("as drawn", broken), ("swapped", swapped(broken))):
            try:
                complete(instance)
            except IncompatibleInstance:
                continue
            accepted.append(f"seed {seed} dims {dims} {name}")
    assert accepted == []


def planted_strong_parrott(seed):
    dims = tuple(int(n) for n in np.random.default_rng([seed, 183]).integers(1, MAX_DIM + 1, size=4))
    return dims, random_instance_with_witness("strong_parrott", dims, Rng(seed))[0]


def test_adjoint_instance_completes_to_the_adjoint():
    misses = []
    for seed in range(COUNT):
        dims, f = planted_strong_parrott(seed)
        try:
            x = strong_parrott(StrongParrottInstance(f["s1"], f["s2"], f["t1"], f["t2"])).a
            y = strong_parrott(StrongParrottInstance(*(f[key].conj().T for key in ("t2", "t1", "s2", "s1")))).a
        except (OpExtError, ValueError) as exc:  # the library's typed failures, listed with their draw
            misses.append(f"seed {seed} dims {dims}: {type(exc).__name__}: {exc}")
            continue
        miss = np.linalg.norm(y - x.conj().T)
        if not miss <= 1e-12 * np.linalg.norm(x):
            misses.append(f"seed {seed} dims {dims}: relative miss {miss / np.linalg.norm(x):.2e}")
    assert misses == []


COVARIANCE_BOUND = 1e-11


def unitaries(seed, *sizes):
    gen = np.random.default_rng([seed, 185])
    return [random_unitary(gen, n) for n in sizes]


def conj(u, a):
    return u @ a @ u.conj().T


def kvn_covariance(f, seed):
    (u,) = unitaries(seed, f["n"])
    a = kvn_extend(PartialPositiveOperator(f["domain_basis"], f["values"])).a
    b = kvn_extend(PartialPositiveOperator(u @ f["domain_basis"], u @ f["values"])).a
    return [("A_N", conj(u, a), b)]


def sa_ext_covariance(f, seed):
    (u,) = unitaries(seed, f["n"])
    a = extend_symmetric(SymmetricPartialOperator(f["domain_basis"], f["values"]), f["weight"])
    b = extend_symmetric(SymmetricPartialOperator(u @ f["domain_basis"], u @ f["values"]), conj(u, f["weight"]))
    return [("s_min", conj(u, a.s_min.a), b.s_min.a), ("s_max", conj(u, a.s_max.a), b.s_max.a),
            ("alpha", a.alpha, b.alpha)]


def parrott_covariance(f, seed):
    u1, u2 = unitaries(seed, f["n1"], f["n2"])
    moved = {"domain1": u1 @ f["domain1"], "values1": u2 @ f["values1"], "domain2": u2 @ f["domain2"],
             "values2": u1 @ f["values2"], "weight1": conj(u1, f["weight1"]), "weight2": conj(u2, f["weight2"])}
    return [("X", u2 @ complete(f) @ u1.conj().T, complete({**f, **moved}))]


def strong_parrott_covariance(f, seed):
    u1, u2 = unitaries(seed, f["s1"].shape[0], f["s2"].shape[0])
    x = strong_parrott(StrongParrottInstance(f["s1"], f["s2"], f["t1"], f["t2"])).a
    moved = StrongParrottInstance(u1 @ f["s1"], u2 @ f["s2"], f["t1"] @ u1.conj().T, f["t2"] @ u2.conj().T)
    y = strong_parrott(moved).a
    return [("X", u2 @ x @ u1.conj().T, y)]


def functional_covariance(f, seed):
    (u,) = unitaries(seed, f["m"])
    g_min, g_max, alpha = extend_functional(PartialFunctional(LeftIdeal(f["projection"]), f["gamma"]), f["density"])
    moved = extend_functional(
        PartialFunctional(LeftIdeal(conj(u, f["projection"])), conj(u, f["gamma"])), conj(u, f["density"])
    )
    return [("g_min", conj(u, g_min.density.a), moved[0].density.a),
            ("g_max", conj(u, g_max.density.a), moved[1].density.a), ("alpha", alpha, moved[2])]


# kind -> (oracle kind, how many dims to draw, the relation on one planted instance)
COVARIANT = {
    "kvn": ("kvn", 1, kvn_covariance),
    "sa-ext": ("sa_ext", 1, sa_ext_covariance),
    "parrott": ("parrott", 2, parrott_covariance),
    "strong-parrott": ("strong_parrott", 4, strong_parrott_covariance),
    "functional-ext": ("functional", 1, functional_covariance),
}


@pytest.mark.parametrize("kind", COVARIANT)
def test_a_unitary_change_of_coordinates_carries_the_answer_along(kind):
    planted_kind, count, relation = COVARIANT[kind]
    misses = []
    for seed in range(COUNT):
        dims = tuple(int(n) for n in np.random.default_rng([seed, 184]).integers(1, MAX_DIM + 1, size=count))
        where = f"ambient unitary covariance, {kind} seed {seed} dims {dims}"
        try:
            pairs = relation(random_instance_with_witness(planted_kind, dims, Rng(seed))[0], seed)
        except (OpExtError, ValueError) as exc:  # the library's typed failures, listed with their draw
            misses.append(f"{where}: {type(exc).__name__}: {exc}")
            continue
        for name, expected, got in pairs:
            miss, size = np.linalg.norm(got - expected), np.linalg.norm(expected)
            if not miss <= COVARIANCE_BOUND * size:
                misses.append(f"{where}: {name} moved {miss:.2e}, relative {miss / size if size else np.inf:.2e}")
    assert misses == []


DOMAIN_CONDS = (1.0, 1e2, 1e4)


def change_of_basis(seed, cond, k, which=0):
    """R = U diag(s) W* for Haar U, W and s geometric from 1 to 1/cond: cond(R) = cond (1 when k = 1)."""
    gen = np.random.default_rng([seed, k, which, 187])
    u, w = random_unitary(gen, k), random_unitary(gen, k)
    return (u * np.geomspace(1.0, 1.0 / cond, k)) @ w.conj().T


def kvn_basis_change(f, seed, cond):
    r = change_of_basis(seed, cond, f["domain_basis"].shape[1])
    a = kvn_extend(PartialPositiveOperator(f["domain_basis"], f["values"])).a
    b = kvn_extend(PartialPositiveOperator(f["domain_basis"] @ r, f["values"] @ r)).a
    return [("A_N", a, b)]


def sa_ext_basis_change(f, seed, cond):
    r = change_of_basis(seed, cond, f["domain_basis"].shape[1])
    a = extend_symmetric(SymmetricPartialOperator(f["domain_basis"], f["values"]), f["weight"])
    b = extend_symmetric(SymmetricPartialOperator(f["domain_basis"] @ r, f["values"] @ r), f["weight"])
    return [("s_min", a.s_min.a, b.s_min.a), ("s_max", a.s_max.a, b.s_max.a), ("alpha", a.alpha, b.alpha)]


def parrott_basis_change(f, seed, cond):
    r1 = change_of_basis(seed, cond, f["domain1"].shape[1], 1)
    r2 = change_of_basis(seed, cond, f["domain2"].shape[1], 2)
    moved = {"domain1": f["domain1"] @ r1, "values1": f["values1"] @ r1,
             "domain2": f["domain2"] @ r2, "values2": f["values2"] @ r2}
    return [("X", complete(f), complete({**f, **moved}))]


def strong_parrott_basis_change(f, seed, cond):
    r = change_of_basis(seed, cond, f["s1"].shape[1], 1)
    r_prime = change_of_basis(seed, cond, f["t2"].shape[0], 2)
    x = strong_parrott(StrongParrottInstance(f["s1"], f["s2"], f["t1"], f["t2"])).a
    y = strong_parrott(StrongParrottInstance(f["s1"] @ r, f["s2"] @ r, r_prime @ f["t1"], r_prime @ f["t2"])).a
    return [("X", x, y)]


# kind -> (oracle kind, how many dims to draw, the relation on one planted instance)
BASIS_INVARIANT = {
    "kvn": ("kvn", 1, kvn_basis_change),
    "sa-ext": ("sa_ext", 1, sa_ext_basis_change),
    "parrott": ("parrott", 2, parrott_basis_change),
    "strong-parrott": ("strong_parrott", 4, strong_parrott_basis_change),
}


@pytest.mark.parametrize("cond", DOMAIN_CONDS, ids=["cond1", "cond1e2", "cond1e4"])
@pytest.mark.parametrize("kind", BASIS_INVARIANT)
def test_a_change_of_domain_basis_keeps_the_answer(kind, cond):
    planted_kind, count, relation = BASIS_INVARIANT[kind]
    bound = max(1e-12, 1e-13 * cond)
    misses = []
    for seed in range(COUNT // 2):
        dims = tuple(int(n) for n in np.random.default_rng([seed, 186]).integers(1, MAX_DIM + 1, size=count))
        where = f"domain basis change, {kind} seed {seed} cond(R) {cond:.0e} dims {dims}"
        try:
            pairs = relation(random_instance_with_witness(planted_kind, dims, Rng(seed))[0], seed, cond)
        except (OpExtError, ValueError) as exc:  # the library's typed failures, listed with their draw
            misses.append(f"{where}: {type(exc).__name__}: {exc}")
            continue
        for name, expected, got in pairs:
            miss, size = np.linalg.norm(got - expected), np.linalg.norm(expected)
            if not miss <= bound * size:
                misses.append(f"{where}: {name} moved {miss:.2e}, relative {miss / size if size else np.inf:.2e}")
    assert misses == []
