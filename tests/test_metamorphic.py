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

Each check compares two library runs with numpy alone, on seeded planted
instances with dimensions drawn from 1 to 16.
"""

import numpy as np

from opext.errors import IncompatibleInstance, OpExtError
from opext.oracle import MAX_DIM, Rng, random_instance_with_witness
from opext.parrott import ParrottInstance, StrongParrottInstance, parrott_complete, strong_parrott

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
