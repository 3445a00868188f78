"""One Hermitian rule on arrays, applied to caller data only.

* Every site that decides Hermitian-ness raises the error type and message
  of ``hermitize``'s rule, written out inline below, on the matrix it tests:
  at the asymmetry limit, on non-square and non-finite input, and when the
  product of finite data overflows (a NaN asymmetry passes ``>``, so only the
  finiteness half of the rule rejects it).
* At ``herm = 0`` the library accepts its own output: results are Hermitian
  by construction and are not checked for asymmetry again.
* Public calls on typed inputs construct no validating wrapper beyond the
  caller data they validate.
"""

import numpy as np
import pytest

from opext import numkit, parrott, sa_ext
from opext.errors import DimensionMismatch, IncompatibleInstance, NotHermitian
from opext.func_ext import FunctionalMatrix, cstar_extendibility, extend_functional, gns, hahn_jordan
from opext.kvn import hilbert_lift, kvn_extend
from opext.numkit import ComplexMatrix, HermitianMatrix, PsdMatrix, Tolerances, hermitize, pinv
from opext.oracle import Rng, complex_gaussian, random_instance
from opext.parrott import ParrottInstance, parrott_complete, strong_parrott
from opext.sa_ext import SymmetricPartialOperator, extend_symmetric, lift_symmetric

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow ladder overflows on purpose

FINITE = "matrix entries must be finite"


def hermitian_rule(m, tol):
    """``(error type, message)`` of the Hermitian rule on m, or None when it accepts: square, asymmetry, finiteness."""
    if m.shape[0] != m.shape[1]:
        return DimensionMismatch, f"Hermitian matrix must be square, got {m.shape}"
    asym = np.linalg.norm(m - m.conj().T)
    if asym > tol.herm * (1.0 + np.linalg.norm(m)):
        return NotHermitian, f"asymmetry {asym:.3e} exceeds tolerance"
    if not np.isfinite((m + m.conj().T) / 2.0).all():
        return ValueError, FINITE
    return None


def outcome(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the table compares whatever is raised
        return type(exc), str(exc)
    return None


@pytest.fixture
def rule_inputs(monkeypatch):
    """Copies of the arrays the Hermitian rule is applied to, in call order, from every module that calls it."""
    seen = []
    original = numkit._checked_hermitian

    def recorded(a, tol):
        seen.append(np.array(a))
        return original(a, tol)

    for module in (numkit, sa_ext, parrott):
        monkeypatch.setattr(module, "_checked_hermitian", recorded)
    return seen


def near_hermitian():
    gen = np.random.default_rng(161)
    x = complex_gaussian(gen, 3, 3)
    return x + x.conj().T + 1e-10 * complex_gaussian(gen, 3, 3)  # small enough for parrott to complete it


def at_limit(m, f):
    """Tolerances whose asymmetry limit on m is its asymmetry divided by f."""
    asym, scale = np.linalg.norm(m - m.conj().T), 1.0 + np.linalg.norm(m)
    return Tolerances(herm=asym / scale / f)


SIDES = [pytest.param(1.0 - 1e-9, id="below"), pytest.param(1.0 + 1e-9, id="above")]
LADDER = [1e150, 1e160, 1e200]


def nan_at(i, j, value):
    a = np.eye(3, dtype=np.complex128)
    a[i, j] = value
    return a


DIRECT_SITES = {
    "HermitianMatrix": lambda a, tol: HermitianMatrix(a, tol),
    "hermitize": lambda a, tol: hermitize(a, tol),
    "PsdMatrix": lambda a, tol: PsdMatrix(a, tol),
    "_checked_hermitian": lambda a, tol: numkit._checked_hermitian(numkit._as_array(a), tol),
}

with np.errstate(over="ignore", invalid="ignore"):
    DIRECT_INPUTS = {
        "non-square": complex_gaussian(np.random.default_rng(162), 3, 2),
        "nan": nan_at(1, 1, np.nan),
        "inf-diagonal": nan_at(1, 1, np.inf),
        "inf-off-diagonal": nan_at(0, 2, complex(0.0, np.inf)),
        # the products c^2 and c^2 - c^2 of the overflow ladder, formed in numpy
        **{f"c={c:.0e}": np.full((2, 2), c) * c for c in LADDER},
        **{f"c={c:.0e}-opposite": np.array([[c * c + c * -c]], dtype=np.complex128) for c in LADDER},
    }


@pytest.mark.parametrize("site", DIRECT_SITES)
@pytest.mark.parametrize("name", DIRECT_INPUTS)
def test_direct_sites_follow_the_rule(site, name):
    a, tol = DIRECT_INPUTS[name], Tolerances()
    got = outcome(lambda: DIRECT_SITES[site](a, tol))
    assert got == hermitian_rule(a, tol)
    assert (got is None) == name.startswith("c=1e+150")


@pytest.mark.parametrize("site", DIRECT_SITES)
@pytest.mark.parametrize("f", SIDES)
def test_direct_sites_at_the_asymmetry_limit(site, f):
    a = near_hermitian()
    tol = at_limit(a, f)
    expected = hermitian_rule(a, tol)
    assert (expected is None) == (f < 1.0)
    if site == "PsdMatrix" and expected is None:
        return  # an indefinite matrix that passes the rule is then rejected as not positive
    assert outcome(lambda: DIRECT_SITES[site](a, tol)) == expected


def symmetric_operator_site(x, y, tol):
    return lambda: SymmetricPartialOperator(x, y, tol)


def symmetric_lift_site(x, y, tol):
    lift = hilbert_lift(PsdMatrix(np.eye(3)))
    return lambda: sa_ext._symmetric_lift(x, y, lift, tol)


def parrott_site(x, y, tol):
    inst = ParrottInstance(x, y, x, y, np.eye(3), np.eye(3), 1e6, 1e6)
    return lambda: parrott_complete(inst, tol)


# each builds its inputs (lifts, instances) and returns the call whose one rule application is recorded
PRODUCT_SITES = {
    "SymmetricPartialOperator D*V": symmetric_operator_site,
    "_symmetric_lift U*W": symmetric_lift_site,
    "parrott_complete pairing": parrott_site,
}

# parrott_complete reports a rejected pairing as an incompatible instance
REPORTED = {
    "parrott_complete pairing": {
        NotHermitian: (IncompatibleInstance, "instance fails compatibility or exceeds its declared bound constants"),
    },
}


def expected_at(site, m, tol):
    rule = hermitian_rule(m, tol)
    if rule is None:
        return None
    return REPORTED.get(site, {}).get(rule[0], rule)


def run_product_site(site, x, y, tol, rule_inputs):
    call = PRODUCT_SITES[site](x, y, tol)
    rule_inputs.clear()
    got = outcome(call)
    assert len(rule_inputs) == 1  # the site applied the rule once
    return got, rule_inputs[0]


@pytest.mark.parametrize("site", PRODUCT_SITES)
@pytest.mark.parametrize("f", SIDES)
def test_product_sites_at_the_asymmetry_limit(rule_inputs, site, f):
    x, y = np.eye(3, dtype=np.complex128), near_hermitian()
    _, m = run_product_site(site, x, y, Tolerances(herm=1.0), rule_inputs)
    tol = at_limit(m, f)
    got, m_again = run_product_site(site, x, y, tol, rule_inputs)
    assert np.array_equal(m, m_again)
    expected = expected_at(site, m, tol)
    assert (expected is None) == (f < 1.0)
    assert got == expected


@pytest.mark.parametrize("site", PRODUCT_SITES)
@pytest.mark.parametrize("c", LADDER)
@pytest.mark.parametrize("opposite", [False, True], ids=["same-sign", "opposite-sign"])
def test_product_sites_on_the_overflow_ladder(rule_inputs, site, c, opposite):
    """D = c x, V = c y with x*y = 1 (or 1 - 1): the product overflows to inf (or inf - inf = NaN) from c = 1e160."""
    e = np.eye(3, dtype=np.complex128)
    x, y = (c * (e[:, :1] + e[:, 1:2]), c * (e[:, :1] - e[:, 1:2])) if opposite else (c * e[:, :1], c * e[:, :1])
    got, m = run_product_site(site, x, y, Tolerances(), rule_inputs)
    assert got == expected_at(site, m, Tolerances())
    assert (got == (ValueError, FINITE)) == (c > 1e150)


def symmetric_data(n, seed):
    a = complex_gaussian(np.random.default_rng([seed, 163]), n, n)
    return a + a.conj().T  # exactly Hermitian


@pytest.mark.parametrize("n", [3, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extend_symmetric_at_zero_herm_accepts_its_own_endpoints(n, seed):
    s, tol = symmetric_data(n, seed), Tolerances(herm=0.0)
    d = np.eye(n)[:, :2]
    op = SymmetricPartialOperator(d, s[:, :2], tol)
    interval = extend_symmetric(op, PsdMatrix(np.eye(n)), tol)
    for end in (interval.s_min.a, interval.s_max.a):
        assert np.array_equal(end, end.conj().T)
        assert np.linalg.norm(end @ d - s[:, :2]) <= 1e-12 * np.linalg.norm(s)


@pytest.mark.parametrize("n", [3, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hahn_jordan_at_zero_herm_accepts_its_own_parts(n, seed):
    s = symmetric_data(n, seed)
    plus, minus = hahn_jordan(FunctionalMatrix(s), Tolerances(herm=0.0))
    for part in (plus.density.a, minus.density.a):
        assert np.array_equal(part, part.conj().T)
    assert np.linalg.norm(plus.density.a - minus.density.a - s) <= 1e-12 * np.linalg.norm(s)


def functional():
    return random_instance("functional", (4,), Rng(5))


def sa_problem():
    return random_instance("sa_ext", (6, 3), Rng(2))


# call -> (build its typed inputs or oracle instance, the call on them, validating wrappers the call constructs)
PINS = {
    "kvn_extend": (lambda: random_instance("kvn", (6, 3), Rng(1)), kvn_extend, 0),
    "extend_symmetric": (sa_problem, lambda p: extend_symmetric(p.operator, p.weight), 0),
    "lift_symmetric": (sa_problem, lambda p: lift_symmetric(p.operator, p.weight), 0),
    "parrott_complete": (lambda: random_instance("parrott", (4, 3), Rng(3)), parrott_complete, 0),
    "strong_parrott": (lambda: random_instance("strong_parrott", (5, 4, 2), Rng(4)), strong_parrott, 0),
    "pinv": (lambda: complex_gaussian(np.random.default_rng(164), 5, 3), pinv, 0),
    "extend_functional": (functional, lambda f: extend_functional(f.partial, f.density), 0),
    "cstar_extendibility": (functional, lambda f: cstar_extendibility(f.partial), 0),
    "gns": (functional, lambda f: gns(f.density), 0),
    # one each: the caller's functional, or its raw density array
    "cstar_extendibility-extension": (functional, lambda f: cstar_extendibility(f.partial, extension=f.source), 1),
    "hahn_jordan": (functional, lambda f: hahn_jordan(f.source), 1),
    "extend_functional-raw-density": (functional, lambda f: extend_functional(f.partial, f.density.a), 1),
}


@pytest.fixture
def constructions(monkeypatch):
    """Class names of the validating wrappers constructed: each ComplexMatrix or HermitianMatrix __init__ run."""
    built = []
    for cls in (ComplexMatrix, HermitianMatrix):
        original = cls.__init__

        def counted(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("name", PINS)
def test_wrappers_built_per_call(constructions, name):
    build, call, expected = PINS[name]
    inputs = build()
    constructions.clear()
    call(inputs)
    assert len(constructions) == expected, constructions
