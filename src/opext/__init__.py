"""Finite-dimensional operator-extension toolkit.

Extends partially specified operators and functionals on C^n (with a
positive semidefinite weight supplying the geometry) to globally defined
ones with sharp norm control:

- :mod:`opext.kvn` — smallest positive extension of a partial positive
  operator (the Krein-von Neumann choice) and the weighted Hilbert-space
  lift everything else is built on.
- :mod:`opext.sa_ext` — extremal bound-preserving self-adjoint
  extensions of symmetric partial operators and the interval they bound.
- :mod:`opext.parrott` — operator completions of partially specified
  block matrices: the generalized two-corner problem, the strong
  (equation-constrained) variant, and the classical contraction
  completion.
- :mod:`opext.func_ext` — hermitian extensions of symmetric functionals
  on left ideals of a matrix algebra via the GNS construction.
- :mod:`opext.oracle` — independent randomized/brute-force verifiers and
  reproducible instance generators.
- :mod:`opext.cli` — batch front end over JSON instance files.
"""

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    IncompatibleInstance,
    Infeasible,
    InvalidDims,
    NotABounded,
    NotFBounded,
    NotHermitian,
    NotPsd,
    NotSymmetric,
    NumericalFailure,
    OpExtError,
    RestrictionConditionFailed,
)
from .func_ext import (
    ExtendibilityDecision,
    FunctionalMatrix,
    GnsSpace,
    LeftIdeal,
    PartialFunctional,
    cstar_extendibility,
    extend_functional,
    f_bound,
    functional_interval_member,
    gns,
    gns_realization,
    hahn_jordan,
    is_symmetric_on_ideal,
)
from .kvn import (
    HilbertLift,
    PartialPositiveOperator,
    check_restriction,
    hilbert_lift,
    kvn_extend,
)
from .numkit import (
    ComplexMatrix,
    HermitianMatrix,
    PsdMatrix,
    Tolerances,
    loewner_leq,
    numerical_rank,
)
from .oracle import (
    Rng,
    min_completion_search,
    random_instance_with_witness,
    sampled_bound,
)
from .parrott import (
    ParrottInstance,
    StrongParrottInstance,
    check_compatibility,
    classical_parrott,
    parrott_complete,
    strong_parrott,
)
from .sa_ext import (
    ExtensionInterval,
    SymmetricPartialOperator,
    alpha_of_total,
    extend_symmetric,
    in_interval,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "OpExtError",
    "DimensionMismatch",
    "NotHermitian",
    "NotPsd",
    "RestrictionConditionFailed",
    "NotABounded",
    "NotFBounded",
    "NotSymmetric",
    "IncompatibleInstance",
    "HypothesisViolated",
    "Infeasible",
    "InvalidDims",
    "NumericalFailure",
    # numeric kernel
    "Tolerances",
    "ComplexMatrix",
    "HermitianMatrix",
    "PsdMatrix",
    "loewner_leq",
    "numerical_rank",
    # positive extensions
    "PartialPositiveOperator",
    "check_restriction",
    "kvn_extend",
    "HilbertLift",
    "hilbert_lift",
    # self-adjoint extensions
    "SymmetricPartialOperator",
    "ExtensionInterval",
    "extend_symmetric",
    "alpha_of_total",
    "in_interval",
    # completions
    "ParrottInstance",
    "check_compatibility",
    "parrott_complete",
    "StrongParrottInstance",
    "strong_parrott",
    "classical_parrott",
    # functional extensions
    "FunctionalMatrix",
    "LeftIdeal",
    "PartialFunctional",
    "GnsSpace",
    "gns",
    "gns_realization",
    "is_symmetric_on_ideal",
    "f_bound",
    "extend_functional",
    "functional_interval_member",
    "hahn_jordan",
    "cstar_extendibility",
    "ExtendibilityDecision",
    # oracles
    "Rng",
    "sampled_bound",
    "min_completion_search",
    "random_instance_with_witness",
]
