"""The oracle's planted instances as library objects, for tests that call the library directly.

``opext.oracle`` returns each instance as plain payload fields and builds no
library object.  :func:`planted` builds them under the default tolerances, as
any caller of the library would.  A partial functional is built from the
witness source, so its gamma is ``projection @ source``, the product the
generator stores as the ``gamma`` field.
"""

from opext.func_ext import FunctionalMatrix, LeftIdeal, PartialFunctional
from opext.kvn import PartialPositiveOperator
from opext.numkit import PsdMatrix
from opext.oracle import random_instance_with_witness
from opext.parrott import ParrottInstance, StrongParrottInstance
from opext.sa_ext import SymmetricPartialOperator

_PARROTT_KEYS = ("domain1", "values1", "domain2", "values2", "weight1", "weight2", "alpha1", "alpha2")


def objects(kind: str, fields: dict, witness: dict):
    """The library objects of one planted instance, by kind:

    kvn -> PartialPositiveOperator; sa_ext -> (SymmetricPartialOperator, weight
    PsdMatrix); parrott -> ParrottInstance; strong_parrott -> StrongParrottInstance;
    functional -> (PartialFunctional, density PsdMatrix, source FunctionalMatrix).
    """
    kind = kind.replace("-", "_")
    if kind == "kvn":
        return PartialPositiveOperator(fields["domain_basis"], fields["values"])
    if kind == "sa_ext":
        return SymmetricPartialOperator(fields["domain_basis"], fields["values"]), PsdMatrix(fields["weight"])
    if kind == "parrott":
        return ParrottInstance(*(fields[key] for key in _PARROTT_KEYS))
    if kind == "strong_parrott":
        return StrongParrottInstance(fields["s1"], fields["s2"], fields["t1"], fields["t2"])
    source = witness["source"]
    partial = PartialFunctional(LeftIdeal(fields["projection"]), source)
    return partial, PsdMatrix(fields["density"]), FunctionalMatrix(source)


def planted(kind: str, dims, rng):
    """``random_instance_with_witness(kind, dims, rng)`` with its fields built into :func:`objects`."""
    fields, witness = random_instance_with_witness(kind, dims, rng)
    return objects(kind, fields, witness), witness
