"""Entrywise conjugation of an instance conjugates its result, exactly.

Every problem kind is invariant under complex conjugation: conjugating all
input matrices conjugates every extension, completion and density, and
leaves every bound, residual and decision as it was.  Floating-point
arithmetic is symmetric under flipping the sign of every imaginary part, so
the relation holds bit for bit, at tolerance 0.  Each instance runs through
the command line's parse -> run path twice, on its fields and on their
conjugates, and the result files must agree byte for byte once the
original's arrays are conjugated.
"""

import numpy as np
import pytest

import opext.cli as cli
from opext.numkit import DEFAULT_TOLERANCES
from opext.oracle import Rng, random_instance_with_witness
from opext.serialize import dumps_canonical


def conjugated(values: dict) -> dict:
    return {key: np.conj(value) if isinstance(value, np.ndarray) else value for key, value in values.items()}


def encode(m) -> list:
    """A matrix as the rows of [re, im] pairs an instance file holds."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]


def result_file(spec, kind, fields):
    payload = {key: encode(v) if isinstance(v, np.ndarray) else v for key, v in fields.items() if key != spec.drop}
    outputs, diagnostics = spec.run(spec.parse(payload), DEFAULT_TOLERANCES)
    return outputs, diagnostics, cli._result("ok", kind, outputs, diagnostics, DEFAULT_TOLERANCES, None, None)


@pytest.mark.parametrize("kind", cli.RUN_KINDS)
def test_conjugated_instance_gives_the_conjugated_result(kind):
    spec = cli._KINDS[kind]
    for seed in range(100):
        dims = spec.draw_dims(Rng(seed).generator())
        fields, _ = random_instance_with_witness(spec.oracle, dims, Rng(seed))
        where = f"{kind} seed {seed} dims {dims}"
        try:
            outputs, diagnostics, doc = result_file(spec, kind, fields)
            outputs_c, diagnostics_c, doc_c = result_file(spec, kind, conjugated(fields))
        except Exception as exc:
            raise AssertionError(f"{where}: {type(exc).__name__}: {exc}") from exc
        for got, want in ((outputs_c, outputs), (diagnostics_c, diagnostics)):
            assert got.keys() == want.keys(), where
            for key, value in conjugated(want).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(got[key], value), f"{where} key {key}"
                else:
                    assert got[key] == value, f"{where} key {key}"
        expected = {**doc, "outputs": conjugated(outputs)}
        assert dumps_canonical(doc_c) == dumps_canonical(expected), where
