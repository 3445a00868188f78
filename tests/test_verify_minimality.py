"""verify sees an interval collapsed onto its lower endpoint.

The paper's extremality says every bound-preserving self-adjoint extension lies between s_min and s_max,
and each endpoint is pinned by Krein-von Neumann minimality: in the weight's range coordinates
alpha - s_max has its range in ran(alpha U - W) and alpha + s_min in ran(alpha U + W).  verify checks
that with ``oracle.endpoint_range_miss`` on sa-ext, and on functional-ext's s_0 : B -> Gamma* B with
weight F.  A construction that returns the lower endpoint twice still extends S_0 with bound alpha and
keeps s_min <= s_max, so every other invariant passes; this one must fail it, and the true endpoints
must pass.
"""

import json
from dataclasses import replace

import pytest

from opext import cli

COUNT = "300"


def collapsed_interval(extend):
    def mutated(*args, **kwargs):
        interval = extend(*args, **kwargs)
        return replace(interval, s_max=interval.s_min)

    return mutated


def collapsed_functional(extend):
    def mutated(*args, **kwargs):
        g_min, _, alpha = extend(*args, **kwargs)
        return g_min, g_min, alpha

    return mutated


MUTATIONS = {
    "sa-ext": ("extend_symmetric", collapsed_interval),
    "functional-ext": ("extend_functional", collapsed_functional),
}


def verify(tmp_path, kind):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--kind", kind, "--count", COUNT, "--seed", "0", "--out", str(out)])
    return code, json.loads(out.read_text())["outputs"][kind]


@pytest.mark.parametrize("kind", MUTATIONS)
def test_true_endpoints_pass(tmp_path, kind):
    code, report = verify(tmp_path, kind)
    assert (code, report) == (0, {"count": 300, "passed": 300, "failed": 0})


@pytest.mark.parametrize("kind", MUTATIONS)
def test_lower_endpoint_twice_fails_verify(tmp_path, monkeypatch, kind):
    name, mutate = MUTATIONS[kind]
    monkeypatch.setattr(cli, name, mutate(getattr(cli, name)))
    code, report = verify(tmp_path, kind)
    assert code == cli.EXIT_NUMERICAL_FAILURE
    assert report["failed"] > 0
    # only the minimality check sees the collapse
    assert {record["check"] for record in report["failures"]} == {"endpoint_range_miss"}
