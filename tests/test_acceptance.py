"""Acceptance battery: one test per shipped guarantee, stated tolerances.

Each test prints a single ``criterion NN: PASS`` line (visible with -s or
on failure) and enforces the advertised accuracy and time budgets.
"""

import json
import time
from pathlib import Path

import numpy as np

import opext.cli as cli
from opext.func_ext import (
    LeftIdeal,
    PartialFunctional,
    cstar_extendibility,
    extend_functional,
    gns_realization,
)
from opext.kvn import PartialPositiveOperator, kvn_extend
from opext.numkit import PsdMatrix, loewner_leq
from opext.oracle import (
    Rng,
    complex_gaussian,
    random_hermitian,
    random_unitary,
    sampled_bound,
)
from opext.parrott import ParrottInstance, classical_parrott, parrott_complete, strong_parrott
from opext.sa_ext import (
    SymmetricPartialOperator,
    alpha_of_total,
    extend_symmetric,
    in_interval,
    lift_symmetric,
)
from planted import planted
from test_func_ext import reference_sampled_constant
from test_sa_ext import endpoints_commute

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
E1 = np.array([[1.0], [0.0]])


def report(num, detail):
    print(f"criterion {num:02d}: PASS ({detail})")


def matrix_units(m):
    out = []
    for i in range(m):
        for j in range(m):
            e = np.zeros((m, m), dtype=np.complex128)
            e[i, j] = 1.0
            out.append(e)
    return out


def test_criterion_01_kvn_fixture():
    op = PartialPositiveOperator(E1, np.array([[1.0], [1.0]]))
    start = time.perf_counter()
    ext = kvn_extend(op)
    elapsed = time.perf_counter() - start
    assert np.abs(ext.a - np.ones((2, 2))).max() <= 1e-8
    assert elapsed < 0.1
    report(1, f"entrywise <= 1e-8, {elapsed * 1000:.2f} ms < 100 ms")


def test_criterion_02_kvn_minimality():
    start = time.perf_counter()
    worst_resid = 0.0
    for i in range(500):
        child = Rng(201).split(i)
        gen = child.generator()
        n = int(gen.integers(1, 13))
        op, witness = planted("kvn", (n,), child.split(0))
        ext = kvn_extend(op)
        assert loewner_leq(ext.a, witness["total"])
        d, g = op.domain_basis.a, op.values.a
        resid = np.linalg.norm(ext.a @ d - g)
        assert resid <= 1e-8 * (1 + np.linalg.norm(g))
        worst_resid = max(worst_resid, resid / (1 + np.linalg.norm(g)))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"500 instances, worst relative residual {worst_resid:.2e}, {elapsed:.2f} s < 10 s")


def test_criterion_03_extension_interval_fixture():
    op = SymmetricPartialOperator(E1, E1)
    interval = extend_symmetric(op, PsdMatrix(np.eye(2)))
    assert abs(interval.alpha - 1.0) <= 1e-10
    assert np.abs(interval.s_min.a - np.diag([1.0, -1.0])).max() <= 1e-8
    assert np.abs(interval.s_max.a - np.diag([1.0, 1.0])).max() <= 1e-8
    assert in_interval(np.diag([1.0, 0.5]), interval)
    assert not in_interval(np.diag([1.0, 2.0]), interval)
    report(3, "alpha = 1 +/- 1e-10, endpoints <= 1e-8, probes classified")


def test_criterion_04_extension_interval_properties():
    start = time.perf_counter()
    for i in range(500):
        child = Rng(202).split(i)
        gen = child.generator()
        n = int(gen.integers(1, 9))
        (op, weight), _ = planted("sa_ext", (n,), child.split(0))
        interval = extend_symmetric(op, weight)
        d, v = op.domain_basis.a, op.values.a
        value_scale = 1e-7 * (1 + np.linalg.norm(v))
        for s in (interval.s_min.a, interval.s_max.a):
            assert np.linalg.norm(s - s.conj().T) <= 1e-10 * (1 + np.linalg.norm(s))
            assert np.linalg.norm(s @ d - v) <= value_scale
            assert abs(alpha_of_total(s, weight) - interval.alpha) <= 1e-7 * (1 + interval.alpha)
        assert loewner_leq(interval.s_min, interval.s_max)
        for lam in np.linspace(0.0, 1.0, 11):
            mix = (1 - lam) * interval.s_min.a + lam * interval.s_max.a
            assert in_interval(mix, interval)
            assert np.linalg.norm(mix @ d - v) <= value_scale
            assert abs(alpha_of_total(mix, weight) - interval.alpha) <= 1e-7 * (1 + interval.alpha)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"500 instances x 2 endpoints + 11 mixtures, {elapsed:.2f} s < 60 s")


def test_criterion_05_positive_extension_identities_and_commutation():
    worst = 0.0
    for i in range(200):
        gen = Rng(203).split(i).generator()
        n = int(gen.integers(2, 10))
        k = int(gen.integers(1, n + 1))
        d = complex_gaussian(gen, n, k)
        s = random_hermitian(gen, n)
        op = SymmetricPartialOperator(d, s @ d)
        interval = extend_symmetric(op, PsdMatrix(np.eye(n)))
        alpha = interval.alpha
        shifted = kvn_extend(PartialPositiveOperator(d, (s + alpha * np.eye(n)) @ d))
        diff = np.abs(interval.s_min.a - (shifted.a - alpha * np.eye(n))).max()
        assert diff <= 1e-8
        worst = max(worst, diff)
    for i in range(200):
        gen = Rng(204).split(i).generator()
        n1, n2 = int(gen.integers(1, 5)), int(gen.integers(1, 5))
        n = n1 + n2
        s = np.zeros((n, n), dtype=complex)
        s[:n1, :n1] = random_hermitian(gen, n1)
        s[n1:, n1:] = random_hermitian(gen, n2)
        d = np.zeros((n, 2), dtype=complex)
        d[:n1, 0] = complex_gaussian(gen, n1, 1)[:, 0]
        d[n1:, 1] = complex_gaussian(gen, n2, 1)[:, 0]
        u = random_unitary(gen, n)
        b1, b2 = gen.uniform(-2, 2, 2)
        b = u @ np.diag(np.concatenate([np.full(n1, b1), np.full(n2, b2)])).astype(complex) @ u.conj().T
        op = SymmetricPartialOperator(u @ d, u @ (s @ d))
        assert endpoints_commute(b, extend_symmetric(op, PsdMatrix(np.eye(n))))
    report(5, f"200 identity matches (worst {worst:.2e} <= 1e-8) + 200 commutation checks")


def test_criterion_06_parrott_fixture():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    classical = classical_parrott(
        np.diag([1.0, 0.0]), np.diag([1.0, 0.0]),
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]),
    )
    assert np.abs(classical.a - swap).max() <= 1e-8
    generic = parrott_complete(ParrottInstance(
        E1, np.array([[0.0], [1.0]]), E1, np.array([[0.0], [1.0]]),
        np.eye(2), np.eye(2), 1.0, 1.0,
    ))
    assert np.abs(generic.a - swap).max() <= 1e-8
    report(6, "classical and generic pipelines both forced to the swap matrix")


def test_criterion_07_strong_parrott_properties():
    start = time.perf_counter()
    for i in range(300):
        child = Rng(205).split(i)
        gen = child.generator()
        dim_h = int(gen.integers(1, 7))
        dim_k = int(gen.integers(1, 7))
        p = int(gen.integers(1, 5))
        inst, _ = planted("strong_parrott", (dim_h, dim_k, p), child.split(0))
        x = strong_parrott(inst).a
        norm = np.linalg.svd(x, compute_uv=False)[0] if x.size else 0.0
        assert norm <= 1.0 + 1e-8
        assert np.linalg.norm(x @ inst.s1.a - inst.s2.a) <= 1e-7 * (1 + np.linalg.norm(inst.s1.a))
        assert np.linalg.norm(inst.t2.a @ x - inst.t1.a) <= 1e-7 * (1 + np.linalg.norm(inst.t2.a))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"300 instances, {elapsed:.2f} s < 30 s")


def test_criterion_08_functional_fixture_and_gns_laws():
    pf = PartialFunctional(LeftIdeal(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))
    g_min, g_max, alpha = extend_functional(pf, np.eye(2))
    assert np.abs(g_min.density.a - np.diag([1.0, -1.0])).max() <= 1e-8
    assert np.abs(g_max.density.a - np.diag([1.0, 1.0])).max() <= 1e-8
    space, op = gns_realization(pf, np.eye(2))
    units = matrix_units(2)
    for x in units:
        for y in units:
            assert np.abs(space.rep(x) @ space.rep(y) - space.rep(x @ y)).max() <= 1e-8
        assert np.abs(space.rep(x.conj().T) - space.rep(x).conj().T).max() <= 1e-8
    s_min = extend_symmetric(op, PsdMatrix(np.eye(space.dim))).s_min.a
    worst = 0.0
    for x in units:
        r = space.rep(x)
        worst = max(worst, float(np.abs(r @ s_min - s_min @ r).max()))
    assert worst <= 1e-8
    report(8, f"extremal densities <= 1e-8, GNS laws hold, intertwining residual {worst:.2e}")


def test_criterion_09_extendibility_constant():
    worst_measured = 0.0
    worst_agree = 0.0
    for i in range(200):
        child = Rng(206).split(i)
        gen = child.generator()
        m = int(gen.integers(1, 5))
        (partial, _, source), _ = planted("functional", (m,), child.split(0))
        decision = cstar_extendibility(partial, extension=source)
        assert decision.extendible
        assert decision.violations == 0
        assert decision.constant4_ok
        sampled, violations = reference_sampled_constant(
            partial, decision.density.density.a, 10_000, child.split(1).generator(), 1e-8
        )
        assert sampled <= decision.exact_bound * (1.0 + 1e-8)
        assert violations == 0
        worst_measured = max(worst_measured, sampled)
        for a in partial.ideal.basis():
            agree = abs(decision.g_min(a) - partial(a))
            assert agree <= 1e-7
            worst_agree = max(worst_agree, agree)
    assert worst_measured <= 4.0
    report(
        9,
        f"200 instances, 1e4 pairs each, zero violations, max ratio {worst_measured:.3f} <= 4, "
        f"ideal agreement {worst_agree:.2e} <= 1e-7",
    )


def test_criterion_10_bound_oracle_agreement():
    start = time.perf_counter()
    worst_gap = 0.0
    for i in range(100):
        child = Rng(207).split(i)
        gen = child.generator()
        n = int(gen.integers(1, 9))
        (op, weight), _ = planted("sa_ext", (n,), child.split(0))
        alpha = lift_symmetric(op, weight).alpha
        est = sampled_bound(op, weight, 10_000, child.split(1))
        # every sampled value is a ratio attained by a concrete pair, so it
        # can only exceed the spectral value by evaluation roundoff
        assert est <= alpha * (1 + 1e-9) + 1e-12
        if alpha > 1e-12:
            assert est >= 0.98 * alpha
            worst_gap = max(worst_gap, (alpha - est) / alpha)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(10, f"100 instances, worst relative gap {worst_gap:.2e} < 2%, {elapsed:.2f} s < 60 s")


def test_criterion_11_cli_determinism_and_round_trip(tmp_path):
    for name in sorted(p.name for p in INSTANCES.glob("*.json")):
        kind = name[: -len(".json")]
        out1 = tmp_path / f"{kind}-1.json"
        out2 = tmp_path / f"{kind}-2.json"
        assert cli.main([kind, str(INSTANCES / name), "--out", str(out1)]) == 0
        assert cli.main([kind, str(INSTANCES / name), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
    runs = 0
    for kind in cli.RUN_KINDS:
        for seed in range(100):
            inst = tmp_path / "inst.json"
            result = tmp_path / "result.json"
            assert cli.main(["gen", "--kind", kind, "--seed", str(seed),
                             "--out", str(inst)]) == 0
            assert cli.main([kind, str(inst), "--out", str(result)]) == 0
            assert json.loads(result.read_text())["status"] == "ok"
            runs += 1
    assert runs == 600
    report(11, "6 fixtures byte-identical across reruns; gen->run ok for 6 kinds x 100 seeds")
