"""The validation oracles themselves: randomness, sampling, grid search, planted instances."""

import ast
from pathlib import Path

import numpy as np
import pytest

import opext.oracle

from opext.errors import Infeasible, InvalidDims
from opext.func_ext import is_symmetric_on_ideal
from opext.numkit import PsdMatrix, numerical_rank
from opext.oracle import (
    Rng,
    _gen,
    complex_gaussian,
    min_completion_search,
    random_contraction,
    random_hermitian,
    random_instance_with_witness,
    random_projection,
    random_psd,
    random_unitary,
    sampled_bound,
)
from opext.parrott import check_compatibility
from opext.sa_ext import SymmetricPartialOperator, lift_symmetric
from planted import objects, planted


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).generator().standard_normal(16)
        b = Rng(123).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(123).generator().standard_normal(16)
        b = Rng(124).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_split_children_are_independent_and_reproducible(self):
        root = Rng(7)
        a1 = root.split(0).generator().standard_normal(8)
        a2 = root.split(0).generator().standard_normal(8)
        b = root.split(1).generator().standard_normal(8)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert root.split(3).path == (3,)
        assert root.split(3).split(5).path == (3, 5)

    def test_nested_split_differs_from_flat(self):
        assert not np.array_equal(
            Rng(7).split(0).split(1).generator().standard_normal(4),
            Rng(7).split(1).generator().standard_normal(4),
        )

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)
        Rng(2**64 - 1)  # boundary is fine

    @pytest.mark.parametrize("seed", [1.5, True, "7", np.float64(7.0), np.bool_(True)])
    def test_seed_must_be_an_integer(self, seed):
        # a float, str or bool seed would draw an integer's stream
        with pytest.raises(ValueError):
            Rng(seed)
        with pytest.raises(ValueError):
            Rng(7).split(seed)
        with pytest.raises(ValueError):
            _gen(seed)

    def test_numpy_integers_name_the_same_stream(self):
        r = Rng(np.int64(7)).split(np.uint8(2))
        assert (type(r.seed), type(r.path[0])) == (int, int)
        np.testing.assert_array_equal(
            r.generator().standard_normal(4), Rng(7).split(2).generator().standard_normal(4)
        )
        np.testing.assert_array_equal(_gen(np.int64(7)).standard_normal(4), Rng(7).generator().standard_normal(4))

    def test_frozen(self):
        r = Rng(5)
        with pytest.raises(AttributeError):
            r.seed = 6


class TestRandomMatrices:
    def test_unitary(self):
        gen = Rng(60).generator()
        u = random_unitary(gen, 6)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)

    def test_psd_rank(self):
        gen = Rng(61).generator()
        a = random_psd(gen, 6, rank=3)
        assert np.linalg.eigvalsh(a).min() >= -1e-12
        assert numerical_rank(a) == 3
        assert numerical_rank(random_psd(gen, 5)) == 5

    def test_projection(self):
        gen = Rng(62).generator()
        p = random_projection(gen, 5, 2)
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.trace(p).real == pytest.approx(2.0, abs=1e-10)

    def test_contraction(self):
        gen = Rng(63).generator()
        c = random_contraction(gen, 4, 3)
        assert np.linalg.svd(c, compute_uv=False)[0] <= 1.0 + 1e-12
        c7 = random_contraction(gen, 4, 3, norm=0.7)
        assert np.linalg.svd(c7, compute_uv=False)[0] == pytest.approx(0.7, abs=1e-12)

    def test_gaussian_shape(self):
        gen = Rng(64).generator()
        x = complex_gaussian(gen, 3, 5)
        assert x.shape == (3, 5) and np.iscomplexobj(x)


class TestSampledBound:
    def test_identity_total_operator(self):
        est = sampled_bound(np.eye(4), PsdMatrix(np.eye(4)), 100, Rng(65))
        assert est <= 1.0 + 1e-9
        assert est >= 1.0 - 1e-9

    def test_zero_operator(self):
        assert sampled_bound(np.zeros((3, 3)), PsdMatrix(np.eye(3)), 100, Rng(66)) == 0.0

    def test_no_samples(self):
        assert sampled_bound(np.eye(3), PsdMatrix(np.eye(3)), 0, Rng(67)) == 0.0

    def test_empty_domain(self):
        op = SymmetricPartialOperator(np.zeros((3, 0)), np.zeros((3, 0)))
        assert sampled_bound(op, PsdMatrix(np.eye(3)), 100, Rng(68)) == 0.0

    def test_weighted_worked_example_refines_to_half(self):
        op = SymmetricPartialOperator(np.array([[1.0], [0.0]]), np.array([[2.0], [0.0]]))
        weight = PsdMatrix(np.diag([4.0, 1.0]))
        est = sampled_bound(op, weight, 200, Rng(69))
        assert est == pytest.approx(0.5, abs=1e-9)

    def test_monotone_in_samples(self):
        gen = Rng(70).generator()
        s = random_hermitian(gen, 5)
        d = complex_gaussian(gen, 5, 2)
        op = SymmetricPartialOperator(d, s @ d)
        weight = PsdMatrix(np.eye(5))
        values = [sampled_bound(op, weight, m, Rng(71), refine=4) for m in (10, 100, 1000)]
        assert values[0] <= values[1] + 1e-15
        assert values[1] <= values[2] + 1e-15

    def test_deterministic(self):
        gen = Rng(72).generator()
        d = complex_gaussian(gen, 4, 2)
        s = random_hermitian(gen, 4)
        op = SymmetricPartialOperator(d, s @ d)
        weight = PsdMatrix(np.eye(4))
        assert sampled_bound(op, weight, 500, Rng(73)) == sampled_bound(op, weight, 500, Rng(73))

    def test_never_exceeds_and_approaches_spectral_bound(self):
        for i in range(20):
            child = Rng(74).split(i)
            gen = child.generator()
            n = int(gen.integers(2, 9))
            (op, weight), _ = planted("sa_ext", (n,), child.split(0))
            alpha = lift_symmetric(op, weight).alpha
            est = sampled_bound(op, weight, 10_000, child.split(1))
            assert est <= alpha * (1 + 1e-9) + 1e-12
            if alpha > 1e-9:
                assert est >= 0.98 * alpha


class TestMinCompletionSearch:
    def test_unconstrained_quadratic(self):
        params, value = min_completion_search(
            lambda p: p[0], lambda t: True, lambda t: (t - 0.3) ** 2,
            bounds=[(-2.0, 2.0)], resolution=1001,
        )
        assert abs(params[0] - 0.3) <= 1e-4
        assert value <= 1e-8

    def test_two_parameters(self):
        params, value = min_completion_search(
            lambda p: p, lambda p: True,
            lambda p: (p[0] - 0.5) ** 2 + (p[1] + 0.25) ** 2,
            bounds=[(-1.0, 1.0), (-1.0, 1.0)],
        )
        assert abs(params[0] - 0.5) <= 0.02
        assert abs(params[1] + 0.25) <= 0.02

    def test_active_constraint(self):
        params, value = min_completion_search(
            lambda p: p[0], lambda t: t >= 1.5, lambda t: t * t,
            bounds=[(-2.0, 2.0)], resolution=1001,
        )
        assert params[0] == pytest.approx(1.5, abs=1e-9)
        assert value == pytest.approx(2.25, abs=1e-8)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            min_completion_search(
                lambda p: p[0], lambda t: False, lambda t: t,
                bounds=[(0.0, 1.0)],
            )

    def test_too_many_parameters(self):
        with pytest.raises(ValueError):
            min_completion_search(lambda p: p, lambda p: True, lambda p: 0.0,
                                  bounds=[(0, 1)] * 4)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            min_completion_search(lambda p: p, lambda p: True, lambda p: 0.0,
                                  bounds=[(1.0, 0.0)])


KINDS = (
    ("kvn", (4,)),
    ("sa_ext", (4,)),
    ("parrott", (3, 2)),
    ("strong_parrott", (4, 3, 2)),
    ("functional", (3,)),
)


class TestInstanceGeneration:
    def test_deterministic_per_kind(self):
        for kind, dims in KINDS:
            a, wa = random_instance_with_witness(kind, dims, Rng(75))
            b, wb = random_instance_with_witness(kind, dims, Rng(75))
            c, _ = random_instance_with_witness(kind, dims, Rng(76))
            assert a.keys() == b.keys() == c.keys() and wa.keys() == wb.keys()
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
            for key in wa:
                np.testing.assert_array_equal(wa[key], wb[key])
            assert any(not np.array_equal(a[key], c[key]) for key in a)

    @pytest.mark.parametrize("kind, dims", KINDS, ids=[kind for kind, _ in KINDS])
    def test_library_objects_hold_the_fields_bit_for_bit(self, kind, dims):
        # the fields are plain values, and what the typed objects built from
        # them store, so encoding the fields writes the file the objects would
        fields, witness = random_instance_with_witness(kind, dims, Rng(82))
        for value in (*fields.values(), *witness.values()):
            assert type(value) in (int, float) or (isinstance(value, np.ndarray) and value.dtype == np.complex128)
        built = objects(kind, fields, witness)
        if kind == "kvn":
            held = {"domain_basis": built.domain_basis, "values": built.values}
        elif kind == "sa_ext":
            held = {"domain_basis": built[0].domain_basis, "values": built[0].values, "weight": built[1]}
        elif kind == "parrott":
            keys = ("domain1", "values1", "domain2", "values2", "weight1", "weight2")
            held = {key: getattr(built, key) for key in keys}
            assert (built.alpha1, built.alpha2) == (fields["alpha1"], fields["alpha2"])
        elif kind == "strong_parrott":
            held = {key: getattr(built, key) for key in ("s1", "s2", "t1", "t2")}
        else:
            partial, density, source = built
            held = {"projection": partial.ideal.projection, "gamma": partial.gamma,
                    "density": density, "extension": source.density}
        for key, matrix in held.items():
            np.testing.assert_array_equal(matrix.a, fields[key], err_msg=key)

    def test_oracle_builds_no_library_object(self):
        # everything the oracle checks is decided by a module it does not import
        tree = ast.parse(Path(opext.oracle.__file__).read_text())
        names = [(node.level, node.module) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        names += [(0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        package = {module.removeprefix("opext.") for level, module in names if level or module.split(".")[0] == "opext"}
        assert package == {"numkit", "errors"}

    def test_hyphenated_kind_and_int_seed_accepted(self):
        a, _ = random_instance_with_witness("strong-parrott", (3, 3, 2), Rng(77))
        b, _ = random_instance_with_witness("strong_parrott", (3, 3, 2), 77)
        np.testing.assert_array_equal(a["s1"], b["s1"])

    def test_invalid_dims(self):
        bad = [
            ("kvn", (0,)),
            ("kvn", (17,)),
            ("kvn", (2, 3)),
            ("kvn", (2, 1, 1)),
            ("functional", (17,)),
            ("functional", (2, 2)),
            ("parrott", (3,)),
            ("parrott", (2, 2, 3, 1)),
            ("strong_parrott", (3,)),
            ("nonsense", (2,)),
        ]
        for kind, dims in bad:
            with pytest.raises(InvalidDims):
                random_instance_with_witness(kind, dims, Rng(78))

    def test_scalar_dims_promoted(self):
        fields, _ = random_instance_with_witness("functional", 3, Rng(79))
        assert fields["m"] == 3 and fields["gamma"].shape == (3, 3)

    def test_constructive_validity(self):
        for i in range(10):
            child = Rng(80).split(i)
            _, kvn_wit = random_instance_with_witness("kvn", (5,), child.split(0))
            assert np.linalg.eigvalsh(kvn_wit["total"]).min() >= -1e-10
            _, sa_wit = random_instance_with_witness("sa_ext", (5,), child.split(1))
            total = sa_wit["total"]
            assert np.linalg.norm(total - total.conj().T) <= 1e-12 * (1 + np.linalg.norm(total))
            par_inst, _ = planted("parrott", (3, 3), child.split(2))
            assert check_compatibility(par_inst)
            sp_fields, sp_wit = random_instance_with_witness("strong_parrott", (3, 3, 2), child.split(3))
            hidden = sp_wit["solution"]
            assert np.linalg.norm(hidden, 2) <= 1.0 + 1e-12
            assert np.linalg.norm(hidden @ sp_fields["s1"] - sp_fields["s2"]) <= 1e-12 * (
                1 + np.linalg.norm(sp_fields["s2"])
            )
            (partial, density, _), _ = planted("functional", (3,), child.split(4))
            assert is_symmetric_on_ideal(partial)
            assert np.linalg.eigvalsh(density.a).min() >= 0.2
