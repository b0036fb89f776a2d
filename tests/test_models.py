"""Built-in objective models and their certified bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick import (DomainBox, FunctionModel, linear_model, quadratic_model,
                      run_pipeline, sinusoidal_model)
from gradkick.params import AlgorithmParams


def test_domain_box_contains_is_inclusive():
    box = DomainBox(center=(0.0, 1.0), half_width=(1.0, 2.0))
    assert box.contains((1.0, 3.0))
    assert box.contains((-1.0, -1.0))
    assert not box.contains((1.0000001, 0.0))
    assert box.contains_box((0.5, 1.0), 0.5)
    assert not box.contains_box((0.5, 1.0), 0.5000001)


def test_domain_box_cube_accepts_scalar_or_sequence_center():
    assert DomainBox.cube(2, 1.0).center == (0.0, 0.0)
    assert DomainBox.cube(2, 1.0, center=(0.5, -0.5)).center == (0.5, -0.5)
    with pytest.raises(ValueError):
        DomainBox.cube(2, 1.0, center=(0.5,))
    with pytest.raises(ValueError):
        DomainBox.cube(1, 0.0)


def test_linear_model_bounds_and_values():
    box = DomainBox.cube(3, 2.0)
    model = linear_model([0.5, -2.0, 1.0], box)
    assert model.p == 3
    assert model.grad_bound == 2.0
    assert model.hess_bound == 0.0
    x = np.array([1.0, 0.5, -1.0])
    assert model.evaluate(x) == 0.5 * 1.0 - 2.0 * 0.5 + 1.0 * -1.0
    assert np.array_equal(model.gradient(x), np.array([0.5, -2.0, 1.0]))


def test_quadratic_model_exact_spectral_norm():
    # H = [[2, 1], [1, 2]] has eigenvalues 3 and 1, so hess_bound is 3.
    box = DomainBox.cube(2, 1.0)
    model = quadratic_model([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]], box)
    assert model.hess_bound == pytest.approx(3.0, abs=1e-12)
    # sup |(H x)_m| over the unit box is the absolute row sum, 3.
    assert model.grad_bound == pytest.approx(3.0, abs=1e-12)
    x = np.array([0.5, -0.25])
    assert model.evaluate(x) == pytest.approx(
        0.5 * (2 * 0.25 + 2 * 0.0625) + 0.5 * (-0.25), abs=1e-15)
    assert np.allclose(model.gradient(x), np.array([2 * 0.5 - 0.25, 0.5 - 0.5]))


def test_quadratic_model_grad_bound_includes_linear_part_and_center():
    box = DomainBox(center=(1.0,), half_width=(0.5,))
    model = quadratic_model([2.0], [[4.0]], box)
    # gradient is 2 + 4x, affine; sup over [0.5, 1.5] is |2 + 4| + 4 * 0.5 = 8.
    assert model.grad_bound == pytest.approx(8.0, abs=1e-12)


def test_quadratic_model_requires_exact_symmetry():
    box = DomainBox.cube(2, 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_model([0.0, 0.0], [[1.0, 1e-17], [0.0, 1.0]], box)
    with pytest.raises(ValueError, match="shape"):
        quadratic_model([0.0, 0.0], [[1.0, 0.0]], box)


def test_sinusoidal_model_bounds():
    box = DomainBox.cube(2, 1.0)
    model = sinusoidal_model(0.5, [1.0, 3.0], box)
    assert model.grad_bound == pytest.approx(0.5 * 3.0, abs=1e-15)
    assert model.hess_bound == pytest.approx(0.5 * (1.0 + 9.0), abs=1e-15)
    x = np.array([0.2, -0.1])
    assert model.evaluate(x) == pytest.approx(0.5 * np.sin(0.2 - 0.3), abs=1e-15)
    expected = 0.5 * np.cos(-0.1) * np.array([1.0, 3.0])
    assert np.allclose(model.gradient(x), expected, atol=1e-15)


@pytest.mark.parametrize("factory", [
    lambda box: linear_model([0.7, -0.3], box),
    lambda box: quadratic_model([0.1, 0.0], [[1.0, 0.5], [0.5, 2.0]], box),
    lambda box: sinusoidal_model(0.8, [1.3, -0.4], box),
])
def test_sampled_gradients_respect_grad_bound(factory):
    box = DomainBox.cube(2, 1.5)
    model = factory(box)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, size=2)
        assert np.max(np.abs(model.gradient(x))) <= model.grad_bound + 1e-12


def test_model_dimension_validation():
    box = DomainBox.cube(2, 1.0)
    with pytest.raises(ValueError):
        linear_model([1.0], box)
    with pytest.raises(ValueError):
        sinusoidal_model(1.0, [1.0, 2.0, 3.0], box)
    with pytest.raises(ValueError):
        FunctionModel(p=2, evaluate=lambda x: 0.0,
                      gradient=lambda x: np.zeros(2),
                      grad_bound=-1.0, hess_bound=0.0, domain_box=box)


def test_model_rejects_bounds_that_are_not_finite_and_nonnegative():
    box = DomainBox.cube(1, 1.0)
    for bound in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            FunctionModel(p=1, evaluate=float, gradient=np.asarray, grad_bound=bound,
                          hess_bound=0.0, domain_box=box)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            FunctionModel(p=1, evaluate=float, gradient=np.asarray, grad_bound=0.0,
                          hess_bound=bound, domain_box=box)


def test_constructors_let_overflowing_bounds_reach_the_check():
    huge = DomainBox.cube(2, 10.0)
    with np.errstate(over="raise"), pytest.raises(ValueError, match="finite"):
        quadratic_model([0.0, 0.0], [[1e308, 1e308], [1e308, 1e308]], huge)
    with np.errstate(over="raise"), pytest.raises(ValueError, match="finite"):
        sinusoidal_model(1.0, [1e200], DomainBox.cube(1, 1.0))


VALUES = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


@given(kind=st.sampled_from(["linear", "quadratic", "sinusoidal"]),
       p=st.integers(min_value=1, max_value=4), data=st.data())
@settings(max_examples=200, deadline=None)
def test_batch_evaluator_matches_scalar_bit_for_bit(kind, p, data):
    coeff = data.draw(st.lists(VALUES, min_size=p, max_size=p))
    box = DomainBox.cube(p, 8.0)
    if kind == "linear":
        model = linear_model(coeff, box)
    elif kind == "quadratic":
        a = np.array(data.draw(st.lists(VALUES, min_size=p * p, max_size=p * p)))
        a = a.reshape(p, p)
        model = quadratic_model(coeff, (a + a.T).tolist(), box)
    else:
        model = sinusoidal_model(data.draw(VALUES), coeff, box)
    k = data.draw(st.integers(min_value=1, max_value=40))
    points = np.array(data.draw(st.lists(VALUES, min_size=k * p, max_size=k * p)))
    points = points.reshape(k, p)
    batch = model.evaluate_points(points)
    mapped = np.array([model.evaluate(row) for row in points])
    assert batch.dtype == np.float64 and batch.tobytes() == mapped.tobytes()


def test_model_without_batch_evaluator_runs_the_pipeline():
    box = DomainBox.cube(1, 1.0)
    plain = FunctionModel(p=1, evaluate=lambda y: -float(y[0]),
                          gradient=lambda y: np.array([-1.0]),
                          grad_bound=1.0, hess_bound=0.0, domain_box=box)
    assert plain.evaluate_batch is None
    params = AlgorithmParams(n=3, nu=1e-9, lam=1.0, mu=0.125)
    chi, calls = run_pipeline(plain, [0.0], params)
    expected, _ = run_pipeline(linear_model([-1.0], box), [0.0], params)
    assert calls == 2
    assert np.array_equal(chi.amplitudes, expected.amplitudes)
