"""Shared fixtures: frequencies, models and small helpers."""

import numpy as np
import pytest

from kamtori import FourierMap, HamiltonianModel, TorusEmbedding

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# run knobs that crash or measure nothing, and the start of the one
# violation each is rejected with, alike by RunParams and by a config file
REJECTED_KNOBS = [
    ({"start_degree": 2}, "start_degree must be >= 3, got 2"),
    ({"start_degree": 16, "max_degree": 8}, "max_degree must be >= start_degree = 16, got 8"),
    ({"count": 0}, "count must be >= 1, got 0"),
    ({"max_stages": 0}, "max_stages must be >= 1, got 0"),
    ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
    ({"min_tori": -1}, "min_tori must be >= 0, got -1"),
    ({"tol": -1}, "tol must be positive, got -1"),
    ({"target_error": 0}, "target_error must be positive, got 0"),
    ({"r": 0}, "r must be positive, got 0"),
    ({"rho": "wide"}, "rho must be positive, got wide"),
    ({"sigma": None}, "sigma must be positive, got None"),
    ({"lambda_spec": "mu *"}, "lambda_spec does not evaluate: "),
    ({"lambda_spec": ["mu"]}, "lambda_spec must be a string, got ['mu']"),
    ({"lambda_spec": "mu - 100"}, "lambda_spec must be positive, got -99.0 at μ = d = v = τ = 1"),
    ({"lambda_spec": "0*mu"}, "lambda_spec must be positive, got 0.0 at μ = d = v = τ = 1"),
    ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
    ({"horizon": 100.5}, "horizon must be an integer, got 100.5"),
    ({"max_iter": True}, "max_iter must be an integer, got True"),
]
REJECTED_IDS = [",".join(f"{k}={v}" for k, v in knobs.items()) for knobs, _ in REJECTED_KNOBS]

# lambda specs that parse but raise ArithmeticError at the probe point
# mu = d = v = tau = 1, and a fragment of the error each names
ARITHMETIC_LAMBDAS = [("mu / (d - 1)", "division by zero"),
                      ("mu * 10.0**400", "out of range"),
                      ("mu * 1e300 * 1e300", "out of range at μ = d = v = τ = 1")]


@pytest.fixture
def golden_omega():
    return np.array([GOLDEN])


@pytest.fixture
def pendulum():
    return HamiltonianModel.pendulum(1e-3)


@pytest.fixture
def rotator():
    return HamiltonianModel.free_rotator(1)


@pytest.fixture
def circle_torus():
    return TorusEmbedding.circle(GOLDEN, trunc_order=64)


def random_trig(rng, n, order, range_shape=()):
    """Random real trigonometric polynomial with |k|_inf <= order."""
    modes = {}
    for idx in np.ndindex(*((2 * order + 1,) * n)):
        k = tuple(i - order for i in idx)
        if not any(k):
            modes[k] = rng.standard_normal(range_shape) + 0j
            continue
        first = next(v for v in k if v != 0)
        if first < 0:
            continue
        modes[k] = rng.standard_normal(range_shape) + 1j * rng.standard_normal(
            range_shape
        )
    return FourierMap(n, range_shape, modes, trunc_order=order)


def rung_derivative(rung, alpha, z):
    """D^alpha of a SeparableRung at points z (..., dim), each factor's half
    spectrum summed mode by mode: Re sum_k c_k (2 pi i k / w)^q
    e^{2 pi i k (u - lo) / w} along each axis, multiplied over the axes
    and summed over the terms."""
    pts = np.asarray(z, dtype=float).reshape(-1, rung.dim)
    out = np.ones((rung.rank, len(pts)))
    for axis, q in enumerate(alpha):
        half, lo, width = rung.factors[axis], rung.box.lo[axis], rung.box.widths()[axis]
        factor = np.zeros_like(out)
        for k in range(half.shape[1]):
            wave = np.exp(2j * np.pi * k * (pts[:, axis] - lo) / width)
            factor += (half[:, k : k + 1] * (2j * np.pi * k / width) ** q * wave).real
        out *= factor
    return out.sum(axis=0).reshape(np.shape(z)[:-1])
