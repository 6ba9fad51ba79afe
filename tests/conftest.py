"""Shared fixtures: frequencies, models and small helpers."""

import numpy as np
import pytest

from kamtori import FourierMap, HamiltonianModel, TorusEmbedding

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# run knobs that crash or measure nothing, and the start of the one
# violation each is rejected with, alike by RunParams and by a config file
REJECTED_KNOBS = [
    ({"tol": -1}, "tol must be positive, got -1"),
    ({"target_error": 0}, "target_error must be positive, got 0"),
    ({"r": 0}, "r must be positive, got 0"),
    ({"rho": "wide"}, "rho must be a number, got wide"),
    ({"sigma": None}, "sigma must be a number, got None"),
    ({"horizon": 100.5}, "horizon must be an integer, got 100.5"),
    ({"horizon": 0}, "horizon must be >= 1, got 0"),
    ({"horizon": True}, "horizon must be an integer, got True"),
    ({"rho": float("nan")}, "rho must be a number, got nan"),
    ({"tol": float("inf")}, "tol must be a number, got inf"),
]
REJECTED_IDS = [",".join(f"{k}={v}" for k, v in knobs.items()) for knobs, _ in REJECTED_KNOBS]

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


def dense_hessian(hess, z):
    """The (..., dim, dim) Hessian at points z (..., dim) from the entries
    product_jet returns there, mirrored below the diagonal and zero at
    every absent entry."""
    z = np.asarray(z)
    out = np.zeros(z.shape + z.shape[-1:])
    for (a, b), entry in hess.items():
        out[..., a, b] = out[..., b, a] = entry
    return out


def dense_jet(model, z):
    """(value, gradient, dense Hessian) of model at points z (..., dim): the
    value from model(z), the rest from its jet_batch."""
    z = np.asarray(z, dtype=float)
    grad, hess = model.jet_batch(z)
    return model(z), grad, dense_hessian(hess, z)
