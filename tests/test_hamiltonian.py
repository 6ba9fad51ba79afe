"""Exact jets from per-axis tables, profiles and the symplectic structure."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import kamtori

from kamtori import (
    Box,
    BSplineProfile,
    CompositeHamiltonian,
    HamiltonianModel,
    RoughTerm,
    SinPowerProfile,
    symplectic_matrix,
)
from kamtori.hamiltonian import evaluate_jet


def random_model(rng, n=1, terms=5, order=2, degree=2):
    out = []
    for _ in range(terms):
        k = tuple(int(v) for v in rng.integers(-order, order + 1, n))
        m = tuple(int(v) for v in rng.integers(0, degree + 1, n))
        c = complex(rng.standard_normal(), rng.standard_normal())
        if not any(k):
            c = complex(c.real, 0.0)
        out.append((k, m, c))
    return HamiltonianModel(n, out)


def fd_gradient(h, z, step=1e-5):
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = step
        out[i] = (h.jet_batch(z + e)[0] - h.jet_batch(z - e)[0]) / (2 * step)
    return out


class TestSymplecticMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structure(self, n):
        j = symplectic_matrix(n)
        assert np.array_equal(j @ j, -np.eye(2 * n))
        assert np.array_equal(j.T, -j)


class TestJets:
    def test_rotator_point_jet(self):
        h = HamiltonianModel.free_rotator(1)
        val, grad, hess = evaluate_jet(h, np.array([0.3, 2.0]))
        assert val == pytest.approx(2.0)
        assert np.allclose(grad, [0.0, 2.0])
        assert np.allclose(hess, [[0.0, 0.0], [0.0, 1.0]])

    def test_pendulum_gradient(self):
        h = HamiltonianModel.pendulum(0.1)
        _, grad, _ = evaluate_jet(h, np.array([0.25, 1.0]))
        assert grad[0] == pytest.approx(-0.2 * np.pi, abs=1e-14)
        assert grad[1] == pytest.approx(1.0, abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        h = random_model(rng, n=2)
        for z in rng.random((20, 4)):
            _, grad, _ = evaluate_jet(h, z)
            assert np.max(np.abs(grad - fd_gradient(h, z))) < 1e-7

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(43)
        h = random_model(rng, n=1)
        step = 1e-5
        for z in rng.random((10, 2)):
            _, _, hess = evaluate_jet(h, z)
            for i in range(2):
                e = np.zeros(2)
                e[i] = step
                col = (
                    h.jet_batch(z + e)[1] - h.jet_batch(z - e)[1]
                ) / (2 * step)
                assert np.max(np.abs(hess[:, i] - col)) < 1e-6

    def test_reality_of_values(self):
        rng = np.random.default_rng(47)
        h = random_model(rng, n=1)
        vals = h.jet_batch(rng.random((50, 2)))[0]
        assert np.all(np.isreal(vals))


class TestBox:
    def test_wrap_and_contains(self):
        box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]), np.array([True, False]))
        pts = np.array([[1.25, 0.5], [-0.25, 0.5]])
        wrapped = box.wrap(pts)
        assert np.allclose(wrapped[:, 0], [0.25, 0.75])
        assert np.all(box.contains(wrapped))
        assert not box.contains(np.array([0.5, 2.0]))

    def test_outside_box_is_hard_error(self):
        box = Box(np.array([0.0, -0.5]), np.array([1.0, 0.5]), np.array([True, False]))
        bounded = HamiltonianModel(1, [((0,), (2,), 0.5)], box=box)
        with pytest.raises(ValueError, match="outside"):
            evaluate_jet(bounded, np.array([0.3, 2.0]))


class TestProfiles:
    def test_sinpower_smoothness_class(self):
        assert SinPowerProfile(4.5).smoothness_class == 4
        assert SinPowerProfile(6.0).smoothness_class == 5

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_sinpower_derivatives(self, q):
        prof = SinPowerProfile(4.5, scale=0.3)
        u = np.linspace(0.05, 0.95, 41)
        step = 1e-6
        fd = (prof.deriv(u + step, q - 1) - prof.deriv(u - step, q - 1)) / (2 * step)
        scale = max(1.0, np.max(np.abs(prof.deriv(u, q))))
        assert np.max(np.abs(prof.deriv(u, q) - fd)) < 1e-5 * scale

    def test_bspline_smoothness_class(self):
        prof = BSplineProfile([0.0, 1.0, 0.0, -1.0, 0.5, 0.2], degree=5)
        assert prof.smoothness_class == 4

    def test_bspline_periodic(self):
        prof = BSplineProfile([0.3, 1.0, -0.4, -1.0, 0.5, 0.2], degree=5)
        u = np.linspace(0.0, 1.0, 7)
        assert np.allclose(prof.deriv(u, 0), prof.deriv(u + 1.0, 0), atol=1e-12)
        assert np.allclose(prof.deriv(u, 3), prof.deriv(u - 2.0, 3), atol=1e-10)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_bspline_derivatives(self, q):
        prof = BSplineProfile([0.3, 1.0, -0.4, -1.0, 0.5, 0.2], degree=5)
        u = np.linspace(0.0, 1.0, 41)
        step = 1e-6
        fd = (prof.deriv(u + step, q - 1) - prof.deriv(u - step, q - 1)) / (2 * step)
        scale = max(1.0, np.max(np.abs(prof.deriv(u, q))))
        assert np.max(np.abs(prof.deriv(u, q) - fd)) < 1e-5 * scale


class TestComposite:
    def test_jets_sum(self):
        rng = np.random.default_rng(61)
        base = HamiltonianModel.free_rotator(1)
        rough = RoughTerm(0, SinPowerProfile(4.5), 0.2)
        comp = CompositeHamiltonian(base, [rough])
        z = rng.random((10, 2))
        v, g, h = comp.jet_batch(z)
        vb, gb, hb = base.jet_batch(z)
        vr, gr, hr = rough.jet_batch(z)
        assert np.allclose(v, vb + vr)
        assert np.allclose(g, gb + gr)
        assert np.allclose(h, hb + hr)

    def test_smoothness_class_is_min(self):
        base = HamiltonianModel.free_rotator(1)
        comp = CompositeHamiltonian(base, [RoughTerm(0, SinPowerProfile(4.5), 1.0)])
        assert comp.smoothness_class == 4
        assert math.isinf(base.smoothness_class)


class TestSerialization:
    def test_json_round_trip(self):
        h = HamiltonianModel.pendulum(0.25)
        back = HamiltonianModel.from_json(h.to_json())
        rng = np.random.default_rng(67)
        z = rng.random((20, 2))
        assert np.allclose(back.jet_batch(z)[0], h.jet_batch(z)[0])
        assert back.n == h.n

    def test_missing_keys_named(self):
        with pytest.raises(ValueError, match="terms"):
            HamiltonianModel.from_json('{"n": 1}')


# -- oracles for the one jet routine --------------------------------------------


def parent_jet(model, z):
    """HamiltonianModel's term-by-term jet formula from before its factors
    were tabulated per axis, kept as the reference for product_jet."""

    def monomial(y, expo):
        out = np.ones(y.shape[:-1])
        for j, e in enumerate(expo):
            if e > 0:
                out = out * y[..., j] ** e
        return out

    n = model.n
    x, y = z[..., :n], z[..., n:]
    base = z.shape[:-1]
    val = np.zeros(base)
    grad = np.zeros(base + (2 * n,))
    hess = np.zeros(base + (2 * n, 2 * n))
    eye = np.eye(n, dtype=int)
    for (k, m), c in model.terms:
        kv, mv = np.asarray(k, dtype=float), np.asarray(m, dtype=int)
        weight = 1.0 if not any(k) else 2.0
        phase = c * np.exp(2j * np.pi * (x @ kv))
        mono = monomial(y, mv)
        re, im = phase.real, phase.imag
        val += weight * re * mono
        dmono = [None] * n
        for a in range(n):
            if k[a] != 0:
                grad[..., a] += weight * (-2 * np.pi * k[a]) * im * mono
            if m[a] > 0:
                dmono[a] = monomial(y, mv - eye[a])
                grad[..., n + a] += weight * re * m[a] * dmono[a]
        for a in range(n):
            for b in range(a, n):
                if k[a] != 0 and k[b] != 0:
                    h = weight * (-4 * np.pi**2 * k[a] * k[b]) * re * mono
                    hess[..., a, b] += h
                    if a != b:
                        hess[..., b, a] += h
            for b in range(n):
                if k[a] != 0 and m[b] > 0:
                    h = weight * (-2 * np.pi * k[a]) * im * m[b] * dmono[b]
                    hess[..., a, n + b] += h
                    hess[..., n + b, a] += h
        for a in range(n):
            for b in range(a, n):
                if a == b and m[a] >= 2:
                    dd = monomial(y, mv - 2 * eye[a])
                    hess[..., n + a, n + a] += weight * re * m[a] * (m[a] - 1) * dd
                elif a != b and m[a] > 0 and m[b] > 0:
                    h = weight * re * m[a] * m[b] * monomial(y, mv - eye[a] - eye[b])
                    hess[..., n + a, n + b] += h
                    hess[..., n + b, n + a] += h
    return val, grad, hess


def assert_jets_close(got, want, rel):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= rel * max(1.0, np.max(np.abs(w)))


class TestProductJet:
    def test_sympy_jets_of_a_two_dof_sum(self):
        # a k = (1, -1) term, an m = (1, 1) term, a mixed k.m term, and
        # sin-power ridges on the angle x1 and the action y2
        terms = [
            ((0, 0), (2, 0), 0.5),
            ((0, 0), (0, 2), 0.7),
            ((1, -1), (0, 0), 0.3 - 0.2j),
            ((0, 0), (1, 1), -0.4),
            ((2, 1), (1, 0), 0.25 + 0.15j),
        ]
        rough = [RoughTerm(0, SinPowerProfile(4.5, 0.3), 0.8),
                 RoughTerm(3, SinPowerProfile(5.5, 0.6, 0.1), -0.5)]
        h = CompositeHamiltonian(HamiltonianModel(2, terms), rough)
        x1, x2, y1, y2 = syms = sp.symbols("x1 x2 y1 y2", real=True)
        expr = 0
        for k, m, c in terms:
            phase = 2 * sp.pi * (k[0] * x1 + k[1] * x2)
            wc = complex(c) * (2 if any(k) else 1)
            mono = y1 ** m[0] * y2 ** m[1]
            expr += (wc.real * sp.cos(phase) - wc.imag * sp.sin(phase)) * mono
        # the test points keep both sines positive, where |sin|^p = sin^p
        expr += 0.8 * 0.3 * sp.sin(sp.pi * x1) ** sp.Rational(9, 2)
        expr += -0.5 * 0.6 * sp.sin(sp.pi * (y2 - 0.1)) ** sp.Rational(11, 2)
        grad = [sp.diff(expr, v) for v in syms]
        hess = [[sp.diff(g, v) for v in syms] for g in grad]
        rng = np.random.default_rng(71)
        z = rng.uniform([0.1, -1.0, -1.0, 0.2], [0.9, 2.0, 1.0, 0.9], (40, 4))
        jets = [sp.lambdify(syms, e, "numpy") for e in (expr, grad, hess)]
        want = [np.array([np.asarray(f(*p), dtype=float) for p in z]) for f in jets]
        assert_jets_close(h.jet_batch(z), want, 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_parent_term_formula(self, n):
        rng = np.random.default_rng(73 + n)
        h = random_model(rng, n=n, terms=8, order=3, degree=3)
        z = rng.uniform(-1.0, 1.0, (7, 5, 2 * n))
        assert_jets_close(h.jet_batch(z), parent_jet(h, z), 1e-13)

    def test_constant_and_conjugate_terms(self):
        h = HamiltonianModel(2, [((0, 0), (0, 0), 1.5), ((-2, 1), (0, 3), 0.4 + 0.1j),
                                 ((0, -1), (1, 0), 0.2j)])
        z = np.random.default_rng(79).uniform(-1.0, 1.0, (30, 4))
        assert_jets_close(h.jet_batch(z), parent_jet(h, z), 1e-13)

    def test_axes_whose_factors_are_one_are_skipped(self, monkeypatch):
        seen = []
        values = HamiltonianModel.axis_values

        def recorded(self, axis, u, q):
            seen.append(axis)
            return values(self, axis, u, q)

        monkeypatch.setattr(HamiltonianModel, "axis_values", recorded)
        HamiltonianModel.free_rotator(2).jet_batch(np.ones((3, 4)))
        assert seen == [2, 3]

    def test_each_angle_axis_takes_one_exponential(self, monkeypatch):
        h = HamiltonianModel(2, [((0, 0), (2, 0), 0.5), ((3, -2), (0, 1), 0.2j),
                                 ((1, 0), (0, 0), 0.1), ((1, 2), (1, 0), 0.3)])
        calls = []
        exp = np.exp

        def counted(x, *args, **kwargs):
            calls.append(np.iscomplexobj(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        h.jet_batch(np.random.default_rng(83).random((9, 4)))
        assert calls == [True, True]


class TestBSplineTable:
    @pytest.mark.parametrize("degree, q", [(5, q) for q in range(5)] + [(3, 1), (3, 3)])
    def test_matches_scipy_bspline(self, degree, q):
        from scipy.interpolate import BSpline

        c = np.array([0.3, 1.0, -0.4, -1.0, 0.5, 0.2, 0.7])
        knots = np.arange(-degree, c.size + degree + 1) / c.size
        spline = BSpline(knots, np.concatenate([c, c[:degree]]), degree)
        u = np.random.default_rng(89 + q).uniform(-2.0, 3.0, 500)
        want = (spline.derivative(q) if q else spline)(np.mod(u, 1.0))
        got = BSplineProfile(c, degree=degree).deriv(u, q)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("degree", [3, 5])
    def test_derivative_tables_equal_per_call_polyder(self, degree):
        # the tables built at construction are those polyder gave per call
        from numpy.polynomial import polynomial as P

        c = np.array([0.3, 1.0, -0.4, -1.0, 0.5, 0.2, 0.7])
        prof = BSplineProfile(c, degree=degree)
        u = np.random.default_rng(97).uniform(-2.0, 3.0, 500)
        x = np.mod(u, 1.0) * c.size
        piece = np.minimum(x.astype(int), c.size - 1)
        for q in range(5):
            coef = P.polyder(prof._tables[0], q, scl=c.size, axis=1)[piece]
            want = P.polyval(x - piece, np.moveaxis(coef, -1, 0), tensor=False)
            assert np.array_equal(prof.deriv(u, q), want), q
        for q in (-1, 5):
            with pytest.raises(ValueError, match="up to order 4"):
                prof.deriv(u, q)

    def test_bspline_model_leaves_scipy_interpolate_unloaded(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "n": 1,
            "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0}],
            "rough": [{"coordinate": 0, "amplitude": 1e-4,
                       "profile": {"type": "bspline", "degree": 5,
                                   "coefficients": [0.0, 0.52, 0.55, 0.05, -0.48, -0.55]}}],
        }))
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from kamtori.cli import load_hamiltonian\n"
            f"h = load_hamiltonian({str(model)!r})\n"
            "h.jet_batch(np.array([[0.3, 0.4]]))\n"
            "assert 'scipy.interpolate' not in sys.modules\n"
        )
        src = str(Path(kamtori.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
