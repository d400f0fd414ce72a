"""The H^2 Millson transform on fixed panels against the QUADPACK oracle.

On H^2 neither p_t, K_t nor G_r has a closed form: each value is one
Millson transform (geometry._h2_millson).  nested_oracle.h2_millson_quad
evaluates the same transform by adaptive QUADPACK with no absolute floor,
over a longer cut; the kernel integrands f below are the ones the library
transforms, so the two routes share only the formulas, not the quadrature.
"""

import math

import numpy as np
import pytest

from katoform import kato
from katoform.errors import DomainError
from katoform.geometry import _TAIL_LOG, HYPERBOLIC, ModelSpace, geodesic_point, heat_kernel_radial
from katoform.potentials import coulomb
from nested_oracle import h2_kernel_scalar, h2_millson_quad

H2 = ModelSpace(HYPERBOLIC, 2)
DISTANCES = np.geomspace(1e-12, 20.0, 15)
# values below this compare absolutely: they are past the range where the
# relative targets of either route apply
FLOOR = 1e-300


def _oracle_heat(t, d):
    def f(s, shift):
        return kato._erfc_pair(s, t, 0.5, shift=shift) / (4.0 * math.pi)

    val, _ = h2_millson_quad(f, d, d + math.sqrt(2.0 * t * _TAIL_LOG) + t, rel=1e-12)
    return math.sqrt(2.0) * val


def _oracle_green(r, d):
    k = math.sqrt(2.0 * r + 0.25)

    def f(s, shift):
        return math.exp(shift - k * s) / (2.0 * math.pi)

    val, _ = h2_millson_quad(f, d, d + _TAIL_LOG / (k + 0.5), rel=1e-12)
    return math.sqrt(2.0) * val


@pytest.mark.parametrize("t", [1e-4, 1e-2, 1.0])
def test_heat_kernel_matches_oracle(t):
    got = heat_kernel_radial(H2, t, DISTANCES)
    for d, value in zip(DISTANCES, got):
        assert value == pytest.approx(h2_kernel_scalar(t, float(d), rel=1e-12),
                                      rel=1e-9, abs=FLOOR)


@pytest.mark.parametrize("kernel,param", [("K", 1e-4), ("K", 1e-2), ("K", 1.0),
                                          ("G", 1e-3), ("G", 2.0), ("G", 8.0)])
def test_kernel_transforms_match_oracle(kernel, param):
    if kernel == "K":
        transform, oracle = kato._heat_kernel(H2, param).transform, _oracle_heat
    else:
        transform, oracle = kato._green_kernel(H2, param).transform, _oracle_green
    for d in DISTANCES:
        value, err = transform(float(d), 0.0)
        want = oracle(param, float(d))
        assert value == pytest.approx(want, rel=1e-9, abs=FLOOR)
        if value > 1e-250:
            assert err >= abs(value - want)


def test_heat_kernel_is_vectorized():
    grid = np.array([[0.0, 1e-9, 0.3], [1.0, 2.5, 6.0]])
    got = heat_kernel_radial(H2, 0.4, grid)
    assert got.shape == grid.shape
    for d, value in zip(grid.ravel(), got.ravel()):
        assert value == pytest.approx(heat_kernel_radial(H2, 0.4, float(d)), rel=1e-13)
    assert isinstance(heat_kernel_radial(H2, 0.4, 0.3), float)
    # p_t is even and smooth in d: at 0 it is its value at 1e-9
    assert got[0, 0] == pytest.approx(got[0, 1], rel=1e-15)


def test_transform_error_reaches_eta(monkeypatch):
    v = coulomb(H2)
    value, err = kato._fubini_b(v, 0.0, kato._heat_kernel(H2, 0.01))
    assert err < 1e-7 * value
    transform = kato._h2_millson

    def inflated(*args, **kwargs):
        val, e = transform(*args, **kwargs)
        return val, np.maximum(e, 1e-6 * np.abs(val))

    monkeypatch.setattr(kato, "_h2_millson", inflated)
    inflated_value, inflated_err = kato._fubini_b(v, 0.0, kato._heat_kernel(H2, 0.01))
    assert inflated_value == value
    assert inflated_err >= 1e-6 * value


def test_long_times_are_rejected():
    with pytest.raises(DomainError):
        kato._heat_kernel(H2, 5000.0)


# ---------------------------------------------------------------------------
# QUADPACK budgets: an H^2 kernel value is not a QUADPACK call, and neither
# is the radial integral around it

def test_quadpack_budget_eta(evaluations):
    kato.kato_eta(coulomb(H2), 0.01, [H2.origin()])
    assert evaluations.quadpack == 0


def test_quadpack_budget_eta_offcentre(evaluations):
    kato.kato_eta(coulomb(H2), 0.01, [H2.origin(), geodesic_point(H2, 0.5)])
    assert evaluations.quadpack == 0


def test_quadpack_budget_resolvent(evaluations):
    kato.resolvent_constant(coulomb(H2), 8.0, [H2.origin()])
    assert evaluations.quadpack == 0


def test_quadpack_budget_verdict(evaluations):
    kato.kato_verdict(coulomb(H2), (1e-4, 1e-3, 1e-2, 1e-1), [H2.origin()])
    assert evaluations.quadpack == 0
