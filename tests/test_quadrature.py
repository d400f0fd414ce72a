"""Graded panels and condensation classification in radial_integral against closed forms.

Every integrand takes an array of radii, as radial_integral passes them.

Frozen reference values:

  * integral_0^1 w^beta dw = 1/(beta + 1) for beta > -1, divergent otherwise.
  * integral_0^1 |w - 1/2|^beta dw = 2^{-beta} / (beta + 1) for beta > -1.
  * integral_0^a dw / (w log^gamma(1/w)) = (log 1/a)^{1 - gamma} / (gamma - 1)
    for gamma > 1, divergent for gamma <= 1 (the log_sq family; with
    a = 1/e the value is 1/(gamma - 1)).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katoform.errors import UndecidedError
from katoform.quadrature import (_GAUSS_7, _KRONROD, _KRONROD_NODES, _KRONROD_WEIGHTS,
                                 _PANEL_ROUNDS, classify_windows, panel_integral,
                                 radial_integral)

CUT = math.exp(-1.0)


def within_error(got, want):
    value, err = got
    return math.isfinite(value) and abs(value - want) <= err


@settings(max_examples=25)
@given(beta=st.floats(min_value=-0.9, max_value=2.0))
def test_power_at_declared_zero_converges(beta):
    got = radial_integral(lambda w: w ** beta, 1.0, singular=[0.0])
    assert within_error(got, 1.0 / (beta + 1.0))


@settings(max_examples=25)
@given(beta=st.floats(min_value=-3.0, max_value=-1.0))
def test_power_at_declared_zero_diverges(beta):
    assert radial_integral(lambda w: w ** beta, 1.0, singular=[0.0]) == (math.inf, math.inf)


def shell(beta, below=True, above=True):
    # |w - 1/2|^beta on the chosen sides of the shell, 1 on the others
    def g(w):
        side = np.where(w < 0.5, below, above)
        return np.where(side, np.abs(w - 0.5) ** beta, 1.0)
    return g


def test_shell_classified_on_both_sides():
    assert within_error(radial_integral(shell(-0.5), 1.0, singular=[0.5]),
                        2.0 ** 0.5 / 0.5)
    assert radial_integral(shell(-1.0), 1.0, singular=[0.5]) == (math.inf, math.inf)
    # a divergence on one side alone is found from either side
    for below in (True, False):
        g = shell(-1.5, below=below, above=not below)
        assert radial_integral(g, 1.0, singular=[0.5]) == (math.inf, math.inf)


@pytest.mark.parametrize("below", [True, False], ids=["below", "above"])
def test_shell_log_side_takes_the_fitted_tail(below):
    # 1 / (x log^2(1/x)) on one side of the shell: 1/log 2 there, 1/2 on the other
    def g(w):
        x = np.abs(w - 0.5)
        return np.where((w < 0.5) == below, 1.0 / (x * np.log(1.0 / x) ** 2), 1.0)
    assert within_error(radial_integral(g, 1.0, singular=[0.5]), 1.0 / math.log(2.0) + 0.5)


def log_sq_bare(gamma):
    return radial_integral(lambda w: 1.0 / (w * np.log(1.0 / w) ** gamma), CUT,
                           singular=[0.0])


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_log_sq_bare_diverges(gamma):
    assert log_sq_bare(gamma) == (math.inf, math.inf)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_log_sq_bare_converges(gamma):
    assert within_error(log_sq_bare(gamma), 1.0 / (gamma - 1.0))


def test_undecided_exponent_raises():
    # gamma = 1.15 sits between the divergent and the convergent margins
    with pytest.raises(UndecidedError):
        log_sq_bare(1.15)


def test_plain_points_are_not_classified():
    # no condensation window comes near a plain breakpoint
    calls = []

    def g(w):
        calls.append(w)
        return 1.0 + w

    assert radial_integral(g, 1.0, points=[0.5])[0] == pytest.approx(1.5, rel=1e-14)
    assert np.min(np.abs(np.concatenate(calls) - 0.5)) > 1e-3


@pytest.mark.parametrize("offset", [1e-12, -1e-12, 1e-16])
def test_plain_point_beside_a_declared_radius(offset):
    # a breakpoint one rounding away from the shell leaves it its windows
    got = radial_integral(shell(-0.5), 1.0, singular=[0.5], points=[0.5 * (1.0 + offset)])
    assert within_error(got, 2.0 ** 0.5 / 0.5)


def test_classify_windows_sequences():
    assert classify_windows([1.0, 0.5, 0.25]) is None
    geometric = classify_windows([0.5 ** k for k in range(4)])
    assert geometric.kind == "geometric" and geometric.ratio == pytest.approx(0.5)
    assert geometric.tail(0.125) == pytest.approx(0.125)
    assert classify_windows([1.0] * 4).kind == "divergent"
    assert classify_windows([2.0 ** k for k in range(4)]).kind == "divergent"
    # c_k = k^-3: a power with the unread tail sum_{j > 23} j^-3
    power = classify_windows([k ** -3.0 for k in range(20, 24)])
    assert power.kind == "power" and power.gamma == pytest.approx(3.0, rel=0.01)
    exact = sum(j ** -3.0 for j in range(24, 100000))
    assert power.tail(23.0 ** -3.0) == pytest.approx(exact, rel=0.01)
    assert classify_windows([1.0, 0.0, 1.0, 1.0]) is None
    assert classify_windows([1.0, 0.5, math.inf, 1.0]).kind == "divergent"


def test_window_rule_is_gauss_legendre():
    # the 7-point Gauss-Legendre rule embedded in the 15-point Kronrod rule
    x, w = np.polynomial.legendre.leggauss(7)
    nodes = [node for node, _ in _KRONROD[1::2]]
    assert np.allclose(nodes, x[:2:-1], rtol=0.0, atol=1e-15)
    assert np.allclose(_GAUSS_7, w[:2:-1], rtol=0.0, atol=1e-15)
    # the Kronrod rule is exact to degree 22, the Gauss rule to degree 13: the
    # second weight column (their difference) integrates x^k to 0 below 14
    for k in range(23):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        value, diff = _KRONROD_WEIGHTS.T @ _KRONROD_NODES ** k
        assert value == pytest.approx(want, rel=1e-14, abs=1e-15)
        if k < 14:
            assert abs(diff) < 1e-15


# ---------------------------------------------------------------------------
# panel_integral: a batch of integrands on shared Kronrod panels

def test_panel_integral_batch_in_one_round():
    rates = np.array([-50.0, -1.0, 3.0, 30.0])
    calls = [0]

    def F(x):
        calls[0] += 1
        return np.exp(rates[:, None, None] * x)

    values, errors = panel_integral(F, 8)
    want = np.expm1(rates) / rates
    assert values.shape == errors.shape == (4,)
    assert np.all(np.abs(values - want) <= errors + 1e-15 * np.abs(want))
    assert np.all(errors <= 1e-8 * np.abs(want))
    assert calls[0] == 1


def test_panel_integral_bisects_near_a_branch_point():
    # sqrt(x + a) has its branch point a = 1e-4 to the left of 0
    a = 1e-4
    calls = [0]

    def F(x):
        calls[0] += 1
        return np.sqrt(x + a)

    value, err = panel_integral(F, 1)
    want = 2.0 / 3.0 * ((1.0 + a) ** 1.5 - a ** 1.5)
    assert abs(value - want) <= err <= 1e-8 * want
    assert calls[0] > 1


def test_panel_integral_reports_what_it_cannot_reach():
    # sqrt|x - 1/3| has a branch point inside: the panel holding it keeps
    # missing, and after the last round the error says so
    calls = [0]

    def F(x):
        calls[0] += 1
        return np.sqrt(np.abs(x - 1.0 / 3.0))

    value, err = panel_integral(F, 1)
    want = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert calls[0] == _PANEL_ROUNDS + 1
    assert err > 1e-8 * value
    assert abs(value - want) <= err
