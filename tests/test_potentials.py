"""Radial potential constructors: values, declared singularities, sign parts, param checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katoform.errors import DomainError
from katoform.geometry import EUCLIDEAN, ModelSpace
from katoform.potentials import (Potential, _safe_inverse_power, bump, constant,
                                 coulomb, inverse_power, inverse_square, tabulated)

E3 = ModelSpace(EUCLIDEAN, 3)


def test_coulomb_values_and_singularity():
    v = coulomb(E3, strength=2.0)
    r = np.array([0.5, 1.0, 4.0])
    assert np.allclose(v.radial(r), [4.0, 2.0, 0.5])
    assert v.singular_radii == (0.0,)
    assert v.radial(np.array([0.0]))[0] == math.inf
    assert v.abs_radial(0.0) == math.inf
    assert coulomb(E3, strength=-1.0).radial(0.0) == -math.inf
    assert coulomb(E3, strength=-1.0).abs_radial(np.array([0.0, 2.0])).tolist() == [math.inf, 0.5]


def first_inverse_power(r, p, s):
    """The profile as first written: a power, a division and a patch at r = 0."""
    r = np.asarray(r, dtype=float)
    out = s / np.power(r, p)
    return np.where(r == 0.0, np.sign(s) * np.inf, out)


def limit_at_origin(p, s):
    """lim_{r -> 0+} s / r^p."""
    if s == 0 or p < 0:
        return 0.0
    return math.copysign(math.inf, s) if p > 0 else s


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


# radii are nonnegative; every draw also carries 0, subnormals, 1 and inf
RADII = st.lists(st.floats(min_value=0.0, allow_nan=False), max_size=30).map(
    lambda xs: np.array(xs + [0.0, 5e-324, 2.2e-308, 1.0, math.inf]))


@settings(max_examples=300)
@given(r=RADII, p=st.sampled_from([0, 0.5, 1, 1.0, 2, 2.0, 2.5, -1]),
       s=st.floats(allow_nan=False, allow_infinity=False))
def test_safe_inverse_power_is_the_first_formula_bit_for_bit(r, p, s):
    # for p > 0 and s != 0, bit for bit; otherwise the first formula's
    # patch (+-inf at r = 0) is wrong, and the zero potential is 0 everywhere
    with np.errstate(all="ignore"):
        want = first_inverse_power(r, p, s)
        if s == 0:
            want = np.zeros_like(r)
        elif p <= 0:
            want = np.where(r == 0.0, limit_at_origin(p, s), want)
        got = _safe_inverse_power(r, p, s)
        pot = inverse_power(E3, power=p, strength=s)
        out = np.empty_like(r)
        assert pot.abs_radial(r, out=out) is out
        if p > 0 and s != 0:
            assert bits(got) == bits(want)
            assert bits(_safe_inverse_power(float(r[0]), p, s)) == bits(want[0])
            assert bits(out) == bits(np.abs(want))
        else:       # a zero limit may carry the sign of s
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(_safe_inverse_power(float(r[0]), p, s), want[0])
            np.testing.assert_array_equal(out, np.abs(want))


@settings(max_examples=300)
@given(p=st.one_of(st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]),
                   st.floats(min_value=-3.0, max_value=3.0)),
       s=st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False)))
def test_inverse_power_declares_what_its_expression_implies(p, s):
    pot = inverse_power(E3, power=p, strength=s)
    want = limit_at_origin(p, s)
    assert pot.radial(np.array([0.0]))[0] == want
    assert pot.radial(0.0) == want
    assert pot.abs_radial(0.0) == abs(want)
    singular = p > 0 and s != 0
    assert pot.singular_radii == ((0.0,) if singular else ())
    assert pot.singular_power == (p if singular else None)


def test_named_powers_are_inverse_power():
    for make, p in ((coulomb, 1.0), (inverse_square, 2.0)):
        v, w = make(E3, strength=-1.5), inverse_power(E3, power=p, strength=-1.5)
        r = np.array([0.0, 0.3, 1.7, math.inf])
        assert bits(v.radial(r)) == bits(w.radial(r))
        assert (v.singular_radii, v.singular_power) == (w.singular_radii, w.singular_power)
        assert v.params == {"strength": -1.5}


def test_inverse_power_and_square():
    v2 = inverse_square(E3)
    vp = inverse_power(E3, power=2.0)
    r = np.array([0.3, 1.7])
    assert np.allclose(v2.radial(r), vp.radial(r))
    assert np.allclose(v2.radial(r), 1.0 / r ** 2)


def test_constant_and_bump():
    c = constant(E3, value=-3.0)
    assert np.allclose(c.radial(np.array([0.0, 5.0])), -3.0)
    b = bump(E3, amplitude=2.0, radius=1.5)
    assert b.radial(np.array([0.0]))[0] == pytest.approx(2.0)
    assert b.radial(np.array([1.5]))[0] == 0.0
    assert b.radial(np.array([2.0]))[0] == 0.0
    mid = 2.0 * (1.0 - (0.75 / 1.5) ** 2) ** 2
    assert b.radial(np.array([0.75]))[0] == pytest.approx(mid, rel=1e-14)
    assert b.singular_radii == ()


def test_bump_is_zero_far_outside_its_support():
    # (r/R)^2 once overflowed past r = 1e154, which the form-bound search reaches on R^2
    b = bump(E3, amplitude=2.0, radius=1.5)
    assert b.radial(np.array([1e155, 1e300, math.inf])).tolist() == [0.0, 0.0, 0.0]


def test_abs_radial():
    v = constant(E3, value=-3.0)
    r = np.array([1.0, 2.0])
    assert np.allclose(v.abs_radial(r), 3.0)


def test_tabulated_interpolation():
    v = tabulated(E3, radii=[0.0, 1.0, 2.0], values=[5.0, 3.0, 1.0])
    r = np.array([0.0, 0.5, 1.5, 2.0])
    assert np.allclose(v.radial(r), [5.0, 4.0, 2.0, 1.0])
    # ends are clamped beyond the table
    assert v.radial(np.array([3.0]))[0] == 1.0


# each scalar constructor with valid params, and the names of those params
CONSTRUCTORS = {
    "coulomb": (coulomb, {"strength": 1.0}),
    "inverse_square": (inverse_square, {"strength": 1.0}),
    "inverse_power": (inverse_power, {"power": 1.5, "strength": 1.0}),
    "constant": (constant, {"value": 1.0}),
    "bump": (bump, {"amplitude": 1.0, "radius": 1.0}),
}
NON_FINITE_CASES = [(name, param, bad) for name, (_, params) in CONSTRUCTORS.items()
                    for param in params for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("name,param,bad", NON_FINITE_CASES,
                         ids=[f"{n}-{p}-{b}" for n, p, b in NON_FINITE_CASES])
def test_constructors_refuse_non_finite_params(name, param, bad):
    # a nan strength once built a potential whose Kato functional read +inf
    make, params = CONSTRUCTORS[name]
    make(E3, **params)
    with pytest.raises(DomainError, match="finite"):
        make(E3, **dict(params, **{param: bad}))


@pytest.mark.parametrize("radius", [0.0, -1.0, -0.0])
def test_bump_refuses_a_radius_that_leaves_no_support(radius):
    # r < R holds nowhere, so the bump would be the zero potential
    with pytest.raises(DomainError, match="positive finite radius"):
        bump(E3, amplitude=1.0, radius=radius)


@pytest.mark.parametrize("field", ["radii", "values"])
def test_tabulated_rejects_non_finite(field):
    table = {"radii": [0.0, 1.0, 2.0], "values": [1.0, 0.5, 0.0]}
    table[field][1] = math.nan
    with pytest.raises(DomainError, match="finite"):
        tabulated(E3, **table)


def test_negative_singular_radius_rejected():
    with pytest.raises(DomainError):
        Potential(space=E3, radial=lambda r: np.asarray(r) * 0.0,
                  singular_radii=(-1.0,))
