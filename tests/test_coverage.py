"""Error bars of the graded-panel route cover the QUADPACK oracle.

For random radial potentials (sums of c_i |r - s_i|^-p_i with every p_i
below the Kato threshold at its radius, and bumps) on R^1-R^3, H^2 and
H^3, with probes at the centre and at each s_i, eta(t), C_r, (on
transient spaces) C_0 and the small-ball integral (weight 1, and h_m
from dimension 2) from kato._fubini_b must agree with
nested_oracle.quadpack_fubini_b, the same kernel integrated by QUADPACK
one node at a time, within the sum of both error estimates plus 4 ulp.
Both routes share the kernel formulas, so this checks the radial
quadrature and its error bars, divergence included (both +inf).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katoform import kato
from katoform.geometry import EUCLIDEAN, HYPERBOLIC, ModelSpace, h_kernel
from katoform.potentials import Potential, bump
from nested_oracle import quadpack_fubini_b

SPACES = [ModelSpace(EUCLIDEAN, 1), ModelSpace(EUCLIDEAN, 2), ModelSpace(EUCLIDEAN, 3),
          ModelSpace(HYPERBOLIC, 2), ModelSpace(HYPERBOLIC, 3)]


def power_sum(space, terms):
    """sum of c |r - s|^-p over terms (c, s, p), each s declared singular."""
    def radial(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return sum(c * np.abs(r - s) ** -p for c, s, p in terms)

    return Potential(space=space, radial=radial, name="power_sum",
                     singular_radii=tuple(sorted({s for _, s, _ in terms})))


@st.composite
def potentials(draw, space):
    if draw(st.booleans()):
        return bump(space, draw(st.floats(0.5, 3.0)), draw(st.floats(0.3, 2.0)))
    # Kato iff p < 2 at the centre (p < 1 on the line) and p < 1 at a shell;
    # the margins keep the oracle's QUADPACK calls short
    centre_top = 0.7 if space.dim == 1 else 1.5
    terms = [(draw(st.floats(0.2, 2.0)), 0.0, draw(st.floats(0.1, centre_top)))]
    if draw(st.booleans()):
        terms.append((draw(st.floats(0.2, 2.0)), draw(st.sampled_from([0.5, 1.25])),
                      draw(st.floats(0.1, 0.7))))
    return power_sum(space, terms)


def kernels(space, t, r, radius):
    out = [kato._heat_kernel(space, t), kato._green_kernel(space, r)]
    if kato._transient(space):
        out.append(kato._green_kernel(space, 0.0))
    out.append(kato._ball_kernel(radius, lambda rho: 1.0))
    if space.dim >= 2:
        out.append(kato._ball_kernel(radius, lambda rho: h_kernel(space.dim, rho)))
    return out


def covered(new, oracle):
    (value, err), (want, want_err) = new, oracle
    if math.isinf(value) or math.isinf(want):
        return value == want
    return abs(value - want) <= err + want_err + 4.0 * math.ulp(max(abs(value), abs(want)))


@pytest.mark.parametrize("space", SPACES, ids=[f"{sp.kind[0]}{sp.dim}" for sp in SPACES])
@settings(max_examples=4)
@given(data=st.data(), t=st.sampled_from([1e-3, 1e-2, 0.1]), r=st.sampled_from([1.0, 8.0]),
       radius=st.sampled_from([0.3, 0.75]))
def test_error_bars_cover_the_oracle(space, data, t, r, radius):
    v = data.draw(potentials(space))
    for b in {0.0, *v.singular_radii}:
        for kernel in kernels(space, t, r, radius):
            new = kato._fubini_b(v, b, kernel)
            oracle = quadpack_fubini_b(v, b, kernel)
            assert covered(new, oracle), (v.name, b, kernel.reach, new, oracle)


@pytest.mark.xfail(strict=True, reason="FOUND: a kink inside a panel (the bump's edge) can "
                   "leave the 7-point Gauss and 15-point Kronrod values agreeing by accident, "
                   "so an unsplit panel's estimate undershoots its error")
def test_kink_inside_an_unsplit_panel():
    # the edge of this bump lies inside a plain panel that is never bisected;
    # the value misses the oracle by 7.5 times its error
    space = ModelSpace(EUCLIDEAN, 3)
    v = bump(space, 1.0, 1.4400000000000002)
    kernel = kato._heat_kernel(space, 0.1)
    assert covered(kato._fubini_b(v, 0.0, kernel), quadpack_fubini_b(v, 0.0, kernel))
