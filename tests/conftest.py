"""Hypothesis draws the same examples in every run.

Property tests run on a shared machine whose speed drifts, so no example
has a deadline, and examples are derived from each test's own source
rather than from a random seed, which keeps a failure reproducible.
"""

import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import settings

from katoform.potentials import Potential

settings.register_profile("katoform", deadline=None, derandomize=True)
settings.load_profile("katoform")


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of QUADPACK calls and of |v| array calls (and the points they take).

    A QUADPACK call is one of scipy.integrate.quad, made through scipy or
    through any name a katoform module binds to it.
    """
    counts = SimpleNamespace(quadpack=0, radial_calls=0, radial_points=0)
    quad, abs_radial = scipy.integrate.quad, Potential.abs_radial

    def counted_quad(*args, **kwargs):
        counts.quadpack += 1
        return quad(*args, **kwargs)

    def counted_abs_radial(self, r, **kwargs):
        counts.radial_calls += 1
        counts.radial_points += int(np.size(r))
        return abs_radial(self, r, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted_quad)
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "katoform":
            for attr, value in list(vars(module).items()):
                if value is quad:
                    monkeypatch.setattr(module, attr, counted_quad)
    monkeypatch.setattr(Potential, "abs_radial", counted_abs_radial)
    return counts


@pytest.fixture
def traced_peak():
    """Peak traced bytes while run() runs; numpy reports its buffers on every thread."""

    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
