"""Hypothesis draws the same examples in every run.

Property tests run on a shared machine whose speed drifts, so no example
has a deadline, and examples are derived from each test's own source
rather than from a random seed, which keeps a failure reproducible.
"""

from hypothesis import settings

settings.register_profile("katoform", deadline=None, derandomize=True)
settings.load_profile("katoform")
