"""Shared test configuration.

Property tests run under a fixed Hypothesis profile: examples are derived
from each test's own source rather than a random seed, so every run checks
the same cases, and no per-example deadline applies, so a slow host cannot
turn a correct result into a failure.  No example database is kept.
"""

from hypothesis import settings

settings.register_profile("golaypairs", derandomize=True, deadline=None, database=None)
settings.load_profile("golaypairs")
