"""Hypothesis profiles for the property tests.

The ``ci`` profile replays the same examples on every run and lifts the
per-example deadline, which J properties on five strands can exceed on a
slow runner. Select it with ``HYPOTHESIS_PROFILE=ci``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
