"""Test-wide defaults.

Every hypothesis property test runs derandomized and without a deadline, so
it draws the same examples on every run and a slow, shared host cannot fail
it on timing alone.  A test's own @settings still override other values.
"""

from hypothesis import settings

settings.register_profile("orbitforge", derandomize=True, deadline=None)
settings.load_profile("orbitforge")
