"""Hypothesis profiles for the bundler property tests.

``HYPOTHESIS_PROFILE=ci python -m pytest tests/test_bundlers`` runs every
property test that does not pin its own ``max_examples`` with ten times
hypothesis's default, a deeper check that the generated codecs match the
interpreted walk.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
