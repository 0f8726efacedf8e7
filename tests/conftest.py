"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` draws the same examples
on every run and prints the blob that reproduces a failure: CI keeps no
example database, so fresh random draws could let an old, rare
counterexample fail an unrelated change.  Local runs stay random."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
