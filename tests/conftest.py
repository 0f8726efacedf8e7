"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` draws the same examples
on every run and prints the blob that reproduces a failure: CI keeps no
example database, so fresh random draws could let an old, rare
counterexample fail an unrelated change.  Local runs stay random.

A passed test's captured output is reported (``pytest -rP``) only for the
acceptance gate, whose lines carry its numbers; the CLI tests' printed
lines would bury them.  A failed test's output is always reported."""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item):
    report = yield
    if report.passed and item.path.name != "test_acceptance.py":
        report.sections = []
    return report
