"""Shared pytest set-up: one fixed hypothesis profile for the whole suite.

Every run draws the same examples (``derandomize``), keeps no example
database between runs, and sets no per-example deadline, so a slow host
cannot fail a test on timing alone.
"""
import sys

from hypothesis import settings

# mpmath is the tests' one reference library: an import of scipy fails here
sys.modules["scipy"] = None

settings.register_profile("percept", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("percept")
