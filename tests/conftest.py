"""Shared pytest set-up: one fixed hypothesis profile for the whole suite.

Every run draws the same examples (``derandomize``), keeps no example
database between runs, and sets no per-example deadline, so a slow host
cannot fail a test on timing alone.
"""
from hypothesis import settings

settings.register_profile("percept", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("percept")
