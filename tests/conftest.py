"""One hypothesis profile for the whole suite: no per-example deadline, and
examples derived from each test's source rather than drawn at random, so
that a run's verdict depends only on the code under test."""

from hypothesis import settings

settings.register_profile("ryddecay", deadline=None, derandomize=True)
settings.load_profile("ryddecay")
