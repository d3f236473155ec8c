"""Hypothesis draws the same examples on every run: the profile is
derandomized and keeps no example database, so a Tier-1 run does not
depend on earlier runs or on a random seed.  Each test's own
``@settings`` (its ``max_examples``) still applies on top of it."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
