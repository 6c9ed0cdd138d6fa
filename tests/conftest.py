"""One deterministic hypothesis profile for every property suite: fixed
example generation, no deadline and no example database, so a suite reads
the same on every run. Per-test settings still override it."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
