"""Shared test settings: a fixed, bounded hypothesis profile."""

from hypothesis import settings

# derandomized examples keep every run identical; the cap keeps the
# property tests to a few seconds, and no deadline because timings on a
# shared machine vary
settings.register_profile(
    "promisecc", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("promisecc")
