"""Shared test settings.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, so reruns of the suite stay bit-identical, and no example
database is written.
"""

from hypothesis import settings

settings.register_profile("sparx", derandomize=True, database=None, deadline=None,
                          max_examples=20, print_blob=False)
settings.load_profile("sparx")
