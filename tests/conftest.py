"""Shared test settings and fixtures.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, so reruns of the suite stay bit-identical, and no example
database is written. One real ``sparx verify`` run is shared by every test
that reads its report. ``traced_peak`` is the one way tests measure memory.
"""

import json
import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("sparx", derandomize=True, database=None, deadline=None,
                          max_examples=20, print_blob=False)
settings.load_profile("sparx")


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """(exit code, parsed verify_report.json, output directory) of one `sparx verify` run."""
    from sparx.cli import main

    out = tmp_path_factory.mktemp("verify")
    code = main(["verify", "--out", str(out)])
    return code, json.loads((out / "verify_report.json").read_text()), out


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
