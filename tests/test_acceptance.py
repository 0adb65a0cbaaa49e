"""End-to-end battery: every headline claim of verlinde.claims at full scale.

One test per claim, each a single pass/fail line under pytest -v.  The
claims themselves, with their levels, samples and tolerances, live in
verlinde.claims, which `verlinde selftest` runs too; a failure message
names the route that broke.
"""

import time

import pytest

from verlinde import claims


@pytest.mark.parametrize(("name", "check"), claims.CLAIMS, ids=[name for name, _ in claims.CLAIMS])
def test_claim(name, check):
    start = time.monotonic()
    check(quick=False)
    if name == "graph-independence":
        # the exact counting routes through genus 3, level 8 stay interactive
        assert time.monotonic() - start < 30.0

