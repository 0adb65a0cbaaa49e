"""End-to-end battery: every headline claim of verlinde.claims at full scale.

One test per claim, each a single pass/fail line under pytest -v.  The
claims themselves, with their levels, samples and tolerances, live in
verlinde.claims, which `verlinde selftest` runs too.  The two tests after
test_claim run the halves of `graph-independence` on their own, so a failure
there names the route that broke.
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


def test_verlinde_triple_agreement():
    # weight count on every genus-2/3 graph = character sum = closed form, k <= 8
    claims.count_routes(8)


def test_graph_independence_of_weight_counts():
    # theta and dumbbell: equal counts, each equal to its listed weights, k <= 12
    claims.theta_dumbbell(12)
