"""Every family's attached completion order against the walk, on the full
grids.

Tier-1 runs a seeded sample of these cases
(``tests/test_one_f_one_b_order.py``,
``tests/test_gpipe_and_interleaved_orders.py``); this module, which the
default collection skips by its name, runs every one of them in a CI
step of its own::

    PYTHONPATH=src python -m pytest -q tests/exhaustive_orders.py
"""

import pytest

from .order_cases import FAMILIES, mismatches, searched, small_grid


@pytest.mark.parametrize("name", FAMILIES)
def test_every_small_pipeline(name):
    assert list(mismatches(small_grid(name))) == []


@pytest.mark.parametrize("name", FAMILIES)
def test_every_searched_candidate(name):
    assert list(mismatches(searched(name))) == []
