"""The generators' attached completion orders against the walk: the cases
and the comparison every order test shares.

Each generator attaches its schedule's completion order, computed from a
pass formula per family (``repro.schedule.generators``), so a generated
schedule is never walked.  A case is ``(name, p, m, v)``;
:func:`mismatches` holds the attached order to
``repro.schedule.execution._walk`` (the whole ``CompletionOrder``,
``==``) and to the per-op walk kept in ``tests/reference_walk.py``.

Tier-1 runs every Table-1 row, the planted defects, the copies and a
seeded sample of the small grid and of the searched candidates
(``tests/test_one_f_one_b_order.py``,
``tests/test_gpipe_and_interleaved_orders.py``);
``tests/exhaustive_orders.py`` runs the full grids of every family, in a
CI step of its own:
``PYTHONPATH=src python -m pytest -q tests/exhaustive_orders.py``.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.config import TABLE1_ROWS
from repro.perf import enumerate_configs
from repro.schedule import completion_order, execution, generators

from . import reference_walk

FAMILIES = ("gpipe", "1f1b", "interleaved", "interleaved-gpipe")

#: Built by the generator functions, not ``make_schedule``: each case
#: computes its order afresh, whatever a planted defect patched.
BUILD = {
    "gpipe": lambda p, m, v: generators.gpipe_schedule(p, m),
    "1f1b": lambda p, m, v: generators.one_f_one_b_schedule(p, m),
    "interleaved": lambda p, m, v: generators.interleaved_schedule(p, m, v),
    "interleaved-gpipe":
        lambda p, m, v: generators.interleaved_gpipe_schedule(p, m, v),
}


def chunked(name: str) -> bool:
    return name.startswith("interleaved")


def small_grid(name: str) -> list[tuple]:
    """Every small pipeline of a family: p <= 24 and m <= 80 with one
    chunk; with v = 2..4 chunks, p = 2..12 and every multiple m of p up
    to 48."""
    if not chunked(name):
        return [(name, p, m, 1) for p in range(1, 25) for m in range(1, 81)]
    return [(name, p, m, v) for p in range(2, 13) for m in range(p, 49, p)
            for v in range(2, 5)]


def table1(name: str) -> list[tuple]:
    """Every Table-1 row's (p, m); at v = 2 for the chunked families,
    where m is a multiple of p >= 2."""
    shapes = sorted({(row.parallel.p, row.parallel.num_microbatches)
                     for row in TABLE1_ROWS})
    if not chunked(name):
        return [(name, p, m, 1) for p, m in shapes]
    return [(name, p, m, 2) for p, m in shapes if p >= 2 and m % p == 0]


@lru_cache(maxsize=None)
def _searched_shapes() -> tuple[tuple, tuple]:
    """The (p, m, v) of every candidate the autotuner enumerates for
    Table-1 rows 0-9: its 1F1B ones (v = 1) and its interleaved ones."""
    one, many = set(), set()
    for row in TABLE1_ROWS[:10]:
        for parallel, _ in enumerate_configs(
                row.model, row.num_gpus, row.parallel.global_batch_size):
            (many if parallel.v > 1 else one).add(
                (parallel.p, parallel.num_microbatches, parallel.v))
    return tuple(sorted(one)), tuple(sorted(many))


def searched(name: str) -> list[tuple]:
    """The searched shapes, one-chunk ones for a one-chunk family."""
    one, many = _searched_shapes()
    return [(name, *shape) for shape in (many if chunked(name) else one)]


def sample(cases: list[tuple], k: int, seed: int = 39) -> list[tuple]:
    """A fixed, seeded sample of ``k`` cases, in grid order."""
    chosen = set(random.Random(seed).sample(range(len(cases)), k))
    return [case for i, case in enumerate(cases) if i in chosen]


def mismatches(cases):
    """Yield ``(name, p, m, v, what)`` for every case whose attached
    order is not exactly the walk's, lazily, so a red run can stop at
    its first."""
    for name, p, m, v in cases:
        schedule = BUILD[name](p, m, v)
        if "_completion_order" not in schedule.__dict__:
            yield name, p, m, v, "no order attached"
            continue
        order = completion_order(schedule)
        if not all(type(field) is tuple and all(type(x) is int for x in field)
                   for field in order):
            yield name, p, m, v, "a field is not a tuple of Python ints"
        if order != execution._walk(schedule):
            yield name, p, m, v, "differs from _walk"
        elif reference_walk.execute(schedule) != [
                (rank, schedule.ops[rank][index])
                for rank, index in zip(order.rank, order.index)]:
            yield name, p, m, v, "differs from the reference walk"


# -- planted defects: one off-by-one per pass formula --------------------------

def steady_pass_off_by_one(j, p):
    """1F1B's ``G(j)`` with ``floor((j - 1) / p)`` read as ``floor(j / p)``."""
    return j - j // p


def wraps_off_by_one(g, v):
    """GPipe's ``h(g)`` with ``floor(g / v)`` read as ``floor((g + 1) / v)``."""
    return g - (g + 1) // v


def chain_off_by_one(p, m, v):
    """Interleaved 1F1B's last-rank passes with the first backward that
    waits for rank 0, B(p), one pass late: ``beta(p - p) + p`` for
    ``beta(p - p) + p - 1``."""
    phi, beta = REAL_LAST_RANK_PASSES(p, m, v)
    beta = list(beta)
    beta[p] += 1
    return phi, beta


REAL_LAST_RANK_PASSES = generators._last_rank_passes

#: family -> (the ``generators`` attribute holding its pass formula, the
#: planted off-by-one, the schedule names that formula serves).
PLANTED = {
    "1f1b": ("_steady_pass", steady_pass_off_by_one, {"1f1b"}),
    "gpipe": ("_wraps", wraps_off_by_one,
              {"gpipe", "interleaved-gpipe", "interleaved"}),
    "interleaved": ("_last_rank_passes", chain_off_by_one, {"interleaved"}),
}
PLANTED["interleaved-gpipe"] = PLANTED["gpipe"]  # one formula, both families
