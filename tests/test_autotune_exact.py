"""Bound-first ``autotune`` against the simulate-everything loop it replaced.

``repro.perf.autotune`` bounds every candidate with the critical-path
closed form and simulates only those the bound cannot rule out.  These
tests hold its answer to the old loop's (``tests/reference_autotune.py``)
element for element with ``==``, construct the tie that the pruning
margin exists for, and plant the two defects the comparison must catch.
The bound's own admissibility is ``tests/test_sim_properties.py``'s.
"""

import sys
from dataclasses import replace
from functools import cache

import pytest

import repro.sim
from repro.config import TABLE1_ROWS, fig14_model
from repro.hardware import dgx_a100
from repro.obs.tracer import trace
from repro.perf import autotune, enumerate_configs
from repro.sim import IterationPricing, price_iteration

from . import reference_autotune
from .test_autotune import SMALL

#: ``repro.perf.autotune`` the attribute is the function.
autotune_module = sys.modules["repro.perf.autotune"]

#: name -> (model, GPUs, global batch, ``enumerate_configs`` keywords)
SEARCHES = {
    **{
        f"table1-row{i}":
            (row.model, row.num_gpus, row.parallel.global_batch_size, {})
        for i, row in enumerate(TABLE1_ROWS[:7])
    },
    "small-16": (SMALL, 16, 32, {}),
    "small-8": (SMALL, 8, 16, {}),
    "fig14-32": (fig14_model(), 32, 64, {}),
    "fig14-64": (fig14_model(), 64, 128, {}),
    "small-16-no-recompute": (SMALL, 16, 32, {"recompute": False}),
    "small-16-v4": (SMALL, 16, 32, {"chunk_candidates": (1, 2, 4)}),
    "fig14-64-t2": (fig14_model(), 64, 128, {"max_tensor_parallel": 2}),
}


def identity(scored):
    return scored.parallel, scored.options


def assert_equals(got, want):
    """``got`` is ``want`` element for element; a candidate the search
    lost is named in one line."""
    kept = {identity(s) for s in got}
    for place, s in enumerate(want, 1):
        assert identity(s) in kept, (
            f"went missing from the top {len(want)}: place {place}, "
            f"{s.describe()}"
        )
    assert [(*identity(s), s.result) for s in got] == [
        (*identity(s), s.result) for s in want]


def assert_equals_reference(name, top_k):
    model, gpus, batch, keywords = SEARCHES[name]
    assert_equals(
        autotune(model, gpus, batch, top_k=top_k, **keywords),
        reference_autotune.autotune(
            model, gpus, batch, top_k=top_k, **keywords),
    )


@cache
def reference_ranking(name):
    """Every candidate, ranked by the old loop (whose sort does not
    depend on ``top_k``: it slices the same list)."""
    model, gpus, batch, keywords = SEARCHES[name]
    candidates = sum(1 for _ in enumerate_configs(
        model, gpus, batch, **keywords))
    return reference_autotune.autotune(
        model, gpus, batch, top_k=candidates, **keywords)


class TestEqualsExhaustiveSearch:
    @pytest.mark.parametrize("name", SEARCHES)
    def test_every_top_k(self, name):
        model, gpus, batch, keywords = SEARCHES[name]
        ranking = reference_ranking(name)
        assert len(ranking) > 5
        for top_k in (1, 5, len(ranking)):
            got = autotune(model, gpus, batch, top_k=top_k, **keywords)
            assert_equals(got, ranking[:top_k])

    def test_reference_slices_one_ranking(self):
        assert_equals(
            reference_autotune.autotune(SMALL, 16, 32, top_k=5),
            reference_ranking("small-16")[:5],
        )

    def test_search_is_reported_to_the_tracer(self):
        candidates = len(reference_ranking("small-16"))
        with trace() as tracer:
            autotune(SMALL, 16, 32, top_k=3)
        count = tracer.metrics.counter_value
        assert count("perf.autotune.candidates") == candidates
        assert 3 <= count("perf.autotune.simulated") < candidates / 4


@pytest.fixture
def tie_at_place_2(monkeypatch):
    """``small-16`` with the candidates ranked second and third given
    one ``iteration_time``, so that place 2 is decided by enumeration
    order alone.  The third is enumerated before the second but bounded
    above it, and the shared time sits under its bound by the rounding
    the bound was measured to overshoot by (4.9e-15 on Table 1): with an
    exact ``>`` the search stops in front of it."""
    model, gpus, batch, keywords = SEARCHES["small-16"]
    enumeration = [parallel for parallel, _ in enumerate_configs(
        model, gpus, batch, **keywords)]
    later, earlier = reference_ranking("small-16")[1:3]
    assert (enumeration.index(earlier.parallel)
            < enumeration.index(later.parallel))
    bound = price_iteration(
        model, earlier.parallel, earlier.options, dgx_a100()
    ).critical_path_bound(earlier.parallel.num_microbatches)
    shared = bound * (1 - 4.9e-15)
    assert later.result.iteration_time < shared < bound
    tied = (earlier.parallel, later.parallel)
    simulate = repro.sim.simulate_iteration

    def simulate_with_tie(config, parallel, **kwargs):
        result = simulate(config, parallel, **kwargs)
        if parallel in tied:
            result = replace(result, iteration_time=shared)
        return result

    monkeypatch.setattr(repro.sim, "simulate_iteration", simulate_with_tie)
    return earlier


class TestTie:
    def test_tie_across_place_k_breaks_in_enumeration_order(
            self, tie_at_place_2):
        model, gpus, batch, keywords = SEARCHES["small-16"]
        got = autotune(model, gpus, batch, top_k=2, **keywords)
        assert identity(got[1]) == identity(tie_at_place_2)
        assert_equals_reference("small-16", top_k=2)
        assert_equals_reference("small-16", top_k=3)


class TestPlantedDefectsAreCaught:
    """Both checks above can fail: each defect turns the comparison red,
    naming the candidate the search lost."""

    @pytest.mark.parametrize("name", ["table1-row3", "fig14-32"])
    def test_inflated_bound_prunes_a_better_candidate(self, monkeypatch, name):
        """A bound 1% too high on the interleaved candidates only (one
        1% too high on all of them still visits them in the right order
        and loses nothing): no longer a lower bound."""
        bound = IterationPricing.critical_path_bound

        def inflated(pricing, num_microbatches):
            chunks = len(pricing.stage_costs) // len(pricing.pipe_ranks)
            return bound(pricing, num_microbatches) * (
                1.01 if chunks > 1 else 1.0)

        monkeypatch.setattr(IterationPricing, "critical_path_bound", inflated)
        with pytest.raises(AssertionError, match="went missing .* -> "):
            assert_equals_reference(name, top_k=5)

    def test_exact_comparison_drops_one_side_of_the_tie(
            self, monkeypatch, tie_at_place_2):
        monkeypatch.setattr(autotune_module, "BOUND_MARGIN", 0.0)
        lost = "went missing from the top 2: place 2, "
        with pytest.raises(AssertionError) as caught:
            assert_equals_reference("small-16", top_k=2)
        assert lost + tie_at_place_2.parallel.describe() in str(caught.value)
