"""``price_iteration`` priced by factor against the pricing it replaced.

``repro.sim.price_iteration`` computes each factor of a candidate once
(leaf layer costs memoised on their frozen arguments, a stage boundary
once per pipeline-rank pair and link class, a group's geometry once per
group).  These tests hold every ``IterationPricing`` field to the old
code's (``tests/reference_pricing.py``) with ``==``, in one process and
in shuffled order so that every memo is warm with *other* candidates'
entries when a case is priced; plant the defect the comparison exists to
catch (a memo whose key forgets an input); hold every bad input to the
``ValueError`` it used to raise; and fail when a field is added to a
spec that a memo key hashes without the grid here varying it.
"""

import random
from dataclasses import fields, replace
from functools import cache
from itertools import product

import pytest

from repro.comm import CommCostModel, ProcessGroups
from repro.config import TABLE1_ROWS, GPTConfig, ParallelConfig
from repro.hardware import (
    GB,
    TB,
    TFLOP,
    ClusterTopology,
    ComputeModel,
    DeviceSpec,
    NodeSpec,
    cluster_for_gpus,
    dgx_a100,
)
from repro.perf import enumerate_configs, layer_costs
from repro.sim import IterationPricing, SimOptions, price_iteration

from . import reference_pricing as reference
from .test_autotune import SMALL

#: A second node with every ``NodeSpec`` and ``DeviceSpec`` field moved:
#: four GPUs sharing two slower cards, so inter-node bandwidth per GPU is
#: a fraction of a card and groups straddle nodes at other ranks.
OTHER_NODE = NodeSpec(
    device=DeviceSpec("V100-32GB", peak_flops=125 * TFLOP,
                      memory_bandwidth=0.9 * TB, memory_capacity=32 * GB,
                      kernel_launch_overhead=6.0e-6),
    gpus_per_node=4, nvlink_bandwidth=150 * GB, ib_bandwidth_per_hca=12.5 * GB,
    num_ib_hcas=2, nvlink_latency=3.0e-6, ib_latency=7.0e-6,
)
NODES = (dgx_a100(), OTHER_NODE)

#: ``price_iteration`` only ever builds the default ``ComputeModel``; the
#: memoised leaves are public and take any.
COMPUTE_MODELS = (
    ComputeModel(device=dgx_a100().device),
    ComputeModel(device=OTHER_NODE.device, max_gemm_efficiency=0.8,
                 m_half=500.0, k_half=200.0, n_half=64.0,
                 elementwise_dtype_size=4),
)

#: Every ``SimOptions`` field that reaches a price, with the values the
#: grid takes the full product of.
OPTION_GRID = {
    "scatter_gather": (True, False),
    "recompute_activations": (True, False),
    "fused_kernels": (True, False),
    "overlap_p2p": (False, True),
    "tp_channels": (2, 1),
    "grad_dtype_size": (2, 4),
    "activation_dtype_size": (2, 4),
}

#: Fields no price depends on.  ``schedule_name`` picks the schedule the
#: simulator walks *after* pricing; a device's name and memory capacity
#: decide what ``enumerate_configs`` lets through, not what it costs.
DOES_NOT_REACH_PRICING = {
    SimOptions: {"schedule_name", "collect_timeline"},
    NodeSpec: set(),
    DeviceSpec: {"name", "memory_capacity"},
    ComputeModel: set(),
}

WIDE = GPTConfig(num_layers=8, hidden_size=2048, num_attention_heads=32,
                 name="wide-heads")


def parallel(p, t, d, b, batch, v=1):
    return ParallelConfig(
        pipeline_parallel_size=p, tensor_parallel_size=t,
        data_parallel_size=d, microbatch_size=b, global_batch_size=batch,
        num_model_chunks=v)


#: (model, parallel) the option grid runs over: pipeline boundaries over
#: InfiniBand with t > 1 (scatter/gather applies) and inside one node
#: (it does not), t = 1, p = 1, chunks that wrap from the last rank to
#: the first, a tensor-parallel group wider than a node (``tp_channels``).
GRID_BASES = (
    (TABLE1_ROWS[4].model, parallel(4, 8, 16, 4, 1536)),
    (TABLE1_ROWS[4].model, parallel(4, 4, 32, 2, 1536, v=2)),
    (SMALL, parallel(4, 2, 1, 1, 8)),
    (SMALL, parallel(2, 1, 8, 2, 32, v=2)),
    (SMALL, parallel(1, 4, 4, 2, 32)),
    (WIDE, parallel(2, 16, 2, 1, 8)),
)


@cache
def option_grid() -> tuple[SimOptions, ...]:
    return tuple(
        SimOptions(**dict(zip(OPTION_GRID, values)))
        for values in product(*OPTION_GRID.values()))


@cache
def pricing_cases() -> tuple:
    """``(config, parallel, options, node, topology fields or None)`` for
    every case, in one fixed shuffled order."""
    cases = [(row.model, row.parallel, SimOptions(), dgx_a100(), None)
             for row in TABLE1_ROWS]
    for row in TABLE1_ROWS[:7]:
        cases += [
            (row.model, par, options, dgx_a100(), None)
            for par, options in enumerate_configs(
                row.model, row.num_gpus, row.parallel.global_batch_size,
                chunk_candidates=(1, 2, 4))
        ]
    assert len(cases) == 10 + 620
    for (config, par), node in product(GRID_BASES, NODES):
        cases += [(config, par, options, node, None)
                  for options in option_grid()]
    # An explicit topology: a cluster larger than the job, its spine
    # groups so small that one pipeline crosses two switch levels.
    spread_out = {"num_nodes": 160, "leaves_per_spine_group": 2}
    for (config, par), node in product(GRID_BASES[:2], NODES):
        cases += [(config, par, options, node, {**spread_out, "node": node})
                  for options in option_grid()[::37]]
    random.Random(23).shuffle(cases)
    return tuple(cases)


def assert_prices_equal_reference():
    """Every case, priced by both sides alternately in one process."""
    wrong = []
    for config, par, options, node, topology in pricing_cases():
        args = (config, par, options, node)
        if topology is None:
            got = price_iteration(*args)
            want = reference.price_iteration(*args)
        else:
            got = price_iteration(*args, ClusterTopology(**topology))
            want = reference.price_iteration(
                *args, reference.ClusterTopology(**topology))
        differing = [f.name for f in fields(IterationPricing)
                     if getattr(got, f.name) != getattr(want, f.name)]
        if differing:
            wrong.append(f"{par.describe()} {options} on "
                         f"{node.device.name}: {', '.join(differing)}")
    assert not wrong, f"{len(wrong)} cases differ, first: {wrong[0]}"


class TestEqualsReferencePricing:
    def test_every_field_of_every_case(self):
        assert_prices_equal_reference()

    def test_the_grid_reaches_every_link_class(self):
        """The comparison means little if all boundaries are alike."""
        classes = set()
        for config, par, options, node, topology in pricing_cases():
            if par.p == 1:
                continue
            topo = (ClusterTopology(**topology) if topology
                    else cluster_for_gpus(par.world_size, node))
            ranks = ProcessGroups(par).pipeline_group(dp=0, tp=0)
            classes |= {topo.hop_count(a, b) for a, b in zip(ranks, ranks[1:])}
        assert classes == {0, 2, 4, 6}

    @pytest.mark.parametrize(
        "model", COMPUTE_MODELS, ids=["default", "every-field-moved"])
    def test_leaf_costs_under_another_compute_model(self, model):
        for config, (b, t), fused in product(
                (SMALL, WIDE, TABLE1_ROWS[4].model),
                ((1, 1), (4, 2), (2, 8), (4, 1)), (True, False)):
            s, h, a = (config.seq_length, config.hidden_size,
                       config.num_attention_heads)
            layer = (model, b, s, h, a, t, config.ffn_hidden_size)
            assert (layer_costs.transformer_layer_cost(*layer, fused=fused)
                    == reference.transformer_layer_cost(*layer, fused=fused))
            logit = (model, b, s, h, config.vocab_size, t)
            assert (layer_costs.logit_layer_cost(*logit)
                    == reference.logit_layer_cost(*logit))
            assert (layer_costs.embedding_cost(model, b, s, h)
                    == reference.embedding_cost(model, b, s, h))
            for first, last in product((False, True), repeat=2):
                stage = dict(is_first=first, is_last=last, fused=fused,
                             recompute=not fused)
                assert (layer_costs.stage_compute_cost(
                            model, config, 2, b, t, **stage)
                        == reference.stage_compute_cost(
                            model, config, 2, b, t, **stage))


def forgetful(function, key):
    """``function`` behind a memo that keys on ``key(*args, **kwargs)``
    only -- the defect a hand-written memo key invites."""
    memo = {}

    def remembered(*args, **kwargs):
        k = key(*args, **kwargs)
        if k not in memo:
            memo[k] = function(*args, **kwargs)
        return memo[k]

    return remembered


class TestPlantedDefectIsCaught:
    """The comparison can fail: a memo that forgets one input of a price
    hands some case another case's number, and it turns red."""

    def test_a_key_without_scatter_gather(self, monkeypatch):
        monkeypatch.setattr(
            CommCostModel, "pipeline_p2p_time",
            forgetful(
                CommCostModel.pipeline_p2p_time,
                lambda self, src, dst, nbytes, t=1, scatter_gather=False:
                    (self, src, dst, nbytes, t)))
        with pytest.raises(AssertionError, match="cases differ.*comm_time"):
            assert_prices_equal_reference()

    def test_a_key_without_channels(self, monkeypatch):
        monkeypatch.setattr(
            CommCostModel, "all_reduce_time",
            forgetful(
                CommCostModel.all_reduce_time,
                lambda self, ranks, nbytes, channels=None:
                    (self, tuple(ranks), nbytes)))
        with pytest.raises(AssertionError, match="cases differ"):
            assert_prices_equal_reference()

    def test_a_leaf_key_without_fused(self, monkeypatch):
        monkeypatch.setattr(
            layer_costs, "transformer_layer_cost",
            forgetful(
                layer_costs.transformer_layer_cost,
                lambda *args, fused=True: args))
        with pytest.raises(AssertionError, match="cases differ.*stage_costs"):
            assert_prices_equal_reference()


class TestKeysAreComplete:
    """A memo key here is a frozen spec hashed whole, so a new field is
    in the key by construction -- but only a field the grid varies is
    *shown* to be.  A field added to one of these four classes must be
    varied above or be declared irrelevant to every price."""

    @staticmethod
    def varied(cls, instances) -> set[str]:
        return {f.name for f in fields(cls)
                if len({getattr(x, f.name) for x in instances}) > 1}

    def test_every_field_is_varied_or_declared_irrelevant(self):
        varied = {
            SimOptions: self.varied(SimOptions, option_grid()),
            NodeSpec: self.varied(NodeSpec, NODES),
            DeviceSpec: self.varied(DeviceSpec, [n.device for n in NODES]),
            ComputeModel: self.varied(ComputeModel, COMPUTE_MODELS),
        }
        assert varied[SimOptions] == set(OPTION_GRID)
        for cls, irrelevant in DOES_NOT_REACH_PRICING.items():
            names = {f.name for f in fields(cls)}
            assert irrelevant <= names, f"stale names for {cls.__name__}"
            unaccounted = names - varied[cls] - irrelevant
            assert not unaccounted, (
                f"{cls.__name__}.{sorted(unaccounted)} is neither varied by "
                "tests/test_pricing_exact.py's grid nor listed in "
                "DOES_NOT_REACH_PRICING")

    @pytest.mark.parametrize("cls", [SimOptions, DeviceSpec])
    def test_a_declared_irrelevant_field_moves_no_price(self, cls):
        other = {"schedule_name": "gpipe", "collect_timeline": True,
                 "name": "renamed", "memory_capacity": 1.0}
        config, par = GRID_BASES[0]
        base = (config, par, SimOptions(), dgx_a100())
        for name in DOES_NOT_REACH_PRICING[cls]:
            options, node = base[2:]
            if cls is SimOptions:
                options = replace(options, **{name: other[name]})
            else:
                node = replace(
                    node, device=replace(node.device, **{name: other[name]}))
            assert (price_iteration(config, par, options, node)
                    == price_iteration(*base))


def error_of(call):
    """The ``ValueError`` message ``call`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


class TestSameErrors:
    """Every bad input still raises, in the words it used to."""

    def test_topology_and_cost_model(self):
        raised = 0
        for new_topo, old_topo in (
            (ClusterTopology(2), reference.ClusterTopology(2)),
            (ClusterTopology(40, OTHER_NODE, 4, 2),
             reference.ClusterTopology(40, OTHER_NODE, 4, 2)),
        ):
            n = new_topo.num_gpus
            new, old = CommCostModel(new_topo), reference.CommCostModel(old_topo)
            ranks = (-1, 0, 1, n // 2, n - 1, n, n + 7)
            for a, b in product(ranks, repeat=2):
                calls = [lambda side, topo: topo.hop_count(a, b)]
                for nbytes, t, sg in product((-1.0, 0.0, 4096.0), (0, 1, 4),
                                             (False, True)):
                    calls.append(lambda side, topo, nbytes=nbytes:
                                 side.p2p_time(a, b, nbytes))
                    calls.append(lambda side, topo, nbytes=nbytes, t=t, sg=sg:
                                 side.pipeline_p2p_time(a, b, nbytes, t, sg))
                for group in ([a, b], [b, 0, a], [a]):
                    for time in ("all_reduce_time", "all_gather_time",
                                 "reduce_scatter_time"):
                        calls.append(lambda side, topo, group=group, time=time:
                                     getattr(side, time)(group, 1024.0))
                for call in calls:
                    want = error_of(lambda: call(old, old_topo))
                    assert error_of(lambda: call(new, new_topo)) == want
                    raised += want is not None
            for group, nbytes in (([], 8.0), ([0, 1], -8.0)):
                want = error_of(lambda: old.all_reduce_time(group, nbytes))
                assert want is not None
                assert error_of(
                    lambda: new.all_reduce_time(group, nbytes)) == want
        assert raised > 1000

    def test_process_groups(self):
        par = parallel(3, 2, 4, 1, 8)
        new, old = ProcessGroups(par), reference.ProcessGroups(par)
        raised = 0
        for group in ("tensor_group", "data_group", "pipeline_group"):
            for a, b in product(range(-1, 6), repeat=2):
                want = error_of(lambda: getattr(old, group)(a, b))
                assert error_of(lambda: getattr(new, group)(a, b)) == want
                if want is None:
                    assert (getattr(new, group)(a, b)
                            == getattr(old, group)(a, b))
                raised += want is not None
        assert raised > 50
