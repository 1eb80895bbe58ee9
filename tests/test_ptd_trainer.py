"""Integration tests: full PTD-P composition vs serial training, and DP."""

import numpy as np
import pytest

from repro.comm import TrafficKind, TrafficLog, ring_all_reduce, ring_all_reduce_hops
from repro.comm.primitives import COOP, owned_chunk
from repro.config import GPTConfig, ParallelConfig, tiny_test_model
from repro.nn import Adam, GPTModel
from repro.parallel import PTDTrainer, scatter_batch
from repro.verify.conformance import ConformanceCase, model_for_case

CFG = tiny_test_model(num_layers=4, hidden_size=16, num_attention_heads=4,
                      vocab_size=32, seq_length=8)


def global_batch(B, seed=21):
    r = np.random.default_rng(seed)
    ids = r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length))
    targets = r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length))
    return ids, targets


def serial_losses(ids, targets, steps, lr=1e-2):
    model = GPTModel(CFG, seed=0)
    opt = Adam(model.parameters(), lr=lr)
    out = []
    for _ in range(steps):
        model.zero_grad()
        loss, caches = model.loss(ids, targets)
        model.loss_backward(caches)
        opt.step()
        out.append(loss)
    return model, out


def make_trainer(p=1, t=1, d=1, b=1, B=8, v=1, **kw):
    parallel = ParallelConfig(
        pipeline_parallel_size=p,
        tensor_parallel_size=t,
        data_parallel_size=d,
        microbatch_size=b,
        global_batch_size=B,
        num_model_chunks=v,
    )
    sched = "interleaved" if v > 1 else kw.pop("schedule", "1f1b")
    return PTDTrainer(CFG, parallel, schedule=sched, seed=0, lr=1e-2, **kw)


class TestPTDEquivalence:
    """The headline property: any (p, t, d, v) == serial, bit-exact."""

    @pytest.mark.parametrize(
        "p,t,d,v",
        [
            (1, 1, 1, 1),
            (2, 1, 1, 1),
            (1, 2, 1, 1),
            (1, 1, 2, 1),
            (2, 2, 1, 1),
            (2, 1, 2, 1),
            (1, 2, 2, 1),
            (2, 2, 2, 1),
            (4, 1, 2, 1),
            (2, 1, 1, 2),
            (2, 2, 2, 2),
        ],
    )
    def test_losses_match_serial(self, p, t, d, v):
        B = 8
        trainer = make_trainer(p=p, t=t, d=d, B=B, v=v)
        ids, targets = global_batch(B)
        losses = [trainer.train_step(ids, targets) for _ in range(3)]
        _, want = serial_losses(ids, targets, 3)
        np.testing.assert_allclose(losses, want, rtol=1e-9)

    def test_weights_match_serial(self):
        B = 8
        trainer = make_trainer(p=2, t=2, d=2, B=B)
        ids, targets = global_batch(B)
        for _ in range(3):
            trainer.train_step(ids, targets)
        serial, _ = serial_losses(ids, targets, 3)
        serial_state = serial.state_dict()
        for name, val in trainer.gather_state_dict().items():
            if name == "head.tied":
                continue
            np.testing.assert_allclose(
                val, serial_state[name], rtol=1e-8, atol=1e-11, err_msg=name
            )

    def test_replicas_stay_in_sync(self):
        trainer = make_trainer(d=2, B=8)
        ids, targets = global_batch(8)
        for _ in range(2):
            trainer.train_step(ids, targets)
        p0 = trainer.replicas[0].parameters()
        p1 = trainer.replicas[1].parameters()
        for a, b in zip(p0, p1):
            np.testing.assert_array_equal(a.data, b.data)

    def test_recompute_composition_exact(self):
        B = 8
        t1 = make_trainer(p=2, t=2, d=1, B=B, recompute_activations=False)
        t2 = make_trainer(p=2, t=2, d=1, B=B, recompute_activations=True)
        ids, targets = global_batch(B)
        for _ in range(2):
            l1 = t1.train_step(ids, targets)
            l2 = t2.train_step(ids, targets)
            assert l1 == l2

    def test_rejects_wrong_batch(self):
        trainer = make_trainer(B=8)
        ids, targets = global_batch(4)
        with pytest.raises(ValueError, match="global batch"):
            trainer.train_step(ids, targets)


class TestDataParallelPieces:
    def test_scatter_batch(self):
        ids, targets = global_batch(8)
        shards = scatter_batch(ids, targets, 4)
        assert len(shards) == 4
        np.testing.assert_array_equal(np.concatenate([s[0] for s in shards]), ids)

    def test_scatter_batch_validates(self):
        ids, targets = global_batch(6)
        with pytest.raises(ValueError):
            scatter_batch(ids, targets, 4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ring_phases_compose_to_the_all_reduce(self, k):
        """Reduce-scatter leaves each position its owned chunk of the
        sum; all-gather then hands every position the whole sum, bit for
        bit the all-reduce's, with its hop records tag by tag."""
        rng = np.random.default_rng(k)
        bufs = [rng.standard_normal(11) for _ in range(k)]
        ranks = list(range(10, 10 + k))
        want = ring_all_reduce(bufs, ranks)[0]
        flat = [b.copy() for b in bufs]
        log = TrafficLog()
        COOP.reduce_scatter_phase(flat, ranks, log, tag="rs")
        for i, f in enumerate(flat):
            lo, hi = owned_chunk(11, k, i)
            assert np.array_equal(f[lo:hi], want[lo:hi])
        COOP.all_gather_phase(flat, ranks, log, tag="ag")
        for f in flat:
            assert np.array_equal(f, want)
        got = [(ranks.index(r.src), ranks.index(r.dst), r.nbytes)
               for r in log.records]
        assert got == ring_all_reduce_hops(11, 8, k)
        assert [r.tag for r in log.records] == (
            ["rs"] * (k * (k - 1)) + ["ag"] * (k * (k - 1)))

    @pytest.mark.parametrize("phase", ["reduce_scatter_phase",
                                       "all_gather_phase"])
    def test_ring_phases_validate(self, phase):
        run = getattr(COOP, phase)
        with pytest.raises(ValueError, match="share shape"):
            run([np.zeros(3), np.zeros(4)], [0, 1])
        with pytest.raises(ValueError, match="flat float64"):
            run([np.zeros((2, 2)), np.zeros((2, 2))], [0, 1])
        with pytest.raises(ValueError, match="flat float64"):
            run([np.zeros(3, np.float32)] * 2, [0, 1])

    def test_dp_traffic_logged_once_per_batch(self):
        """§3.3.2: data parallelism communicates once per batch, not per
        microbatch -- DP bytes don't grow with m."""
        def dp_bytes(B):
            log = TrafficLog()
            trainer = make_trainer(d=2, B=B, log=log)
            ids, targets = global_batch(B)
            trainer.train_step(ids, targets)
            return log.total_bytes(TrafficKind.DATA_PARALLEL)

        assert dp_bytes(4) == dp_bytes(8)  # m=2 vs m=4 per replica


# -- the distributed optimizer at ``train_ptd``'s shapes (exact integers) ----
TRAIN_PTD = GPTConfig(num_layers=4, hidden_size=128, num_attention_heads=4,
                      vocab_size=512, seq_length=64, name="bench-train")
TRAIN_PTD_PARALLEL = ParallelConfig(
    pipeline_parallel_size=2, tensor_parallel_size=2, data_parallel_size=2,
    microbatch_size=1, global_batch_size=8,
)
TRAIN_PTD_PARAMETERS = 932_608  # in 79 tensors


@pytest.fixture(scope="module")
def train_ptd_trainer():
    log = TrafficLog()
    trainer = PTDTrainer(TRAIN_PTD, TRAIN_PTD_PARALLEL, seed=0, log=log)
    rng = np.random.default_rng(0)
    shape = (8, 64)
    trainer.train_step(rng.integers(0, 512, size=shape),
                       rng.integers(0, 512, size=shape))
    return trainer


class TestDistributedOptimizer:
    def test_each_replica_keeps_moments_for_its_owned_chunks_only(
            self, train_ptd_trainer):
        """Rank r's moments are 16 bytes for each element of its range
        ``owned_chunk(P, d, r)`` of the flat vector: the ranges tile P."""
        total = 0
        for r, opt in enumerate(train_ptd_trainer.optimizers):
            lo, hi = owned_chunk(TRAIN_PTD_PARAMETERS, 2, r)
            held = opt.m.nbytes + opt.v.nbytes
            assert held == 16 * sum(b - a for a, b in opt.owned) \
                == 16 * (hi - lo)
            total += held
        params = train_ptd_trainer.replicas[0].parameters()
        assert (len(params), sum(p.size for p in params)) == (
            79, TRAIN_PTD_PARAMETERS)
        assert total == 16 * TRAIN_PTD_PARAMETERS

    def test_dp_hops_are_the_all_reduces_phase_by_phase(
            self, train_ptd_trainer):
        """One reduce-scatter and one all-gather over the flat vectors:
        4 records a step at d = 2, the all-reduce's hops split by phase,
        and an mp trainer logs the same records."""
        trainer = train_ptd_trainer
        ranks = trainer._dp_ranks
        dp = [r for r in trainer.log.records
              if r.kind is TrafficKind.DATA_PARALLEL]
        assert len(dp) == 4
        plan = ring_all_reduce_hops(TRAIN_PTD_PARAMETERS, 8, 2)
        for tag, want in (("dp.grad", plan[:2]), ("dp.param", plan[2:])):
            assert [(ranks.index(r.src), ranks.index(r.dst), r.nbytes)
                    for r in dp if r.tag == tag] == want, tag
        log = TrafficLog()
        with PTDTrainer(TRAIN_PTD, TRAIN_PTD_PARALLEL, seed=0, log=log,
                        backend="mp") as mp:
            rng = np.random.default_rng(0)
            mp.train_step(rng.integers(0, 512, size=(8, 64)),
                          rng.integers(0, 512, size=(8, 64)))
        assert log.records == trainer.log.records


def test_a_step_writes_one_entry_per_call_and_builds_no_record(monkeypatch):
    """An untraced coop step at ``train_ptd``'s shapes writes 206
    entries -- 172 all-reduces (24 of them the cross entropy's scalars),
    32 pipeline sends and the data-parallel ring's two phases -- and
    builds no ``TransferRecord`` until ``records`` is read: 724 then."""
    from repro.comm import traffic
    from repro.obs.tracer import current_tracer

    built = []

    def counted(*args):
        built.append(args)
        return real(*args)

    real = traffic.TransferRecord
    monkeypatch.setattr(traffic, "TransferRecord", counted)
    log = TrafficLog()
    trainer = PTDTrainer(TRAIN_PTD, TRAIN_PTD_PARALLEL, seed=0, log=log)
    rng = np.random.default_rng(0)
    assert current_tracer() is None
    trainer.train_step(rng.integers(0, 512, size=(8, 64)),
                       rng.integers(0, 512, size=(8, 64)))
    assert (len(log.entries), len(built)) == (206, 0)
    assert len(log.records) == len(built) == 724


class TestFlatLayout:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p,t,v", [
        (p, t, v) for p in (1, 2, 4) for t in (1, 2, 4) for v in (1, 2)
        if v == 1 or p > 1
    ])
    def test_flat_size_is_the_built_vector(self, p, t, v, d):
        """``ReplicaSpec.flat_size``, which sizes an mp trainer's ring
        segments before any replica exists, is every replica's flat
        vector length (the head's tied copy counted when p > 1) on the
        conformance grid's models."""
        case = ConformanceCase(p=p, t=t, d=d, v=v, m=p * v)
        parallel = ParallelConfig(
            pipeline_parallel_size=p, tensor_parallel_size=t,
            data_parallel_size=d, microbatch_size=1,
            global_batch_size=d * case.m, num_model_chunks=v,
        )
        trainer = PTDTrainer(model_for_case(case), parallel,
                             schedule="interleaved" if v > 1 else "1f1b")
        assert ({replica.flat_data.size for replica in trainer.replicas}
                == {trainer.spec.flat_size()})

    @pytest.mark.parametrize("p,t,d", [(1, 1, 1), (2, 2, 2), (2, 1, 3)])
    def test_parameters_are_views_of_one_flat_vector(self, p, t, d):
        """Every parameter's ``data`` and ``grad`` are its range of its
        replica's flat vectors, end to end in ``parameters()`` order."""
        trainer = make_trainer(p=p, t=t, d=d, B=6 if d == 3 else 8)
        for replica in trainer.replicas:
            offset = 0
            for param in replica.parameters():
                end = offset + param.size
                for flat, arr in ((replica.flat_data, param.data),
                                  (replica.flat_grad, param.grad)):
                    assert np.shares_memory(arr, flat[offset:end])
                    assert not np.shares_memory(arr, flat[:offset])
                    assert not np.shares_memory(arr, flat[end:])
                offset = end
            assert offset == replica.flat_data.size == replica.flat_grad.size

    @pytest.mark.parametrize("p,v", [(1, 1), (2, 1), (2, 2), (4, 1)])
    def test_t1_flat_vector_is_the_serial_models_parameters(self, p, v):
        """At t = 1 a replica's parameters are the serial model's, in its
        order and shapes, then the head's tied copy when there are
        several stages: the layout the flat vector and checkpoint format
        4's moment ranges are cut by."""
        trainer = make_trainer(p=p, v=v)
        serial = GPTModel(CFG, seed=0).parameters()
        tied = [serial[0]] if p * v > 1 else []
        params = trainer.replicas[0].parameters()
        assert [q.shape for q in params] == [q.shape for q in serial + tied]
        want = np.concatenate([q.data.ravel() for q in serial + tied])
        assert np.array_equal(trainer.replicas[0].flat_data, want)


    @pytest.mark.parametrize("backend", ["coop", "mp"])
    def test_lazy_gradients_train_as_eager_ones(self, backend, monkeypatch):
        """A parameter's gradient comes with its first read, and the
        build lays every one into the flat vector: two steps from
        parameters that held their zeros from the start give the same
        gradients, moments and weights."""
        from .test_nn_modules import _eager_grads

        ids, targets = global_batch(8)

        def train():
            with make_trainer(p=2, t=2, d=2, backend=backend) as trainer:
                for _ in range(2):
                    trainer.train_step(ids, targets)
                return [a.copy() for a in (
                    *(r.flat_grad for r in trainer.replicas),
                    *(r.flat_data for r in trainer.replicas),
                    *(o.m for o in trainer.optimizers),
                    *(o.v for o in trainer.optimizers))]

        lazy = train()
        _eager_grads(monkeypatch)
        assert all(np.array_equal(a, b) for a, b in zip(lazy, train(),
                                                         strict=True))


class TestSerialReference:
    @pytest.mark.parametrize("m", [1, 4])
    def test_single_worker_trainer_is_the_serial_reference(self, m):
        """PTDTrainer at p = t = d = 1 runs the tensor-parallel engine
        with one shard; ``train_serial`` runs GPTModel and Adam alone.
        Three steps agree bit for bit."""
        from repro.nn.serial import train_serial

        ids, targets = global_batch(4)
        trainer = make_trainer(b=4 // m, B=4)
        losses = [trainer.train_step(ids, targets) for _ in range(3)]
        want_losses, want_state = train_serial(
            CFG, [(ids, targets)] * 3, lr=1e-2, num_microbatches=m)
        assert losses == want_losses
        state = trainer.gather_state_dict()
        assert state.keys() == want_state.keys()
        assert all(np.array_equal(state[k], want_state[k]) for k in state)
