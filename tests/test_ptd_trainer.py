"""Integration tests: full PTD-P composition vs serial training, and DP."""

import numpy as np
import pytest

from repro.comm import TrafficKind, TrafficLog
from repro.config import ParallelConfig, tiny_test_model
from repro.nn import Adam, GPTModel
from repro.parallel import PTDTrainer, all_reduce_gradients, scatter_batch

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

    def test_all_reduce_gradients_averages(self):
        from repro.nn.module import Parameter

        a = [Parameter(np.zeros(3))]
        b = [Parameter(np.zeros(3))]
        a[0].grad[...] = [1.0, 2.0, 3.0]
        b[0].grad[...] = [3.0, 4.0, 5.0]
        all_reduce_gradients([a, b], ranks=[0, 1])
        np.testing.assert_allclose(a[0].grad, [2.0, 3.0, 4.0])
        np.testing.assert_allclose(b[0].grad, [2.0, 3.0, 4.0])

    def test_all_reduce_validates(self):
        from repro.nn.module import Parameter

        with pytest.raises(ValueError, match="aligned"):
            all_reduce_gradients(
                [[Parameter(np.zeros(2))], []], ranks=[0, 1]
            )

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
