"""Failure-injection and robustness tests across the stack."""

import numpy as np
import pytest

from repro.comm import TrafficLog, ring_all_reduce
from repro.config import ParallelConfig, tiny_test_model
from repro.nn import Adam, GPTModel
from repro.parallel import PipelineParallelGPT, PTDTrainer, make_microbatches
from repro.schedule import (
    DeadlockError,
    OpKind,
    PipelineSchedule,
    ScheduleOp,
    make_schedule,
)

CFG = tiny_test_model(num_layers=4, hidden_size=16, num_attention_heads=4,
                      vocab_size=32, seq_length=8)


def batch(B=4, seed=0):
    r = np.random.default_rng(seed)
    return (
        r.integers(0, 32, size=(B, 8)),
        r.integers(0, 32, size=(B, 8)),
    )


class TestScheduleFaults:
    def _swap(self, sched: PipelineSchedule, rank: int, i: int, j: int):
        ops = [list(r) for r in sched.ops]
        ops[rank][i], ops[rank][j] = ops[rank][j], ops[rank][i]
        return PipelineSchedule(
            name="tampered",
            num_stages=sched.num_stages,
            num_microbatches=sched.num_microbatches,
            num_chunks=sched.num_chunks,
            ops=tuple(tuple(r) for r in ops),
        )

    def test_tampered_schedule_deadlocks_numerics(self):
        """Swapping a backward before its forward on the last stage must
        be caught by the dependency executor, not corrupt training."""
        sched = make_schedule("1f1b", 2, 4)
        # rank 1 (last stage) begins F0 then B0; putting B0 first should
        # deadlock (B0 needs F0 on the same stage).
        bad = self._swap(sched, 1, 0, 1)
        pp = PipelineParallelGPT(CFG, bad, seed=0)
        ids, targets = batch()
        with pytest.raises(DeadlockError):
            pp.run_iteration(make_microbatches(ids, targets, 4))

    def test_duplicate_op_rejected_by_validation(self):
        from repro.schedule import validate

        dup = PipelineSchedule(
            name="dup",
            num_stages=1,
            num_microbatches=2,
            num_chunks=1,
            ops=((
                ScheduleOp(OpKind.FORWARD, 0),
                ScheduleOp(OpKind.FORWARD, 0),
                ScheduleOp(OpKind.BACKWARD, 0),
                ScheduleOp(OpKind.BACKWARD, 0),
            ),),
        )
        with pytest.raises(ValueError, match="incomplete"):
            validate(dup)

    def test_double_forward_same_microbatch_rejected_by_stage(self):
        sched = make_schedule("1f1b", 1, 2)
        pp = PipelineParallelGPT(CFG, sched, seed=0)
        ids, targets = batch(2)
        pp.stages[0].forward_microbatch(0, ids[:1])
        with pytest.raises(RuntimeError, match="already in flight"):
            pp.stages[0].forward_microbatch(0, ids[:1])

    def test_backward_without_forward_rejected(self):
        sched = make_schedule("1f1b", 1, 2)
        pp = PipelineParallelGPT(CFG, sched, seed=0)
        with pytest.raises(RuntimeError, match="no stashed forward"):
            pp.stages[0].backward_microbatch(3, None)


class TestNumericFaults:
    def test_collective_on_mismatched_shapes_raises(self):
        with pytest.raises(ValueError):
            ring_all_reduce(
                [np.zeros((2, 3)), np.zeros((3, 2))], ranks=[0, 1]
            )

    def test_embedding_out_of_range_token(self):
        model = GPTModel(CFG, seed=0)
        bad = np.full((1, CFG.seq_length), CFG.vocab_size)  # out of range
        with pytest.raises(ValueError, match="out of range"):
            model.forward(bad)

    def test_trainer_rejects_oversized_sequence(self):
        trainer = PTDTrainer(
            CFG, ParallelConfig(microbatch_size=1, global_batch_size=4), seed=0
        )
        r = np.random.default_rng(0)
        ids = r.integers(0, 32, size=(4, CFG.seq_length + 1))
        with pytest.raises(ValueError, match="exceeds"):
            trainer.train_step(ids, np.roll(ids, -1, axis=1))


class TestTrainerDoor:
    """A batch the model cannot take is refused by ``train_step`` before
    any hook or compute, naming what is wrong, at every t."""

    @staticmethod
    def _trainer(t):
        return PTDTrainer(CFG, ParallelConfig(
            tensor_parallel_size=t, microbatch_size=1, global_batch_size=4,
        ), seed=0)

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("where,value", [
        ("ids", 99), ("ids", -1), ("targets", 99), ("targets", -1),
    ])
    def test_out_of_vocabulary_value_is_named(self, t, where, value):
        trainer = self._trainer(t)
        hooked = []
        trainer.pre_step_hooks.append(hooked.append)
        before = trainer.gather_state_dict()
        ids, targets = batch()
        {"ids": ids, "targets": targets}[where][1, 3] = value
        with pytest.raises(ValueError, match=rf"{where} holds {value}\b"):
            trainer.train_step(ids, targets)
        assert hooked == [] and trainer.iteration == 0
        after = trainer.gather_state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    @pytest.mark.parametrize("t", [1, 2])
    def test_oversized_sequence_names_its_length(self, t):
        ids = np.zeros((4, CFG.seq_length + 1), dtype=np.int64)
        with pytest.raises(ValueError, match="sequence length 9 exceeds max 8"):
            self._trainer(t).train_step(ids, ids)

    @pytest.mark.parametrize("t", [1, 2])
    def test_non_integer_or_mismatched_batch_is_refused(self, t):
        trainer = self._trainer(t)
        ids, targets = batch()
        with pytest.raises(ValueError, match="integer"):
            trainer.train_step(ids.astype(float), targets)
        with pytest.raises(ValueError, match="shape"):
            trainer.train_step(ids, targets[:, :-1])


class TestFailedStep:
    def test_a_step_that_raises_leaves_no_stash_behind(self, monkeypatch):
        """Stage 1's backward raises once, with stage 0 holding stashed
        microbatches; the next step is the fresh trainer's first."""
        def make():
            return PTDTrainer(CFG, ParallelConfig(
                pipeline_parallel_size=2, microbatch_size=1,
                global_batch_size=4), seed=0)

        ids, targets = batch()
        want = make().train_step(ids, targets)
        trainer = make()
        stage = trainer.replicas[0].stages[1]
        real = stage.backward_microbatch

        def fail_once(mb, dy):
            monkeypatch.setattr(stage, "backward_microbatch", real)
            raise RuntimeError("planted")

        monkeypatch.setattr(stage, "backward_microbatch", fail_once)
        with pytest.raises(RuntimeError, match="planted"):
            trainer.train_step(ids, targets)
        assert all(s.in_flight == 0 for s in trainer.replicas[0].stages)
        assert trainer.train_step(ids, targets) == want


class TestUndeliveredTensorGuards:
    def test_leftover_stash_detected(self):
        """If a stage somehow keeps activations after the flush, the
        engine refuses to return (strict semantics guard)."""
        sched = make_schedule("1f1b", 2, 4)
        pp = PipelineParallelGPT(CFG, sched, seed=0)
        ids, targets = batch()
        # Pre-stash a phantom microbatch on stage 0.
        pp.stages[0]._stash[99] = (ids[:1], None)
        with pytest.raises(RuntimeError, match="stashed activations"):
            pp.run_iteration(make_microbatches(ids, targets, 4))


class TestInterleavedGPipeTraining:
    """The §2.2.2 rejected variant still trains exactly (it trades
    memory, not correctness)."""

    def test_matches_serial(self):
        sched = make_schedule("interleaved-gpipe", 2, 4, 2)
        pp = PipelineParallelGPT(CFG, sched, seed=0)
        opt = Adam(pp.parameters(), lr=1e-2)
        serial = GPTModel(CFG, seed=0)
        opt_s = Adam(serial.parameters(), lr=1e-2)
        ids, targets = batch()
        for _ in range(3):
            pp.zero_grad()
            loss_p = pp.run_iteration(make_microbatches(ids, targets, 4))
            opt.step()
            serial.zero_grad()
            loss_s, caches = serial.loss(ids, targets)
            serial.loss_backward(caches)
            opt_s.step()
            assert loss_p == pytest.approx(loss_s, rel=1e-10)

    def test_stashes_all_microbatches(self):
        sched = make_schedule("interleaved-gpipe", 2, 4, 2)
        pp = PipelineParallelGPT(CFG, sched, seed=0)
        peak = [0]
        orig = pp.stages[0].forward_microbatch

        def probe(mb, x, **kw):
            out = orig(mb, x, **kw)
            peak[0] = max(peak[0], pp.stages[0].in_flight)
            return out

        pp.stages[0].forward_microbatch = probe
        ids, targets = batch()
        pp.run_iteration(make_microbatches(ids, targets, 4))
        assert peak[0] == 4  # all m microbatches of chunk-0 stage stashed
