"""Tests for the chaos subsystem: plans, fault injection, and the
supervised harness's recovery guarantees."""

import json
import os
from dataclasses import fields
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ParallelConfig, tiny_test_model
from repro.resilience import (
    ChaosHarness,
    ChaosPlan,
    ChaosReport,
    CorruptCheckpoint,
    HarnessGaveUpError,
    Kill,
    LossSpike,
    RankFailureError,
    SaveFailure,
    ServeChaosPlan,
    Stall,
    TransientSaveError,
    batch_for_iteration,
    corrupt_file,
    run_baseline,
    run_reset_reference,
    shrink_parallel,
    states_bit_equal,
)
from repro.resilience.harness import (
    BACKOFF_CAP,
    MAX_RESTARTS,
    MAX_SAVE_ATTEMPTS,
)

CFG = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=4,
                      vocab_size=32, seq_length=8)


_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=4))
_JSON = st.recursive(_SCALAR, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                     max_leaves=12)


def _plan_shaped(plan):
    """JSON text shaped like ``plan``: its keys, each a list of entries
    naming the entry's fields (and a stray one), with any values --
    NaN, infinities, bools and integers of any size included."""
    def entries(entry_cls):
        names = [f.name for f in fields(entry_cls)] + ["stray"]
        return st.lists(st.dictionaries(st.sampled_from(names), _JSON,
                                        max_size=4), max_size=3)
    return st.fixed_dictionaries({}, optional={
        key: entries(entry_cls)
        for key, (entry_cls, _) in plan.ENTRIES.items()
    }).map(json.dumps)


def dp2(batch=4):
    return ParallelConfig(data_parallel_size=2, microbatch_size=1,
                          global_batch_size=batch)


def harness(tmp_path, plan, **kw):
    kw.setdefault("total_iterations", 6)
    kw.setdefault("checkpoint_every", 2)
    kw.setdefault("seed", 0)
    kw.setdefault("sleep", lambda s: None)
    return ChaosHarness(CFG, dp2(), str(tmp_path), plan=plan, **kw)


class TestPlanJsonProperty:
    @pytest.mark.parametrize("plan", [ChaosPlan, ServeChaosPlan])
    @settings(max_examples=300, deadline=timedelta(seconds=5))
    @given(data=st.data())
    def test_any_text_loads_or_raises_a_value_error(self, plan, data):
        """``PlanCodec.from_json`` on any text, for both plans: it loads
        or raises ``ValueError``, in bounded time whatever sizes the
        entries declare."""
        text = data.draw(st.one_of(
            st.text(max_size=60), _JSON.map(json.dumps), _plan_shaped(plan),
            st.integers(1, 200_000).map(lambda depth: "[" * depth)))
        try:
            plan.from_json(text)
        except ValueError:
            pass


class TestChaosPlan:
    def test_json_round_trip(self):
        plan = ChaosPlan(
            kills=(Kill(at_iteration=5, rank=1, permanent=True),
                   Kill(at_iteration=2)),
            corruptions=(CorruptCheckpoint(at_iteration=4, mode="truncate"),),
            save_failures=(SaveFailure(at_iteration=2, times=3),),
            loss_spikes=(LossSpike(at_iteration=6),),
            stalls=(Stall(at_iteration=3, rank=1),),
        )
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_kills_sorted_by_iteration(self):
        plan = ChaosPlan(kills=(Kill(at_iteration=5), Kill(at_iteration=2)))
        assert [k.at_iteration for k in plan.kills] == [2, 5]

    def test_duplicate_save_failures_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ChaosPlan(save_failures=(SaveFailure(at_iteration=2),
                                     SaveFailure(at_iteration=2)))

    @pytest.mark.parametrize("text,match", [
        ("not json", "unparseable"),
        ("[1, 2]", "JSON object"),
        ('{"explosions": []}', "unknown chaos plan keys"),
        ('{"kills": [{"at": 3}]}', "bad kill entry"),
        ('{"kills": [3]}', "entries must be objects"),
        ('{"corruptions": [{"at_iteration": 1, "mode": "melt"}]}',
         "mode must be one of"),
    ])
    def test_from_json_rejects_garbage(self, text, match):
        with pytest.raises(ValueError, match=match):
            ChaosPlan.from_json(text)

    @pytest.mark.parametrize("entry,field,what", [
        ('"kills": [{"at_iteration": 1.5}]', "at_iteration", "kill 0"),
        ('"kills": [{"at_iteration": true}]', "at_iteration", "kill 0"),
        ('"kills": [{"at_iteration": 1}, {"at_iteration": 2, "rank": 0.5}]',
         "rank", "kill 1"),
        ('"kills": [{"at_iteration": 1, "rank": null}]', "rank", "kill 0"),
        ('"corruptions": [{"at_iteration": "4"}]', "at_iteration",
         "corruption 0"),
        ('"save_failures": [{"at_iteration": 2, "times": 2.0}]', "times",
         "save_failure 0"),
        ('"loss_spikes": [{"at_iteration": false}]', "at_iteration",
         "loss_spike 0"),
        ('"stalls": [{"at_iteration": 1, "rank": 1.0}]', "rank", "stall 0"),
        ('"stalls": [{"at_iteration": 1, "iterations": 2.5}]', "iterations",
         "stall 0"),
    ])
    def test_integer_fields_take_only_json_integers(self, entry, field, what):
        with pytest.raises(ValueError,
                           match=f"^chaos plan {what}: {field} must be an "
                                 f"integer"):
            ChaosPlan.from_json("{" + entry + "}")

    def test_nullable_and_float_fields_still_load(self):
        plan = ChaosPlan.from_json(
            '{"stalls": [{"at_iteration": 1, "rank": null, "seconds": 2}],'
            ' "loss_spikes": [{"at_iteration": 0, "factor": 3}]}'
        )
        assert plan.stalls == (Stall(at_iteration=1, seconds=2.0),)
        assert plan.loss_spikes == (LossSpike(at_iteration=0, factor=3.0),)

    @pytest.mark.parametrize("entry,field,what", [
        ('"stalls": [{"at_iteration": 1, "seconds": NaN}]', "seconds",
         "stall 0"),
        ('"stalls": [{"at_iteration": 1, "seconds": 1e999}]', "seconds",
         "stall 0"),
        ('"loss_spikes": [{"at_iteration": 1, "factor": NaN}]', "factor",
         "loss_spike 0"),
        ('"loss_spikes": [{"at_iteration": 1, "factor": true}]', "factor",
         "loss_spike 0"),
    ])
    def test_float_fields_take_only_finite_numbers(self, entry, field, what):
        with pytest.raises(ValueError,
                           match=f"^chaos plan {what}: {field} must be a "
                                 f"finite number"):
            ChaosPlan.from_json("{" + entry + "}")

    @pytest.mark.parametrize("plan,text,match", [
        (ChaosPlan, '{"kills": [{"at_iteration": 1, "permanent": "no"}]}',
         "kill 0: permanent must be a boolean"),
        (ChaosPlan, '{"corruptions": [{"at_iteration": 1, "file": ["x"]}]}',
         "corruption 0: file must be a string"),
        (ServeChaosPlan, '{"crashes": [{"at_step": 1, "request_id": [1]}]}',
         "crash 0: request_id must be a string"),
    ])
    def test_bool_and_str_fields_take_only_their_json_type(self, plan, text,
                                                           match):
        with pytest.raises(ValueError, match=match):
            plan.from_json(text)

    @pytest.mark.parametrize("plan", [ChaosPlan, ServeChaosPlan])
    def test_deep_nesting_is_a_value_error(self, plan):
        with pytest.raises(ValueError, match="unparseable"):
            plan.from_json("[" * 100_000)

    @pytest.mark.parametrize("text,key", [
        ('{"kills": 3}', "kills"),
        ('{"kills": null}', "kills"),
        ('{"stalls": {"at_iteration": 1}}', "stalls"),
        ('{"corruptions": "flip"}', "corruptions"),
    ])
    def test_from_json_rejects_a_key_that_is_not_a_list(self, text, key):
        with pytest.raises(ValueError, match=f"^{key} must be a list$"):
            ChaosPlan.from_json(text)

    @pytest.mark.parametrize("bad", [
        lambda: Kill(at_iteration=-1),
        lambda: Kill(at_iteration=0, rank=-2),
        lambda: CorruptCheckpoint(at_iteration=1, file="../escape"),
        lambda: CorruptCheckpoint(at_iteration=1, file=""),
        lambda: SaveFailure(at_iteration=1, times=0),
    ])
    def test_entry_validation(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestCorruptFile:
    def test_flip_changes_bytes_keeps_size(self, tmp_path):
        path = tmp_path / "f"
        blob = bytes(range(256)) * 4
        path.write_bytes(blob)
        corrupt_file(str(path), "flip")
        after = path.read_bytes()
        assert len(after) == len(blob)
        assert after != blob

    def test_truncate_halves(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x" * 100)
        corrupt_file(str(path), "truncate")
        assert path.stat().st_size == 50

    def test_delete_removes(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x")
        corrupt_file(str(path), "delete")
        assert not path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            corrupt_file(str(tmp_path / "nope"), "flip")

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x")
        with pytest.raises(ValueError, match="mode"):
            corrupt_file(str(path), "melt")


class TestDeterministicData:
    def test_pure_function_of_seed_and_iteration(self):
        a = batch_for_iteration(CFG, 4, seed=7, iteration=3)
        b = batch_for_iteration(CFG, 4, seed=7, iteration=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = batch_for_iteration(CFG, 4, seed=7, iteration=4)
        assert not np.array_equal(a[0], c[0])

    def test_shapes_and_range(self):
        ids, targets = batch_for_iteration(CFG, 4, seed=0, iteration=0)
        assert ids.shape == targets.shape == (4, CFG.seq_length)
        assert ids.min() >= 0 and ids.max() < CFG.vocab_size


class TestShrinkParallel:
    def test_world_of_one_unchanged(self):
        serial = ParallelConfig(microbatch_size=1, global_batch_size=4)
        assert shrink_parallel(CFG, serial) is serial

    def test_shrinks_world(self):
        small = shrink_parallel(CFG, dp2())
        world = (small.pipeline_parallel_size * small.tensor_parallel_size
                 * small.data_parallel_size)
        assert world == 1
        assert small.global_batch_size == 4
        small.validate_for_model(CFG)


class TestKillRecovery:
    def test_kill_and_resume_is_bit_exact(self, tmp_path):
        plan = ChaosPlan(kills=(Kill(at_iteration=3),))
        report = harness(tmp_path, plan).run()
        assert report.restarts == 1
        assert not report.resharded
        base_losses, base_state = run_baseline(
            CFG, dp2(), total_iterations=6, seed=0
        )
        assert report.losses == base_losses
        assert states_bit_equal(report.final_state, base_state)

    def test_kill_before_first_checkpoint_restarts_from_scratch(
            self, tmp_path):
        plan = ChaosPlan(kills=(Kill(at_iteration=1),))
        report = harness(tmp_path, plan, checkpoint_every=4).run()
        kinds = [r.kind for r in report.records]
        assert "restart-from-scratch" in kinds
        base_losses, base_state = run_baseline(
            CFG, dp2(), total_iterations=6, seed=0
        )
        assert report.losses == base_losses
        assert states_bit_equal(report.final_state, base_state)

    def test_multiple_kills(self, tmp_path):
        plan = ChaosPlan(kills=(Kill(at_iteration=2), Kill(at_iteration=4)))
        report = harness(tmp_path, plan).run()
        assert report.restarts == 2
        base_losses, _ = run_baseline(CFG, dp2(), total_iterations=6, seed=0)
        assert report.losses == base_losses

    def test_restart_budget_enforced(self, tmp_path):
        # One kill more than the budget; each fires once, on the replay
        # of iteration 3 that follows the previous restore.
        kills = (Kill(at_iteration=3),) * (MAX_RESTARTS + 1)
        with pytest.raises(HarnessGaveUpError, match="restarts"):
            harness(tmp_path, ChaosPlan(kills=kills)).run()

    def test_restart_budget_is_survivable(self, tmp_path):
        kills = (Kill(at_iteration=3),) * MAX_RESTARTS
        report = harness(tmp_path, ChaosPlan(kills=kills)).run()
        assert report.restarts == MAX_RESTARTS

    def test_kill_fires_exactly_once(self, tmp_path):
        # After restore the trainer's iteration moves back past the kill
        # point; the kill must not re-fire on the replayed iteration.
        plan = ChaosPlan(kills=(Kill(at_iteration=3),))
        report = harness(tmp_path, plan, checkpoint_every=2).run()
        assert report.restarts == 1


class TestSaveRetry:
    def test_transient_failures_retried_with_backoff(self, tmp_path):
        sleeps = []
        plan = ChaosPlan(save_failures=(SaveFailure(at_iteration=2,
                                                    times=4),))
        report = harness(tmp_path, plan, sleep=sleeps.append,
                         backoff_base=0.5).run()
        assert report.save_retries == 4
        # Exponential 0.5, 1.0 then capped at BACKOFF_CAP.
        assert BACKOFF_CAP == 2.0
        assert sleeps == [0.5, 1.0, 2.0, 2.0]
        base_losses, _ = run_baseline(CFG, dp2(), total_iterations=6, seed=0)
        assert report.losses == base_losses

    def test_save_retry_budget_enforced(self, tmp_path):
        sleeps = []
        plan = ChaosPlan(save_failures=(
            SaveFailure(at_iteration=2, times=MAX_SAVE_ATTEMPTS),
        ))
        with pytest.raises(HarnessGaveUpError,
                           match=f"after {MAX_SAVE_ATTEMPTS} attempts"):
            harness(tmp_path, plan, sleep=sleeps.append).run()
        assert len(sleeps) == MAX_SAVE_ATTEMPTS - 1

    def test_last_save_attempt_still_commits(self, tmp_path):
        plan = ChaosPlan(save_failures=(
            SaveFailure(at_iteration=2, times=MAX_SAVE_ATTEMPTS - 1),
        ))
        report = harness(tmp_path, plan).run()
        assert report.save_retries == MAX_SAVE_ATTEMPTS - 1
        assert report.checkpoints_written == 3

    def test_transient_failure_leaves_no_partial_checkpoint(self, tmp_path):
        plan = ChaosPlan(save_failures=(SaveFailure(at_iteration=2,
                                                    times=1),))
        report = harness(tmp_path, plan).run()
        # Every committed checkpoint verifies.
        from repro.parallel.checkpoint import CheckpointStore, verify_checkpoint

        store = CheckpointStore(str(tmp_path))
        for iteration in store.iterations():
            verify_checkpoint(store.path_for(iteration))
        assert report.checkpoints_written == 3


class TestCorruptionFallback:
    def test_falls_back_to_older_verified_checkpoint(self, tmp_path):
        plan = ChaosPlan(
            kills=(Kill(at_iteration=5),),
            corruptions=(CorruptCheckpoint(at_iteration=4),),
        )
        report = harness(tmp_path, plan, total_iterations=8).run()
        assert report.skipped_checkpoints == 1
        restores = [r for r in report.records if r.kind == "restore"]
        assert restores[0].at_iteration == 2
        base_losses, base_state = run_baseline(
            CFG, dp2(), total_iterations=8, seed=0
        )
        assert report.losses == base_losses
        assert states_bit_equal(report.final_state, base_state)

    @pytest.mark.parametrize("mode", ["flip", "truncate", "delete"])
    def test_every_corruption_mode_detected(self, tmp_path, mode):
        plan = ChaosPlan(
            kills=(Kill(at_iteration=5),),
            corruptions=(CorruptCheckpoint(at_iteration=4, mode=mode),),
        )
        report = harness(tmp_path, plan, total_iterations=6).run()
        assert report.skipped_checkpoints == 1
        base_losses, _ = run_baseline(CFG, dp2(), total_iterations=6, seed=0)
        assert report.losses == base_losses


class TestReshard:
    def test_permanent_kill_reshards(self, tmp_path):
        plan = ChaosPlan(kills=(Kill(at_iteration=3, permanent=True),))
        report = harness(tmp_path, plan).run()
        assert report.resharded
        world = (report.final_parallel.pipeline_parallel_size
                 * report.final_parallel.tensor_parallel_size
                 * report.final_parallel.data_parallel_size)
        assert world == 1
        restores = [r for r in report.records if r.kind == "restore"]
        assert restores and restores[0].detail == "optimizer reset"
        ref_losses, ref_state = run_reset_reference(
            CFG, 4, total_iterations=6, reset_at=restores[0].at_iteration,
            seed=0,
        )
        np.testing.assert_allclose(report.losses, ref_losses,
                                   rtol=1e-9, atol=1e-12)
        for name, want in ref_state.items():
            np.testing.assert_allclose(report.final_state[name], want,
                                       rtol=1e-8, atol=1e-11, err_msg=name)


class TestHarnessValidation:
    @pytest.mark.parametrize("kw", [
        {"total_iterations": 0},
        {"checkpoint_every": 0},
        {"backoff_base": 0.0},
        {"backoff_base": 2.5},
    ])
    def test_constructor_rejects(self, tmp_path, kw):
        with pytest.raises(ValueError):
            harness(tmp_path, ChaosPlan(), **kw)

    def test_healthy_plan_writes_checkpoints_only(self, tmp_path):
        report = harness(tmp_path, ChaosPlan()).run()
        assert report.restarts == 0
        assert report.checkpoints_written == 3
        assert isinstance(report, ChaosReport)
        assert "restarts" in report.describe()

    def test_error_types(self):
        assert issubclass(TransientSaveError, OSError)
        failure = RankFailureError(3, rank=1, permanent=True)
        assert failure.iteration == 3
        assert "permanently lost" in str(failure)
