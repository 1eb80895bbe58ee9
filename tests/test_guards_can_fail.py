"""Each timed guard under ``benchmarks/`` can fail: a planted defect
that at least doubles the cost it bounds turns it red, on its own
workload and with the real ``paired_ratio`` estimator.  So can the
memory guard a worker's fork is held to, with a defect that adds what
it bounds many times over.  A guard that stays green here could not
catch the regression it exists for."""

import functools
import importlib.util
import inspect
import time
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@functools.cache
def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _slow_spans(monkeypatch):
    """Every span sleeps 100 µs as it opens: the guard step's 33 spans
    add over 3 ms to a ~10 ms step whose tracing costs well under 1 ms."""
    from repro.obs.tracer import Tracer

    begin = Tracer.begin

    def slow_begin(self, *args, **kwargs):
        time.sleep(1e-4)
        return begin(self, *args, **kwargs)

    monkeypatch.setattr(Tracer, "begin", slow_begin)
    monkeypatch.setattr(Tracer, "span", slow_begin)


def _slow_traffic_writes(monkeypatch):
    """Every collective's traffic entry sleeps 100 µs as it is written:
    the guard's t=2 all-reduce, ~25 µs with its log attached, costs
    ~200 µs (the sleep overshoots), and the guard reads ~12x."""
    from repro.comm import primitives

    log_collective = primitives.log_collective

    def slow_log_collective(*args):
        time.sleep(1e-4)
        return log_collective(*args)

    monkeypatch.setattr(primitives, "log_collective", slow_log_collective)


def _copying_gather(monkeypatch):
    """A batched ``PagedKVCache.gather`` copies the whole store each time
    it hands out a layer's views: at the guard's 128-position window a
    cached decode of 112 tokens costs 3-4x (two layers, a ~0.9 MB store),
    and the guard reads under its 1.5x floor."""
    from repro.serve import PagedKVCache

    views = PagedKVCache._views

    def copying_views(self, runs, layer):
        self.store.copy()
        return views(self, runs, layer)

    monkeypatch.setattr(PagedKVCache, "_views", copying_views)


def _rechecksumming_append(monkeypatch):
    """Every append re-checksums every block of each handle it extends,
    not only the blocks it wrote: the guard's guarded engine already
    checks every block at every gather, and this adds a second pass of
    the same size (the guard reads +26-31% against its 5%)."""
    from repro.serve import KVHandle, PagedKVCache

    append = PagedKVCache.append

    def rechecksumming_append(self, handles, new_kvs=None):
        append(self, handles, new_kvs)
        if self.checksums:
            for handle in ([handles] if isinstance(handles, KVHandle)
                           else handles):
                for index in range(handle.live_blocks):
                    self._crcs[handle.slot][index] = self._crc(
                        handle.slot, index)

    monkeypatch.setattr(PagedKVCache, "append", rechecksumming_append)


def _forking_allocator(monkeypatch):
    """The replica allocator without ``MADV_DONTFORK``, in each fresh
    interpreter the heap guard starts: a worker forked after a warm coop
    trainer carries its two replicas and their moments again, and the
    guard reads +42.6 MiB against its 7.1 (-0.2 without the defect)."""
    guard = _load(BENCHMARKS / "bench_heap.py")
    monkeypatch.setattr(
        guard, "PLANT", "import mmap; mmap.MADV_DONTFORK = mmap.MADV_NORMAL")


def _every_row_last_block(monkeypatch):
    """The last block runs every prompt row and keeps the last: a
    176-token prefill records its projection, MLP and attention 176
    times over, and the guard reads over its count."""
    from repro.nn.transformer import TransformerBlock

    def every_row(self, x, past_kv=None, lengths=0):
        y, kv = self.forward_step(x, past_kv, lengths)
        return y[:, -1:], kv

    monkeypatch.setattr(TransformerBlock, "last_row_step", every_row)


#: (guard file, its test function, the defect to plant, the test's
#: parameters)
CASES = [
    pytest.param("bench_trace_overhead.py",
                 "test_tracing_overhead_under_5_percent", _slow_spans, {},
                 id="trace"),
    pytest.param("bench_kernels.py",
                 "test_all_reduce_costs_a_bounded_multiple_of_its_ring",
                 _slow_traffic_writes, {}, id="all-reduce"),
    # The wider of the guard's two windows, where it reads ~3x.
    pytest.param("bench_serve.py", "test_cached_decode_at_least_1_5x_faster",
                 _copying_gather, {"window": 128}, id="cached-decode"),
    # Red without a defect too since the head-major store (+14-17%,
    # CHANGES.md FOUND): until it is green again, this shows only that
    # the defect adds to its reading.
    pytest.param("bench_serve_chaos.py",
                 "test_robustness_bookkeeping_overhead_under_5_percent",
                 _rechecksumming_append, {}, id="bookkeeping"),
    pytest.param("bench_heap.py",
                 "test_a_worker_forked_after_a_coop_trainer_carries_none_of_it",
                 _forking_allocator, {}, id="fork-copy"),
    pytest.param("bench_serve.py",
                 "test_prefill_records_only_what_its_cache_and_sampler_read",
                 _every_row_last_block, {}, id="prefill-rows"),
]


@pytest.mark.parametrize("guard_file,test_name,plant,params", CASES)
def test_a_planted_defect_turns_the_guard_red(guard_file, test_name, plant,
                                              params, monkeypatch):
    guard = _load(BENCHMARKS / guard_file)
    test = getattr(guard, test_name)
    if "paired_ratio" in inspect.signature(test).parameters:
        params = dict(params, paired_ratio=_load(
            BENCHMARKS / "conftest.py")._paired_ratio)
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        test(**params)
