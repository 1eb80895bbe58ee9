"""One collective front door: coop and mp differ only in who moves bytes.

``comm/backend.py`` claims that for identical inputs both backends
return bit-identical arrays, raise the same validation errors, record
the same sanitizer events and log the same hop records.  This table
drives every primitive through every way a call can be wrong (and the
single-rank shortcut, and one good call) on both backends and compares
all four.
"""

import numpy as np
import pytest

from repro.comm import TrafficKind, TrafficLog
from repro.comm.backend import MpBackend, get_backend
from repro.comm.shm_ring import leaked_dev_shm_segments, live_segment_names
from repro.verify.sanitizer import CollectiveSanitizer


def _f64(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


A, B, C = _f64((4, 3), 1), _f64((4, 3), 2), _f64((4, 3), 3)
WIDE = _f64((4, 5), 4)
F32 = A.astype(np.float32)
I64 = np.arange(12, dtype=np.int64).reshape(4, 3)

#: (case id, primitive, positional args[, keyword args]).
CASES = [
    # -- empty group ----------------------------------------------------
    ("empty/all_reduce", "all_reduce", ([], [])),
    ("empty/all_gather", "all_gather", ([], [])),
    ("empty/reduce_scatter", "reduce_scatter", ([], [])),
    ("empty/broadcast", "broadcast", (A, 0, [])),
    # -- duplicate ranks --------------------------------------------------
    ("dup/all_reduce", "all_reduce", ([A, B], [7, 7])),
    ("dup/all_gather", "all_gather", ([A, B], [7, 7])),
    ("dup/reduce_scatter", "reduce_scatter", ([A, B], [7, 7])),
    ("dup/broadcast", "broadcast", (A, 7, [7, 7])),
    # -- buffer / rank count mismatch -------------------------------------
    ("count/all_reduce", "all_reduce", ([A], [0, 1])),
    ("count/all_gather", "all_gather", ([A, B, C], [0, 1])),
    ("count/reduce_scatter", "reduce_scatter", ([A, B], [0, 1, 2])),
    # -- shape mismatch -----------------------------------------------------
    ("shape/all_reduce", "all_reduce", ([A, WIDE], [0, 1])),
    ("shape/all_gather", "all_gather", ([A, WIDE], [0, 1])),
    ("shape/all_gather-rank", "all_gather", ([A, A[0]], [0, 1])),
    ("shape/reduce_scatter", "reduce_scatter", ([A, WIDE], [0, 1])),
    ("shape/reduce_scatter-0d", "reduce_scatter",
     ([np.float64(1.0), np.float64(2.0)], [0, 1])),
    ("shape/reduce_scatter-indivisible", "reduce_scatter",
     ([A, B, C], [0, 1, 2])),
    ("shape/all_gather-axis", "all_gather", ([A, B], [0, 1]), {"axis": 2}),
    # -- dtype mismatch -----------------------------------------------------
    ("dtype/all_reduce", "all_reduce", ([A, F32], [0, 1])),
    ("dtype/all_gather", "all_gather", ([A, F32], [0, 1])),
    ("dtype/reduce_scatter", "reduce_scatter", ([A, F32], [0, 1])),
    # -- root / endpoints -----------------------------------------------------
    ("root/broadcast", "broadcast", (A, 9, [0, 1, 2])),
    ("self/send", "send", (A, 3, 3)),
    # -- k == 1: no mover runs ------------------------------------------------
    ("k1/all_reduce", "all_reduce", ([A], [5])),
    ("k1/all_gather", "all_gather", ([A], [5])),
    ("k1/reduce_scatter", "reduce_scatter", ([I64], [5])),
    ("k1/broadcast", "broadcast", (A, 5, [5])),
    # -- one good call each, so "the same" is not "the same nothing" ----------
    ("ok/all_reduce", "all_reduce", ([A, B, C], [4, 2, 9])),
    ("ok/all_reduce-f32", "all_reduce", ([F32, F32], [1, 0])),
    ("ok/all_gather-axis1", "all_gather", ([A, WIDE], [3, 1]), {"axis": 1}),
    ("ok/reduce_scatter-int", "reduce_scatter", ([I64, I64], [6, 8])),
    ("ok/broadcast", "broadcast", (F32, 2, [0, 2, 4])),
    ("ok/send", "send", (I64, 3, 1)),
]


@pytest.fixture(scope="module")
def mp_backend():
    with MpBackend() as backend:
        yield backend
    assert live_segment_names() == []
    assert leaked_dev_shm_segments() == []


def _call(backend, primitive, args, kwargs):
    """Everything a caller can observe of one call."""
    log = TrafficLog()
    outcome = None
    with CollectiveSanitizer() as sanitizer:
        try:
            outcome = getattr(backend, primitive)(
                *args, log=log, kind=TrafficKind.DATA_PARALLEL, tag="parity",
                **kwargs,
            )
        except ValueError as exc:
            outcome = f"ValueError: {exc}"
    records = [(r.src, r.dst, r.nbytes, r.kind, r.tag) for r in log.records]
    return outcome, sanitizer.timelines, records


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_coop_and_mp_are_indistinguishable(case, mp_backend):
    name, primitive, args, *rest = case
    kwargs = rest[0] if rest else {}
    want, want_events, want_records = _call(
        get_backend("coop"), primitive, args, kwargs
    )
    pools_before = dict(mp_backend._pools)
    got, got_events, got_records = _call(mp_backend, primitive, args, kwargs)

    assert isinstance(want, str) != name.startswith(("ok/", "k1/"))
    if isinstance(want, str):
        assert got == want  # same error, same text
    else:
        assert not isinstance(got, str), got
        want = want if isinstance(want, list) else [want]
        got = got if isinstance(got, list) else [got]
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
    assert got_events == want_events
    assert got_records == want_records
    if name.startswith("ok/"):
        assert want_events and want_records
    else:
        # a rejected call or a group of one never reaches a worker
        assert mp_backend._pools == pools_before
        assert want_records == []


@pytest.mark.parametrize("backend_name", ["coop", "mp"])
@pytest.mark.parametrize("buffers", [
    [A, B, C],
    [F32, F32.copy()],
    [WIDE.T, _f64((5, 4), 5)],  # a view no reshape can flatten in place
    [A],
], ids=["f64", "f32", "non-contiguous", "k1"])
def test_all_reduce_copies_in_once_and_aliases_nothing(
        backend_name, buffers, mp_backend):
    """The front door makes the payload's one copy and the mover
    reduces into it: the caller's buffers are as they were, and what
    comes back shares memory neither with them nor with each other."""
    backend = mp_backend if backend_name == "mp" else get_backend("coop")
    before = [b.copy() for b in buffers]
    out = backend.all_reduce(buffers, list(range(len(buffers))))
    for b, was in zip(buffers, before):
        assert np.array_equal(b, was)
    want = np.sum([b.astype(np.float64) for b in buffers], axis=0)
    for i, o in enumerate(out):
        assert o.dtype == buffers[0].dtype and o.shape == buffers[0].shape
        np.testing.assert_allclose(o, want, rtol=1e-6)
        assert not any(np.shares_memory(o, b) for b in buffers)
        assert not any(np.shares_memory(o, other) for other in out[i + 1:])
        o += 1.0  # the caller's to overwrite
    for b, was in zip(buffers, before):
        assert np.array_equal(b, was)
