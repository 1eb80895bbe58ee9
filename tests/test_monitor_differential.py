"""The detectors on one base fire exactly what the old hand-rolled ones
fired (``tests/reference_monitor.py``): the same ``Alert`` list, field
for field -- message and evidence included -- on hypothesis-generated
event streams and on every run log the chaos, serve-chaos, monitor and
CLI tests write (``tests/conftest.py`` replays each of those through
:func:`assert_matches_reference` when its test ends).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.monitor import DETECTORS, StragglerDetector, run_monitor

from .reference_monitor import reference_detectors


def replay(detectors, events):
    """Every alert of ``detectors`` over ``events``, in the order
    ``Monitor.observe`` collects them, and the type of the exception
    that stopped the replay (``None`` if none did)."""
    alerts = []
    try:
        for event in events:
            for detector in detectors:
                alerts.extend(detector.observe(event))
    except Exception as exc:  # a malformed event: both sides must agree
        return alerts, type(exc)
    return alerts, None


def assert_matches_reference(events):
    """The monitor's alerts on a run log equal the old detectors'."""
    alerts, error = replay(reference_detectors(), events)
    assert error is None
    assert run_monitor(events).alerts == alerts


# -- hypothesis streams ------------------------------------------------------

def _one_of(*values):
    return lambda rnd: rnd.choice(values)


def _rank_busy(rnd):
    ranks = rnd.sample(["0", "1", "2", "3"], rnd.randint(0, 4))
    return {r: rnd.choice([0.0, 1.0, 1.1, 4.0, 10.0]) for r in ranks}


#: Per event type, each field and how to draw its value.  ``waiting``
#: and ``step`` draw a step of a random walk: a real queue fills and
#: drains by a few a tick, and the engine's clock only moves forward.
EVENT_FIELDS = {
    "run-start": {"expected_tokens_per_s": _one_of(0, 1000.0)},
    "iteration": {
        "iteration": _one_of(*range(41)),
        "loss": _one_of(2.0, 2.01, 1.99, 2.5, 200.0),
        "tokens_per_s": _one_of(1000.0, 990.0, 400.0, 100.0),
        "rank_busy": _rank_busy,
        "waiting": _one_of(*range(-3, 4)),
    },
    "heartbeat": {
        "ranks": lambda rnd: rnd.sample(range(4), rnd.randint(0, 4)),
        "iteration": _one_of(*range(41)),
    },
    "recovery": {
        "kind": _one_of("save-retry", "checkpoint-skipped", "restore",
                        "reshard", "restart-from-scratch", "backoff"),
        "iteration": _one_of(*range(7)),
        "detail": _one_of("", "EIO"),
    },
    "request": {
        "phase": _one_of("arrive", "admit", "first-token", "preempt",
                         "retry", "timeout", "finish"),
        "request_id": _one_of("r0", "r1"),
        "step": _one_of(*range(9)),
    },
}


@st.composite
def event_streams(draw):
    """Up to 80 events of a few types (a type alone makes the long runs
    the once-per-episode rules need); in some streams no field is
    missing, in others a few, in others one in five."""
    rnd = draw(st.randoms(use_true_random=True))
    types = rnd.sample(sorted(EVENT_FIELDS), rnd.randint(1, 5))
    missing = rnd.choice([0.0, 0.02, 0.2])
    walk = {"waiting": 0, "step": 0}
    events = []
    for seq in range(rnd.randint(0, 80)):
        etype = rnd.choice(types)
        event = {"v": 1, "seq": seq, "t": float(seq), "type": etype}
        for name, value_of in EVENT_FIELDS[etype].items():
            if rnd.random() < missing:
                continue
            value = value_of(rnd)
            if name in walk:
                value = walk[name] = max(0, walk[name] + value)
            event[name] = value
        events.append(event)
    return events


@given(event_streams())
@settings(max_examples=400, deadline=None)
def test_alerts_equal_the_reference_on_generated_streams(events):
    detectors = [cls() for cls in DETECTORS]
    reference = reference_detectors()
    assert replay(detectors, events) == replay(reference, events)
    (mine,) = [d for d in detectors if isinstance(d, StragglerDetector)]
    (theirs,) = [d for d in reference if d.name == mine.name]
    assert mine.stragglers == theirs.stragglers


def test_generated_streams_make_every_detector_fire():
    """The streams above are worth comparing: over a fixed sample of
    them every detector fires."""
    fired = set()

    @given(event_streams())
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    def collect(events):
        alerts, _ = replay(reference_detectors(), events)
        fired.update(a.detector for a in alerts)

    collect()
    assert fired == {cls.name for cls in DETECTORS}
