"""Suite-wide fixtures."""

import json

import pytest

#: Test modules whose run logs are held to the reference detectors.
RUN_LOG_MODULES = {"test_chaos", "test_cli", "test_monitor",
                   "test_serve_chaos"}


@pytest.fixture(autouse=True)
def run_logs_match_reference_detectors(request, monkeypatch):
    """Every run log a test in :data:`RUN_LOG_MODULES` writes is read
    back when the test ends, and the monitor's alerts on it must equal
    the pre-refactor detectors' (``tests/test_monitor_differential.py``).

    Depends on ``monkeypatch`` so that thresholds a test patched are
    still patched when the logs are checked.
    """
    if request.module.__name__.rpartition(".")[2] not in RUN_LOG_MODULES:
        yield
        return
    from repro.obs.runlog import RunLogger, parse_events

    from .test_monitor_differential import assert_matches_reference

    logs: dict[RunLogger, list[str]] = {}
    emit = RunLogger.emit

    def recorded_emit(self, type, **fields):
        event = emit(self, type, **fields)
        logs.setdefault(self, []).append(json.dumps(event))
        return event

    monkeypatch.setattr(RunLogger, "emit", recorded_emit)
    yield
    for lines in logs.values():
        assert_matches_reference(list(parse_events(lines)))
