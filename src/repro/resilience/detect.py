"""Failure-detection latency model (heartbeats + timeout).

Production trainers (MegaScale's driver, Megatron's elastic launcher)
detect a dead rank by missed heartbeats: every rank pings a monitor
every ``heartbeat_interval`` seconds, and the monitor declares the rank
dead after ``missed_heartbeats`` consecutive silent intervals, then
takes ``notification_latency`` seconds to tear down the job and
schedule the restart.

Detection time is pure overhead in the goodput accounting: from the
instant the rank dies until the restart begins, every surviving rank
is stalled inside a collective that will never complete.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HeartbeatDetector:
    """Heartbeat/timeout failure detector.

    Attributes
    ----------
    heartbeat_interval:
        Seconds between liveness pings.
    missed_heartbeats:
        Consecutive missed pings before a rank is declared dead.
    notification_latency:
        Seconds from declaration to the restart machinery engaging
        (job teardown, scheduler round-trip).
    """

    heartbeat_interval: float = 10.0
    missed_heartbeats: int = 3
    notification_latency: float = 1.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.missed_heartbeats < 1:
            raise ValueError(
                f"missed_heartbeats must be >= 1, got {self.missed_heartbeats}"
            )
        if self.notification_latency < 0:
            raise ValueError(
                "notification_latency must be >= 0, got "
                f"{self.notification_latency}"
            )

    def expected_latency(self) -> float:
        """Mean death-to-restart-start latency.

        A failure lands uniformly inside a heartbeat window, so on
        average half an interval passes before the first ping is even
        due; the remaining ``missed_heartbeats - 1`` full intervals
        must then elapse, plus the notification hop:

            (missed_heartbeats - 1/2) * interval + notification
        """
        return (
            (self.missed_heartbeats - 0.5) * self.heartbeat_interval
            + self.notification_latency
        )
