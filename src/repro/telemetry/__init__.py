"""``repro.telemetry`` — always-available runtime observability.

The paper's evaluation (§V) is entirely about *where time goes*; this
package gives the runtime the instruments to answer that on live runs:

* :class:`LogHistogram` — O(1) log-bucketed latency/size histograms
  (p50/p90/p99/max) recorded at the conduit boundary and inside the
  runtime (lock waits, copy waits, ``advance()`` polls, task lifecycle);
* :class:`FlightRecorder` — a bounded per-rank ring of recent events,
  merged into a human-readable dump when ``CommTimeout`` /
  ``PeerFailure`` / ``RankDead`` propagates out of :func:`repro.spmd`
  (and on demand via ``world.dump_flight_recorder()``);
* :mod:`~repro.telemetry.perfetto` — Chrome/Perfetto ``trace_event``
  export of traces + spans (ranks as pids);
* the conduit-boundary samples come from the world's
  :class:`~repro.gasnet.trace.Observer` layer, which feeds all of the
  above.

Enable per world::

    repro.spmd(body, ranks=4, telemetry="full")     # or "flight"
    repro.spmd(body, ranks=4,
               telemetry={"mode": "flight", "flight_capacity": 512})

The default is ``"off"``: no conduit layer is installed and the hot
paths are unchanged.
"""

from repro.telemetry import tracing
from repro.telemetry.flight import FlightEvent, FlightRecorder, merge_dump
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.metrics import (
    Gauge,
    MetricsSampler,
    finalize_snapshot,
    merge_snapshots,
    metrics_reduce,
    rank_snapshot,
)
from repro.telemetry.perfetto import to_perfetto, write_perfetto
from repro.telemetry.recorder import (
    RankTelemetry,
    Span,
    TelemetryConfig,
    WorldTelemetry,
    resolve_config,
)

__all__ = [
    "LogHistogram",
    "FlightEvent",
    "FlightRecorder",
    "merge_dump",
    "Span",
    "TelemetryConfig",
    "RankTelemetry",
    "WorldTelemetry",
    "resolve_config",
    "to_perfetto",
    "write_perfetto",
    "tracing",
    "Gauge",
    "MetricsSampler",
    "rank_snapshot",
    "merge_snapshots",
    "finalize_snapshot",
    "metrics_reduce",
]
