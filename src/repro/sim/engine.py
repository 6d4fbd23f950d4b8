"""Write-path pipeline simulator.

Models the data plane of Fig. 7b as a two-stage fluid pipeline::

    producers --[shuffle fabric]--> receiver buffers --[storage]--> disk

* the shuffle stage moves bytes at the aggregate network bound,
* the storage stage drains receiver buffers at the storage bound,
* receiver buffers are finite (two memtables per rank), so a slow
  storage stage back-pressures the shuffle,
* renegotiation events pause the shuffle stage for their duration
  while storage keeps draining — which is how CARP masks renegotiation
  latency when buffers hold enough outstanding writes (paper §VI,
  "Runtime Overhead").

The simulation is a fixed-step fluid integration; step size adapts to
the run length so accuracy is a fraction of a percent of total time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import Obs

_STEPS = 20_000

#: Simulated-seconds -> trace-timestamp scale (Chrome ts is in µs).
_US = 1e6


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one simulated ingestion."""

    duration: float
    data_bytes: float
    shuffle_stall_time: float
    storage_idle_time: float
    reneg_count: int

    @property
    def effective_throughput(self) -> float:
        """Application data volume / total runtime (the Fig. 7b metric)."""
        return self.data_bytes / self.duration if self.duration > 0 else 0.0


def simulate_ingestion(
    data_bytes: float,
    shuffle_bandwidth: float | None,
    storage_bandwidth: float | None,
    reneg_pauses: list[float] | None = None,
    receiver_buffer_bytes: float = float("inf"),
    obs: Obs | None = None,
) -> PipelineResult:
    """Simulate one epoch's ingestion through the CARP pipeline.

    Parameters
    ----------
    data_bytes:
        Application data volume for the epoch.
    shuffle_bandwidth:
        Aggregate shuffle rate in bytes/sec; ``None`` means data goes
        straight to storage (unpartitioned I/O, no shuffle stage).
    storage_bandwidth:
        Aggregate storage rate; ``None`` models dropping data at the
        receivers (the paper's CARP/ShuffleOnly configuration).
    reneg_pauses:
        Durations of renegotiation rounds; each pauses the shuffle once
        the shuffled volume crosses the next of ``len(reneg_pauses)``
        evenly spaced thresholds.
    receiver_buffer_bytes:
        Total buffering at shuffle receivers; bounds how much storage
        can keep draining while the shuffle is paused, and how far the
        shuffle can run ahead of a slow storage stage.
    obs:
        Optional observability stack.  With a recording stack, shuffle
        *stall* and storage *idle* intervals are traced as spans on the
        ``sim`` track (timestamps are simulated seconds, rendered in
        µs), renegotiation firings as instant markers, and moved bytes
        as counters.  ``None`` (the default) records nothing and adds
        no per-step work.
    """
    if data_bytes <= 0:
        raise ValueError("data_bytes must be positive")
    pauses = list(reneg_pauses or [])
    tracer = obs.tracer if obs is not None and obs.enabled else None

    if shuffle_bandwidth is None:
        if storage_bandwidth is None:
            raise ValueError("need at least one pipeline stage")
        duration = data_bytes / storage_bandwidth
        return PipelineResult(duration, data_bytes, 0.0, 0.0, 0)

    s_bw = shuffle_bandwidth
    t_bw = float("inf") if storage_bandwidth is None else storage_bandwidth

    # thresholds (in shuffled bytes) at which each renegotiation fires
    thresholds = [
        data_bytes * (i + 1) / (len(pauses) + 1) for i in range(len(pauses))
    ]

    bottleneck = min(s_bw, t_bw)
    est = data_bytes / bottleneck + sum(pauses)
    dt = est / _STEPS

    shuffled = 0.0
    stored = 0.0
    t = 0.0
    pause_left = 0.0
    next_reneg = 0
    stall = 0.0
    idle = 0.0
    stall_start: float | None = None
    idle_start: float | None = None
    tr_shuffle = tracer.track("sim", "shuffle") if tracer is not None else (0, 0)
    tr_storage = tracer.track("sim", "storage") if tracer is not None else (0, 0)

    # cap iterations defensively; the estimate can be low when buffers
    # are tiny and pauses serialize
    max_iters = _STEPS * 20
    for _ in range(max_iters):
        if stored >= data_bytes - 1e-6:
            break
        queue = shuffled - stored
        shuffle_active = (
            shuffled < data_bytes and pause_left <= 0.0
            and queue < receiver_buffer_bytes
        )
        inflow = 0.0
        if shuffle_active:
            inflow = min(s_bw * dt, data_bytes - shuffled,
                         receiver_buffer_bytes - queue)
        else:
            if shuffled < data_bytes:
                stall += dt
        outflow = min(t_bw * dt, queue + inflow) if t_bw != float("inf") else queue + inflow
        if outflow <= 0 and stored < data_bytes:
            idle += dt
        if tracer is not None:
            # coalesce contiguous stalled/idle steps into one span each
            stalled_now = not shuffle_active and shuffled < data_bytes
            if stalled_now and stall_start is None:
                stall_start = t
            elif not stalled_now and stall_start is not None:
                tracer.complete(tr_shuffle, "stall", stall_start * _US,
                                (t - stall_start) * _US)
                stall_start = None
            idle_now = outflow <= 0 and stored < data_bytes
            if idle_now and idle_start is None:
                idle_start = t
            elif not idle_now and idle_start is not None:
                tracer.complete(tr_storage, "idle", idle_start * _US,
                                (t - idle_start) * _US)
                idle_start = None
        shuffled += inflow
        stored += outflow
        if pause_left > 0:
            pause_left = max(0.0, pause_left - dt)
        if next_reneg < len(thresholds) and shuffled >= thresholds[next_reneg]:
            pause_left += pauses[next_reneg]
            if tracer is not None:
                tracer.instant(tr_shuffle, "renegotiation", t * _US,
                               {"index": next_reneg,
                                "pause_s": pauses[next_reneg]})
            next_reneg += 1
        t += dt
    else:
        raise RuntimeError("pipeline simulation did not converge")

    if tracer is not None:
        if stall_start is not None:
            tracer.complete(tr_shuffle, "stall", stall_start * _US,
                            (t - stall_start) * _US)
        if idle_start is not None:
            tracer.complete(tr_storage, "idle", idle_start * _US,
                            (t - idle_start) * _US)
    if obs is not None and obs.enabled:
        obs.metrics.counter("sim.bytes_shuffled").add(shuffled)
        obs.metrics.counter("sim.bytes_stored").add(stored)
        obs.metrics.counter("sim.stall_seconds").add(stall)
        obs.metrics.counter("sim.idle_seconds").add(idle)

    return PipelineResult(t, data_bytes, stall, idle, len(pauses))


def post_processing_throughput(
    data_bytes: float,
    write_bandwidth: float,
    extra_read_passes: float,
    extra_write_passes: float,
    read_bandwidth: float | None = None,
    cpu_time: float = 0.0,
) -> float:
    """Effective throughput of a post-processing indexing approach.

    The application first writes its data at ``write_bandwidth``; the
    indexer then performs additional read/write passes over it.
    Effective throughput = data volume / (application time +
    post-processing time), the metric of Fig. 7b.
    """
    if data_bytes <= 0 or write_bandwidth <= 0:
        raise ValueError("data_bytes and write_bandwidth must be positive")
    r_bw = read_bandwidth if read_bandwidth is not None else write_bandwidth
    app_time = data_bytes / write_bandwidth
    post = (
        extra_read_passes * data_bytes / r_bw
        + extra_write_passes * data_bytes / write_bandwidth
        + cpu_time
    )
    return data_bytes / (app_time + post)
