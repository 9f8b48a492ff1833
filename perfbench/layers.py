"""Per-layer metrics of the traced run: where the wrappers go, what they yield.

Layers are the repository's modules.  Each wrapper sits on a public function
the workloads call, and is installed and removed by the benchmark only:

=====================  =====================================================
span                   wrapped function
=====================  =====================================================
``encode``             ``SystematicEncoder.encode``
``channel``            ``ChannelPipeline.llrs``
``count``              ``ErrorCounter.update_batch``
``decode``             ``decode_frames`` as ``repro.sim.montecarlo`` resolves it
``decode.check_node``  ``TannerGraph.min_sum_extrinsic`` (the decoder's
                       ``edge_structure`` is a ``TannerGraph``)
``decode.bit_node``    ``TannerGraph.bit_node_update``
``decode.syndrome``    ``TannerGraph.syndrome_ok``
``decode.gather``      ``TannerGraph.gather_bits``
``pool.run_states``    ``SharedWorkerPool.run_states``
``scheduler.plan``     ``CampaignScheduler.plan``
``store.record_point`` ``ResultStore.record_point``
=====================  =====================================================

Times and calls are reported per round, so runs of different lengths compare.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice

from perfbench.spans import Span, Tracer, self_times

#: ``TannerGraph.min_sum_extrinsic`` switches from the ``reduceat`` spelling
#: to the padded kernels at this many rows; narrower calls count as narrow.
NARROW_ROWS = 32

#: Iteration-count histogram buckets (inclusive bounds) for 18 iterations.
ITER_BUCKETS = ((0, 4), (5, 8), (9, 12), (13, 17), (18, 18))


def _bucket_name(low: int, high: int) -> str:
    return f"decode.iter_hist.{low:02d}" if low == high else f"decode.iter_hist.{low:02d}-{high:02d}"


#: Every per-layer metric with its unit, in report order.
METRICS: dict[str, str] = {
    "codes.build_s": "s",
    "encode.init_s": "s",
    "encode.calls": "count",
    "encode.busy_s": "s",
    "encode.ms_per_frame": "ms",
    "channel.busy_s": "s",
    "channel.ms_per_frame": "ms",
    "count.busy_s": "s",
    "decode.busy_s": "s",
    "decode.ms_per_frame": "ms",
    "decode.ns_per_edge_iter": "ns",
    "decode.iterations_mean": "iterations",
    "decode.converged_frac": "ratio",
    **{_bucket_name(low, high): "frames" for low, high in ITER_BUCKETS},
    "decode.check_node.busy_s": "s",
    "decode.check_node.calls": "count",
    "decode.check_node.rows_mean": "rows",
    "decode.check_node.narrow_frac": "ratio",
    "decode.bit_node.busy_s": "s",
    "decode.syndrome.busy_s": "s",
    "decode.gather.busy_s": "s",
    "decode.other_s": "s",
    "pool.run_states_s": "s",
    "pool.worker_cpu_s": "s",
    "pool.utilization": "ratio",
    "pool.queue_wait_s": "s",
    "pool.dispatched_frames": "frames",
    "pool.useful_frac": "ratio",
    "scheduler.plan_s": "s",
    "store.record_point.calls": "count",
    "store.record_point.busy_s": "s",
    "store.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------- #
# Span attributes: read-only summaries of a call's arguments and result.
# ---------------------------------------------------------------------- #
def _rows(args, result) -> int:
    data = args[1]
    return int(data.shape[0]) if getattr(data, "ndim", 1) == 2 else 1


def _decoded(args, result) -> dict:
    import numpy as np

    iterations = np.atleast_1d(result.iterations)
    return {
        "rows": int(iterations.size),
        "iterations": int(iterations.sum()),
        "converged": int(np.count_nonzero(result.converged)),
        "hist": np.bincount(iterations).tolist(),
    }


def _dispatched_frames(args, result) -> int:
    from repro.sim.sharding import iter_shard_sizes

    return sum(
        sum(islice(iter_shard_sizes(state.config), state.shards_dispatched))
        for state in args[1]
    )


def _bytes_written(args, result) -> int:
    store, label = args[0], args[1]
    return store.curve_path(label).stat().st_size if result else 0


def install(tracer: Tracer) -> None:
    """Wrap every traced function; ``tracer.remove()`` undoes it."""
    import repro.sim.montecarlo as montecarlo
    from repro.channel.pipeline import ChannelPipeline
    from repro.decode.graph import TannerGraph
    from repro.encode.systematic import SystematicEncoder
    from repro.sim.campaign.scheduler import CampaignScheduler
    from repro.sim.campaign.store import ResultStore
    from repro.sim.parallel import SharedWorkerPool
    from repro.sim.statistics import ErrorCounter

    tracer.install(SystematicEncoder, "encode", "encode", _rows)
    tracer.install(ChannelPipeline, "llrs", "channel", _rows)
    tracer.install(ErrorCounter, "update_batch", "count")
    tracer.install(montecarlo, "decode_frames", "decode", _decoded)
    tracer.install(TannerGraph, "min_sum_extrinsic", "decode.check_node", _rows)
    tracer.install(TannerGraph, "bit_node_update", "decode.bit_node")
    tracer.install(TannerGraph, "syndrome_ok", "decode.syndrome")
    tracer.install(TannerGraph, "gather_bits", "decode.gather")
    tracer.install(SharedWorkerPool, "run_states", "pool.run_states", _dispatched_frames)
    tracer.install(CampaignScheduler, "plan", "scheduler.plan")
    tracer.install(ResultStore, "record_point", "store.record_point", _bytes_written)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(
    span_lists: list[list[Span]],
    *,
    rounds: int,
    num_edges: int,
    counted_frames: int,
    shard_events: list[dict],
    workers: int,
    worker_cpu_s: float,
    setup: dict[str, float],
    overhead_frac: float,
) -> dict[str, float]:
    """Every metric of :data:`METRICS` from the spans of ``rounds`` traced rounds.

    ``span_lists`` holds one list per process (the benchmark process and
    each forked pool worker); ``shard_events`` are the campaign's
    ``shard_completed`` telemetry records.
    """
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    narrow = 0
    decoded = {"rows": 0, "iterations": 0, "converged": 0}
    hist: list[int] = []
    dispatched = 0
    written = 0
    for spans in span_lists:
        for (name, start, end, _, attrs), self_s in zip(spans, self_times(spans)):
            busy[name] += end - start
            own[name] += self_s
            calls[name] += 1
            if name in ("encode", "channel", "decode.check_node"):
                rows[name] += attrs
                if name == "decode.check_node" and attrs < NARROW_ROWS:
                    narrow += 1
            elif name == "decode":
                for field in decoded:
                    decoded[field] += attrs[field]
                hist.extend([0] * (len(attrs["hist"]) - len(hist)))
                for iterations, frames in enumerate(attrs["hist"]):
                    hist[iterations] += frames
            elif name == "pool.run_states":
                dispatched += attrs
            elif name == "store.record_point":
                written += attrs

    per_round = 1.0 / max(rounds, 1)
    metrics = {
        "codes.build_s": setup["codes.build_s"],
        "encode.init_s": setup["encode.init_s"],
        "encode.calls": calls["encode"] * per_round,
        "encode.busy_s": busy["encode"] * per_round,
        "encode.ms_per_frame": 1e3 * _ratio(busy["encode"], rows["encode"]),
        "channel.busy_s": busy["channel"] * per_round,
        "channel.ms_per_frame": 1e3 * _ratio(busy["channel"], rows["channel"]),
        "count.busy_s": busy["count"] * per_round,
        "decode.busy_s": busy["decode"] * per_round,
        "decode.ms_per_frame": 1e3 * _ratio(busy["decode"], decoded["rows"]),
        "decode.ns_per_edge_iter": 1e9
        * _ratio(busy["decode"], decoded["iterations"] * num_edges),
        "decode.iterations_mean": _ratio(decoded["iterations"], decoded["rows"]),
        "decode.converged_frac": _ratio(decoded["converged"], decoded["rows"]),
    }
    for low, high in ITER_BUCKETS:
        metrics[_bucket_name(low, high)] = sum(hist[low : high + 1]) * per_round
    metrics.update(
        {
            "decode.check_node.busy_s": busy["decode.check_node"] * per_round,
            "decode.check_node.calls": calls["decode.check_node"] * per_round,
            "decode.check_node.rows_mean": _ratio(
                rows["decode.check_node"], calls["decode.check_node"]
            ),
            "decode.check_node.narrow_frac": _ratio(narrow, calls["decode.check_node"]),
            "decode.bit_node.busy_s": busy["decode.bit_node"] * per_round,
            "decode.syndrome.busy_s": busy["decode.syndrome"] * per_round,
            "decode.gather.busy_s": busy["decode.gather"] * per_round,
            # decode's self time: compaction, quantization, copies.
            "decode.other_s": own["decode"] * per_round,
        }
    )
    run_states = busy["pool.run_states"]
    metrics.update(
        {
            "pool.run_states_s": run_states * per_round,
            "pool.worker_cpu_s": worker_cpu_s * per_round if run_states else 0.0,
            "pool.utilization": _ratio(
                sum(e["seconds"] for e in shard_events), workers * run_states
            ),
            "pool.queue_wait_s": sum(e["queue_seconds"] for e in shard_events) * per_round,
            "pool.dispatched_frames": dispatched * per_round,
            "pool.useful_frac": _ratio(counted_frames, dispatched),
            "scheduler.plan_s": busy["scheduler.plan"] * per_round,
            "store.record_point.calls": calls["store.record_point"] * per_round,
            "store.record_point.busy_s": busy["store.record_point"] * per_round,
            "store.bytes_written": written * per_round,
            "trace.overhead_frac": overhead_frac,
        }
    )
    return metrics
