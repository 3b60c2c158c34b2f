"""Closed-loop op timing, the traced run, and the metrics computed from them.

One caller runs the ops one after another in this process; each op is
timed alone and checked after its clock stops.  An op that raises or
fails its check counts as failed and the run goes on.

Shared 2-core x86-64 virtual machines change CPU speed by up to 2x for
minutes at a time (the same gallery op took 0.6 s and 1.15 s within two
minutes), which no run length within the time a check may take averages
out.  So a fixed pure-Python kernel, independent of topomi, is timed
before the first op and after every op, and each op's time is scaled to
the speed at which the kernel takes ``CAL_REF_S``: ``seconds * CAL_REF_S
/ kernel seconds`` next to the op.  The gated op metrics use the scaled
times; the wall times are in the detail line.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from spans import LAYERS, Tracer, op_summary

END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb")

#: named spans and counters, then layer self times and shares, then tracing cost
PER_LAYER = (
    "masks.euler_s", "masks.links_s", "masks.components_s",
    "masks.table_bytes", "masks.subsets", "masks.split_subsystems",
    "grid.validate_s", "grid.holes_s", "grid.loops_s", "grid.restrict_s", "grid.cells",
    "engine.information_s", "engine.hole_pass_s", "engine.recursion_s",
    "engine.subloop_s", "engine.self_s",
    "graphs.rho_s", "graphs.sigma_s",
    "stabilizer.build_code_s", "stabilizer.rasterize_s", "stabilizer.exact_s",
    "stabilizer.entropy_bits_s", "stabilizer.ranks", "stabilizer.qubits",
    "scenarios.load_s", "scenarios.analytic_s", "scenarios.graph_s",
    "scenarios.stabilizer_s", "scenarios.slowest_share",
    *(f"{layer}.layer_self_s" for layer in LAYERS),
    *(f"{layer}.layer_share" for layer in LAYERS),
    "trace.untraced_op_p50_s", "trace.traced_op_p50_s", "trace.overhead", "trace.spans",
)

#: a tail percentile needs this many ops: the value with ten ops beyond it
TAIL_BEYOND = 10

#: seconds ``calibrate`` takes on an uncontended 2-core x86-64 virtual machine
CAL_REF_S = 0.032


def calibrate() -> float:
    """Wall time of a fixed integer loop, a probe of the machine's current speed."""
    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x ^= (i * 2654435761) & 0xFFFFFFFF
    return time.perf_counter() - start


@dataclass
class OpRecord:
    index: int
    seconds: float
    error: str | None
    traced: bool = False
    layers: dict[str, float] = field(default_factory=dict)
    calibration: float = CAL_REF_S  # mean kernel time before and after the op

    @property
    def scaled(self) -> float:
        return self.seconds * CAL_REF_S / self.calibration


def _timed_call(workload, inp):
    start = time.perf_counter()
    try:
        result = workload.run(inp)
        error = None
    except Exception as exc:  # a failed op is counted, not fatal
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def _checked(workload, inp, result, error) -> str | None:
    if error is not None:
        return error
    try:
        return workload.check(inp, result)
    except Exception as exc:  # a gate that crashes fails the op
        return f"check raised {type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class StopRule:
    """When a run stops starting ops before its inputs run out.

    Only between batches: after ``soft`` once ``min_ops`` ops are done, and
    after ``hard`` in any case (``perf_counter`` times).
    """

    soft: float = math.inf
    hard: float = math.inf
    min_ops: int = 0

    def reached(self, done: int, batch: int) -> bool:
        if done % batch:
            return False
        now = time.perf_counter()
        return now > self.hard or (now > self.soft and done >= self.min_ops)


def measure(workload, inputs, stop: StopRule) -> list[OpRecord]:
    """Run every input once, untraced, with the kernel timed between ops."""
    records: list[OpRecord] = []
    before = calibrate()
    for inp in inputs:
        if stop.reached(len(records), workload.batch):
            break
        seconds, result, error = _timed_call(workload, inp)
        after = calibrate()
        error = _checked(workload, inp, result, error)
        records.append(OpRecord(inp.index, seconds, error, calibration=(before + after) / 2))
        before = after
    return records


def measure_traced(workload, inputs, stop: StopRule) -> list[OpRecord]:
    """Run every input twice, traced and untraced, alternating which goes first."""
    tracer = Tracer()
    records: list[OpRecord] = []
    for done, inp in enumerate(inputs):
        if stop.reached(done, workload.batch):
            break
        traced_first = (inp.index // workload.batch) % 2 == 1
        for traced in (traced_first, not traced_first):
            if not traced:
                seconds, result, error = _timed_call(workload, inp)
                records.append(OpRecord(inp.index, seconds, _checked(workload, inp, result, error)))
                continue
            tracer.install()
            try:
                root = tracer.begin_op(inp.index)
                seconds, result, error = _timed_call(workload, inp)
                tracer.leave(root)
            finally:
                tracer.uninstall()
            error = _checked(workload, inp, result, error)
            layers = op_summary(tracer, inp.index)
            if error is None:
                layers.update(workload.result_metrics(result, seconds))
            records.append(OpRecord(inp.index, seconds, error, True, layers))
    return records


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it.

    With fewer than eleven ops no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def unit(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name == "masks.table_bytes":
        return "bytes"
    if name.endswith(("share", "overhead")):
        return "ratio"
    return "count"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_stats(times: list[float], passed: int) -> dict[str, float]:
    return {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "ops_per_s": passed / sum(times),
    }


def end_to_end(records: list[OpRecord], setup_s: float) -> dict[str, float]:
    """The gated metrics, from kernel-scaled op times and set-up times."""
    passed = sum(1 for r in records if r.error is None)
    return {"setup_s": setup_s, **op_stats([r.scaled for r in records], passed),
            "peak_rss_mb": peak_rss_mb()}


def per_layer(records: list[OpRecord]) -> dict[str, float]:
    """Per-op means over the traced ops; 0 for a layer the workload never calls."""
    traced = [r for r in records if r.traced]
    plain = [r.seconds for r in records if not r.traced]
    out = {name: 0.0 for name in PER_LAYER}
    for r in traced:
        for name, value in r.layers.items():
            if name in out:
                out[name] += value / len(traced)
    op_mean = statistics.fmean(r.seconds for r in traced)
    for layer in LAYERS:
        out[f"{layer}.layer_share"] = out[f"{layer}.layer_self_s"] / op_mean
    out["trace.untraced_op_p50_s"] = statistics.median(plain)
    out["trace.traced_op_p50_s"] = statistics.median(r.seconds for r in traced)
    out["trace.overhead"] = out["trace.traced_op_p50_s"] / out["trace.untraced_op_p50_s"] - 1.0
    return out
