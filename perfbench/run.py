"""topomi benchmark: one workload, one closed loop, one JSON result line.

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result
object; the line before it holds the run's details (versions, machine,
op fingerprints, failures).

The op count is fixed by ``--seconds`` and a nominal op cost per workload
(``NOMINAL_OP_S``), not by a clock, so two commits run the same
ops for a seed and the same order statistics are compared.
"""

import time

STARTED = time.time()  # before the other imports, which set-up time covers

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: seconds per op of the code the benchmark was defined on, at the slow end
#: of a shared 2-core x86-64 virtual machine
NOMINAL_OP_S = {"gallery": 1.0, "random-n20": 2.2, "oracle-torus": 2.5}
#: ten ops beyond the tail percentile, plus the one it reads
MIN_OPS = 11
#: set-ups measured per untraced run; setup_s is their median
SETUP_PROBES = 5
#: once MIN_OPS are done, stop starting ops after this multiple of --seconds
SLOW_MACHINE_CAP = 1.25
#: stop starting ops this long after process start, to stay inside 180 s
WALL_CAP_S = 140.0
PROBE_TIMEOUT_S = 60.0


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import topomi from it."""
    if not (SRC / "topomi" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'topomi'} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import topomi

    if Path(topomi.__file__).resolve().parent != (SRC / "topomi").resolve():
        raise SystemExit(f"perfbench: imported topomi from {topomi.__file__}, not {SRC}")


def op_count(name: str, batch: int, seconds: float) -> int:
    n = max(MIN_OPS, round(seconds / NOMINAL_OP_S[name]))
    return math.ceil(n / batch) * batch


def set_up(name: str, seed: int, count: int):
    """Workload object, its inputs, and one warm-up op on a tiny input."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    inputs = [workload.make_input(i) for i in range(count)]
    workload.warm_up()
    return workload, inputs


def probe_setups(args, calibrate) -> list[tuple[float, float]]:
    """(seconds, kernel seconds) for ``SETUP_PROBES`` fresh processes.

    Each is timed from spawn to the end of its set-up; the kernel is timed
    in this process before and after it.
    """
    samples = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-probe", repr(spawned)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        after = calibrate()
        samples.append((json.loads(proc.stdout.splitlines()[-1])["setup_s"], (before + after) / 2))
        before = after
    return samples


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    import_package()
    imported = time.time()
    args = parse_args(argv)

    import harness
    from workloads import WORKLOADS, fingerprint_digest

    batch = WORKLOADS[args.workload].batch
    count = op_count(args.workload, batch, args.seconds)
    if args.trace:
        count = math.ceil(math.ceil(count / 2) / batch) * batch
    if args.setup_probe is not None:
        set_up(args.workload, args.seed, count)
        print(json.dumps({"setup_s": time.time() - args.setup_probe}))
        return 0

    env = environment()
    probes = [] if args.trace else probe_setups(args, harness.calibrate)
    begin = time.time()
    workload, inputs = set_up(args.workload, args.seed, count)
    own_setup_s = (imported - STARTED) + (time.time() - begin)

    now = time.perf_counter()
    stop = harness.StopRule(
        soft=now + SLOW_MACHINE_CAP * args.seconds,
        hard=now + WALL_CAP_S - (time.time() - STARTED),
        min_ops=math.ceil(MIN_OPS / (2 if args.trace else 1) / batch) * batch,
    )
    measured = harness.measure_traced if args.trace else harness.measure
    records = measured(workload, inputs, stop)

    failed = [r for r in records if r.error is not None]
    ran = sorted({r.index for r in records})
    fingerprints = [inputs[i].fingerprint for i in ran]
    times = [r.seconds for r in records if not r.traced]
    by_shape: dict[str, list[float]] = {}
    for r in records:
        if not r.traced:
            fp = inputs[r.index].fingerprint
            shape = f"n{fp['n']}-cells{fp['cells']}-qubits{fp.get('qubits', 0)}"
            by_shape.setdefault(shape, []).append(r.seconds)
    if args.trace:
        metrics = harness.per_layer(records)
    else:
        setup_s = statistics.median(t * harness.CAL_REF_S / c for t, c in probes)
        metrics = harness.end_to_end(records, setup_s)
    passed = sum(1 for r in records if not r.traced and r.error is None)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **env,
        "ops_planned": len(inputs),
        "ops_run": len(ran),
        "op_seconds": times,
        "op_calibration_s": [] if args.trace else [r.calibration for r in records],
        "calibration_ref_s": harness.CAL_REF_S,
        "wall": {**harness.op_stats(times, passed),
                 "setup_s": statistics.median(t for t, _ in probes) if probes else None},
        "op_p50_s_by_shape": {k: statistics.median(v) for k, v in by_shape.items()},
        "tail_percentile": harness.tail(times)[1],
        "error_rate": len(failed) / len(records),
        "failures": [f"op {r.index}: {r.error}" for r in failed[:5]],
        "setup_probes_s": [t for t, _ in probes],
        "own_setup_s": own_setup_s,
        "fingerprint_digest": fingerprint_digest(fingerprints),
        "fingerprints": fingerprints,
        "elapsed_s": time.time() - STARTED,
    }
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": harness.unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
