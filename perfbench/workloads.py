"""Benchmark workloads: seeded inputs, one op per input, and its correctness gate.

A workload makes every op's input during set-up from the workload seed and
the op index, so one seed always gives the same ops.  ``run`` is the timed
call into topomi; ``check`` returns ``None`` when the result is correct and
a reason otherwise.  Each input carries a fingerprint (subsystems, cells,
holes, split subsystems, qubits) so that two commits can be shown to have
run identical ops.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np

from topomi import builders, engine, grid, scenarios, stabilizer
from topomi.grid import OUTSIDE, GridCss
from topomi.model import EntropyModel


@dataclass(frozen=True)
class OpInput:
    index: int
    payload: object
    fingerprint: dict


def css_fingerprint(css: GridCss) -> dict:
    split = sum(
        1 for i in range(css.n_subsystems)
        if grid.connected_components(css.subsystem_cells(i))[0] > 1
    )
    return {
        "n": css.n_subsystems,
        "cells": css.width * css.height,
        "holes": grid.find_holes(css).n_h,
        "split": split,
        "labels": hashlib.sha256(repr(css.labels).encode()).hexdigest()[:12],
    }


def fingerprint_digest(fingerprints: list[dict]) -> str:
    blob = json.dumps(fingerprints, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# gallery: the shipped scenario suite
# ----------------------------------------------------------------------

class Gallery:
    """One op is ``run_suite`` over the shipped gallery.

    The input is the gallery itself, so the seed changes nothing.  The gate
    asks for zero failed scenarios and the same ``to_json_dict()`` from every
    op of the run.
    """

    name = "gallery"
    batch = 1

    def __init__(self, seed: int):
        self.directory = scenarios.gallery_dir()
        self.reference: dict | None = None
        self._fingerprint = self._gallery_fingerprint()

    def _gallery_fingerprint(self) -> dict:
        paths = scenarios.suite_paths(self.directory)
        digest = hashlib.sha256()
        totals = {"scenarios": len(paths), "n": 0, "n_max": 0, "cells": 0,
                  "holes": 0, "split": 0, "qubits": 0}
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
            scn = scenarios.load_scenario(path)
            if scn.kind == "analytic":
                fp = css_fingerprint(scenarios.scenario_css(scn))
                totals["n"] += fp["n"]
                totals["n_max"] = max(totals["n_max"], fp["n"])
                for key in ("cells", "holes", "split"):
                    totals[key] += fp[key]
            elif scn.kind == "stabilizer":
                lattice, _ = stabilizer.parse_lattice_scenario(scn.payload.get("lattice", scn.payload))
                totals["qubits"] += lattice.n_qubits
        totals["files"] = digest.hexdigest()[:12]
        return totals

    def make_input(self, index: int) -> OpInput:
        return OpInput(index, self.directory, self._fingerprint)

    def warm_up(self) -> None:
        for path in scenarios.suite_paths(self.directory)[:3]:
            scenarios.run_scenario(scenarios.load_scenario(path))

    def run(self, inp: OpInput):
        return scenarios.run_suite(inp.payload)

    def check(self, inp: OpInput, suite) -> str | None:
        if suite.n_failed:
            names = [r.name for r in suite.results if not r.passed]
            return f"{suite.n_failed} scenarios failed: {names[:5]}"
        doc = suite.to_json_dict()
        if self.reference is None:
            self.reference = doc
        elif doc != self.reference:
            return "suite JSON differs from the first op of the run"
        return None

    def result_metrics(self, suite, op_seconds: float) -> dict[str, float]:
        out = {"scenarios.analytic_s": 0.0, "scenarios.graph_s": 0.0, "scenarios.stabilizer_s": 0.0}
        for r in suite.results:
            key = f"scenarios.{r.kind}_s"
            if key in out:
                out[key] += r.elapsed
        slowest = max((r.elapsed for r in suite.results), default=0.0)
        out["scenarios.slowest_share"] = slowest / op_seconds
        return out


# ----------------------------------------------------------------------
# random-n20: fresh random CSS, never repeated
# ----------------------------------------------------------------------

class RandomCss:
    """One op is ``multipartite_information`` on a fresh seeded random CSS.

    The gate compares J at a seeded sample of masks with the flood-fill
    definition and recomputes C^N from the returned J table.
    """

    name = "random-n20"
    batch = 1
    SAMPLED_MASKS = 12

    def __init__(self, seed: int, n: int = 20, size: int = 16, growth: int = 200):
        self.seed = seed
        self.n, self.size, self.growth = n, size, growth
        self.model = EntropyModel()
        self._seen: set[tuple[int, ...]] = set()

    def make_input(self, index: int) -> OpInput:
        attempt = 0
        while True:
            rng = random.Random(f"{self.name}:{self.seed}:{index}:{attempt}")
            css = builders.random_css(rng, self.n, self.size, self.size, growth=self.growth)
            if css.labels not in self._seen:
                break
            attempt += 1
        self._seen.add(css.labels)
        full = (1 << self.n) - 1
        sample = sorted(rng.sample(range(1, full), self.SAMPLED_MASKS)) + [full]
        return OpInput(index, (css, tuple(sample)), css_fingerprint(css))

    def warm_up(self) -> None:
        tiny = RandomCss(self.seed, n=6, size=8, growth=20)
        inp = tiny.make_input(0)
        reason = tiny.check(inp, tiny.run(inp))
        if reason:
            raise RuntimeError(f"warm-up op failed its check: {reason}")

    def run(self, inp: OpInput):
        css, _ = inp.payload
        return engine.multipartite_information(self.model, css)

    def check(self, inp: OpInput, report) -> str | None:
        css, sample = inp.payload
        j = np.asarray(report.per_subset_j)
        if report.n_subsystems != css.n_subsystems or len(j) != 1 << css.n_subsystems:
            return f"report covers {report.n_subsystems} subsystems, {len(j)} masks"
        for mask in sample:
            want = grid.boundary_component_count(grid.union_region(css, mask))
            if int(j[mask]) != want:
                return f"J[{mask:#x}] = {int(j[mask])}, flood fill gives {want}"
        sizes = np.bitwise_count(np.arange(len(j), dtype=np.int64))
        signs = np.where(sizes % 2 == 1, 1, -1)
        signs[0] = 0
        c_n = int(signs @ j)
        if report.c_n != c_n:
            return f"c_n = {report.c_n}, alternating sum of J gives {c_n}"
        return None

    def result_metrics(self, report, op_seconds: float) -> dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# oracle-torus: the stabilizer cross-check on an N = 12 ring
# ----------------------------------------------------------------------

def place_ring(base: GridCss, scale: int, side: int, offset: tuple[int, int],
               relabel: list[int]) -> GridCss:
    """``base`` with cells scaled by ``scale``, ids relabelled, on a side x side grid."""
    ox, oy = offset
    labels = [OUTSIDE] * (side * side)
    for y in range(base.height):
        for x in range(base.width):
            v = base.label_at(x, y)
            if v == OUTSIDE:
                continue
            for dy in range(scale):
                row = (oy + y * scale + dy) * side
                for dx in range(scale):
                    labels[row + ox + x * scale + dx] = relabel[v]
    return GridCss(side, side, tuple(labels), name=f"ring-n{base.n_subsystems}-torus{side}")


class OracleTorus:
    """One op: code, rasterization, exact I^N and C^N for a ring on a torus.

    Ops alternate between the lattice sizes, and a run always holds whole
    pairs, so both sizes weigh equally in the op-time order statistics.
    The seed picks each op's relabelling and in-bounds offset.  The gate
    asks for oracle == -C^N == 2(-1)^N (units of log 2, D = 2).
    """

    name = "oracle-torus"
    batch = 2
    #: (torus side, cell scale) per op, alternating; with 1-cell arcs the
    #: rasterized ring no longer matches -C^N
    LATTICES = ((16, 2), (24, 3))

    def __init__(self, seed: int, n: int = 12, lattices=LATTICES):
        self.seed = seed
        self.n = n
        self.lattices = tuple(lattices)
        self.base = builders.annulus(n)

    def make_input(self, index: int) -> OpInput:
        side, scale = self.lattices[index % len(self.lattices)]
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        relabel = list(range(self.n))
        rng.shuffle(relabel)
        room = side - self.base.width * scale
        offset = (rng.randint(0, room), rng.randint(0, room))
        css = place_ring(self.base, scale, side, offset, relabel)
        lattice = stabilizer.CodeLattice(side, side, "torus")
        fingerprint = css_fingerprint(css)
        fingerprint["qubits"] = lattice.n_qubits
        return OpInput(index, (lattice, css), fingerprint)

    def warm_up(self) -> None:
        tiny = OracleTorus(self.seed, n=4, lattices=((8, 2),))
        inp = tiny.make_input(0)
        reason = tiny.check(inp, tiny.run(inp))
        if reason:
            raise RuntimeError(f"warm-up op failed its check: {reason}")

    def run(self, inp: OpInput):
        lattice, css = inp.payload
        state = stabilizer.build_code(lattice)
        regions = stabilizer.rasterize_css(lattice, css)
        exact = stabilizer.multipartite_information_exact(state, regions)
        c_n = engine.connectivity_count(css).c_n
        return exact, c_n

    def check(self, inp: OpInput, result) -> str | None:
        exact, c_n = result
        ring = 2 * (-1) ** self.n
        if exact != -c_n:
            return f"oracle {exact} != -C^N = {-c_n}"
        if exact != ring:
            return f"oracle {exact} != ring invariant {ring}"
        return None

    def result_metrics(self, result, op_seconds: float) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (Gallery, RandomCss, OracleTorus)}
