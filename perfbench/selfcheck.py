"""Self-check of the benchmark at tiny sizes: every gate must be able to fail.

    python3 perfbench/selfcheck.py

Each workload's gate runs through the harness loop on four tiny ops, two
of them sabotaged: a gallery scenario with a wrong expected c_n, a random
CSS report with one sampled J entry corrupted, and an oracle value off by
one.  The check passes when exactly the sabotaged ops are counted as
failed.  It also checks that BENCHMARK.json names the workloads and
metrics the harness prints.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from run import ROOT, import_package

SABOTAGED = {1, 3}
OPS = 4


def _tiny_workloads():
    from topomi import builders, scenarios
    from workloads import Gallery, OracleTorus, OpInput, RandomCss

    class WrongExpectedCn(Gallery):
        """In-memory suite of one annulus scenario; sabotage: wrong expected c_n."""

        def __init__(self, seed: int):
            self.reference = None
            self.css = builders.annulus(4)

        def make_input(self, index: int) -> OpInput:
            c_n = 2 * (-1) ** (self.css.n_subsystems - 1)
            if index in SABOTAGED:
                c_n = -c_n
            scn = scenarios.Scenario.from_dict({
                "name": "tiny-annulus", "kind": "analytic",
                "css": {"ascii": self.css.to_ascii().splitlines()},
                "expected": {"c_n": c_n},
            })
            return OpInput(index, (scn,), {})

        def run(self, inp: OpInput):
            return scenarios.SuiteResult(tuple(scenarios.run_scenario(s) for s in inp.payload))

    class CorruptedJ(RandomCss):
        def run(self, inp: OpInput):
            report = super().run(inp)
            if inp.index in SABOTAGED:
                _, sample = inp.payload
                j = report.per_subset_j.copy()
                j[sample[0]] += 1
                report = dataclasses.replace(report, per_subset_j=j)
            return report

    class MismatchedOracle(OracleTorus):
        def run(self, inp: OpInput):
            exact, c_n = super().run(inp)
            return (exact + 1 if inp.index in SABOTAGED else exact), c_n

    return (
        ("gallery: wrong expected c_n", WrongExpectedCn(0)),
        ("random-n20: corrupted J sample", CorruptedJ(0, n=6, size=8, growth=20)),
        ("oracle-torus: mismatched oracle value", MismatchedOracle(0, n=4, lattices=((8, 2),))),
    )


def check_gates() -> bool:
    import harness

    ok = True
    for label, workload in _tiny_workloads():
        inputs = [workload.make_input(i) for i in range(OPS)]
        records = harness.measure(workload, inputs, harness.StopRule())
        failed = {r.index for r in records if r.error is not None}
        passed = failed == SABOTAGED and len(records) == OPS
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {label}: failed ops {sorted(failed)}, "
              f"expected {sorted(SABOTAGED)}")
        for r in records:
            if r.error:
                print(f"       op {r.index}: {r.error}")
    return ok


def check_declaration() -> bool:
    import harness
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = (
        ("workloads", [w["name"] for w in spec["workloads"]], sorted(WORKLOADS)),
        ("end_to_end", [m["name"] for m in spec["end_to_end"]], list(harness.END_TO_END)),
        ("per_layer", [m["name"] for m in spec["per_layer"]], list(harness.PER_LAYER)),
    )
    ok = True
    for key, declared, printed in pairs:
        same = sorted(declared) == sorted(printed)
        ok &= same
        print(f"{'ok  ' if same else 'FAIL'} BENCHMARK.json {key} matches the harness"
              + ("" if same else f": declared {sorted(set(declared) ^ set(printed))} differ"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wrong = sorted(name for name, unit in units.items() if harness.unit(name) != unit)
    ok &= not wrong
    print(f"{'ok  ' if not wrong else 'FAIL'} BENCHMARK.json units match the harness"
          + (f": {wrong}" if wrong else ""))
    return ok


def main() -> int:
    import_package()
    ok = check_gates()
    ok &= check_declaration()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
