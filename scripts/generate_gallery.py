#!/usr/bin/env python3
"""Regenerate the built-in scenario gallery.

Grids come from the deterministic builders; every expected value is the
closed-form prediction (counts and integer multiples of log D / log 2),
not an engine output, so the gallery stays an independent yardstick.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from topomi import builders, grid
from topomi.scenarios import gallery_dir


def css_payload(css):
    return {"ascii": css.to_ascii().splitlines()}


def write(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote", path.name)


def main() -> None:
    out = gallery_dir()
    out.mkdir(parents=True, exist_ok=True)
    family_dir = out / "family"
    family_dir.mkdir(exist_ok=True)

    # -- plain rings ----------------------------------------------------
    for n in range(3, 9):
        css = builders.annulus(n)
        write(out / f"annulus-n{n}.json", {
            "name": css.name,
            "kind": "analytic",
            "case": "ring-baseline",
            "css": css_payload(css),
            "expected": {
                "n": n,
                "c_n": 2 * (-1) ** (n - 1),
                "i_over_log_d": (-1) ** n * 2,
                "chi": 2,
                "n_h": 1,
                "d_nn": n,
                "annular": True,
                "per_hole": [{"loop_size": n, "i_over_log_d": (-1) ** n * 2}],
                "constraint_over_log_d": 2,
                "sigma": 0,
            },
        })

    # -- vanishing arrangements ------------------------------------------
    for n in range(4, 9):
        css = builders.open_chain(n)
        write(out / f"open-chain-n{n}.json", {
            "name": css.name,
            "kind": "analytic",
            "case": "open-chain",
            "css": css_payload(css),
            "expected": {
                "n": n,
                "c_n": 0,
                "i_over_log_d": 0,
                "n_h": 0,
                "d_nn": n - 1,
                "annular": False,
                "sigma": (-1) ** n,  # -rho(P_n)
            },
        })

        css = builders.annulus_with_island(n)
        write(out / f"island-n{n}.json", {
            "name": css.name,
            "kind": "analytic",
            "case": "ring-plus-island",
            "css": css_payload(css),
            "expected": {
                "n": n,
                "c_n": 0,
                "i_over_log_d": 0,
                "n_h": 1,
                "d_nn": n - 1,
                "annular": False,
                "per_hole": [{"loop_size": n - 1, "i_over_log_d": (-1) ** (n - 1) * 2}],
            },
        })

        css = builders.annulus_with_appendage(n)
        write(out / f"appendage-n{n}.json", {
            "name": css.name,
            "kind": "analytic",
            "case": "ring-plus-appendage",
            "css": css_payload(css),
            "expected": {
                "n": n,
                "c_n": 0,
                "i_over_log_d": 0,
                "n_h": 1,
                "d_nn": n,
                "chi": 2,
                "annular": False,
                "per_hole": [{"loop_size": n - 1, "i_over_log_d": (-1) ** (n - 1) * 2}],
            },
        })

    # -- invariance deformations -----------------------------------------
    deformations = (
        (builders.annulus_with_punched_hole, "punched", "punched-subsystem"),
        (builders.annulus_with_self_handle, "self-handle", "self-handle"),
        (builders.annulus_with_nn_handle, "nn-handle", "nn-handle"),
    )
    for n in range(4, 7):
        for maker, stem, case in deformations:
            css = maker(n)
            write(out / f"{stem}-n{n}.json", {
                "name": css.name,
                "kind": "analytic",
                "case": case,
                "css": css_payload(css),
                "expected": {
                    "n": n,
                    "c_n": 2 * (-1) ** (n - 1),
                    "i_over_log_d": (-1) ** n * 2,
                    "n_h": 2,
                    "annular": True,
                },
            })

    # -- further-neighbour handles ----------------------------------------
    for n, span in [(4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (6, 3)]:
        css = builders.far_handle_annulus(n, span)
        p, q = span + 1, n - span + 1
        write(out / f"far-handle-n{n}-span{span}.json", {
            "name": css.name,
            "kind": "analytic",
            "case": "far-handle",
            "css": css_payload(css),
            "expected": {
                "n": n,
                "c_n": 0,
                "i_over_log_d": 0,
                "n_h": 2,
                "annular": False,
                "subloops": sorted(
                    [
                        {"size": p, "i_over_log_d": (-1) ** p * 2},
                        {"size": q, "i_over_log_d": (-1) ** q * 2},
                    ],
                    key=lambda e: e["size"],
                ),
                "per_hole": [
                    {"loop_size": p, "i_over_log_d": (-1) ** p * 2},
                    {"loop_size": q, "i_over_log_d": (-1) ** q * 2},
                ],
                "constraint_over_log_d": 4,
            },
        })

    # the two loops revived by the n=5 handle, as standalone rings
    far5 = builders.far_handle_annulus(5, 2)
    from topomi.engine import subloop_revival
    from topomi.model import EntropyModel

    sub = subloop_revival(EntropyModel(), far5)
    for loop, case, stem in (
        (sub.loop_p, "far-handle-small-loop", "far-handle-n5-loop-p"),
        (sub.loop_q, "far-handle-large-loop", "far-handle-n5-loop-q"),
    ):
        css = grid.restrict_css(far5, loop, name=stem)
        m = css.n_subsystems
        write(out / f"{stem}.json", {
            "name": stem,
            "kind": "analytic",
            "case": case,
            "css": css_payload(css),
            "expected": {
                "n": m,
                "c_n": 2 * (-1) ** (m - 1),
                "i_over_log_d": (-1) ** m * 2,
                "n_h": 1,
                "annular": True,
            },
        })

    # -- multi-hole constraint scenarios -----------------------------------
    css = builders.two_hole_five()
    write(out / "two-hole-five.json", {
        "name": css.name,
        "kind": "analytic",
        "case": "two-hole-spine",
        "css": css_payload(css),
        "expected": {
            "n": 5,
            "c_n": 0,
            "i_over_log_d": 0,
            "n_h": 2,
            "d_nn": 6,
            "chi": 2,
            "annular": False,
            "per_hole": [
                {"loop_size": 3, "i_over_log_d": -2},
                {"loop_size": 3, "i_over_log_d": -2},
            ],
            "constraint_over_log_d": 4,
        },
    })

    css = builders.six_hole_eighteen()
    write(out / "six-hole-eighteen.json", {
        "name": css.name,
        "kind": "analytic",
        "case": "six-hole-lattice",
        "css": css_payload(css),
        "expected": {
            "n": 18,
            "c_n": 0,
            "i_over_log_d": 0,
            "n_h": 6,
            "d_nn": 23,
            "chi": 2,
            "annular": False,
            "per_hole": [
                {"loop_size": 6, "i_over_log_d": 2},
                {"loop_size": 5, "i_over_log_d": -2},
                {"loop_size": 5, "i_over_log_d": -2},
                {"loop_size": 5, "i_over_log_d": -2},
                {"loop_size": 5, "i_over_log_d": -2},
                {"loop_size": 6, "i_over_log_d": 2},
            ],
            "constraint_over_log_d": 12,
        },
    })

    # -- dual graphs --------------------------------------------------------
    write(out / "graph-cycle-n5.json", {
        "name": "graph-cycle-n5",
        "kind": "graph",
        "case": "ring-dual-graph",
        "graph": {"v": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]},
        "expected": {"rho": 0},
    })
    write(out / "graph-path-n4.json", {
        "name": "graph-path-n4",
        "kind": "graph",
        "case": "chain-dual-graph",
        "graph": {"v": 4, "edges": [[i, i + 1] for i in range(3)]},
        "expected": {"rho": -1},
    })

    # -- stabilizer scenarios -------------------------------------------------
    # minimal lattices: thin annular skeleton maps (explicit qubits)
    write(out / "stab-torus4-n3.json", {
        "name": "stab-torus4-n3",
        "kind": "stabilizer",
        "case": "code-ring-min-torus",
        "lattice": {
            "Lx": 4, "Ly": 4, "boundary": "torus",
            "regions": {
                "A": [4, 10, 17, 21],
                "B": [5, 6, 18, 26],
                "C": [8, 9, 22, 25],
            },
        },
        "expected": {"i_exact_over_log2": -2},
    })
    write(out / "stab-planar5-n4.json", {
        "name": "stab-planar5-n4",
        "kind": "stabilizer",
        "case": "code-ring-min-planar",
        "lattice": {
            "Lx": 5, "Ly": 5, "boundary": "planar",
            "regions": {
                "A": [4, 5, 21],
                "B": [6, 8, 26],
                "C": [10, 27, 31],
                "D": [9, 22, 32],
            },
        },
        "expected": {"i_exact_over_log2": 2},
    })

    # fat rasterized rings cross-checked against the counting engine
    def block(x0, x1, y0, y1):
        return [(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]

    def band_css(w, h, arcs, name):
        labels = [grid.OUTSIDE] * (w * h)
        for label, cells in enumerate(arcs):
            for (x, y) in cells:
                labels[y * w + x] = label
        return grid.GridCss(w, h, tuple(labels), name=name)

    fat3 = band_css(8, 8, [
        block(1, 6, 1, 2),
        block(5, 6, 3, 6),
        block(1, 2, 3, 6) + block(3, 4, 5, 6),
    ], "stab-torus8-n3-raster")
    write(out / "stab-torus8-n3-raster.json", {
        "name": fat3.name,
        "kind": "stabilizer",
        "case": "code-ring-fat-torus",
        "lattice": {
            "Lx": 8, "Ly": 8, "boundary": "torus",
            "css": css_payload(fat3),
        },
        "expected": {"i_exact_over_log2": -2, "matches_counting": True},
    })

    fat4 = band_css(8, 8, [
        block(1, 6, 1, 2),
        block(5, 6, 3, 6),
        block(1, 4, 5, 6),
        block(1, 2, 3, 4),
    ], "stab-planar9-n4-raster")
    write(out / "stab-planar9-n4-raster.json", {
        "name": fat4.name,
        "kind": "stabilizer",
        "case": "code-ring-fat-planar",
        "lattice": {
            "Lx": 9, "Ly": 9, "boundary": "planar",
            "css": css_payload(fat4),
        },
        "expected": {"i_exact_over_log2": 2, "matches_counting": True},
    })

    # -- annular family for the entanglement vector ---------------------------
    for p in range(3, 7):
        css = builders.annulus(p, name=f"family-p{p}")
        write(family_dir / f"family-p{p}.json", {
            "name": css.name,
            "width": css.width,
            "height": css.height,
            "labels": list(css.labels),
        })


if __name__ == "__main__":
    main()
