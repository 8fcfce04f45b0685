"""Seeded instance sets for the three benchmark workloads.

Every instance is a graph file plus the strategy the solve op runs it
with.  An instance's generator is seeded from the workload name, the run
seed and the instance's slot, so one seed always gives the same files
and another seed gives other graphs of the same sizes.  The size grid is
fixed per workload; only the random structure and weights follow the
seed, which keeps the mix of sizes, and so the meaning of every metric,
the same from run to run.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

WORKLOADS = ("lhf", "prism", "fallback")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Spec:
    family: str  # "chordal" | "grow_lhf" | "prism" | "er"
    size: int  # n for chordal/grow_lhf/er, k for prism
    style: str  # holefree.families weight style
    strategy: str  # CLI --strategy


def _lhf(scale: str) -> list[Spec]:
    # The paper's polynomial class; PMC enumeration is nearly the whole op.
    # Ten graphs of one size sit at the middle of the cost range, so the
    # median solve lands among them and stays steady from seed to seed.
    if scale == "tiny":
        chordal, grown = (8, 10, 12, 12, 12, 14), (8, 10)
    else:
        chordal, grown = (40, 45, 50, 60, *[70] * 10, 80, 90, 100), (30, 40, 50)
    out = [Spec("chordal", n, "int", "auto") for n in chordal]
    out += [Spec("grow_lhf", n, "int", "auto") for n in grown]
    return out


def _styled(sizes) -> list[Spec]:
    """Prisms of the given sizes, cycling through the weight styles."""
    styles = ("int", "decimal", "skew")
    return [Spec("prism", k, styles[i % 3], "auto") for i, k in enumerate(sizes)]


def _prism(scale: str) -> list[Spec]:
    # Many PMCs, many blocks and dense caps: cap indexing and exact DP.
    # The median solve falls among the 8-prisms and the tail among the
    # 9-prisms, each inside its group rather than at an edge.
    if scale == "tiny":
        return _styled((3, 3, 4, 4, 4, 5))
    sizes = (6,) * 3 + (7,) * 3 + (8,) * 7 + (9,) * 6
    return _styled(sizes) + [Spec("prism", 10, "decimal", "auto")]


def _fallback(scale: str) -> list[Spec]:
    # Cap trips: 13- to 16-prisms trip the separator cap and go to subexp1
    # (the median solve is a 15-prism, the tail a 16-prism), and ER graphs
    # with n >= 50 trip it and then fail under auto (exit 3).
    # subexp2 on ER graphs with n = 35 runs triangulation, balanced
    # separators and the tree-decomposition DP.  ER graphs with n = 40 under
    # auto, and with n >= 40 under subexp2, take anywhere from a tenth of a
    # second to minutes depending on the seed, and their memory use swings
    # with them, so they are not in the mix.
    if scale == "tiny":
        return _styled((4, 13)) + [Spec("er", 12, "int", "auto"), Spec("er", 12, "int", "subexp2")]
    out = _styled((13,) * 2 + (14,) * 2 + (15,) * 8 + (16,) * 8)
    out += [Spec("er", n, "int", "auto") for n in (50, 55, 60)]
    out += [Spec("er", 35, "int", "subexp2")] * 3
    return out


def specs(workload: str, scale: str) -> list[Spec]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick one of {SCALES}")
    return {"lhf": _lhf, "prism": _prism, "fallback": _fallback}[workload](scale)


def instance_seed(workload: str, seed: int, slot: int) -> str:
    # str seeds hash with SHA-512 inside random, independent of PYTHONHASHSEED
    return f"{workload}:{seed}:{slot}"


def build(spec: Spec, rng: random.Random):
    """The weighted graph of one instance."""
    from holefree.families import (
        er_graph,
        grow_lhf,
        prism_graph,
        random_chordal,
        random_weights,
    )

    if spec.family == "chordal":
        g = random_chordal(spec.size, 2 * spec.size, rng)
    elif spec.family == "grow_lhf":
        base = random_chordal(spec.size, 2 * spec.size, rng)
        g = grow_lhf(base, spec.size, rng, forbid_prism=3)
    elif spec.family == "prism":
        g = prism_graph(spec.size)
    elif spec.family == "er":
        g = er_graph(spec.size, 0.08, rng)
    else:
        raise ValueError(f"unknown family {spec.family!r}")
    return random_weights(g, rng, spec.style)


def run_order(count: int) -> list[int]:
    """Slots 0..count-1 in bit-reversal order.

    Instances of one size sit next to each other in the spec lists; this
    order spreads them over each pass, so a slow spell of the machine
    does not land on one size class and move its percentiles alone.
    """

    def reversed_bits(i: int) -> float:
        out, scale = 0.0, 0.5
        while i:
            out += scale * (i & 1)
            i >>= 1
            scale /= 2
        return out

    return sorted(range(count), key=reversed_bits)


def spec_record(spec: Spec) -> dict:
    return asdict(spec)
