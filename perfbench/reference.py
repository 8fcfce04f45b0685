"""Independent reference answers and the correctness gate.

The graph files are read by a parser of this module's own, and the
reference weight comes from networkx: a maximum weight clique of the
complement, with the weights scaled to integers by the least common
multiple of their denominators.  Nothing here uses holefree, so a
defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class GraphFile:
    n: int
    edges: frozenset[tuple[int, int]]  # 1-indexed, u < v
    weights: tuple[Fraction, ...]  # weights[v - 1]


def read_graph(path: Path) -> GraphFile:
    """Read the ``p mwis`` / ``w`` / ``e`` line format the instances use."""
    n = None
    weights: dict[int, Fraction] = {}
    edges: set[tuple[int, int]] = set()
    for line in path.read_text().splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "w":
            weights[int(parts[1])] = Fraction(parts[2])
        elif parts[0] == "e":
            u, v = sorted((int(parts[1]), int(parts[2])))
            edges.add((u, v))
        else:
            raise ValueError(f"{path}: unknown line {line!r}")
    if n is None:
        raise ValueError(f"{path}: no header")
    return GraphFile(n, frozenset(edges), tuple(weights.get(v, Fraction(1)) for v in range(1, n + 1)))


def reference_weight(g: GraphFile) -> Fraction:
    """Maximum weight of an independent set, by networkx on the complement."""
    import networkx as nx

    scale = math.lcm(*(w.denominator for w in g.weights)) if g.n else 1
    comp = nx.Graph()
    for v in range(1, g.n + 1):
        comp.add_node(v, weight=int(g.weights[v - 1] * scale))
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            if (u, v) not in g.edges:
                comp.add_edge(u, v)
    _, best = nx.max_weight_clique(comp, weight="weight")
    return Fraction(best, scale)


def check_solution(g: GraphFile, reference: Fraction, weight: str, vertices: list[int]) -> str | None:
    """Why a reported solution is wrong, or None when it is right.

    The witness must be a set of vertices of the graph with no edge
    inside, its weight recomputed from the file must equal the
    reference, and so must the weight the solver printed.
    """
    if any(not isinstance(v, int) or not 1 <= v <= g.n for v in vertices):
        return f"witness has a vertex outside 1..{g.n}"
    if len(set(vertices)) != len(vertices):
        return "witness repeats a vertex"
    chosen = sorted(vertices)
    for i, u in enumerate(chosen):
        for v in chosen[i + 1 :]:
            if (u, v) in g.edges:
                return f"witness is not independent: edge {u} {v}"
    recomputed = sum((g.weights[v - 1] for v in chosen), Fraction(0))
    if recomputed != reference:
        return f"witness weighs {recomputed}, reference is {reference}"
    if Fraction(weight) != reference:
        return f"reported weight {weight}, reference is {reference}"
    return None
