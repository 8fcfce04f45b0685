"""Instance builders: fixed families and seeded random generators."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import GenerationError, PreconditionError
from .graph import Graph
from .recognition import find_k_prism, find_long_hole, long_hole_through


def prism_graph(k: int) -> Graph:
    """Two k-cliques 0..k-1 and k..2k-1 joined by the matching i, k+i."""
    if k < 1:
        raise ValueError("k must be positive")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, k + i) for i in range(k)]
    return Graph(2 * k, edges)


def er_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_chordal(n: int, m_target: int, rng: random.Random) -> Graph:
    """Connected chordal graph built along a random elimination order.

    Each vertex picks a later anchor and a clique inside the anchor's
    later-neighborhood, which keeps every elimination step simplicial.
    The edge count approaches ``m_target`` but is capped by feasibility.
    """
    if n <= 1:
        return Graph(n)
    perm = list(range(n))
    rng.shuffle(perm)
    madj: list[set[int]] = [set() for _ in range(n)]  # in elimination positions
    budget = max(m_target, n - 1)
    # later positions first, so each anchor's clique already exists
    for i in range(n - 2, -1, -1):
        quota = max(1, round(budget / (i + 1)))
        anchor = rng.randrange(i + 1, n)
        base = sorted(madj[anchor])
        extra = rng.sample(base, min(len(base), max(0, quota - 1)))
        madj[i] = {anchor, *extra}
        budget -= len(madj[i])
    edges = [(perm[i], perm[j]) for i in range(n) for j in madj[i]]
    return Graph(n, edges)


def lhf_filter(n: int, p: float, rng: random.Random, max_tries: int = 200) -> Graph:
    """Sample random graphs until one has no long hole."""
    for _ in range(max_tries):
        g = er_graph(n, p, rng)
        if find_long_hole(g) is None:
            return g
    raise GenerationError(
        f"no long-hole-free sample in {max_tries} tries (n={n}, p={p})"
    )


def grow_lhf(
    g: Graph,
    extra_edges: int,
    rng: random.Random,
    forbid_prism: int | None = None,
    max_tries: int = 400,
) -> Graph:
    """Add random edges to a long-hole-free g while staying long-hole-free
    (and optionally k-prism-free); every accepted edge is re-certified by
    the recognizers.

    A long hole of g + uv that g lacks passes through uv, so only the
    holes through uv are searched (:func:`long_hole_through`).  Likewise a
    k-prism of g + uv that g lacks holds u, and a k-prism has diameter at
    most 2, so only g + uv induced on the ball of radius 2 around u is
    searched.  So g must have neither to begin with.
    """
    if find_long_hole(g) is not None:
        raise PreconditionError("grow_lhf needs a long-hole-free graph")
    if forbid_prism is not None and find_k_prism(g, forbid_prism) is not None:
        raise PreconditionError(f"grow_lhf needs a graph with no {forbid_prism}-prism")
    nonedges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    rng.shuffle(nonedges)
    added = 0
    tries = 0
    for e in nonedges:
        if added >= extra_edges or tries >= max_tries:
            break
        tries += 1
        u, v = e
        adj = list(g.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        cand = Graph.from_rows(adj, g.weights)
        if long_hole_through(cand, u, v) is not None:
            continue
        if forbid_prism is not None:
            ball = cand.neighborhood(adj[u] | 1 << u, closed=True)
            near = [a & ball if ball >> x & 1 else 0 for x, a in enumerate(adj)]
            if find_k_prism(Graph.from_rows(near, g.weights), forbid_prism) is not None:
                continue
        g = cand
        added += 1
    return g


WEIGHT_STYLES = ("unit", "int", "decimal", "skew", "zeros")


def random_weights(g: Graph, rng: random.Random, style: str = "int") -> Graph:
    """Reweighted copy; weights stay exact nonnegative fractions."""
    if style == "unit":
        ws = [Fraction(1)] * g.n
    elif style == "int":
        ws = [Fraction(rng.randint(1, 10)) for _ in range(g.n)]
    elif style == "decimal":
        ws = [Fraction(rng.randint(1, 99), 10) for _ in range(g.n)]
    elif style == "skew":
        ws = [Fraction(rng.randint(1, 4) ** 3) for _ in range(g.n)]
    elif style == "zeros":
        ws = [Fraction(0 if rng.random() < 0.3 else rng.randint(1, 9)) for _ in range(g.n)]
    else:
        raise ValueError(f"unknown weight style {style!r}")
    return g.with_weights(ws)
