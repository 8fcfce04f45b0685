"""Class-membership tests and the chordality toolkit.

Covers detection of long holes (induced cycles of length at least five)
and induced k-prisms, chordality with a perfect elimination order,
minimal triangulations, and clique trees of chordal completions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .bits import canonical_key, iter_bits, mask_of
from .errors import PreconditionError, SolverInvariantError
from .graph import Graph

FillIn = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PrismWitness:
    """An induced k-prism: two k-cliques joined by the matching left[i]-right[i]."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.left)

    def vertex_mask(self) -> int:
        return mask_of(self.left) | mask_of(self.right)

    def is_valid(self, g: Graph) -> bool:
        k = len(self.left)
        if len(self.right) != k or set(self.left) & set(self.right):
            return False
        if not g.is_clique(mask_of(self.left)) or not g.is_clique(mask_of(self.right)):
            return False
        for i, a in enumerate(self.left):
            for j, b in enumerate(self.right):
                if g.has_edge(a, b) != (i == j):
                    return False
        return True


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    # perfect elimination order (eliminate first to last) when chordal
    elimination_order: tuple[int, ...] | None


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree whose nodes hold bags (vertex masks); node 0 is the root.

    A clique tree is one whose bags are the maximal cliques of a chordal
    graph.
    """

    bags: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((b.bit_count() for b in self.bags), default=1) - 1

    def walk(self) -> list[tuple[int, int]]:
        """Depth-first preorder of the nodes reachable from node 0, each as
        (node, parent) with parent -1 at the root; reversed, it is a
        post-order."""
        nbr: list[list[int]] = [[] for _ in self.bags]
        for i, j in self.edges:
            nbr[i].append(j)
            nbr[j].append(i)
        seen = [False] * len(self.bags)
        order = []
        stack = [(0, -1)]
        while stack:
            x, parent = stack.pop()
            if seen[x]:
                continue
            seen[x] = True
            order.append((x, parent))
            stack.extend((y, x) for y in nbr[x] if not seen[y])
        return order

    def validate(self, g: Graph) -> None:
        """Check that the edges form a tree and the three decomposition
        axioms, in time linear in the bags and the graph.

        With nodes - 1 edges, the walk reaching every node makes a tree.
        Edge uv lies in a bag iff u is in reach[v], the union of the bags
        holding v.  In a tree the bags holding v span a forest with one
        component per holder minus the tree edges with v at both ends, so
        they are connected iff that count is 1.
        """
        nodes = len(self.bags)
        if nodes == 0:
            raise SolverInvariantError("decomposition has no nodes")
        if len(self.edges) != nodes - 1:
            raise SolverInvariantError("decomposition edges do not form a tree")
        if len(self.walk()) != nodes:
            raise SolverInvariantError("decomposition tree is disconnected")
        reach = [0] * g.n
        count = [0] * g.n
        cover = 0
        for b in self.bags:
            cover |= b
        if cover != g.full_mask:
            raise SolverInvariantError("some vertex is missing from every bag")
        for b in self.bags:
            for v in iter_bits(b):
                reach[v] |= b
                count[v] += 1
        for i, j in self.edges:
            for v in iter_bits(self.bags[i] & self.bags[j]):
                count[v] -= 1
        for v in range(g.n):
            outside = g.adj[v] & ~reach[v]
            if outside:  # the first such v is the smaller end of the edge
                u = (outside & -outside).bit_length() - 1
                raise SolverInvariantError(f"edge ({v}, {u}) is inside no bag")
        for v in range(g.n):
            if count[v] != 1:
                raise SolverInvariantError(f"bags containing {v} are not connected")


def is_induced_cycle(g: Graph, cycle: tuple[int, ...]) -> bool:
    """True iff the vertex sequence is an induced cycle of g."""
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    for i, u in enumerate(cycle):
        for j in range(i + 1, k):
            v = cycle[j]
            on_cycle = j - i == 1 or (i == 0 and j == k - 1)
            if g.has_edge(u, v) != on_cycle:
                return False
    return True


def _non_clique_atoms(g: Graph) -> list[int]:
    """The atoms of :func:`clique_atoms` that are not cliques, none when g
    is chordal.  A hole has no clique separator, nor does a k-prism with
    k >= 2, so each induced one lies inside one of these atoms (Tarjan,
    "Decomposition by clique separators", Discrete Math. 1985)."""
    atoms, chordal = clique_atoms(g)
    return [] if chordal else [a for a, _ in atoms if not g.is_clique(a)]


def find_long_hole(g: Graph) -> tuple[int, ...] | None:
    """Return an induced cycle of length at least five, or None.

    For every induced path x1-x2-x3-x4 the search asks whether x1 and x4
    reconnect in g minus ((N[x2] | N[x3]) - {x1, x4}); a shortest such
    reconnection closes an induced cycle of length at least five.  Seeds
    are scanned in canonical order so the result is deterministic.  A long
    hole lies inside one non-clique atom, so an edge whose ends share none
    is skipped: no long hole runs through it, and the first edge that
    gives one, with its cycle, is the one the scan of every edge finds.
    """
    shared = [0] * g.n  # the vertices that share a non-clique atom with v
    for atom in _non_clique_atoms(g):
        for v in iter_bits(atom):
            shared[v] |= atom
    for x2 in range(g.n):
        for x3 in iter_bits(g.adj[x2] & shared[x2]):
            cycle = long_hole_through(g, x2, x3)
            if cycle is not None:
                return cycle
    return None


def long_hole_through(g: Graph, x2: int, x3: int) -> tuple[int, ...] | None:
    """An induced cycle of length at least five through the edge x2x3, as
    :func:`find_long_hole` finds it from that edge, or None if it finds none.

    Every long hole through x2x3 has x2x3 as the middle edge of an induced
    path x1-x2-x3-x4, so None means that g has no long hole through x2x3.
    """
    starts = g.adj[x2] & ~g.adj[x3] & ~(1 << x3)
    ends = g.adj[x3] & ~g.adj[x2] & ~(1 << x2)
    if not starts or not ends:
        return None
    region = g.full_mask & ~(g.adj[x2] | g.adj[x3] | (1 << x2) | (1 << x3))
    for x1 in iter_bits(starts):
        # BFS from x1 through the region, neighbours in ascending order, so
        # its tree paths are the lexicographically smallest shortest ones.
        # x4 is in N(x3), outside the region: a search from x1 to x4 only
        # ends there, so x4 hangs off the first vertex of one BFS that sees it
        parent = {x1: -1}
        queue = deque([x1])
        reach = 0
        while queue:
            u = queue.popleft()
            reach |= g.adj[u]
            for v in iter_bits(g.adj[u] & region):
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        hits = ends & ~g.adj[x1] & reach
        if not hits:
            continue
        x4 = (hits & -hits).bit_length() - 1
        u = next(u for u in parent if g.adj[u] >> x4 & 1)
        path = [x4]
        while u != -1:
            path.append(u)
            u = parent[u]
        cycle = tuple([x3, x2, *reversed(path)])
        if not is_induced_cycle(g, cycle) or len(cycle) < 5:
            raise SolverInvariantError(f"long-hole candidate failed check: {cycle}")
        return cycle
    return None


def _mcs_peo(g: Graph) -> list[int] | None:
    """The plain MCS order if its reverse is a perfect elimination order,
    else None (Tarjan & Yannakakis, "Simple linear-time algorithms to test
    chordality of graphs...", SIAM J. Comput. 1984).

    Picks as :func:`_mcs_m` does, from the same score buckets with ties by
    index, but each pick z bumps only its unnumbered neighbours.  The
    order is kept iff the earlier neighbours of every pick form a clique.
    If they do up to z, they do at z iff those other than p, the last
    numbered of them, are neighbours of p: they then lie in the clique of
    p's earlier neighbours.  The search stops at the first pick that fails.
    """
    adj = g.adj
    buckets = [g.full_mask] + [0] * g.n  # buckets[s]: unnumbered, score s
    score = [0] * g.n
    last = [-1] * g.n  # the last numbered neighbour
    top = 0
    order = []
    numbered = 0
    for _ in range(g.n):
        while not buckets[top]:
            top -= 1
        z = (buckets[top] & -buckets[top]).bit_length() - 1
        p = last[z]
        if p >= 0 and adj[z] & numbered & ~adj[p] & ~(1 << p):
            return None
        buckets[top] ^= 1 << z
        order.append(z)
        numbered |= 1 << z
        rest = adj[z] & ~numbered
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            s = score[y]
            buckets[s] ^= low
            buckets[s + 1] |= low
            score[y] = s + 1
            last[y] = z
            rest ^= low
        top += 1
    return order


def _mcs_m(g: Graph) -> tuple[list[int], FillIn]:
    """MCS-M: the numbering order and the fill of an inclusion-minimal
    triangulation (Berry, Blair, Heggernes & Peyton, "Maximum cardinality
    search for computing minimal triangulations of graphs", Algorithmica
    2004).

    The next vertex z is an unnumbered one of top score, ties by index.  An
    unnumbered y of score s gets a bump iff it has a path to z whose inner
    vertices are unnumbered with score below s; the bumped non-neighbours
    of z are the fill.  Unnumbered vertices sit in score buckets, so z is
    the lowest bit of the top bucket.  The step grows one reach set R_s,
    the vertices reached from z through scores below s, bucket by bucket:
    y of score s is bumped iff it lies in N(z) | N(R_s).

    A chordal graph is its own only minimal triangulation, so nothing is
    filled, each step bumps just the neighbours of z, and the order is the
    plain MCS order.  So :func:`_mcs_peo` runs first, in O(n + m) bitset
    operations; if it finds g chordal, its order is returned with no fill
    and no reach set is grown.  Otherwise MCS-M runs from the start.
    """
    order = _mcs_peo(g)
    if order is not None:
        return order, ()
    adj = g.adj
    buckets = [g.full_mask] + [0] * g.n  # buckets[s]: unnumbered, score s
    top = 0
    order = []
    fill = []
    for _ in range(g.n):
        while not buckets[top]:
            top -= 1
        z = (buckets[top] & -buckets[top]).bit_length() - 1
        buckets[top] ^= 1 << z
        order.append(z)
        seen = adj[z]  # N(z) | N(R_s)
        reach = below = carry = 0  # R_s, the scores below s, the bumps of s - 1
        for s in range(top + 1):
            frontier = seen & below & ~reach
            while frontier:
                reach |= frontier
                seen |= g.neighborhood(frontier)
                frontier = seen & below & ~reach
            level = buckets[s]
            bumped = seen & level
            fill.extend((min(y, z), max(y, z)) for y in iter_bits(bumped & ~adj[z]))
            buckets[s] = level & ~bumped | carry  # the bumps of s move up after s
            carry = bumped
            below |= level
        buckets[top + 1] |= carry
        top += 1
    return order, tuple(sorted(fill))


def is_chordal(g: Graph) -> ChordalityResult:
    """Chordal iff the reversed plain MCS order is a perfect elimination
    order, checked by :func:`_mcs_peo` in O(n + m) bitset operations; it
    is then the elimination order."""
    order = _mcs_peo(g)
    if order is None:
        return ChordalityResult(False, None)
    return ChordalityResult(True, tuple(reversed(order)))


def minimal_triangulation(g: Graph) -> FillIn:
    """An inclusion-minimal fill-in F such that g+F is chordal: the fill of
    MCS-M with index-order tie-breaking."""
    return _mcs_m(g)[1]


def clique_atoms(g: Graph) -> tuple[list[tuple[int, int]], bool]:
    """The clique minimal separator decomposition of g, as (atom A, parent
    separator S) pairs in split order: each S lies inside an atom listed
    later, and the root comes last with S = ∅; and whether g is chordal,
    when every atom is a clique.

    One MCS-M pass (Berry, Pogorelcnik & Simonet, "An introduction to clique
    minimal separator decomposition", Algorithms 2010, MCS-M+ and Atoms).
    A vertex picked with a score no higher than the previous pick's is a
    generator, and its earlier neighbours in the completion H = g + fill,
    as many as its score, are a minimal separator of H.  Every minimal
    separator of H is one of those, and the clique minimal separators of
    g are those that are cliques of g: all of them when H = g.  Taken in
    reverse pick order, each generator x whose S is a clique of g splits
    off A = C | S, for C the component of x in what is left minus S; C
    leaves what is left.  What remains at the end is the root.  A
    disconnected g splits along S = ∅.  With no fill g is chordal, every
    minimal separator of g is a clique, and the atoms are its maximal
    cliques.
    """
    order, fill = _mcs_m(g)
    rows = list(g.adj)
    for u, v in fill:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    generators = []
    numbered = 0
    last = -1
    for x in order:
        sep = rows[x] & numbered
        if sep.bit_count() <= last:
            generators.append((x, sep))
        last = sep.bit_count()
        numbered |= 1 << x
    rest = g.full_mask
    out = []
    for x, sep in reversed(generators):
        if not fill or g.is_clique(sep):
            comp = g.component_of(x, rest & ~sep)
            out.append((comp | sep, sep))
            rest ^= comp
    out.append((rest, 0))
    return out, not fill


def _maximal_cliques_chordal(h: Graph, order: list[int]) -> list[int]:
    """The maximal cliques of a chordal graph from an MCS order, sorted.

    v with its earlier neighbours is a maximal clique iff the next vertex
    has no more earlier neighbours than v (Blair & Peyton, "An introduction
    to chordal graphs and clique trees", 1993); the last vertex always
    closes one.
    """
    numbered = 0
    candidates = []
    for v in order:
        candidates.append(h.adj[v] & numbered | 1 << v)
        numbered |= 1 << v
    return sorted(
        (c for c, nxt in zip(candidates, candidates[1:] + [0]) if nxt.bit_count() <= c.bit_count()),
        key=canonical_key,
    )


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def clique_tree(g: Graph, fill: FillIn = ()) -> TreeDecomposition:
    """Clique tree of g+fill: bags are the maximal cliques of the completion.

    The tree is a maximum-weight spanning tree of the clique-intersection
    graph (Kruskal with canonical tie-breaking), which guarantees the
    running-intersection property.  Only the pairs of bags that share a
    vertex, read off each vertex's list of bags, are sorted.  Pairs with
    no common vertex weigh 0 and sort last in (i, j) order, so they only
    join the clique trees of separate components, and the first of them
    that does is (0, j): bag 0 takes each later bag j not yet joined to it,
    in ascending order.  The empty graph gets the single empty bag.
    """
    h = g.with_edges(fill) if fill else g
    order, extra = _mcs_m(h)
    if extra:
        raise PreconditionError("graph plus fill-in is not chordal")
    bags = _maximal_cliques_chordal(h, order) or [0]
    bags_at: list[list[int]] = [[] for _ in range(h.n)]
    for i, bag in enumerate(bags):
        for v in iter_bits(bag):
            bags_at[v].append(i)
    pairs = sorted(
        (-(bags[i] & bags[j]).bit_count(), i, j)
        for i, j in {pair for at in bags_at for pair in combinations(at, 2)}
    )
    uf = _UnionFind(len(bags))
    edges = [(i, j) for _, i, j in pairs if uf.union(i, j)]
    edges += [(0, j) for j in range(1, len(bags)) if uf.union(0, j)]
    tree = TreeDecomposition(tuple(bags), tuple(edges))
    tree.validate(h)
    return tree


def find_k_prism(g: Graph, k: int) -> PrismWitness | None:
    """Exact backtracking search for an induced k-prism.

    Matched pairs are tried in degree-sum-descending order and extended
    with clique, matching and non-adjacency constraints on both sides;
    infeasible partial assignments are pruned by candidate counts.
    """
    if k < 1:
        raise ValueError("k must be positive")
    deg = [g.degree(v) for v in range(g.n)]
    pairs = [(a, b) for a in range(g.n) for b in iter_bits(g.adj[a])]
    # both orientations of an unordered pair sit next to each other
    pairs.sort(key=lambda p: (-(deg[p[0]] + deg[p[1]]), min(p), max(p), p[0]))

    def extend(idx: int, left: list[int], right: list[int], la: int, ra: int):
        if len(left) == k:
            return PrismWitness(tuple(left), tuple(right))
        need = k - len(left)
        if la.bit_count() < need or ra.bit_count() < need:
            return None
        for j in range(idx + 1, len(pairs)):
            a, b = pairs[j]
            if la >> a & 1 and ra >> b & 1:
                found = extend(
                    j,
                    left + [a],
                    right + [b],
                    la & g.adj[a] & ~g.adj[b] & ~(1 << b),
                    ra & g.adj[b] & ~g.adj[a] & ~(1 << a),
                )
                if found is not None:
                    return found
        return None

    for i, (a, b) in enumerate(pairs):
        if a > b:
            continue
        la = g.adj[a] & ~g.adj[b] & ~(1 << b)
        ra = g.adj[b] & ~g.adj[a] & ~(1 << a)
        found = extend(i, [a], [b], la, ra)
        if found is not None:
            if not found.is_valid(g):
                raise SolverInvariantError(f"prism candidate failed check: {found}")
            return found
    return None


def largest_prism(g: Graph, max_k: int) -> int:
    """Largest k <= max_k with an induced k-prism (0 if even k=1 is absent).

    A 1-prism is an edge.  A k-prism with k >= 2 has no clique separator,
    so it lies inside one non-clique atom, and only those are searched,
    each as an induced subgraph.  A (k+1)-prism contains an induced
    k-prism, so each atom's sweep starts past the best k so far and may
    stop at the first miss.
    """
    best = 1 if max_k >= 1 and any(g.adj) else 0
    for atom in _non_clique_atoms(g):
        h, _ = g.induced(atom)
        while best < max_k and find_k_prism(h, best + 1) is not None:
            best += 1
    return best
