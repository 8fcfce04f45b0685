"""Minimal-separator machinery.

Separator records, the complete close-neighborhood enumeration, and the
minimal separators of each prefix graph read off those of the whole.

A record holds the components of g minus its set and their
neighborhoods; the full components are those whose neighborhood is the
whole set.  The same record is the certificate of a potential maximal
clique (:mod:`holefree.pmc`).  The enumeration generates every candidate
as N(C) for a component C that a flood has just returned.  Such a C is
connected with N(C) the candidate itself, so it is a component of g minus
the candidate, and a full one; its record floods only the rest of the
graph.  The enumeration is a closure on bare sets that maps each N(C) to
its C; it builds the records only once the closure is complete, so a cap
trip builds none.  A region of the closure depends only on a set, and
many come back; each is flooded once, by one kernel call that writes the
new candidates straight into the closure's map and stack, and takes the
row union of a dense frontier from 64-entry tables, one per 6 vertices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .bits import canonical_key, to_tuple
from .errors import CapacityExceededError, SolverInvariantError
from .graph import Graph


@dataclass(frozen=True)
class Separator:
    """A vertex set with the components of the rest of the graph, in
    canonical order, and their neighborhoods, in the same order: the
    record of a minimal separator, or the certificate of a PMC, whose
    every internal nonedge lies inside one of the neighborhoods."""

    set: int
    components: tuple[int, ...]
    neighborhoods: tuple[int, ...]

    @property
    def full(self) -> tuple[int, ...]:
        """Indices of the components whose neighborhood is the whole set."""
        return tuple(i for i, nb in enumerate(self.neighborhoods) if nb == self.set)

    @property
    def is_minimal(self) -> bool:
        return self.neighborhoods.count(self.set) >= 2


def analyze_separator(g: Graph, sep: int) -> Separator:
    """Decompose g minus sep into components and their neighborhoods."""
    pairs = g.flood(g.full_mask & ~sep)
    return Separator(sep, tuple(c for c, _ in pairs), tuple(nb for _, nb in pairs))


def _separator_of_component(g: Graph, comp: int, sep: int) -> Separator:
    """analyze_separator(g, sep) for sep = N(comp), comp connected.

    Such a comp is a full component of g - sep, so only g - (sep | comp)
    is flooded, and comp goes in at its canonical place: after the
    components that hold a vertex below its minimum.
    """
    pairs = g.flood(g.full_mask & ~(sep | comp))
    below = (comp & -comp) - 1
    pairs.insert(sum(1 for c, _ in pairs if c & below), (comp, sep))
    return Separator(sep, tuple(c for c, _ in pairs), tuple(nb for _, nb in pairs))


# The row-union tables of _flood_region: one per chunk of _CHUNK vertices,
# read for frontiers of more than _DENSE vertices.
_CHUNK = 6
_DENSE = 3


def _row_tables(adj: list[int]) -> list[list[int]]:
    """For each chunk of :data:`_CHUNK` vertices, the table whose entry m
    is the OR of the rows of the chunk's vertices in the bits of m."""
    tables = []
    for lo in range(0, len(adj), _CHUNK):
        table = [0]
        for row in adj[lo : lo + _CHUNK]:
            table += [t | row for t in table]
        tables.append(table)
    return tables


def _flood_region(adj, tables, region, found, stack, cap, counted) -> None:
    """Flood ``region`` component by component, in canonical order, and
    put each N(C) not yet in ``found`` there, mapped to C, and on
    ``stack``; raise the cap trip once counted + len(found) > cap."""
    low_bits = (1 << _CHUNK) - 1
    rest = region
    while rest:
        comp = rest & -rest
        reach = adj[comp.bit_length() - 1]
        rest ^= comp
        frontier = reach & rest
        while frontier:
            rest ^= frontier
            comp |= frontier
            if frontier.bit_count() > _DENSE:
                for table in tables:
                    reach |= table[frontier & low_bits]
                    frontier >>= _CHUNK
                    if not frontier:
                        break
            else:
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
            frontier = reach & rest
        nb = reach & ~comp
        if nb not in found:
            found[nb] = comp
            if cap and counted + len(found) > cap:
                raise CapacityExceededError("minimal separators", cap, counted + len(found))
            stack.append(nb)


def enumerate_minimal_separators(g: Graph, cap: int = 0, counted: int = 0) -> list[Separator]:
    """All minimal separators of g, canonically sorted and duplicate free.

    The generation lemma of Berry, Bordat & Cogis ("Generating all the
    minimal separators of a graph", IJFCS 2000): the seeds N(C), for the
    components C of g - N[v] over all v, are minimal separators, and so
    is N(C) for every component C of g - (S | N[x]), x in a minimal
    separator S; every minimal separator is a seed or is reached from one
    by such moves.  So every candidate is minimal, with C and a second
    full component of g - N(C):

    - Seeds.  N(C) lies in N(v), so the component of v in g - N(C) sees
      all of N(C), and so does C.
    - Moves.  Let B be a full component of g - S that does not hold C;
      S has two.  N(C) lies in S and the component of g - S that holds C,
      and x is not adjacent to C, so B | {x} avoids N(C).  Its component
      in g - N(C) sees every vertex of N(C): those in S through B, and
      those in N(x) through x.

    The closure maps each candidate N(C) to the first C that produced it
    and expands the candidates depth-first: all the seeds first, then the
    newest candidate on the stack.  Every candidate is expanded exactly
    once whatever the order, so the result and the flood count of a
    complete run are those of any order; expanding the newest first
    reaches unseen separators sooner, which only shortens the run up to
    a cap trip.  With cap > 0 the search aborts once more than cap
    separators are found, with ``counted`` more found elsewhere (the other
    atoms of a graph), before any record is built.

    Each region is flooded once, by :func:`_flood_region`, which writes
    the candidates straight into the map and the stack.  A flood is a
    pure function of its region, and the first flood of a region put
    every N(C) it returns into ``found`` and on the stack, or raised; a
    repeat would add nothing.  So skipping repeats keeps the insertion
    order, the stack, the records and the cap trip, with its count, as
    they were.  The kernel ORs the rows of a frontier of more than 3
    vertices, as on the cliques of a prism, from the row-union tables of
    :func:`_row_tables`, one lookup per chunk of 6 vertices; the 64-entry
    tables are built once per call, cheap enough on small atoms, where
    256-entry ones for 8 vertices cost more than they save.  A frontier of
    at most 3 vertices, the common case on sparse graphs, ORs its rows one
    by one, in fewer steps than a lookup per chunk of the graph.
    """
    adj = g.adj
    full = g.full_mask
    tables = _row_tables(adj)
    found: dict[int, int] = {}
    stack: list[int] = []
    flooded: set[int] = set()
    for v in range(g.n):
        region = full & ~(adj[v] | 1 << v)
        if region not in flooded:
            flooded.add(region)
            _flood_region(adj, tables, region, found, stack, cap, counted)
    while stack:
        s = stack.pop()
        base = full & ~s
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            region = base & ~(adj[low.bit_length() - 1] | low)
            if region not in flooded:
                flooded.add(region)
                _flood_region(adj, tables, region, found, stack, cap, counted)

    out = [_separator_of_component(g, found[nb], nb) for nb in sorted(found, key=canonical_key)]
    for sep in out:
        if not sep.is_minimal:
            raise SolverInvariantError(f"candidate {to_tuple(sep.set)} is not a minimal separator")
    return out


def absorb_last_vertex(g: Graph, rec: Separator) -> Separator:
    """The record of X in g, from ``rec``, that of X in g minus its last
    vertex a.

    The components that meet N(a) merge with a into one, placed where the
    first of them was (last if there is none, as a is the largest vertex);
    its neighborhood is the union of theirs and N(a), minus itself.  The
    others keep their neighborhoods.
    """
    adj_a = g.adj[-1]
    comps: list[int] = []
    nbrs: list[int] = []
    at = -1
    merged = 1 << (g.n - 1)
    merged_nb = adj_a
    for comp, nb in zip(rec.components, rec.neighborhoods):
        if comp & adj_a:
            if at < 0:
                at = len(comps)
            merged |= comp
            merged_nb |= nb
        else:
            comps.append(comp)
            nbrs.append(nb)
    if at < 0:
        at = len(comps)
    comps.insert(at, merged)
    nbrs.insert(at, merged_nb & ~merged)
    return Separator(rec.set, tuple(comps), tuple(nbrs))


def add_last_vertex(g: Graph, rec: Separator) -> Separator:
    """The record of X + a in g, from ``rec``, that of X in g minus its last
    vertex a.

    The components are the same, in the same order, and each one's
    neighborhood gains a exactly when it meets N(a).
    """
    bit = 1 << (g.n - 1)
    adj_a = g.adj[-1]
    nbrs = tuple(nb | bit if c & adj_a else nb for c, nb in zip(rec.components, rec.neighborhoods))
    return Separator(rec.set | bit, rec.components, nbrs)


def drop_last_vertex(g: Graph, rec: Separator, flood) -> Separator:
    """The record of X - a in g minus its last vertex a, from ``rec``, that
    of X in g.

    With a in X the components are the same, in the same order, and their
    neighborhoods lose a.  Otherwise only the component C_a that holds a
    changes: it splits into the components of C_a - a, flooded by ``flood``
    (g.flood, or a memo of it), whose neighborhoods lose a; every component
    goes in at its canonical place.
    """
    bit = 1 << (g.n - 1)
    if rec.set & bit:
        nbrs = tuple(nb & ~bit for nb in rec.neighborhoods)
        return Separator(rec.set & ~bit, rec.components, nbrs)
    pairs = [p for p in zip(rec.components, rec.neighborhoods) if not p[0] & bit]
    for comp in rec.components:
        if comp & bit:
            pairs += [(c, nb & ~bit) for c, nb in flood(comp ^ bit)]
    pairs.sort(key=lambda p: p[0] & -p[0])
    return Separator(rec.set, tuple(c for c, _ in pairs), tuple(nb for _, nb in pairs))


def prefix_separators(g: Graph, minseps: list[Separator]) -> list[list[Separator]]:
    """Δ(G_i), canonically sorted, at index i - 1 for each prefix graph
    G_i = g.prefix(i), from ``minseps`` = Δ(g); each the same list as
    :func:`enumerate_minimal_separators` on G_i.

    Each minimal separator T of G - a, a the last vertex of G, gives T or
    T + a in Δ(G) (Bouchitté & Todinca, TCS 2002).  So Δ(G - a) is the
    sets S - a, S in Δ(G), that are minimal in G - a, and the chain is read
    from Δ(g) down, one :func:`drop_last_vertex` per distinct S - a.  Both
    S and S + a give S, and the record of a set in a graph is unique.
    Separators that avoid a and share the component that holds it share
    its split, so each level floods each such component once.
    """
    chain = [minseps] if g.n else []
    for i in range(g.n, 1, -1):
        gi = g.prefix(i)
        bit = 1 << (i - 1)
        flood = functools.cache(gi.flood)
        found: dict[int, Separator] = {}
        for sep in chain[-1]:
            if sep.set & ~bit not in found:
                found[sep.set & ~bit] = drop_last_vertex(gi, sep, flood)
        level = [s for s in found.values() if s.is_minimal]
        chain.append(sorted(level, key=lambda s: canonical_key(s.set)))
    return chain[::-1]
