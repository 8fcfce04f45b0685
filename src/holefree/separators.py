"""Minimal-separator machinery.

Separator records, the complete close-neighborhood enumeration and its
one-more-vertex update.

A record holds the components of g minus its set and their
neighborhoods; the full components are those whose neighborhood is the
whole set.  The same record is the certificate of a potential maximal
clique (:mod:`holefree.pmc`).  Both enumerations generate every
candidate as N(C) for a component C that a flood has just returned.
Such a C is connected with N(C) the candidate itself, so it
is a component of g minus the candidate, and a full one; its record
floods only the rest of the graph.  The complete enumeration is a
closure on bare sets that maps each N(C) to its C; it builds the records
only once the closure is complete, so a cap trip builds none.  A region
of either closure depends only on a set, and many come back; each is
flooded once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import canonical_key, iter_bits, to_tuple
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


def enumerate_minimal_separators(g: Graph, cap: int = 0) -> list[Separator]:
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
    and expands the candidates depth-first.  Every candidate is expanded
    exactly once whatever the order, so the result and the flood count
    of a complete run are those of any order; expanding the newest first
    reaches unseen separators sooner, which only shortens the run up to
    a cap trip.  With cap > 0 the search aborts once more than cap
    separators are found, before any record is built.

    Each region is flooded once.  A flood is a pure function of its
    region, and the first flood of a region put every N(C) it returns
    into ``found`` and on the stack, or raised; a repeat would add
    nothing.  So skipping repeats keeps the insertion order, the stack,
    the records and the cap trip, with its count, as they were.
    """
    found: dict[int, int] = {}
    stack: list[int] = []
    flooded: set[int] = set()

    def regions():
        # the seeds first, then the expansions of the separators found;
        # the loop below pushes those while this generator is running
        for v in range(g.n):
            yield g.full_mask & ~(g.adj[v] | (1 << v))
        while stack:
            s = stack.pop()
            for x in iter_bits(s):
                yield g.full_mask & ~(s | g.adj[x] | (1 << x))

    for region in regions():
        if region in flooded:
            continue
        flooded.add(region)
        for comp, nb in g.flood(region):
            if nb not in found:
                found[nb] = comp
                if cap and len(found) > cap:
                    raise CapacityExceededError("minimal separators", cap, len(found))
                stack.append(nb)

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


def extend_minimal_separators(g: Graph, prev: list[Separator]) -> list[Separator]:
    """All minimal separators of g from ``prev``, those of g minus its last
    vertex a, canonically sorted; the same list as
    :func:`enumerate_minimal_separators` on g.

    Each S in ``prev`` gives S if it is still minimal in g, and S + a if
    two or more of its old full components meet N(a); both can hold.  The
    records of both follow from that of S in g - a, by
    :func:`absorb_last_vertex` and :func:`add_last_vertex`, without a flood.
    The rest avoid a and have a in a full component: they are the minimal
    a,b-separators over all b, listed as by Kloks & Kratsch ("Listing all
    minimal separators of a graph", SIAM J. Comput. 1998).  The seeds are
    N(C) for the components C of g - N[a], and a separator S moves to N(D)
    for each x in S and each component D of C - N(x), C a full component
    of S without a.  The move that takes D to be b's component brings S
    one vertex x closer to any minimal a,b-separator T with S inside
    C_a(T) | T, so every T is reached from the seed on b's side.  Every
    candidate is N(D) for a component D of g - N[a] or of C - N(x), so it
    is minimal by the lemma of :func:`enumerate_minimal_separators`; its
    record is built from D, depth-first as there, and kept only if a lies
    in a full component.  As there, each region is flooded once: a repeat
    would find every N(C) in ``seen`` already.  No cap is checked: distinct
    S give distinct lifts, so g has as many minimal separators as g - a or
    more (Bouchitté & Todinca, TCS 2002).
    """
    bit = 1 << (g.n - 1)
    adj_a = g.adj[-1]
    found: dict[int, Separator] = {}
    for old in prev:
        for sep in (absorb_last_vertex(g, old), add_last_vertex(g, old)):
            if sep.is_minimal:
                found[sep.set] = sep

    seen: set[int] = set()
    stack: list[Separator] = []
    flooded: set[int] = set()

    def regions():
        # as in enumerate_minimal_separators: the seed, then the moves
        yield g.full_mask & ~(adj_a | bit)
        while stack:
            sep = stack.pop()
            for comp, nb in zip(sep.components, sep.neighborhoods):
                if nb == sep.set and not comp & bit:
                    for x in iter_bits(sep.set):
                        yield comp & ~g.adj[x]

    for region in regions():
        if region in flooded:
            continue
        flooded.add(region)
        for comp, nb in g.flood(region):
            if nb in seen:
                continue
            seen.add(nb)
            sep = found.get(nb) or _separator_of_component(g, comp, nb)
            if any(sep.components[j] & bit for j in sep.full):
                found[nb] = sep
                stack.append(sep)

    return sorted(found.values(), key=lambda s: canonical_key(s.set))
