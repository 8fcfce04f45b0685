"""Minimal-separator machinery.

Full-component analysis, the complete close-neighborhood enumeration and
its one-more-vertex update, the brute-force oracle, and the bounded witness
that covers a separator from inside one full component.

Both enumerations generate every candidate as N(C) for a component C that
a flood has just returned.  Such a C is connected with N(C) the candidate
itself, so it is a component of g minus the candidate, and a full one;
validating the candidate floods only the rest of the graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .bits import iter_bits, to_tuple
from .errors import (
    CapacityExceededError,
    OracleLimitError,
    PreconditionError,
    WitnessNotFoundError,
)
from .graph import Graph


def oracle_limit(default: int) -> int:
    """Size limit for brute-force oracles; HOLEFREE_ORACLE_LIMIT overrides."""
    env = os.environ.get("HOLEFREE_ORACLE_LIMIT")
    return int(env) if env else default


@dataclass(frozen=True)
class Separator:
    """A vertex set with the component decomposition of the rest of the graph."""

    set: int
    components: tuple[int, ...]
    full: tuple[int, ...]  # indices of components whose neighborhood is the whole set

    @property
    def is_minimal(self) -> bool:
        return len(self.full) >= 2

    @property
    def excess_full(self) -> int:
        """Number of full components beyond the first; positive iff minimal."""
        return max(0, len(self.full) - 1)


def analyze_separator(g: Graph, sep: int) -> Separator:
    """Decompose g minus sep into components and mark the full ones."""
    return _separator(sep, g.flood(g.full_mask & ~sep))


def _separator(sep: int, pairs: list[tuple[int, int]]) -> Separator:
    full = tuple(i for i, (_, nb) in enumerate(pairs) if nb == sep)
    return Separator(sep, tuple(c for c, _ in pairs), full)


def _separator_of_component(g: Graph, comp: int, sep: int) -> Separator:
    """analyze_separator(g, sep) for sep = N(comp), comp connected.

    Such a comp is a full component of g - sep, so only g - (sep | comp)
    is flooded, and comp goes in at its canonical place: after the
    components that hold a vertex below its minimum.
    """
    pairs = g.flood(g.full_mask & ~(sep | comp))
    below = (comp & -comp) - 1
    pairs.insert(sum(1 for c, _ in pairs if c & below), (comp, sep))
    return _separator(sep, pairs)


def _is_minimal_separator(g: Graph, sep: int) -> bool:
    return sum(nb == sep for _, nb in g.flood(g.full_mask & ~sep)) >= 2


def enumerate_minimal_separators(g: Graph, cap: int = 0) -> list[Separator]:
    """All minimal separators of g, canonically sorted and duplicate free.

    The generation lemma of Berry, Bordat & Cogis ("Generating all the
    minimal separators of a graph", IJFCS 2000): the seeds N(C), for the
    components C of g - N[v] over all v, are minimal separators, and so
    is N(C) for every component C of g - (S | N[x]), x in a minimal
    separator S; every minimal separator is a seed or is reached from one
    by such moves.  Each candidate is validated on its whole decomposition
    from the C that produced it (see the module docstring) and emitted
    only with two or more full components.

    Pending separators are expanded depth-first.  Every found separator
    is expanded exactly once whatever the order, so the sorted result and
    the flood count of a complete run are those of any order; expanding
    the newest first reaches unseen separators sooner, which only
    shortens the run up to a cap trip.  With cap > 0 the search aborts
    once more than cap separators are found.
    """
    seen: set[int] = set()
    out: list[Separator] = []
    stack: list[Separator] = []

    def regions():
        # the seeds first, then the expansions of the separators found;
        # the loop below pushes those while this generator is running
        for v in range(g.n):
            yield g.full_mask & ~(g.adj[v] | (1 << v))
        while stack:
            s = stack.pop().set
            for x in iter_bits(s):
                yield g.full_mask & ~(s | g.adj[x] | (1 << x))

    for region in regions():
        for comp, nb in g.flood(region):
            if nb in seen:
                continue
            seen.add(nb)
            sep = _separator_of_component(g, comp, nb)
            if sep.is_minimal:
                out.append(sep)
                if cap and len(out) > cap:
                    raise CapacityExceededError("minimal separators", cap, len(out))
                stack.append(sep)

    out.sort(key=lambda s: to_tuple(s.set))
    return out


def absorb_last_vertex(
    g: Graph, comps: tuple[int, ...], nbrs: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Components of g - X with their neighborhoods, from those of
    (g - a) - X in canonical order, where a is the last vertex of g and X
    avoids a; also the index of a's component.

    The components that meet N(a) merge with a into one, placed where the
    first of them was (last if there is none, as a is the largest vertex);
    its neighborhood is the union of theirs and N(a), minus itself.  The
    others keep their neighborhoods.
    """
    adj_a = g.adj[-1]
    out_c: list[int] = []
    out_n: list[int] = []
    at = -1
    merged = 1 << (g.n - 1)
    merged_nb = adj_a
    for comp, nb in zip(comps, nbrs):
        if comp & adj_a:
            if at < 0:
                at = len(out_c)
                out_c.append(0)
                out_n.append(0)
            merged |= comp
            merged_nb |= nb
        else:
            out_c.append(comp)
            out_n.append(nb)
    if at < 0:
        at = len(out_c)
        out_c.append(0)
        out_n.append(0)
    out_c[at] = merged
    out_n[at] = merged_nb & ~merged
    return tuple(out_c), tuple(out_n), at


def extend_minimal_separators(g: Graph, prev: list[Separator], cap: int = 0) -> list[Separator]:
    """All minimal separators of g from ``prev``, those of g minus its last
    vertex a, canonically sorted; the same list as
    :func:`enumerate_minimal_separators` on g, with the same cap.

    Each S in ``prev`` gives S if it is still minimal in g, and S + a if
    two or more of its old full components meet N(a); both can hold.  The
    old components of S are those of g - (S + a), and those of g - S follow
    from them by :func:`absorb_last_vertex`, so neither needs a flood.
    The rest avoid a and have a in a full component: they are the minimal
    a,b-separators over all b, listed as by Kloks & Kratsch ("Listing all
    minimal separators of a graph", SIAM J. Comput. 1998).  The seeds are
    N(C) for the components C of g - N[a], and a separator S moves to N(D)
    for each x in S and each component D of C - N(x), C a full component
    of S without a.  The move that takes D to be b's component brings S
    one vertex x closer to any minimal a,b-separator T with S inside
    C_a(T) | T, so every T is reached from the seed on b's side.  Every
    candidate is validated from the D or C that produced it, as in
    :func:`enumerate_minimal_separators`, depth-first like it, and kept
    only if a lies in a full component.
    """
    bit = 1 << (g.n - 1)
    adj_a = g.adj[-1]
    found: dict[int, Separator] = {}

    def add(sep: Separator) -> None:
        found[sep.set] = sep
        if cap and len(found) > cap:
            raise CapacityExceededError("minimal separators", cap, len(found))

    for old in prev:
        s = old.set
        # stand-in neighborhoods, S for the full components and 0 for the
        # rest, decide fullness exactly except for a's component when it
        # merged no full one; that one alone needs its real N(C)
        stand_in = tuple(s if j in old.full else 0 for j in range(len(old.components)))
        comps, nbrs, at = absorb_last_vertex(g, old.components, stand_in)
        full = tuple(
            j for j, nb in enumerate(nbrs)
            if nb == s or (j == at and g.neighborhood(comps[j]) == s)
        )
        if len(full) >= 2:
            add(Separator(s, comps, full))
        full = tuple(j for j in old.full if old.components[j] & adj_a)
        if len(full) >= 2:
            add(Separator(s | bit, old.components, full))

    seen: set[int] = set()
    stack: list[Separator] = []

    def regions():
        # as in enumerate_minimal_separators: the seed, then the moves
        yield g.full_mask & ~(adj_a | bit)
        while stack:
            sep = stack.pop()
            for j in sep.full:
                comp = sep.components[j]
                if not comp & bit:
                    for x in iter_bits(sep.set):
                        yield comp & ~g.adj[x]

    for region in regions():
        for comp, nb in g.flood(region):
            if nb in seen:
                continue
            seen.add(nb)
            sep = found.get(nb) or _separator_of_component(g, comp, nb)
            if sep.is_minimal and any(sep.components[j] & bit for j in sep.full):
                add(sep)
                stack.append(sep)

    return sorted(found.values(), key=lambda s: to_tuple(s.set))


def brute_force_minimal_separators(g: Graph, limit: int | None = None) -> list[Separator]:
    """Oracle: scan all vertex subsets for two or more full components."""
    limit = oracle_limit(14) if limit is None else limit
    if g.n > limit:
        raise OracleLimitError(f"n={g.n} above oracle limit {limit}")
    out = []
    for mask in range(1 << g.n):
        if _is_minimal_separator(g, mask):
            out.append(analyze_separator(g, mask))
    out.sort(key=lambda s: to_tuple(s.set))
    return out


def component_cover_witness(
    g: Graph,
    sep: Separator,
    comp_index: int,
    v: int,
    size_bound: int | None = None,
) -> int:
    """A small set Z inside one full component A with S contained in N(Z).

    Requires v in A, A full along with at least one other component, and
    every component of g[A] - {v} missing some separator vertex.  The
    construction keeps v, takes the component of g[A] - {v} with the
    largest neighborhood trace on S - N(v), and greedily shrinks its
    N(v)-boundary to an inclusion-minimal cover of that trace.

    On long-hole-free inputs the witness always exists; when the needed
    structure is absent (so the input has a long hole) or ``size_bound``
    is exceeded, WitnessNotFoundError carries diagnostics.
    """
    if not (0 <= comp_index < len(sep.components)):
        raise PreconditionError("component index out of range")
    comp = sep.components[comp_index]
    if comp_index not in sep.full:
        raise PreconditionError("chosen component is not full for the separator")
    if len(sep.full) < 2:
        raise PreconditionError("separator lacks a second full component")
    if not comp >> v & 1:
        raise PreconditionError(f"vertex {v} is not in the chosen component")

    sub_comps = g.components(comp & ~(1 << v))
    for sub in sub_comps:
        if sep.set & ~g.neighborhood(sub) == 0:
            raise PreconditionError(
                "a component of the punctured side already sees the whole separator"
            )

    uncovered = sep.set & ~g.adj[v]  # separator vertices v does not see
    if uncovered == 0:
        return 1 << v

    traces = [g.neighborhood(sub) & uncovered for sub in sub_comps]
    if not traces:
        raise WitnessNotFoundError(
            "no sub-component can cover the unseen separator vertices",
            {"separator": to_tuple(sep.set), "vertex": v},
        )
    best = max(range(len(traces)), key=lambda i: (traces[i].bit_count(), -i))
    if any(t & ~traces[best] for t in traces):
        raise WitnessNotFoundError(
            "sub-component traces are not nested; input has a long hole",
            {"separator": to_tuple(sep.set), "vertex": v},
        )
    boundary = sub_comps[best] & g.adj[v]
    if uncovered & ~g.neighborhood(boundary):
        raise WitnessNotFoundError(
            "near boundary cannot cover the separator; input has a long hole",
            {"separator": to_tuple(sep.set), "vertex": v},
        )
    cover = boundary
    for z in iter_bits(boundary):
        trial = cover & ~(1 << z)
        if uncovered & ~g.neighborhood(trial) == 0:
            cover = trial
    witness = cover | (1 << v)
    if sep.set & ~g.neighborhood(witness):
        raise WitnessNotFoundError(
            "constructed witness misses separator vertices",
            {"separator": to_tuple(sep.set), "witness": to_tuple(witness)},
        )
    if size_bound is not None and witness.bit_count() > size_bound:
        raise WitnessNotFoundError(
            f"witness larger than bound {size_bound}; input has a large prism",
            {"witness": to_tuple(witness), "bound": size_bound},
        )
    return witness
