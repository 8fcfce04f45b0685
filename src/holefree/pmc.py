"""Potential maximal cliques: testing, enumeration, blocks, and domination.

A vertex set is a potential maximal clique (PMC) when no component of its
removal sees all of it and every internal nonedge is covered by some
component.  Its certificate is the :class:`~holefree.separators.Separator`
record of the set: the components of its removal and their neighborhoods.
Enumeration goes vertex by vertex over prefix graphs following the
one-more-vertex theorem of Bouchitté & Todinca ("Listing all potential
maximal cliques of a graph", TCS 2002): when vertex a turns G into G',
each PMC of G' is a PMC Ω of G or Ω + a, S + a for a minimal separator S
of G', or S | (T & C) for a minimal separator S of G' that avoids a and is
new in G', a minimal separator T of G and a full component C of S in G'.
Every candidate is certified by the test above, from a record that already
holds all but a part of the components, so the sweep never floods the
whole of G': Ω or Ω + a needs no test (:func:`lift_pmc`), S + a for an S
of G tests a's row only (:func:`lift_separator`), and S | X, for X inside
a component C of a minimal separator S of G', floods C - X and tests X's
rows only (:func:`cut_pmc`).  The minimal separators of every prefix
graph are read off those of the whole graph.  S | (T & C) is certified
only once a test on adjacency rows has not ruled it out.

The sweep is exact on any graph.  Splitting a graph into its atoms along
its clique minimal separators first, and sweeping only the atoms that are
not cliques, is :func:`~holefree.engine.atom_families`' job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import canonical_key, iter_bits, to_tuple
from .errors import (
    CapacityExceededError,
    NoDominationError,
    PreconditionError,
    WitnessNotFoundError,
)
from .graph import Graph
from .separators import (
    Separator,
    absorb_last_vertex,
    add_last_vertex,
    analyze_separator,
    enumerate_minimal_separators,  # noqa: F401  (wrapped by perfbench/tracer.py)
    prefix_separators,
)


@dataclass(frozen=True)
class DominationResult:
    """A set Z of at most three vertices with the PMC inside N[Z]."""

    z: tuple[int, ...]
    method: str  # "single-vertex" | "lemma-chain" | "brute-fallback"


def is_pmc(g: Graph, cand: int) -> Separator | None:
    """The certificate of ``cand`` as a PMC of g, or None if it is not one."""
    return _check_pmc(g, analyze_separator(g, cand), cand) if cand else None


def _check_pmc(g: Graph, rec: Separator, unsure: int) -> Separator | None:
    """``rec`` if its set is a PMC of g, else None, where every nonedge of
    the set with no end in ``unsure`` is already known to lie in one of the
    record's neighborhoods.

    No neighborhood may be the whole set.  The nonedges at a vertex x of
    ``unsure`` whose other end is not an earlier vertex of ``unsure`` are
    covered exactly when they all lie in the union of the neighborhoods
    that contain x.  With ``unsure`` the whole set that is the whole test.
    """
    rest, nbrs = rec.set, rec.neighborhoods
    if rest in nbrs:
        return None
    adj = g.adj
    while unsure:
        low = unsure & -unsure
        unsure ^= low
        rest ^= low
        targets = rest & ~adj[low.bit_length() - 1]
        if targets:
            seen = 0
            for nb in nbrs:
                if nb & low:
                    seen |= nb
            if targets & ~seen:
                return None
    return rec


def lift_pmc(g: Graph, pmc: Separator) -> Separator:
    """Certificate in g of Ω if it is a PMC of g, else of Ω + a, for a PMC
    Ω of g minus its last vertex a.  One of the two always is, and neither
    needs a flood or a test.

    The components of g - Ω are those of (g - a) - Ω, with the ones that
    meet N(a) merged with a into one, C_a (:func:`absorb_last_vertex`).
    The others keep their neighborhoods, none of which is all of Ω, and C_a's
    holds the neighborhoods of the components it merged, so every nonedge
    of Ω stays covered.  So Ω is a PMC of g exactly when N(C_a) is not all
    of Ω.  Otherwise Ω + a is one.  The components of g - (Ω + a) are those
    of (g - a) - Ω, each gaining a in its neighborhood when it meets N(a)
    (:func:`add_last_vertex`): none sees all of Ω, so none sees all of
    Ω + a, and the nonedges of Ω stay covered.  A nonedge ay, y in Ω, has y
    in N(C_a) = Ω but not in N(a), so y is in the neighborhood of a
    component that meets N(a), which now holds a as well.
    """
    rec = absorb_last_vertex(g, pmc)
    return rec if pmc.set not in rec.neighborhoods else add_last_vertex(g, pmc)


def lift_separator(g: Graph, sep: Separator) -> Separator | None:
    """Certificate in g of S + a, for a minimal separator S of g minus its
    last vertex a; None if S + a is not a PMC of g.

    No flood: the components of g - (S + a) are those of (g - a) - S, in
    the same order, with the neighborhoods of :func:`add_last_vertex`.  The
    full components of S cover every nonedge of S, and a neighborhood only
    grows, so only the nonedges at a are tested.  A full component of S
    that meets N(a) sees all of S + a, so :func:`_check_pmc` rejects it.
    """
    return _check_pmc(g, add_last_vertex(g, sep), 1 << (g.n - 1))


def cut_pmc(g: Graph, sep: Separator, comp: int, x: int) -> Separator | None:
    """Certificate in g of S | X, for a minimal separator S of g with record
    ``sep``, a component C = ``comp`` of g - S and a nonempty X inside C;
    None if S | X is not a PMC of g.

    Only C - X is flooded.  The components of g - (S | X) are those of
    g - S other than C, with their neighborhoods, which lie inside S, and
    the components of g[C - X], whose neighborhoods the flood takes in g.
    A full component of S other than C, which exists as S has two, avoids
    X and covers every nonedge of S, so only the nonedges at X are tested.
    No neighborhood inside S is all of S | X, so only those of the flooded
    components can fail the first condition.
    """
    pairs = [p for p in zip(sep.components, sep.neighborhoods) if p[0] != comp]
    pairs += g.flood(comp & ~x)
    pairs.sort(key=lambda p: p[0] & -p[0])
    comps, nbrs = zip(*pairs)
    return _check_pmc(g, Separator(sep.set | x, comps, nbrs), x)


def may_be_pmc(adj: tuple[int, ...], cand: int, x: int, rest: int) -> bool:
    """Whether Ω = ``cand`` passes a necessary PMC condition that reads
    adjacency rows only.  Ω = S | X for a vertex set S and a component C of
    g - S, with ``x`` = X = Ω & C not empty and ``rest`` = R = C - X.

    The components of g - S other than C avoid Ω, so they are components
    of g - Ω, and their neighborhoods lie inside S: none holds a vertex of
    X.  The other components of g - Ω are those of g[R], as N(C) lies
    inside S.  So a nonedge of Ω with an end in X can only be covered by a
    component of g[R], and then both of its ends have a neighbor in R.
    Hence Ω is not a PMC when a vertex y of Ω outside N(R) is an end of
    such a nonedge: y misses a vertex of X, or y is in X and misses a
    vertex of Ω.  Only the rows of R, ORed into N(R), and those of
    Ω - N(R) are read.
    """
    reach = 0
    while rest:
        low = rest & -rest
        rest ^= low
        reach |= adj[low.bit_length() - 1]
    alone = cand & ~reach
    while alone:
        low = alone & -alone
        alone ^= low
        # the nonedges at y with an end in X: all of them for y in X
        if (cand if low & x else x) & ~adj[low.bit_length() - 1] & ~low:
            return False
    return True


def enumerate_pmcs(
    g: Graph, minseps: list[Separator], cap: int = 0, counted: int = 0
) -> list[Separator]:
    """The complete, canonically sorted PMC family of g, certified on g,
    by the sweep over its prefix graphs (:func:`_sweep`).  The sweep is
    exact on any graph; splitting g into its atoms first is left to the
    caller (:func:`~holefree.engine.atom_families`).

    ``cap`` bounds every prefix family, each with ``counted`` more PMCs
    found elsewhere (the other atoms of a graph); over it,
    CapacityExceededError.  A cap on ``minseps`` = Δ(g) bounds every
    separator family built here, as |Δ(G_i)| grows with i (:func:`_sweep`).

    ``minseps`` must be all of Δ(g): every prefix family of the sweep is
    read off it.  The result is checked against it: the neighborhood of
    each component left by a PMC must be in it.  That catches an omission
    only when some returned PMC exposes it; otherwise a smaller family
    comes back.
    """
    family = _sweep(g, minseps, cap, counted)
    known = {s.set for s in minseps}
    for pmc in family:
        if any(nb not in known for nb in pmc.neighborhoods):
            raise PreconditionError("provided minimal separator family is incomplete")
    return sorted(family, key=lambda p: canonical_key(p.set))


def _sweep(g: Graph, minseps: list[Separator], cap: int, counted: int) -> list[Separator]:
    """The PMCs of g, certified on g, by a sweep over its prefix graphs
    G_1..G_n that ends with the minimal separators ``minseps`` of g.

    Step i adds vertex a to G = G_{i-1}, giving G' = G_i, and keeps the
    candidates that pass the PMC test on G' (Bouchitté & Todinca, TCS
    2002, ONE_MORE_VERTEX):

    1. each PMC Ω of G if it is a PMC of G', otherwise Ω | a;
    2. S | a for each minimal separator S of G';
    3. S | (T & C) for each minimal separator S of G' with a not in S and
       S not a minimal separator of G, each minimal separator T of G and
       each full component C of S in G'.

    Each distinct candidate is tested once per step, and none floods G'.
    No minimal separator of G' is tested: it has two full components, so
    it is never a PMC.  S | a is one when a is in S, as it is then S.  Rule
    1 reads the certificate of Ω or of Ω | a off Ω's, with no test
    (:func:`lift_pmc`), and rule 2 that of S | a off S's record in G when S
    is in Δ(G), testing a's row only (:func:`lift_separator`).  For a new
    S, S | a and the rule-3 candidates S | X are certified from S's record
    in G' by flooding only the component of S that X cuts and testing
    only X's rows (:func:`cut_pmc`).

    Rule 3 skips the full component C_a that holds a.  In the theorem, a
    PMC Ω of G' made by rule 3 has a not in Ω and S = N(C_a), for C_a the
    component of G' - Ω that holds a.  Then C_a is a full component of S
    disjoint from Ω.  Ω - S is not empty, as S is not a PMC, and lies in
    one full component of S, so that component is not C_a.  The candidates
    of each other full component C come from one pass over Δ(G), which
    keeps each distinct S | (T & C) once.  Before its certificate each one
    must pass :func:`may_be_pmc`: a vertex of it with no neighbor in
    C - (T & C) may not end a nonedge that has an end in T & C.  On prisms
    this leaves no candidate whose certificate fails.

    Every Δ(G_i) is read top-down off ``minseps`` = Δ(G_n) before the
    first step (:func:`~holefree.separators.prefix_separators`).  Each T
    in Δ(G) gives T or T + a in Δ(G'), so no Δ(G_i) is larger than
    ``minseps``.  G_n is g, so the certificates of the final step are
    returned as they are.  A prefix family over ``cap``, with ``counted``
    more, raises CapacityExceededError.
    """
    # the PMCs of G_1; G_1 - {0} is empty and so is Δ(G_1)
    family: dict[int, Separator] = {1: Separator(1, (), ())} if g.n else {}
    chain = prefix_separators(g, minseps)
    prev_seps: dict[int, Separator] = {}  # the minimal separators of G_{i-1}
    for i in range(2, g.n + 1):
        gi = g.prefix(i)
        a = 1 << (i - 1)
        seps_i = chain[i - 1]
        seps_now = {s.set: s for s in seps_i}
        kept: dict[int, Separator] = {}
        tested: set[int] = set()
        for prev in family.values():
            tested.add(prev.set)
            tested.add(prev.set | a)
            pmc = lift_pmc(gi, prev)
            kept[pmc.set] = pmc
        # candidate -> (record of S in G', the component of S it cuts, X)
        candidates: dict[int, tuple[Separator, int, int]] = {}
        adj = gi.adj
        for s in seps_i:
            if s.set & a:
                continue  # S | a is S, and rule 3 needs a not in S
            old = prev_seps.get(s.set)
            if old is None:
                for comp, nb in zip(s.components, s.neighborhoods):
                    if comp & a:
                        candidates.setdefault(s.set | a, (s, comp, a))
                    elif nb == s.set:  # full, and not C_a (see the docstring)
                        for x in {t & comp for t in prev_seps}:
                            cand = s.set | x
                            if x and cand not in candidates and cand not in tested:
                                if may_be_pmc(adj, cand, x, comp & ~x):
                                    candidates[cand] = (s, comp, x)
                                else:
                                    tested.add(cand)
            elif s.set | a not in tested:
                # no other rule yields S | a, so it needs no entry in tested
                pmc = lift_separator(gi, old)
                if pmc is not None:
                    kept[pmc.set] = pmc
        for cand, (s, comp, x) in candidates.items():
            if cand not in tested and cand not in seps_now:
                pmc = cut_pmc(gi, s, comp, x)
                if pmc is not None:
                    kept[cand] = pmc
        family = kept
        prev_seps = seps_now
        if cap and counted + len(family) > cap:
            raise CapacityExceededError("potential maximal cliques", cap, counted + len(family))
    return list(family.values())


def block_family(minseps: list[Separator]) -> list[tuple[int, int]]:
    """The blocks (D, N(D)): each full component D of each minimal
    separator S, with N(D) = S, in the order of ``minseps``.

    These D are all the components of g - S over all minimal S.  For
    such a component C, C is a full component of g - N(C); so is the
    component of g - N(C) that holds a full component B != C of S, as B
    avoids N(C), which lies in S, and sees all of S.  So N(C) is a
    minimal separator with C full.  Every component left by removing any
    PMC belongs to this family, which is what the dynamic program needs.
    A block is listed once, as D fixes S = N(D).
    """
    return [
        (c, nb) for sep in minseps for c, nb in zip(sep.components, sep.neighborhoods) if nb == sep.set
    ]


def find_covering_component(pmc: Separator, member_set: int) -> int:
    """A component of g - pmc whose neighborhood contains ``member_set``,
    two or more vertices of the PMC (:func:`dominate_pmc` passes a member v
    and its non-neighbours).  Components are scanned in canonical order,
    so the choice is deterministic.
    """
    if member_set & ~pmc.set:
        raise PreconditionError("member set must lie inside the PMC")
    for comp, nb in zip(pmc.components, pmc.neighborhoods):
        if member_set & ~nb == 0:
            return comp
    raise WitnessNotFoundError(
        "no component covers the member set; input has a long hole",
        {"pmc": to_tuple(pmc.set), "members": to_tuple(member_set)},
    )


def find_separator_cover_pair(
    g: Graph, sep: Separator, a_index: int, b_index: int, anchor: int
) -> tuple[int, int]:
    """One vertex per full component so the separator sits in the joint reach.

    Searches all pairs from (N(anchor) & A) x (N(anchor) & B) in canonical
    order for a pair (a, b) with S inside N[anchor] | N(a) | N(b); existence
    is guaranteed on long-hole-free inputs.
    """
    if not sep.set >> anchor & 1:
        raise PreconditionError("anchor must belong to the separator")
    for idx in (a_index, b_index):
        if idx not in sep.full:
            raise PreconditionError("both chosen components must be full")
    cand_a = g.adj[anchor] & sep.components[a_index]
    cand_b = g.adj[anchor] & sep.components[b_index]
    base = g.adj[anchor] | (1 << anchor)
    b_ceiling = g.neighborhood(cand_b, closed=True)
    for a in iter_bits(cand_a):
        reach_a = base | g.adj[a]
        if sep.set & ~(reach_a | b_ceiling):
            continue
        for b in iter_bits(cand_b):
            if sep.set & ~(reach_a | g.adj[b]) == 0:
                return a, b
    raise WitnessNotFoundError(
        "no covering pair across the full components; input has a long hole",
        {"separator": to_tuple(sep.set), "anchor": anchor},
    )


def dominate_pmc(g: Graph, pmc: Separator) -> DominationResult:
    """A set Z, |Z| <= 3, with the PMC inside N[Z].

    First scans for a single dominating member.  Otherwise, for each member
    v: take a component D covering the part of the PMC that v misses, note
    that N(D) is a minimal separator with D full, pick a second full
    component, and cover N(D) with one neighbor of v on each side.  On
    long-hole-free inputs some v succeeds; otherwise an exhaustive search
    over the sets of at most three vertices runs and is reported as the
    fallback it is.  It returns the first dominating set in the order of
    ``combinations(range(n), size)``, at the smallest size, but tries only
    sets inside N[Ω]: a vertex outside it dominates no vertex of Ω, so the
    first set would be a smaller dominating set without it, which was tried
    before.  The third vertex of a triple must cover t, the lowest vertex
    of Ω that the first two miss, so it is drawn from N[t] only.

    No v dominates, so the part v misses holds v and a non-neighbour, and
    find_covering_component returns a component or raises.  N(D) of any
    component D of g - Ω is a minimal separator with D full: D is a
    component of g - N(D).  As no component of g - Ω sees all of Ω, some x
    in Ω lies outside N(D); let C be its component of g - N(D).  A vertex
    s of N(D) either sees x, or s and x both border a component D' of
    g - Ω, which avoids N(D), touches x and so lies in C.  Either way s is
    in N(C), so C is full too.
    """
    target = pmc.set
    for v in iter_bits(target):
        if target & ~(g.adj[v] | (1 << v)) == 0:
            return DominationResult((v,), "single-vertex")
    for v in iter_bits(target):
        try:
            comp = find_covering_component(pmc, target & ~g.adj[v])
            sep = analyze_separator(g, pmc.neighborhoods[pmc.components.index(comp)])
            d_index = sep.components.index(comp)
            b_index = next(i for i in sep.full if i != d_index)
            x, y = find_separator_cover_pair(g, sep, d_index, b_index, v)
            z = (1 << v) | (1 << x) | (1 << y)
            if target & ~g.neighborhood(z, closed=True) == 0:
                return DominationResult(tuple(sorted((v, x, y))), "lemma-chain")
        except WitnessNotFoundError:
            continue
    # the part of Ω each vertex of N[Ω] dominates, in ascending order
    near_mask = g.neighborhood(target, closed=True)
    cover = {v: (g.adj[v] | 1 << v) & target for v in iter_bits(near_mask)}
    near = list(cover)
    for a in near:
        if cover[a] == target:
            return DominationResult((a,), "brute-fallback")
    for i, a in enumerate(near):
        for b in near[i + 1 :]:
            if cover[a] | cover[b] == target:
                return DominationResult((a, b), "brute-fallback")
    for i, a in enumerate(near):
        for b in near[i + 1 :]:
            missed = target & ~(cover[a] | cover[b])
            t = (missed & -missed).bit_length() - 1
            for c in iter_bits((g.adj[t] | 1 << t) >> (b + 1) << (b + 1)):
                if missed & ~cover[c] == 0:
                    return DominationResult((a, b, c), "brute-fallback")
    raise NoDominationError(f"no 3-set dominates {to_tuple(target)}")
