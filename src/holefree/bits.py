"""Bitmask helpers for vertex sets.

A vertex set over 0..n-1 is a plain int: bit v set means vertex v is in
the set.  Union, intersection, difference and subset tests are the usual
int operators, which keeps set algebra exact and fast.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_tuple(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


_SWAP = str.maketrans("01", "10")


def canonical_key(mask: int) -> str:
    """A sort key that orders vertex sets exactly as :func:`to_tuple`.

    Character i is "0" when vertex i is in the set and "1" when it is not,
    up to the largest vertex, and the empty set gets "".  At the first
    vertex where two sets differ, the set that holds it comes first, unless
    the other has ended: then the other's string is a prefix of this one,
    and the shorter string sorts first, as the shorter tuple does.
    """
    return bin(mask)[:1:-1].translate(_SWAP) if mask else ""
