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
