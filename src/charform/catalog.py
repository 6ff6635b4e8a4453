"""Exhaustive and constructor-based corpora of small Heyting algebras.

`all_algebras(n)` enumerates every Heyting algebra with at most n elements
up to isomorphism, via Birkhoff duality: algebras correspond to posets of
their join-irreducible elements, and posets are grown one maximal point at
a time with pruning on the upset count.

The algebras of one `all_algebras` call are built over one dict of shared
objects: each meet, join or imp row and each up or down mask is stored
once, however many algebras hold an equal one.  The catalog's 1,996
algebras of at most 15 elements hold 82,293 rows with 5,986 distinct
values.  The tables stay tuples of tuples of ints, so lookups read them as
before, and the dict is dropped when the call returns.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (Poset, canonical_key, concat, product, _bits,
                      _set_algebra, _transpose)
from .rn import boolean, chain, rn_algebra


def _extend_posets(posets, max_upsets):
    """All one-point maximal extensions with at most max_upsets upsets.

    The new point lies above the down-set d of p and below nothing, so an
    up-set of the extension is an up-set of p, with the new point, or one
    disjoint from d, without it: the extension has as many up-sets as p
    plus those of p disjoint from d, counted without listing its own."""
    out = {}
    for p in posets:
        n = p.size
        upsets = p.upset_masks()
        # downsets of p = upsets of the dual
        downsets = Poset._trusted(_transpose(p.up)).upset_masks()
        for d in downsets:
            if len(upsets) + sum(not u & d for u in upsets) > max_upsets:
                continue
            up = list(p.up)
            for i in _bits(d):
                up[i] |= 1 << n
            up.append(1 << n)
            q = Poset._trusted(up)
            key = canonical_key(q)
            if key not in out:
                out[key] = q
    return list(out.values())


@lru_cache(maxsize=None)
def _posets_with_few_upsets(max_upsets):
    """All posets (up to iso) whose upset lattice has <= max_upsets elements."""
    level = [Poset._trusted([])]
    found = list(level)
    while level:
        level = _extend_posets(level, max_upsets)
        found.extend(level)
    return found


@lru_cache(maxsize=None)
def all_algebras(max_size):
    """Every Heyting algebra with at most max_size elements, up to iso.

    Deterministic order: by (size, canonical key).  Each algebra is the
    up-set algebra of a poset, built over one dict shared by the call, so
    equal rows and masks are one object across the catalog.
    """
    shared = {}
    algebras = [_set_algebra(p.upset_masks(), _transpose(p.up), shared)
                for p in _posets_with_few_upsets(max_size)]
    algebras.sort(key=lambda a: (a.size, canonical_key(a)))
    return tuple(algebras)


@lru_cache(maxsize=None)
def standard_corpus(max_size=10):
    """Constructor corpus: chains, ladders, Booleans, their pairwise
    products and concatenations, up to max_size, deduplicated up to iso."""
    bases = []
    for n in range(1, max_size + 1):
        bases.append(chain(n))
        bases.append(rn_algebra(n))
    k = 0
    while 2 ** k <= max_size:
        bases.append(boolean(k))
        k += 1
    pool = list(bases)
    for a in bases:
        for b in bases:
            if a.size * b.size <= max_size:
                pool.append(product(a, b))
            if a.size + b.size - 1 <= max_size and a.size > 1 and b.size > 1:
                pool.append(concat(a, b))
    seen = {}
    for a in pool:
        seen.setdefault(canonical_key(a), a)
    # a key starts with the size, and keys are distinct
    return tuple(a for _, a in sorted(seen.items()))


def si_algebras(max_size):
    """All subdirectly irreducible algebras up to max_size, up to iso."""
    from .algebra import is_si
    return tuple(a for a in all_algebras(max_size) if is_si(a))
