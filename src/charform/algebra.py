"""Finite Heyting algebras as explicit operation tables.

Elements are integers 0..size-1.  The order and all element subsets are
bitmasks, so kernel operations reduce to table lookups and mask arithmetic.
Algebras are immutable after construction.  The constructor checks the
lattice, residuation and distributive laws up to 96 elements; above that
size, and in `relabel_algebra`, the check is skipped and the tables are
trusted.

`close_map` and the term search in `jankov` work on any algebra that lists
its operations as a `signature`; interior algebras (`modal`) give theirs
too, so both kinds share one closure and one term search.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np


class AlgebraError(Exception):
    """Base class for structural errors raised by constructors."""


class NotALattice(AlgebraError):
    pass


class NotResiduated(AlgebraError):
    pass


class SizeLimit(AlgebraError):
    pass


class NoSuchAlgebra(AlgebraError):
    pass


DEFAULT_FILTER_LIMIT = 20
DEFAULT_SH_LIMIT = 40
_FULL_VALIDATE_MAX = 96  # above this the O(n^3) constructor checks are skipped


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Finite poset; up[i] is the bitmask of {j : i <= j}."""

    __slots__ = ("size", "up")

    def __init__(self, up, _checked=False):
        self.size = len(up)
        self.up = tuple(up)
        if not _checked:
            self._validate()

    @classmethod
    def from_leq(cls, rows):
        up = []
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("leq table is not square")
            mask = 0
            for j, v in enumerate(row):
                if v:
                    mask |= 1 << j
            up.append(mask)
        return cls(up)

    def _validate(self):
        n = self.size
        for i in range(n):
            if not (self.up[i] >> i) & 1:
                raise ValueError(f"leq not reflexive at {i}")
            for j in _bits(self.up[i]):
                if j != i and (self.up[j] >> i) & 1:
                    raise ValueError(f"leq not antisymmetric at {i},{j}")
                if self.up[j] & ~self.up[i]:
                    raise ValueError(f"leq not transitive at {i},{j}")

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def upset_masks(self):
        """All up-closed subsets as bitmasks, ascending."""
        order = sorted(range(self.size), key=lambda i: self.up[i].bit_count())
        sets = [0]
        for x in order:
            strict = self.up[x] & ~(1 << x)
            sets += [s | (1 << x) for s in sets if strict & ~s == 0]
        return sorted(sets)


# Operation signatures.  An algebra's `signature` is (binary, unary) in term
# order and < or < imp < neg < box.  A binary entry is (kind, row, col):
# row(alg, x, ys) gives op(x, y) for each y in ys, and col, None for a
# commutative op, gives op(y, x).  A unary entry is (kind, op) with
# op(alg, x) the value at x.


def _meet_row(a, x, ys):
    return map(a.meet[x].__getitem__, ys)


def _join_row(a, x, ys):
    return map(a.join[x].__getitem__, ys)


def _imp_row(a, x, ys):
    return map(a.imp[x].__getitem__, ys)


def _imp_col(a, x, ys):
    imp = a.imp
    return [imp[y][x] for y in ys]


class HeytingAlgebra:
    """Finite Heyting algebra with explicit meet/join/imp tables.

    up[i]/down[i] are bitmasks of the up-set and down-set of element i.
    Labels are display-only; element identity is the index.
    """

    __slots__ = ("size", "up", "down", "meet", "join", "imp", "neg",
                 "bottom", "top", "labels", "_batch_ops")

    signature = ((("and", _meet_row, None), ("or", _join_row, None),
                  ("imp", _imp_row, _imp_col)),
                 (("neg", lambda a, x: a.neg[x]),))

    def __init__(self, up, meet, join, imp, bottom, top, labels=None,
                 validate=True):
        self.size = len(up)
        self.up = tuple(up)
        full = (1 << self.size) - 1
        down = [0] * self.size
        for i in range(self.size):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        self.down = tuple(down)
        self.meet = tuple(tuple(r) for r in meet)
        self.join = tuple(tuple(r) for r in join)
        self.imp = tuple(tuple(r) for r in imp)
        self.bottom = bottom
        self.top = top
        self.neg = tuple(self.imp[a][bottom] for a in range(self.size))
        self.labels = tuple(labels) if labels is not None else None
        self._batch_ops = None
        if validate and self.size <= _FULL_VALIDATE_MAX:
            self._validate(full)

    # -- validation ------------------------------------------------------

    def _validate(self, full):
        n = self.size
        Poset(self.up)
        if self.down[self.bottom] != 1 << self.bottom:
            raise NotALattice("bottom is not least")
        if self.up[self.top] != 1 << self.top:
            raise NotALattice("top is not greatest")
        up, down, meet, join, imp = self.up, self.down, self.meet, self.join, self.imp
        for a in range(n):
            for b in range(n):
                m, j = meet[a][b], join[a][b]
                if down[a] & down[b] != down[m]:
                    raise NotALattice(f"meet wrong at {a},{b}")
                if up[a] & up[b] != up[j]:
                    raise NotALattice(f"join wrong at {a},{b}")
                # residuation: c <= a->b iff a&c <= b
                r = imp[a][b]
                want = 0
                for c in range(n):
                    if (up[meet[a][c]] >> b) & 1:
                        want |= 1 << c
                if down[r] != want:
                    raise NotResiduated(f"imp wrong at {a},{b}")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                        raise NotResiduated(f"not distributive at {a},{b},{c}")

    # -- basic queries ---------------------------------------------------

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def label(self, i):
        return self.labels[i] if self.labels else str(i)

    def element_by_label(self, label):
        if self.labels is None:
            raise KeyError(label)
        hits = [i for i, l in enumerate(self.labels) if l == label]
        if len(hits) != 1:
            raise KeyError(f"label {label!r} matches {len(hits)} elements")
        return hits[0]

    def iff_val(self, a, b):
        return self.meet[self.imp[a][b]][self.imp[b][a]]

    def batch_ops(self):
        """The operations over numpy arrays of element indices, for
        `formula.run_program`: binary ones gather from a flat table at
        x*size+y, neg gathers from its row.  Built on first use."""
        if self._batch_ops is None:
            s = self.size

            def flat(table):
                t = np.asarray(table, dtype=np.int32).reshape(-1)
                return lambda x, y: t[x * s + y]

            neg = np.asarray(self.neg, dtype=np.int32)
            self._batch_ops = {"top": self.top, "bot": self.bottom,
                               "and": flat(self.meet), "or": flat(self.join),
                               "imp": flat(self.imp), "neg": neg.__getitem__}
        return self._batch_ops

    def covers(self):
        """Cover pairs (i, j) with j covering i, lexicographic."""
        out = []
        for i in range(self.size):
            strict = self.up[i] & ~(1 << i)
            for j in _bits(strict):
                between = strict & self.down[j] & ~(1 << j)
                if between == 0:
                    out.append((i, j))
        return out

    def join_irreducibles(self):
        """Elements with exactly one lower cover (bottom excluded)."""
        lower = [0] * self.size
        for i, j in self.covers():
            lower[j] += 1
        return [x for x in range(self.size) if x != self.bottom and lower[x] == 1]

    def __repr__(self):
        return f"HeytingAlgebra(size={self.size})"


# -- constructors ---------------------------------------------------------


def make_algebra(leq_rows, labels=None):
    """Build the Heyting algebra on a partial order, deriving all tables.

    Raises NotALattice if some pair lacks a meet or join, NotResiduated if
    relative pseudocomplements do not exist (e.g. a non-distributive order).
    """
    poset = Poset.from_leq(leq_rows)
    n = poset.size
    up = poset.up
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i

    def _extreme(common, sets, kind):
        # the element of `common` whose `sets` mask covers all of common
        for k in _bits(common):
            if common & ~sets[k] == 0:
                return k
        raise NotALattice(f"no {kind} for some pair")

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            meet[a][b] = _extreme(down[a] & down[b], down, "meet")
            join[a][b] = _extreme(up[a] & up[b], up, "join")
    imp = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            s = 0
            for c in range(n):
                if (up[meet[a][c]] >> b) & 1:
                    s |= 1 << c
            best = None
            for k in _bits(s):
                if s & ~down[k] == 0:
                    best = k
                    break
            if best is None:
                raise NotResiduated(f"no relative pseudocomplement for {a}->{b}")
            imp[a][b] = best
    bottom = _extreme((1 << n) - 1, up, "bottom")
    top = _extreme((1 << n) - 1, down, "top")
    return HeytingAlgebra(up, meet, join, imp, bottom, top, labels=labels)


def upset_algebra(poset):
    """Heyting algebra of up-closed subsets of a poset, ordered by inclusion."""
    masks = poset.upset_masks()
    idx = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    pup = poset.up
    full = (1 << poset.size) - 1
    up = [0] * n
    for i, u in enumerate(masks):
        for j, v in enumerate(masks):
            if u & ~v == 0:
                up[i] |= 1 << j
    meet = [[idx[u & v] for v in masks] for u in masks]
    join = [[idx[u | v] for v in masks] for u in masks]
    imp = [[0] * n for _ in range(n)]
    for i, u in enumerate(masks):
        for j, v in enumerate(masks):
            w = 0
            for x in range(poset.size):
                if pup[x] & u & ~v == 0:
                    w |= 1 << x
            imp[i][j] = idx[w]
    return HeytingAlgebra(up, meet, join, imp, idx[0], idx[full],
                          validate=n <= _FULL_VALIDATE_MAX)


def product(a, b):
    """Direct product; element (i, j) has index i*b.size + j."""
    na, nb = a.size, b.size
    n = na * nb

    def pid(i, j):
        return i * nb + j

    up = [0] * n
    for i in range(na):
        for j in range(nb):
            m = 0
            for i2 in _bits(a.up[i]):
                base = i2 * nb
                for j2 in _bits(b.up[j]):
                    m |= 1 << (base + j2)
            up[pid(i, j)] = m
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    imp = [[0] * n for _ in range(n)]
    for i in range(na):
        for j in range(nb):
            x = pid(i, j)
            for k in range(na):
                for l in range(nb):
                    y = pid(k, l)
                    meet[x][y] = pid(a.meet[i][k], b.meet[j][l])
                    join[x][y] = pid(a.join[i][k], b.join[j][l])
                    imp[x][y] = pid(a.imp[i][k], b.imp[j][l])
    labels = None
    if n <= 4096:
        labels = [f"⟨{a.label(i)},{b.label(j)}⟩" for i in range(na) for j in range(nb)]
    return HeytingAlgebra(up, meet, join, imp, pid(a.bottom, b.bottom),
                          pid(a.top, b.top), labels=labels,
                          validate=n <= _FULL_VALIDATE_MAX)


def concat_embedding(a, b):
    """Index in concat(a, b) of each element of b, as a tuple.

    b's bottom is glued to a's top, and the other elements of b follow a's
    elements in index order; a's elements keep their indices.  When a is
    trivial, concat(a, b) is b itself.
    """
    if a.size == 1:
        return tuple(range(b.size))
    # x - (x > b.bottom) counts the elements of b below index x, bottom aside
    return tuple(a.top if x == b.bottom else a.size + x - (x > b.bottom)
                 for x in range(b.size))


def concat(a, b):
    """Concatenation: stack b on a, gluing a's top to b's bottom.

    The carrier layout is the one `concat_embedding` describes.
    """
    if b.size == 1:
        return a
    if a.size == 1:
        return b
    na = a.size
    brest = [x for x in range(b.size) if x != b.bottom]
    bmap = concat_embedding(a, b)
    n = na + len(brest)
    bpart_mask = sum(1 << bmap[x] for x in brest)

    up = [0] * n
    for i in range(na):
        up[i] = a.up[i] | bpart_mask
    for x in brest:
        m = 0
        for y in _bits(b.up[x]):
            m |= 1 << bmap[y]
        up[bmap[x]] = m

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    imp = [[0] * n for _ in range(n)]
    top = bmap[b.top]
    # within the a part: meets/joins as in a; x -> y jumps to the new top
    # exactly when x <= y
    for x in range(na):
        for y in range(na):
            meet[x][y] = a.meet[x][y]
            join[x][y] = a.join[x][y]
            imp[x][y] = top if a.leq(x, y) else a.imp[x][y]
    # within the b part (including the glue, which is b's bottom there)
    for x in range(b.size):
        for y in range(b.size):
            if x == b.bottom and y == b.bottom:
                continue
            mx, my = bmap[x], bmap[y]
            meet[mx][my] = bmap[b.meet[x][y]]
            join[mx][my] = bmap[b.join[x][y]]
            imp[mx][my] = bmap[b.imp[x][y]]
    # mixed pairs: every a-element below the glue sits strictly below the
    # proper b part
    for x in range(na):
        if x == a.top:
            continue
        for y in _bits(bpart_mask):
            meet[x][y] = meet[y][x] = x
            join[x][y] = join[y][x] = y
            imp[x][y] = top
            imp[y][x] = x
    labels = [a.label(i) for i in range(na)] + [b.label(x) for x in brest]
    seen = set()
    for i, l in enumerate(labels):
        while l in seen:
            l += "'"
        seen.add(l)
        labels[i] = l
    return HeytingAlgebra(up, meet, join, imp, a.bottom, top, labels=labels,
                          validate=n <= _FULL_VALIDATE_MAX)


# -- filters, quotients, subalgebras --------------------------------------


@dataclass(frozen=True)
class Filter:
    """Meet-closed up-set containing top, as a member bitmask."""

    algebra: HeytingAlgebra
    members: int

    def __post_init__(self):
        a, m = self.algebra, self.members
        if not (m >> a.top) & 1:
            raise ValueError("filter must contain top")
        for x in _bits(m):
            if a.up[x] & ~m:
                raise ValueError("filter not upward closed")
            for y in _bits(m):
                if not (m >> a.meet[x][y]) & 1:
                    raise ValueError("filter not meet-closed")

    def elements(self):
        return tuple(_bits(self.members))

    def __contains__(self, x):
        return bool((self.members >> x) & 1)


def principal_filter(a, x):
    """The filter generated by element x: all y with x <= y."""
    return Filter(a, a.up[x])


def enumerate_filters(a, limit=DEFAULT_FILTER_LIMIT):
    """All filters of a, ordered by member bitmask ascending.

    Every filter of a finite lattice is principal, so there are exactly
    a.size of them; the limit is kept as a guard for oversized inputs.
    """
    if a.size > limit:
        raise SizeLimit(f"filter enumeration capped at {limit} elements")
    return [Filter(a, m) for m in sorted(a.up)]


@dataclass(frozen=True)
class Homomorphism:
    """Map preserving bottom, top and the three binary operations."""

    source: HeytingAlgebra
    target: HeytingAlgebra
    map: tuple

    def __post_init__(self):
        s, t, m = self.source, self.target, self.map
        if len(m) != s.size:
            raise ValueError("map has wrong length")
        if m[s.bottom] != t.bottom or m[s.top] != t.top:
            raise ValueError("map does not preserve bounds")
        for x in range(s.size):
            for y in range(s.size):
                if (m[s.meet[x][y]] != t.meet[m[x]][m[y]]
                        or m[s.join[x][y]] != t.join[m[x]][m[y]]
                        or m[s.imp[x][y]] != t.imp[m[x]][m[y]]):
                    raise ValueError(f"operations not preserved at {x},{y}")

    @property
    def is_embedding(self):
        return len(set(self.map)) == len(self.map)

    def __call__(self, x):
        return self.map[x]


def quotient(a, filt):
    """Quotient by a filter: x ~ y iff (x <-> y) in the filter.

    Returns the quotient algebra and the natural surjection.  The class
    representative is the least element index in the class.
    """
    if filt.algebra is not a:
        raise ValueError("filter belongs to a different algebra")
    n = a.size
    fm = filt.members
    rep = [-1] * n
    reps = []
    for x in range(n):
        if rep[x] != -1:
            continue
        rep[x] = x
        reps.append(x)
        for y in range(x + 1, n):
            if rep[y] == -1 and (fm >> a.imp[x][y]) & 1 and (fm >> a.imp[y][x]) & 1:
                rep[y] = x
    pos = {r: i for i, r in enumerate(reps)}
    m = len(reps)
    up = [0] * m
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            if (fm >> a.imp[x][y]) & 1:
                up[i] |= 1 << j
    meet = [[pos[rep[a.meet[x][y]]] for y in reps] for x in reps]
    join = [[pos[rep[a.join[x][y]]] for y in reps] for x in reps]
    imp = [[pos[rep[a.imp[x][y]]] for y in reps] for x in reps]
    labels = [a.label(x) for x in reps] if a.labels else None
    q = HeytingAlgebra(up, meet, join, imp, pos[rep[a.bottom]], pos[rep[a.top]],
                       labels=labels, validate=m <= _FULL_VALIDATE_MAX)
    surj = Homomorphism(a, q, tuple(pos[rep[x]] for x in range(n)))
    return q, surj


def induced_subalgebra(a, carrier):
    """Algebra on a carrier that is already closed under the operations.

    Returns (sorted carrier, algebra); the k-th element of the new algebra
    is the k-th smallest member of the carrier.
    """
    elems = sorted(carrier)
    pos = {x: i for i, x in enumerate(elems)}
    m = len(elems)
    up = [0] * m
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if a.leq(x, y):
                up[i] |= 1 << j
    meet = [[pos[a.meet[x][y]] for y in elems] for x in elems]
    join = [[pos[a.join[x][y]] for y in elems] for x in elems]
    imp = [[pos[a.imp[x][y]] for y in elems] for x in elems]
    labels = [a.label(x) for x in elems] if a.labels else None
    bot = next(x for x in elems if all(a.leq(x, y) for y in elems))
    topx = next(x for x in elems if all(a.leq(y, x) for y in elems))
    sub = HeytingAlgebra(up, meet, join, imp, pos[bot], pos[topx],
                         labels=labels, validate=m <= _FULL_VALIDATE_MAX)
    return elems, sub


def close_map(images, frontier, source, target, limit=None):
    """Close a partial map source -> target under the operations.

    `images` maps source elements to target elements and is extended in
    place; `frontier` lists its keys not yet combined with the others (all
    of them, for a fresh map).  Both algebras are of one kind and combine
    through its `signature`.  Returns the closed map, or None as soon as
    some element would get two images; a returned map commutes with every
    operation on its domain.  With a limit, a map that outgrows it is
    returned at once, unclosed, for a caller that would discard it.
    """
    binary, unary = source.signature
    get = images.get
    while frontier:
        items = list(images)
        fitems = list(images.values())
        new = []
        for x in frontier:
            fx = images[x]
            pairs = [[(op(source, x), op(target, fx)) for _, op in unary]]
            for _, row, col in binary:
                pairs.append(zip(row(source, x, items), row(target, fx, fitems)))
                if col is not None:
                    pairs.append(zip(col(source, x, items),
                                     col(target, fx, fitems)))
            for z, w in itertools.chain.from_iterable(pairs):
                got = get(z)
                if got is None:
                    images[z] = w
                    new.append(z)
                elif got != w:
                    return None
            if limit is not None and len(images) > limit:
                return images
        frontier = new
    return images


def subalgebra_closure(a, gens):
    """Least subset containing gens, bottom and top, closed under the ops."""
    images = {x: x for x in (a.bottom, a.top, *gens)}
    return frozenset(close_map(images, list(images), a, a))


def generated_subalgebra(a, gens):
    """Subalgebra generated by gens; returns (element set, algebra)."""
    if not gens:
        raise ValueError("gens must be nonempty")
    closed = subalgebra_closure(a, gens)
    _, sub = induced_subalgebra(a, closed)
    return closed, sub


def relabel_algebra(a, order, labels=None):
    """Permuted copy: new element k is old element order[k]."""
    pos = {x: k for k, x in enumerate(order)}
    n = a.size
    up = [0] * n
    for k, x in enumerate(order):
        for y in _bits(a.up[x]):
            up[k] |= 1 << pos[y]
    meet = [[pos[a.meet[x][y]] for y in order] for x in order]
    join = [[pos[a.join[x][y]] for y in order] for x in order]
    imp = [[pos[a.imp[x][y]] for y in order] for x in order]
    if labels is None and a.labels:
        labels = [a.label(x) for x in order]
    return HeytingAlgebra(up, meet, join, imp, pos[a.bottom], pos[a.top],
                          labels=labels, validate=False)


# -- searches --------------------------------------------------------------


def homomorphism_search(a, b, partial=None, injective=False, first_only=False,
                        limit=DEFAULT_SH_LIMIT):
    """All homomorphisms a -> b extending `partial`, in lexicographic order.

    Backtracking over elements in index order with forward checking on the
    operation tables; with injective=True only embeddings are returned.
    """
    if a.size > limit or b.size > limit:
        raise SizeLimit("homomorphism search size limit exceeded")
    n = a.size
    m = [-1] * n
    m[a.bottom] = b.bottom
    if m[a.top] == -1:
        m[a.top] = b.top
    elif m[a.top] != b.top:
        return []
    if partial:
        for x, v in partial.items():
            if m[x] != -1 and m[x] != v:
                return []
            m[x] = v
    if injective and len({v for v in m if v != -1}) != len([v for v in m if v != -1]):
        return []
    fixed = [x for x in range(n) if m[x] != -1]
    free = [x for x in range(n) if m[x] == -1]
    used = 0
    for v in m:
        if v != -1:
            used |= 1 << v

    tables_a = (a.meet, a.join, a.imp)
    tables_b = (b.meet, b.join, b.imp)

    def consistent(x):
        assigned = [y for y in range(n) if m[y] != -1]
        for y in assigned:
            if a.leq(x, y) and not b.leq(m[x], m[y]):
                return False
            if a.leq(y, x) and not b.leq(m[y], m[x]):
                return False
            for ta, tb in zip(tables_a, tables_b):
                for (p, q) in ((x, y), (y, x)):
                    z = ta[p][q]
                    if m[z] != -1 and tb[m[p]][m[q]] != m[z]:
                        return False
        return True

    for x in fixed:
        if not consistent(x):
            return []

    def full_check():
        for x in range(n):
            for y in range(n):
                for ta, tb in zip(tables_a, tables_b):
                    if tb[m[x]][m[y]] != m[ta[x][y]]:
                        return False
        return True

    out = []

    def backtrack(k, used):
        if k == len(free):
            if full_check():
                out.append(Homomorphism(a, b, tuple(m)))
                return first_only
            return False
        x = free[k]
        for v in range(b.size):
            if injective and (used >> v) & 1:
                continue
            m[x] = v
            if consistent(x):
                if backtrack(k + 1, used | (1 << v)):
                    return True
            m[x] = -1
        return False

    backtrack(0, used)
    return out


def in_sh(a, b, size_limit=DEFAULT_SH_LIMIT):
    """Is a embeddable into some quotient of b (the Sub-Hom quasi-order)?

    Returns (verdict, witness); the witness is the first (filter, embedding)
    pair in deterministic order (filters by member bitmask ascending).
    """
    if b.size > size_limit:
        raise SizeLimit(f"in_sh target exceeds {size_limit} elements")
    for filt in enumerate_filters(b, limit=size_limit):
        q, _ = quotient(b, filt)
        if a.size > q.size:
            continue
        found = homomorphism_search(a, q, injective=True, first_only=True,
                                    limit=size_limit)
        if found:
            return True, (filt, found[0])
    return False, None


# -- structure predicates ---------------------------------------------------


def opremum(a):
    """Greatest element below top, if it exists."""
    if a.size < 2:
        return None
    rest = ((1 << a.size) - 1) & ~(1 << a.top)
    for x in _bits(rest):
        if rest & ~a.down[x] == 0:
            return x
    return None


def is_si(a):
    """Subdirect irreducibility: at least 2 elements and an opremum."""
    return a.size >= 2 and opremum(a) is not None


def dense_elements(a):
    """The filter Dn(a) of elements with double negation top."""
    m = 0
    for x in range(a.size):
        if a.neg[a.neg[x]] == a.top:
            m |= 1 << x
    return Filter(a, m)


def regular_elements(a):
    """Elements fixed by double negation."""
    return tuple(x for x in range(a.size) if a.neg[a.neg[x]] == x)


# -- isomorphism and canonical forms ---------------------------------------


def _refine_profile(up, down, size):
    """Iterated neighbourhood refinement; returns a per-element colour.

    Colours are ranked by sorted key so they are comparable across algebras.
    """
    colour = [(down[i].bit_count(), up[i].bit_count()) for i in range(size)]
    for _ in range(size):
        keys = []
        for i in range(size):
            below = tuple(sorted(colour[j] for j in _bits(down[i])))
            above = tuple(sorted(colour[j] for j in _bits(up[i])))
            keys.append((colour[i], below, above))
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colour:
            break
        colour = new
    return colour


def is_isomorphic(a, b):
    """Isomorphism test: invariant prefiltering, then backtracking.

    Returns (verdict, map a-index -> b-index or None).
    """
    if a.size != b.size:
        return False, None
    ca = _refine_profile(a.up, a.down, a.size)
    cb = _refine_profile(b.up, b.down, b.size)
    if sorted(ca) != sorted(cb):
        return False, None
    n = a.size
    cand = [[y for y in range(n) if cb[y] == ca[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: len(cand[x]))
    m = [-1] * n
    used = [False] * n

    def ok(x, y):
        for x2 in range(n):
            if m[x2] == -1:
                continue
            if a.leq(x, x2) != b.leq(y, m[x2]) or a.leq(x2, x) != b.leq(m[x2], y):
                return False
        return True

    def backtrack(k):
        if k == n:
            return True
        x = order[k]
        for y in cand[x]:
            if used[y]:
                continue
            if ok(x, y):
                m[x] = y
                used[y] = True
                if backtrack(k + 1):
                    return True
                m[x] = -1
                used[y] = False
        return False

    if not backtrack(0):
        return False, None
    # an order isomorphism of Heyting algebras preserves all operations,
    # but verify the tables anyway
    for x in range(n):
        for y in range(n):
            if m[a.imp[x][y]] != b.imp[m[x]][m[y]]:
                return False, None
    return True, tuple(m)


def canonical_key(a):
    """Relabelling-invariant key of an order, usable for dedup and
    deterministic order.

    Reads only `a.size` and the up-set masks `a.up`, so it keys posets and
    algebras alike; an algebra's key is the key of its order.
    """
    n = a.size
    up = a.up
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    colour = _refine_profile(up, down, n)
    best = None
    order = sorted(range(n), key=lambda x: (colour[x], x))
    groups = {}
    for x in order:
        groups.setdefault(colour[x], []).append(x)

    perm = [-1] * n
    inv = [-1] * n

    def encode():
        rows = []
        for i in range(n):
            mask = 0
            ux = up[inv[i]]
            for j in range(n):
                if (ux >> inv[j]) & 1:
                    mask |= 1 << j
            rows.append(mask)
        return tuple(rows)

    def backtrack(k, slots):
        nonlocal best
        if k == n:
            code = encode()
            if best is None or code < best:
                best = code
            return
        for x in slots[k]:
            if perm[x] == -1:
                perm[x] = k
                inv[k] = x
                backtrack(k + 1, slots)
                perm[x] = -1
        # keep the search bounded: if the colouring is discrete this loops once

    slots = [groups[c] for c in sorted(groups)]
    flat = []
    for g in slots:
        flat.extend([g] * len(g))
    backtrack(0, flat)
    return (n,) + best


# -- JSON ------------------------------------------------------------------


def algebra_to_json(a):
    rows = [[1 if a.leq(i, j) else 0 for j in range(a.size)] for i in range(a.size)]
    doc = {"size": a.size, "leq": rows}
    if a.labels:
        doc["labels"] = list(a.labels)
    return json.dumps(doc, ensure_ascii=False)


def algebra_from_json(text):
    doc = json.loads(text)
    rows = doc["leq"]
    if len(rows) != doc["size"]:
        raise ValueError("size does not match leq table")
    return make_algebra(rows, labels=doc.get("labels"))
