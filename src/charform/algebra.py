"""Finite Heyting algebras as explicit operation tables.

Elements are integers 0..size-1.  The order and all element subsets are
bitmasks, so kernel operations reduce to table lookups and mask arithmetic.
Algebras are immutable after construction.  The public constructors check
their input in full at any size; the library's own constructions, correct
by construction, skip the check: every derived Heyting algebra is built by
`_from_tables` from its operation tables, through the private `_trusted`
classmethod.

`close_set`, the generation search in `jankov` and `homomorphism_search`
work on any algebra that lists its operations as a `signature`; interior
algebras (`modal`) give theirs too, so both kinds share one closure, one
generation search and one homomorphism search, which `in_sh`, over the
quotients an algebra lists in `quotients`, and `is_isomorphic` run too.
`close_set` closes a mask of elements round by round through a reach: one
read from the signature at each call (`subalgebra_closure`), or one over
pair rows, the masks of every binary value at each pair of elements,
built once by a caller that closes many sets in one algebra
(`presentation._bounded_subalgebras`).  A closure is unique, so the order
in which either combines the elements cannot change it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import or_


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


# _CHUNKS[c][v]: the set bits of v << 8c, ascending, for the 8 chunks of a
# 64-bit mask; chunk 0 is built here, the others on first use
_CHUNKS = [[tuple(i for i in range(8) if v >> i & 1) for v in range(256)]]
_CHUNKS += [None] * 7


def _chunk(c):
    """The table of chunk c, built from chunk 0."""
    _CHUNKS[c] = [tuple([i + 8 * c for i in t]) for t in _CHUNKS[0]]
    return _CHUNKS[c]


def _bits(mask):
    """The set bits of a mask, ascending, as a tuple: read off the chunk
    tables up to 64 bits, lowest bit first beyond."""
    if mask < 256:
        return _CHUNKS[0][mask]
    if mask >> 64:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    out = ()
    c = 0
    while mask:
        v = mask & 255
        if v:
            out += (_CHUNKS[c] or _chunk(c))[v]
        mask >>= 8
        c += 1
    return out


def _transpose(up):
    """The down masks of an order given by its up masks: i is in down[j]
    iff j is in up[i]."""
    down = [0] * len(up)
    for i, m in enumerate(up):
        for j in _bits(m):
            down[j] |= 1 << i
    return down


def _sub_order(up, mask):
    """The up masks of the order that up induces on the elements of mask,
    each element renumbered by its position in mask, ascending."""
    elems = _bits(mask)
    bit = {x: 1 << i for i, x in enumerate(elems)}.__getitem__
    return tuple([sum(map(bit, _bits(up[x] & mask))) for x in elems])


class _Trusted:
    """`_trusted(...)` builds an instance on data the library derived: it
    fills the slots through `_fill`, without the checks of `__init__`."""

    __slots__ = ()

    @classmethod
    def _trusted(cls, *args, **kwargs):
        obj = cls.__new__(cls)
        obj._fill(*args, **kwargs)
        return obj


class Poset(_Trusted):
    """Finite poset; up[i] is the bitmask of {j : i <= j}."""

    __slots__ = ("size", "up")

    def __init__(self, up):
        self._fill(up)
        self._validate()

    def _fill(self, up):
        self.size, self.up = len(up), tuple(up)

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
        if not all(isinstance(m, int) and 0 <= m < 1 << n for m in self.up):
            raise ValueError(f"up-set masks must be ints in 0..2^{n}-1")
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


class HeytingAlgebra(_Trusted):
    """Finite Heyting algebra with explicit meet/join/imp tables.

    up[i]/down[i] are bitmasks of the up-set and down-set of element i.
    Labels are display-only; element identity is the index.
    """

    __slots__ = ("size", "up", "down", "meet", "join", "imp", "neg",
                 "bottom", "top", "labels", "_scalar", "_frame", "_plans")

    signature = ((("and", _meet_row, None), ("or", _join_row, None),
                  ("imp", _imp_row, _imp_col)),
                 (("neg", lambda a, x: a.neg[x]),))

    def __init__(self, up, meet, join, imp, bottom, top, labels=None):
        """Check caller-given tables: ValueError on a wrong shape or entry,
        an `AlgebraError` on a broken law."""
        n = len(up)
        ids = set(range(n))
        if not ids.issuperset((bottom, top)) or any(
                len(t) != n or any(len(r) != n or not ids.issuperset(r)
                                   for r in t) for t in (meet, join, imp)):
            raise ValueError(f"tables must be {n}x{n}, with all entries, "
                             f"bottom and top in 0..{n - 1}")
        if labels is not None and len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} elements")
        Poset(up)
        self._fill(up, meet, join, imp, bottom, top, labels)
        self._validate()

    def _fill(self, up, meet, join, imp, bottom, top, labels=None, down=None):
        self.size = len(up)
        self.up = tuple(up)
        self.down = tuple(_transpose(up) if down is None else down)
        self.meet = tuple(tuple(r) for r in meet)
        self.join = tuple(tuple(r) for r in join)
        self.imp = tuple(tuple(r) for r in imp)
        self.bottom = bottom
        self.top = top
        self.neg = tuple(self.imp[a][bottom] for a in range(self.size))
        self.labels = tuple(labels) if labels is not None else None
        self._scalar = self._frame = self._plans = None

    def _validate(self):
        n = self.size
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

    def scalar_ops(self):
        """The operations on single elements, for `formula.run_program` and
        the propagation engine: lookups in the operation tables.  Built on
        first use and kept; callers only read it."""
        if self._scalar is None:
            meet, join, imp = self.meet, self.join, self.imp
            self._scalar = {
                "top": self.top, "bot": self.bottom,
                "and": lambda x, y: meet[x][y], "or": lambda x, y: join[x][y],
                "imp": lambda x, y: imp[x][y], "neg": self.neg.__getitem__}
        return self._scalar

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

    def opremum(self):
        """Greatest element below top, or None (the algebra is not s.i.)."""
        rest = ((1 << self.size) - 1) & ~(1 << self.top)
        for x in _bits(rest):
            if rest & ~self.down[x] == 0:
                return x
        return None

    def dual_frame(self):
        """The join-irreducibles as the points of the dual frame (Birkhoff:
        each element is the join of those below it), ordered by the size of
        their down-sets, so that each point comes after every point below
        it.  Returns the point mask of each element (the points below it)
        and, for each point, its lower covers among the points, by
        position: x -> y holds a point p exactly when every point q <= p
        that x holds y holds too, which the covers of p reach step by
        step."""
        down = self.down
        ji = sorted(self.join_irreducibles(),
                    key=lambda j: (down[j].bit_count(), j))
        pos = {j: i for i, j in enumerate(ji)}
        points = sum(1 << j for j in ji)
        masks = tuple(sum(1 << pos[j] for j in _bits(d & points)) for d in down)
        lower = []
        for j in ji:
            below = down[j] & points & ~(1 << j)
            lower.append(tuple(pos[q] for q in _bits(below)
                               if self.up[q] & below == 1 << q))
        return masks, tuple(lower)

    def quotients(self, min_size):
        """Each congruence with its quotient, for `in_sh`: the filters ↑f,
        by member bitmask ascending, and the quotients by them, those with
        fewer than `min_size` elements skipped unbuilt.  The quotient by ↑f
        has an element for each element below f."""
        for f in sorted(range(self.size), key=self.up.__getitem__):
            if self.down[f].bit_count() >= min_size:
                filt = Filter(self, self.up[f])
                yield filt, quotient(self, filt)[0]

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
    down = _transpose(up)

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


def _from_tables(meet, join, imp, labels=None):
    """The algebra on operation tables the library derived.  The order is
    read off the meet table (x <= y iff x & y = x), and bottom and top off
    the order."""
    up = [sum(1 << y for y, m in enumerate(row) if m == x)
          for x, row in enumerate(meet)]
    bottom = up.index((1 << len(up)) - 1)
    top = next(x for x, m in enumerate(up) if m == 1 << x)
    return HeytingAlgebra._trusted(up, meet, join, imp, bottom, top, labels)


def _image(a, elems, img, labels=None):
    """The algebra on `elems`, listed in their new index order, with a's
    operations read through `img`, which maps each element of a to its new
    index; labels default to a's labels of `elems`."""
    def read(table):
        rows = [table[x] for x in elems]
        return [[img[r[y]] for y in elems] for r in rows]

    if labels is None and a.labels:
        labels = [a.label(x) for x in elems]
    return _from_tables(read(a.meet), read(a.join), read(a.imp), labels)


class _Meets(dict):
    """The meet of masks[shift + x] over the bits x of each key, filled on
    first use, one bit at a time down to a key already held."""

    __slots__ = ("masks", "shift")

    def __missing__(self, key):
        value, rest = -1, key
        while rest not in self:
            low = rest & -rest
            value &= self.masks[self.shift + low.bit_length() - 1]
            rest ^= low
        value = self[key] = value & self[rest]
        return value


def _meet_table(masks, full):
    """The meet of full and masks[x] over the bits x of t, at index t."""
    table = [full]
    for m in masks:
        table += [t & m for t in table]
    return table


def _meets(masks, full):
    """(lo, hi, shift) with the meet of full and masks[x] over the bits x
    of t equal to lo[t & (1 << shift) - 1] & hi[t >> shift]: lo is a table
    over the first points, at most 8, and hi one over the others, or, past
    8 of them, a dict filled on first use."""
    n = len(masks)
    shift = min((n + 1) // 2, 8)
    lo = _meet_table(masks[:shift], full)
    if n - shift <= 8:
        return lo, _meet_table(masks[shift:], full), shift
    hi = _Meets({0: full})
    hi.masks, hi.shift = masks, shift
    return lo, hi, shift


def _set_algebra(sets, down, shared=None):
    """The algebra of the up-sets of a preorder on points, given by the down
    mask of each point: `sets` lists them as ascending bitmasks, closed
    under & and |, ordered by inclusion, the first empty and the last the
    whole carrier, bottom and top.  u -> v, the interior of ~u | v, holds
    the points below no point of u & ~v: the meet of the complements of
    their down masks, read off `_meets`.

    Each entry is an index found through a dict from each set to its
    index.  The up mask of the set at index i has the bits of the j >= i
    whose set contains it, and its down mask those of the j <= i whose set
    it contains, since the sets ascend.

    Each table row, a tuple, and each up or down mask is replaced by the
    first equal one in `shared`, a dict from each value to itself, so that
    algebras built over one dict hold one object per distinct row and mask.
    `all_algebras` passes one dict per call; without one, a fresh dict
    shares the rows and masks within this algebra only.  A dict kept for
    the life of the process would keep the rows of every algebra built
    through it alive.
    """
    keep = ({} if shared is None else shared).setdefault
    idx = {s: i for i, s in enumerate(sets)}
    full, n = sets[-1], len(sets)
    lo, hi, shift = _meets([full ^ d for d in down], full)
    low = (1 << shift) - 1
    nots = [~v for v in sets]

    def rows(table):
        return [keep(r, r) for r in map(tuple, table)]

    meet = rows([idx[u & v] for v in sets] for u in sets)
    join = rows([idx[u | v] for v in sets] for u in sets)
    imp = rows([idx[lo[(t := u & nv) & low] & hi[t >> shift]] for nv in nots]
               for u in sets)
    ups, downs = [], []
    for i, u in enumerate(sets):
        m = 0
        for j in range(i, n):
            if u & sets[j] == u:
                m |= 1 << j
        ups.append(keep(m, m))
        m = 0
        for j in range(i + 1):
            if u | sets[j] == u:
                m |= 1 << j
        downs.append(keep(m, m))
    return HeytingAlgebra._trusted(ups, meet, join, imp, 0, n - 1, down=downs)


def upset_algebra(poset):
    """Heyting algebra of up-closed subsets of a poset, ordered by inclusion
    (`_set_algebra`)."""
    return _set_algebra(poset.upset_masks(), _transpose(poset.up))


def product(a, b):
    """Direct product; element (i, j) has index i*b.size + j."""
    nb = b.size

    def cross(ta, tb):
        return [[x * nb + y for x in ra for y in rb] for ra in ta for rb in tb]

    labels = None
    if a.size * nb <= 4096:
        labels = [f"⟨{a.label(i)},{b.label(j)}⟩" for i in range(a.size)
                  for j in range(nb)]
    return _from_tables(cross(a.meet, b.meet), cross(a.join, b.join),
                        cross(a.imp, b.imp), labels)


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
        for y in range(na, n):
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
    return _from_tables(meet, join, imp, labels)


# -- filters, quotients, subalgebras --------------------------------------


@dataclass(frozen=True)
class Filter:
    """Meet-closed up-set containing top, as a member bitmask.

    `least` is the meet of the members.  In a finite algebra a mask is a
    filter exactly when it is the up-set of that meet, and its congruence
    is x ~ y iff x & least = y & least (see `quotient`)."""

    algebra: HeytingAlgebra
    members: int
    least: int = field(init=False, compare=False)

    def __post_init__(self):
        a, m = self.algebra, self.members
        if not (isinstance(m, int) and 0 <= m < 1 << a.size):
            raise ValueError(f"filter mask must be an int in 0..2^{a.size}-1")
        if not (m >> a.top) & 1:
            raise ValueError("filter must contain top")
        least = a.top
        for x in _bits(m):
            least = a.meet[least][x]
        if a.up[least] != m:
            raise ValueError("filter not meet-closed" if not (m >> least) & 1
                             else "filter not upward closed")
        object.__setattr__(self, "least", least)   # the dataclass is frozen

    def elements(self):
        return tuple(_bits(self.members))

    def __contains__(self, x):
        return bool((self.members >> x) & 1)


def principal_filter(a, x):
    """The filter generated by element x: all y with x <= y."""
    return Filter(a, a.up[x])


def enumerate_filters(a):
    """All filters of a, ordered by member bitmask ascending.

    Every filter of a finite lattice is principal, so there are exactly
    a.size of them.
    """
    return [Filter(a, m) for m in sorted(a.up)]


@dataclass(frozen=True)
class Homomorphism(_Trusted):
    """Map preserving bottom, top and the operations of the source's
    `signature`."""

    source: HeytingAlgebra
    target: HeytingAlgebra
    map: tuple

    def _fill(self, *fields):
        for name, value in zip(("source", "target", "map"), fields):
            object.__setattr__(self, name, value)   # the dataclass is frozen

    def __post_init__(self):
        s, t, m = self.source, self.target, self.map
        if len(m) != s.size:
            raise ValueError("map has wrong length")
        # the search with each element held to its image finds m iff m
        # preserves the bounds and every operation of s's signature
        held = [1 << v for v in m]
        if not _homomorphisms(s, t, held, False, True, [SEARCH_BUDGET]):
            raise ValueError("map does not preserve the operations")

    @property
    def is_embedding(self):
        return len(set(self.map)) == len(self.map)

    def __call__(self, x):
        return self.map[x]


def _classes(keys):
    """The classes of x ~ y iff keys[x] == keys[y], numbered by first
    occurrence: (the class of each x, the least index of each class)."""
    first = {}
    for x, k in enumerate(keys):
        first.setdefault(k, x)
    num = {k: i for i, k in enumerate(first)}
    return [num[k] for k in keys], list(first.values())


def quotient(a, filt):
    """Quotient by a filter ↑f: x ~ y iff x & f = y & f, so the quotient is
    isomorphic to the algebra below f.

    Returns the quotient algebra and the natural surjection.  Classes are
    numbered by first occurrence, and the class representative is the
    least element index in the class.
    """
    if filt.algebra is not a:
        raise ValueError("filter belongs to a different algebra")
    img, reps = _classes(a.meet[filt.least])
    q = _image(a, reps, img)
    surj = Homomorphism._trusted(a, q, tuple(img))
    return q, surj


def induced_subalgebra(a, carrier):
    """Algebra on a carrier already closed under meet, join and imp; it
    need not hold a's bottom (an interval [c, top] is such a carrier).

    Returns (sorted carrier, algebra); the k-th element of the new algebra
    is the k-th smallest member of the carrier.
    """
    elems = sorted(carrier)
    sub = _image(a, elems, {x: i for i, x in enumerate(elems)})
    return elems, sub


def close_set(reach, closed, frontier, limit=None, avoid=0):
    """Close a set of elements, a mask, under the operations that `reach`
    applies, and return the closed mask.

    `frontier` masks the members of `closed` not yet combined with the
    others (all of them, for a fresh set).  reach(zs, items) is the mask of
    the values of every operation at each element z of zs and at each pair
    of z with a member of items; a round passes the frontier as zs and the
    closed elements as items, both ascending, and the elements it adds are
    the next frontier.  Every pair of the result is combined: the later of
    its two elements to enter, on its round, meets the earlier in items.
    The closure of a set is unique, so the order in which pairs are
    combined cannot change it.  A set that outgrows the limit, or that
    gains an element of the mask `avoid`, is returned at once, unclosed,
    for a caller that would discard it.
    """
    while frontier:
        start = closed
        closed |= reach(_bits(frontier), _bits(closed))
        if closed & avoid or limit is not None and closed.bit_count() > limit:
            return closed
        frontier = closed & ~start
    return closed


def _signature_reach(algebra):
    """A reach for `close_set` read from the algebra's `signature` at each
    call, for one closure: no table is built, so it serves an algebra of
    any size."""
    binary, unary = algebra.signature

    def reach(zs, items):
        values = set()
        for z in zs:
            values.update([op(algebra, z) for _, op in unary])
            for _, row, col in binary:
                values.update(row(algebra, z, items))
                if col is not None:
                    values.update(col(algebra, z, items))
        values.difference_update(items)
        return sum(map((1).__lshift__, values))

    return reach


def _pair_reach(algebra):
    """A reach for `close_set` over pair rows, for many closures in one
    algebra: rows[z][x] masks the value of every binary operation of the
    algebra's `signature` at (z, x) and at (x, z), and unary[z] the values
    of its unary ones at z.  The rows take size^3 bits; they live as long
    as the reach returned."""
    binary, unary_ops = algebra.signature
    first, *rest = [f for _, row, col in binary for f in (row, col)
                    if f is not None]
    xs = range(algebra.size)
    bit = [1 << x for x in xs]
    get = bit.__getitem__
    rows = []
    for z in xs:
        row = map(get, first(algebra, z, xs))
        for f in rest:
            row = map(or_, row, map(get, f(algebra, z, xs)))
        rows.append(list(row))
    unary = [reduce(or_, [bit[op(algebra, z)] for _, op in unary_ops], 0)
             for z in xs]

    def reach(zs, items):
        out = 0
        for z in zs:
            out |= reduce(or_, map(rows[z].__getitem__, items), unary[z])
        return out

    return reach


def subalgebra_closure(a, gens):
    """Least subset containing gens, bottom and top, closed under the ops."""
    start = 1 << a.bottom | 1 << a.top
    for x in gens:
        start |= 1 << x
    return frozenset(_bits(close_set(_signature_reach(a), start, start)))


def generated_subalgebra(a, gens):
    """Subalgebra generated by gens; returns (element set, algebra)."""
    if not gens:
        raise ValueError("gens must be nonempty")
    closed = subalgebra_closure(a, gens)
    _, sub = induced_subalgebra(a, closed)
    return closed, sub


def relabel_algebra(a, order, labels=None):
    """Permuted copy: new element k is old element order[k]."""
    return _image(a, order, {x: k for k, x in enumerate(order)}, labels)


# -- searches --------------------------------------------------------------

# The work budget of one call of `homomorphism_search`, `in_sh` or
# `is_isomorphic`: an element assigned costs the pairs it forms with those
# assigned, and a quotient `in_sh` builds costs its size times b's size.
# Sub-Hom between spans of all_algebras(8) spends at most 166,364.
SEARCH_BUDGET = 2_000_000


def _spend(work, amount):
    """Take amount from the budget left in work[0]; SizeLimit past it."""
    work[0] -= amount
    if work[0] < 0:
        raise SizeLimit("structure-map search exceeds its budget")


def _homomorphisms(a, b, allowed, injective, first_only, work):
    """The homomorphisms a -> b that send each x into the bitmask allowed[x],
    in lexicographic order, for either algebra kind: the free element of
    least index takes each value of b in ascending order, and each
    assignment is closed under a's `signature`, so forced images are never
    tried.  The elements below the free one are all assigned, which keeps
    the output lexicographic; `work` holds what is left of the budget.
    """
    if injective and a.size > b.size:
        return []
    binary, unary = a.signature
    m = [-1] * a.size
    used = [False] * b.size
    trail, vals = [], []    # assigned elements of a and their images

    def close(x, v):
        # assign x -> v and all it forces; False on a conflict, with the
        # assignments made so far left on the trail
        todo = [(x, v)]
        while todo:
            x, v = todo.pop()
            if m[x] == v:
                continue
            if (m[x] != -1 or injective and used[v]
                    or not allowed[x] >> v & 1):
                return False
            m[x] = v
            used[v] = True
            trail.append(x)
            vals.append(v)
            _spend(work, len(trail))
            pairs = [[(op(a, x), op(b, v)) for _, op in unary]]
            for _, row, col in binary:
                pairs.append(zip(row(a, x, trail), row(b, v, vals)))
                if col is not None:
                    pairs.append(zip(col(a, x, trail), col(b, v, vals)))
            for zs in pairs:
                for z, w in zs:
                    if m[z] != w:
                        if m[z] != -1:
                            return False
                        todo.append((z, w))
        return True

    seeds = [(a.bottom, b.bottom), (a.top, b.top)]
    if not all(close(x, v) for x, v in seeds):
        return []
    out = []
    choices = []    # [free element, trail length before it, next value]
    x = 0
    while True:
        while x < a.size and m[x] != -1:
            x += 1
        if x == a.size:   # closed under every operation: a homomorphism
            out.append(Homomorphism._trusted(a, b, tuple(m)))
            if first_only:
                return out
        else:
            choices.append([x, len(trail), 0])
        while choices:
            x, mark, v = choices[-1]
            while len(trail) > mark:
                m[trail.pop()] = -1
                used[vals.pop()] = False
            if v == b.size:
                choices.pop()
            else:
                choices[-1][2] = v + 1
                if close(x, v):
                    break
        else:
            return out


def homomorphism_search(a, b, partial=None, injective=False, first_only=False):
    """All homomorphisms a -> b extending `partial`, in lexicographic order;
    with injective=True only embeddings.  Serves Heyting and interior
    algebras alike; SizeLimit when the search exceeds `SEARCH_BUDGET`."""
    partial = partial or {}
    allowed = [1 << partial[x] if x in partial else -1 for x in range(a.size)]
    return _homomorphisms(a, b, allowed, injective, first_only, [SEARCH_BUDGET])


def in_sh(a, b):
    """Is a embeddable into some quotient of b (the Sub-Hom quasi-order)?

    Both algebra kinds, through b's `quotients` (filters by member mask
    ascending, or opens ascending) and one `SEARCH_BUDGET`; returns
    (verdict, the first (congruence, least embedding) pair or None).  A
    quotient with fewer elements than a holds no embedding of a, so it is
    neither built nor searched, and spends no budget.

    When a's rank exceeds b's, the answer is no before any search.  The
    rank, the length of a longest chain, is the number of join-irreducibles
    of a Heyting algebra and of atoms of an interior one.  An embedding
    keeps strict chains, and a quotient of b, isomorphic to an interval of
    b (below the filter's least element, or the atoms inside an open), has
    at most b's rank.
    """
    if len(a.join_irreducibles()) > len(b.join_irreducibles()):
        return False, None
    work = [SEARCH_BUDGET]
    for congruence, q in b.quotients(a.size):
        _spend(work, q.size * b.size)
        found = _homomorphisms(a, q, [-1] * a.size, True, True, work)
        if found:
            return True, (congruence, found[0])
    return False, None


# -- structure predicates ---------------------------------------------------


def is_si(a):
    """Subdirect irreducibility, of either algebra kind: an opremum."""
    return a.opremum() is not None


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


def _refine_cells(above, below):
    """Iterated neighbourhood refinement of an order given by `above` and
    `below`, where above[i] lists the elements j >= i and below[i] those
    j <= i; returns the colour classes, each a list of elements, in colour
    order.

    The first classes are those of the (below, above) counts, in sorted order.
    A round keys each element by its colour and the sorted colours below
    and above it, and orders the keys, so colours are comparable across
    algebras.  A key starts with the old colour, so a round splits each
    class of two or more elements by its members' (below, above) colours,
    in sorted order, and keeps the others; the rounds stop at the first
    that splits no class.
    """
    counts = {}
    for i, ys in enumerate(above):
        counts.setdefault((len(below[i]), len(ys)), []).append(i)
    cells = [counts[k] for k in sorted(counts)]
    colour = [0] * len(above)
    while True:
        for c, cell in enumerate(cells):
            for i in cell:
                colour[i] = c
        get = colour.__getitem__
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            keyed = {}
            for i in cell:
                keyed.setdefault((tuple(sorted(map(get, below[i]))),
                                  tuple(sorted(map(get, above[i])))),
                                 []).append(i)
            split.extend(keyed[k] for k in sorted(keyed))
        if len(split) == len(cells):
            return cells
        cells = split


def _below(above):
    """The elements below each element, ascending, from `above`."""
    below = [[] for _ in above]
    for x, ys in enumerate(above):
        for y in ys:
            below[y].append(x)
    return below


def _refine_profile(above):
    """The colour of each element, the index of its class in
    `_refine_cells`."""
    colour = [0] * len(above)
    for c, cell in enumerate(_refine_cells(above, _below(above))):
        for i in cell:
            colour[i] = c
    return colour


def is_isomorphic(a, b):
    """Isomorphism test: the least embedding a -> b keeping each element in
    its `_refine_profile` colour class (an isomorphism keeps colours).
    Returns (verdict, the lexicographically least isomorphism as a map
    a-index -> b-index, or None); SizeLimit past `SEARCH_BUDGET`.
    """
    if a.size != b.size:
        return False, None
    ca = _refine_profile([_bits(m) for m in a.up])
    cb = _refine_profile([_bits(m) for m in b.up])
    if sorted(ca) != sorted(cb):
        return False, None
    classes = {}
    for y, c in enumerate(cb):
        classes[c] = classes.get(c, 0) | 1 << y
    allowed = [classes[c] for c in ca]
    found = _homomorphisms(a, b, allowed, True, True, [SEARCH_BUDGET])
    return (True, found[0].map) if found else (False, None)


# `canonical_key` looks for automorphisms to prune its search by only when
# the search has at least this many leaves, the product of the factorials
# of the colour class sizes
_ORBIT_MIN_LEAVES = 720


def _automorphisms(up, above, colour):
    """The automorphisms of the order given by up masks (and `above`, their
    bits) that keep every element's colour, each a list g with g[x] the
    image of x, the identity left out.

    They are the colour-keeping automorphisms of the join-irreducibles, the
    elements with one lower cover, each lifted through the join-irreducibles
    below each element, and kept only when the lift is a permutation that
    keeps colours and maps every up mask onto an up mask.  A finite
    distributive lattice gets every such automorphism (Birkhoff); another
    order gets some or none, each one an automorphism.
    """
    n = len(up)
    down = _transpose(up)
    ji = []
    for x in range(n):
        strict = down[x] & ~(1 << x)
        if sum(up[y] & strict == 1 << y for y in _bits(strict)) == 1:
            ji.append(x)
    points = sum(1 << j for j in ji)
    ji_below = [d & points for d in down]
    element = {m: x for x, m in enumerate(ji_below)}
    if len(element) < n:
        return []
    found = []
    sigma = {}

    def lift():
        # distinct masks have distinct images, so a lift defined everywhere
        # is a permutation
        g = [element.get(sum([1 << sigma[j] for j in _bits(m)]))
             for m in ji_below]
        if None in g or g == list(range(n)):
            return
        if all(colour[g[x]] == colour[x]
               and sum([1 << g[y] for y in above[x]]) == up[g[x]]
               for x in range(n)):
            found.append(g)

    def extend(i):
        if i == len(ji):
            lift()
            return
        j = ji[i]
        used = sigma.values()
        for t in ji:
            if colour[t] != colour[j] or t in used:
                continue
            if all((up[j] >> k & 1) == (up[t] >> sigma[k] & 1)
                   and (up[k] >> j & 1) == (up[sigma[k]] >> t & 1)
                   for k in ji[:i]):
                sigma[j] = t
                extend(i + 1)
                del sigma[j]

    extend(0)
    return found


def canonical_key(a):
    """Relabelling-invariant key of an order, usable for dedup and
    deterministic order.

    Reads only `a.size` and the up-set masks `a.up`, so it keys posets and
    algebras alike; an algebra's key is the key of its order.  The key is
    (n,) and the least code, the tuple of the relabelled up masks, over the
    labellings that place the `_refine_cells` colour classes in ascending
    order.

    Labellings are left out only where an automorphism maps them onto ones
    kept, with equal codes.  Twins go in ascending order, so a class of
    one element, or of twins alone, is placed before the search; when every
    class is, the one labelling's code is the key.  Otherwise a
    backtracking search orders the other classes, and compares each leaf's
    code with the least so far row by row, leaving it at the first larger
    row.  A search of at least `_ORBIT_MIN_LEAVES` leaves skips a candidate
    x when an automorphism (`_automorphisms`) that fixes every element
    placed maps a candidate already tried to x: it maps that subtree onto
    x's, code for code.
    """
    n = a.size
    up = a.up
    above = [_bits(m) for m in up]
    below = _below(above)
    cells = _refine_cells(above, below)
    # the bit of x's position, 0 while x is unplaced; pos[n] stands for
    # an element placed before the search
    pos = [0] * n + [1]
    inv = [0] * n
    # twins, elements with the same elements strictly above and below them,
    # are placed in ascending order: swapping two unplaced twins is an
    # automorphism that fixes every other element
    twin = [n] * n  # the twin before x in that order, else n
    slots = []  # (position, class) for each position searched
    spans = []  # (members, positions) of each class searched, as masks
    k = 0
    for cell in cells:
        if len(cell) > 1:
            last = {}
            for x in cell:
                t = (up[x] ^ 1 << x, tuple([y for y in below[x] if y != x]))
                twin[x] = last.get(t, n)
                last[t] = x
            if len(last) > 1:
                slots += [(k + i, cell) for i in range(len(cell))]
                spans.append((sum(1 << x for x in cell),
                              (1 << k + len(cell)) - (1 << k)))
                k += len(cell)
                continue
        for x in cell:  # one element, or twins: one order
            pos[x] = 1 << k
            inv[k] = x
            k += 1
    get = pos.__getitem__
    if not slots:
        return (n,) + tuple([sum(map(get, above[x])) for x in inv])
    # a row is a fixed part, the positions of the placed elements and of
    # the whole searched classes above its element, plus the positions of
    # the other elements above it, read at the leaf.  The classes are
    # equitable and twins have the same elements above them, so a searched
    # class is wholly above a placed element or not at all: the rows of the
    # placed elements are the same at every leaf and are not compared
    fixed = [sum(map(get, ys)) for ys in above]
    loose = [[] for _ in range(n)]
    for x, m in enumerate(up):
        for members, positions in spans:
            if m & members == members:
                fixed[x] += positions
            elif m & members:
                loose[x] += _bits(m & members)
    best = [fixed[x] for x in inv]
    varying = [k for k, _ in slots]
    for k in varying:
        best[k] = 1 << n  # above every row

    def leaf():
        for i, k in enumerate(varying):
            x = inv[k]
            row = fixed[x] + sum(map(get, loose[x]))
            if row != best[k]:
                if row < best[k]:
                    best[k] = row
                    for k in varying[i + 1:]:
                        x = inv[k]
                        best[k] = fixed[x] + sum(map(get, loose[x]))
                return

    def search(i, stab):
        if i == len(slots):
            leaf()
            return
        k, cell = slots[i]
        seen = 0  # the candidates an automorphism maps one tried onto
        for x in cell:
            if pos[x] or not pos[twin[x]] or seen >> x & 1:
                continue
            for g in stab:
                seen |= 1 << g[x]
            pos[x] = 1 << k
            inv[k] = x
            search(i + 1, [g for g in stab if g[x] == x])
            pos[x] = 0

    leaves = 1
    for _, positions in spans:
        leaves *= math.factorial(positions.bit_count())
    stab = []
    if leaves >= _ORBIT_MIN_LEAVES:
        # an element placed is its own colour, so the automorphisms fix it
        colour = pos[:n]
        for members, positions in spans:
            for x in _bits(members):
                colour[x] = positions
        stab = _automorphisms(up, above, colour)
    search(0, stab)
    return (n,) + tuple(best)


# -- JSON ------------------------------------------------------------------


def algebra_to_json(a):
    rows = [[1 if a.leq(i, j) else 0 for j in range(a.size)] for i in range(a.size)]
    doc = {"size": a.size, "leq": rows}
    if a.labels:
        doc["labels"] = list(a.labels)
    return json.dumps(doc, ensure_ascii=False)


def algebra_from_json(text):
    doc = json.loads(text)
    if not (isinstance(doc, dict) and {"size", "leq"} <= doc.keys()):
        raise ValueError("an algebra needs size and leq")
    rows, labels = doc["leq"], doc.get("labels")
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ValueError("leq is not a list of rows")
    if not all(type(v) in (int, bool) and v in (0, 1)
               for r in rows for v in r):
        raise ValueError("leq entries must be 0, 1, true or false")
    if not isinstance(labels, (list, type(None))):
        raise ValueError("labels is not a list")
    if len(rows) != doc["size"]:
        raise ValueError("size does not match leq table")
    return make_algebra(rows, labels=labels)
