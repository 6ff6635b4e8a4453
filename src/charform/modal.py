"""Finite interior algebras: spans, carcasses, and the modal bridge.

A finite interior algebra is the complex algebra of the preorder R on its
atoms, R(a) the least open element containing a (McKinsey and Tarski):
box(x) holds a exactly when x holds all of R(a).  `InteriorAlgebra` keeps
R, `successors`, and derives its box table and its opens, the up-sets of
R.  The helpers read R: the span's R(i) is the image of the i-th
join-irreducible, a quotient by an open restricts R to it, the
open-generated subalgebra's atoms are the clusters of R (atoms with equal
R), and `opremum` is top minus the root cluster, the atoms whose R is the
whole carrier, when it is not empty.  The opens form the Heyting carcass,
built as any up-set algebra is (`algebra._set_algebra`).

Formulas are evaluated by their compiled programs, with the operations an
interior algebra gives in `scalar_ops`: the Boolean ones bitwise on masks,
box a lookup in the box table.  `evaluate_modal` is `formula.evaluate`,
and validity is `formula.is_valid`, whose two engines serve both algebra
kinds.  `modal_validity` is `is_valid` by its naive engine: the program
runs over every valuation in bit-sliced blocks over the dual frame, whose
points are the atoms, each with the atoms of its R, over open values only
when every variable occurs boxed.

The GMT translation of a formula is kept on the formula object, as its
compiled program is, so a formula checked on many spans is translated,
and its translation compiled, once.

Diagrams, presentations, `check_defines` and Sub-Hom (`algebra.in_sh`, over
the quotients by opens that `quotients` lists) read an algebra's
`signature`, so they serve interior algebras as they serve Heyting
algebras; `gmt_presentation` carries a Heyting presentation over to the
span as a `Presentation`, and `jankov` builds its characteristic formulas.
"""

from __future__ import annotations

import functools
import json
import operator
from collections.abc import Sequence

from .algebra import SizeLimit, _Trusted, _bits, _set_algebra, _transpose
from . import formula
from .formula import (Formula, box, compile_formula, conj, evaluate, iff, imp,
                      neg, var)
from .presentation import Presentation


class NotS4(ValueError):
    pass


def _and_row(b, x, ys):
    return [x & y for y in ys]


def _or_row(b, x, ys):
    return [x | y for y in ys]


def _imp_row(b, x, ys):
    nx = x ^ b.full
    return [nx | y for y in ys]


def _imp_col(b, x, ys):
    full = b.full
    return [(y ^ full) | x for y in ys]


class InteriorAlgebra(_Trusted):
    """Powerset of an atom set with an S4 interior operator, kept as the
    preorder on the atoms: `successors[a]` is the mask of R(a), the least
    open element containing the atom a.

    Carrier elements are subset bitmasks 0 .. 2^atoms - 1.  `box`, a table
    indexed by carrier element, and `opens`, its values ascending, are
    derived from R: box(x) holds the atoms a with R(a) inside x.
    """

    __slots__ = ("atoms", "size", "full", "successors", "box", "opens",
                 "atom_labels", "_scalar", "_frame", "_plans")

    bottom = 0
    # the Boolean operations are set-theoretic on atoms; the signature
    # format is the one Heyting algebras use (see algebra.py)
    signature = ((("and", _and_row, None), ("or", _or_row, None),
                  ("imp", _imp_row, _imp_col)),
                 (("neg", lambda b, x: x ^ b.full),
                  ("box", lambda b, x: b.box[x])))

    def __init__(self, atoms, box_table, atom_labels=None):
        """Check a caller-given box table: ValueError on a table that is not
        a sequence of ints, a wrong length, entry or label count, `NotS4` on
        a broken law.  The S4 tables are the boxes of preorders, so R is read
        off the table (b in R(a) iff a is not in box(~b)), checked to be
        reflexive and transitive, and its box compared with the table."""
        if not (isinstance(box_table, Sequence)
                and all(type(e) is int for e in box_table)):
            raise ValueError("box is not a list of integers")
        if (type(atoms) is not int
                or not 0 <= atoms <= len(box_table).bit_length()):
            raise ValueError(f"atom count {atoms!r} does not fit "
                             f"{len(box_table)} box entries")
        size = 1 << atoms
        if len(box_table) != size or not set(range(size)).issuperset(box_table):
            raise ValueError(f"box table needs {size} entries in 0..{size - 1}")
        if atom_labels and len(atom_labels) != atoms:
            raise ValueError(f"{len(atom_labels)} labels for {atoms} atoms")
        full = size - 1
        succ = _transpose([full ^ box_table[full ^ (1 << b)]
                           for b in range(atoms)])
        for a, r in enumerate(succ):
            if not r >> a & 1:
                raise NotS4(f"box({full ^ (1 << a)}) holds atom {a}")
            for b in _bits(r):
                if succ[b] & ~r:
                    raise NotS4(f"atom preorder not transitive at {a}, {b}")
        self._fill(atoms, succ, atom_labels)
        if self.box != tuple(box_table):
            raise NotS4("box is not the interior of its atom preorder")

    def _fill(self, atoms, successors, atom_labels=None):
        self.atoms = atoms
        self.size = 1 << atoms
        self.full = full = self.size - 1
        self.successors = tuple(successors)
        # box(x) misses the atoms a whose R(a) meets ~x: below[y] is the
        # union, over the atoms b of y, of the a with b in R(a), built by
        # doubling
        below = [0]
        for d in _transpose(successors):
            below += [v | d for v in below]
        self.box = tuple(full ^ v for v in reversed(below))
        self.opens = tuple(sorted(set(self.box)))
        self.atom_labels = tuple(atom_labels) if atom_labels else None
        self._scalar = self._frame = self._plans = None

    @property
    def top(self):
        return self.full

    def leq(self, x, y):
        return x & ~y == 0

    def scalar_ops(self):
        """The operations on single masks, for `formula.run_program` and the
        propagation engine: bitwise Boolean operations and a lookup in the
        box table.  Built on first use and kept; callers only read it."""
        if self._scalar is None:
            full = self.full
            self._scalar = {
                "top": full, "bot": 0, "and": operator.and_,
                "or": operator.or_, "imp": lambda x, y: (x ^ full) | y,
                "neg": lambda x: x ^ full, "box": self.box.__getitem__}
        return self._scalar

    def join_irreducibles(self):
        """The atoms, as masks."""
        return [1 << i for i in range(self.atoms)]

    def quotients(self, min_size):
        """Each congruence with its quotient, for `algebra.in_sh`: the opens,
        ascending, and the quotients by their filters, those with fewer
        than `min_size` elements skipped unbuilt.  The quotient by an open
        o has an atom for each atom inside o."""
        for o in self.opens:
            if 1 << o.bit_count() >= min_size:
                yield o, quotient_by_open(self, o)

    def box_floor(self, c):
        """Least open element containing c: the union of R over its atoms."""
        out = 0
        for a in _bits(c):
            out |= self.successors[a]
        return out

    def opremum(self):
        """The greatest open element below top, the carcass's opremum: top
        minus the root cluster C = {a : R(a) = top}, or None when C is
        empty, as then the R(a), all below top, cover the carrier."""
        root = sum(1 << a for a, r in enumerate(self.successors)
                   if r == self.full)
        return self.full & ~root if root else None

    def dual_frame(self):
        """The atoms as the points of the dual frame: each element is its
        own point mask, and each atom a lists the other atoms of R(a),
        whose planes box meets with its own."""
        return range(self.size), tuple(
            tuple(b for b in _bits(r) if b != a)
            for a, r in enumerate(self.successors))

    def __repr__(self):
        return f"InteriorAlgebra(atoms={self.atoms})"


def span(algebra):
    """Modal span of a Heyting algebra and the embedding onto its opens.

    Atoms are the join-irreducible elements, and a maps to the set of
    join-irreducibles below it.  R(i), the least open containing atom i,
    is the image of the i-th join-irreducible, so box(x) is the largest
    open below x.
    """
    ji = algebra.join_irreducibles()
    m = len(ji)
    if m > 13:
        raise SizeLimit(f"span carrier 2^{m} exceeds the budget")
    embed = []
    for a in range(algebra.size):
        mask = 0
        for i, j in enumerate(ji):
            if algebra.leq(j, a):
                mask |= 1 << i
        embed.append(mask)
    labels = [algebra.label(j) for j in ji]
    return (InteriorAlgebra._trusted(m, [embed[j] for j in ji], labels),
            tuple(embed))


def heyting_carcass(b):
    """Heyting algebra of the open elements, the up-sets of the preorder
    `successors`, with x -> y = box(~x | y)."""
    return _set_algebra(b.opens, _transpose(b.successors))


def _on_blocks(b, blocks):
    """The interior algebra whose atoms are `blocks`, disjoint lists of b's
    atoms, the atoms of each block sharing one R, a union of blocks: a
    block's R is the blocks whose first atom lies in that union."""
    succ = [sum(1 << i for i, other in enumerate(blocks)
                if b.successors[blk[0]] >> other[0] & 1) for blk in blocks]
    labels = None
    if b.atom_labels:
        labels = ["+".join(b.atom_labels[a] for a in blk) for blk in blocks]
    return InteriorAlgebra._trusted(len(blocks), succ, atom_labels=labels)


def open_generated(b):
    """Subalgebra generated by the opens, on the reduced atom set.

    Atoms with equal R lie in the same opens, so they collapse into the
    clusters of R, ordered by least atom; the cluster unions are exactly
    the Boolean closure of the opens, and they are already closed under
    box.
    """
    clusters = {}
    for a, r in enumerate(b.successors):
        clusters.setdefault(r, []).append(a)
    return _on_blocks(b, list(clusters.values()))


# -- Goedel-McKinsey-Tarski translation ----------------------------------------


def gmt_translate(f):
    """Boxed-implication translation: variables, implications and negations
    are boxed; conjunction and disjunction commute.

    A loop over the compiled program of f, so formulas of any depth
    translate and each distinct subterm is translated once.  The
    translation is kept on f as a private attribute outside the dataclass
    fields, so equality and hashing ignore it, each formula object is
    translated once, and the translation, being the same object every
    time, compiles once.
    """
    t = f.__dict__.get("_gmt")
    if t is None:
        t = _translate(f)
        object.__setattr__(f, "_gmt", t)  # f is frozen
    return t


def _translate(f):
    done = []
    for k, a, b in compile_formula(f).code:
        if k == "var":
            t = box(var(a))
        elif k in ("and", "or"):
            t = Formula(k, (done[a], done[b]))
        elif k == "imp":
            t = box(imp(done[a], done[b]))
        elif k == "neg":
            t = box(neg(done[a]))
        elif k in ("top", "bot"):
            t = Formula(k)
        else:
            raise ValueError("formula is not assertoric")
        done.append(t)
    return done[-1]


# -- evaluation and validity -----------------------------------------------------

# one evaluator serves both algebra kinds
evaluate_modal = evaluate


# (verdict, least counter-valuation) by `formula.is_valid`'s naive engine
modal_validity = functools.partial(formula.is_valid, engine="naive")


# -- quotients -----------------------------------------------------------------


def quotient_by_open(b, o):
    """Quotient by the filter of an open element, on the atoms inside it:
    R restricted to o, an up-set, which holds R of each of its atoms."""
    return _on_blocks(b, [[a] for a in _bits(o)])


# -- GMT presentations ---------------------------------------------------------


def gmt_presentation(p, span_pair=None):
    """Modal presentation of the span from a Heyting presentation.

    The translated formula is conjoined with openness constraints
    box(p_i) <-> p_i so that satisfying tuples stay inside the carcass.
    """
    if span_pair is None:
        span_pair = span(p.target)
    s, embed = span_pair
    t = gmt_translate(p.formula)
    open_conjs = [iff(box(var(v)), var(v)) for v in sorted(p.valuation)]
    formula = conj([t] + open_conjs)
    valuation = {v: embed[e] for v, e in p.valuation.items()}
    return Presentation(formula, s, valuation, name=f"gmt({p.name})")


# -- the interior operator the long way ------------------------------------------


def box_from_meet_of_arrows(algebra, s, embed):
    """Recompute box via the meet-of-arrows formula and compare.

    Every carrier element is an intersection of sets (~e(x) | e(y)); the
    interior of b is then the meet of the corresponding e(x -> y).  Returns
    True when this agrees with the table everywhere.
    """
    full = s.full
    pairs = [(x, y) for x in range(algebra.size) for y in range(algebra.size)]
    for mask in range(s.size):
        acc = full
        for x, y in pairs:
            clause = (~embed[x] & full) | embed[y]
            if mask & ~clause == 0:
                acc &= embed[algebra.imp[x][y]]
        if acc != s.box[mask]:
            return False
    return True


# -- JSON --------------------------------------------------------------------------


def interior_to_json(b):
    return json.dumps({"atoms": b.atoms, "box": list(b.box)})


def interior_from_json(text):
    doc = json.loads(text)
    if not (isinstance(doc, dict) and {"atoms", "box"} <= doc.keys()):
        raise ValueError("an interior algebra needs atoms and box")
    return InteriorAlgebra(doc["atoms"], doc["box"])
