"""Finite interior algebras: spans, carcasses, and the modal bridge.

Interior algebras are always powersets of an atom set (bitmask-indexed)
with an explicit interior-operator table; the open elements under the
relativized arrow form the Heyting carcass, and the span construction goes
the other way, from a Heyting algebra to the smallest interior algebra
whose opens realize it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import (HeytingAlgebra, SizeLimit, is_si, opremum,
                      subalgebra_closure, _bits)
from .formula import (Formula, _CSP, _refuting_tasks, and_, box, conj, iff,
                      imp, neg, or_, var, variables)
from .jankov import NotSI, term_for_element


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


class InteriorAlgebra:
    """Powerset of an atom set with an S4 interior operator.

    Carrier elements are subset bitmasks 0 .. 2^atoms - 1; box is a table
    indexed by carrier element.
    """

    __slots__ = ("atoms", "size", "full", "box", "opens", "atom_labels")

    bottom = 0
    # the Boolean operations are set-theoretic on atoms; the signature
    # format is the one Heyting algebras use (see algebra.py)
    signature = ((("and", _and_row, None), ("or", _or_row, None),
                  ("imp", _imp_row, _imp_col)),
                 (("neg", lambda b, x: x ^ b.full),
                  ("box", lambda b, x: b.box[x])))

    def __init__(self, atoms, box_table, atom_labels=None, validate=True):
        self.atoms = atoms
        self.size = 1 << atoms
        self.full = self.size - 1
        self.box = tuple(box_table)
        if len(self.box) != self.size:
            raise ValueError("box table has wrong length")
        if validate:
            self._validate()
        self.opens = tuple(sorted(set(self.box)))
        self.atom_labels = tuple(atom_labels) if atom_labels else None

    def _validate(self):
        b = self.box
        if b[self.full] != self.full:
            raise NotS4("box(top) != top")
        for x in range(self.size):
            if b[x] & ~x:
                raise NotS4(f"box({x}) not below {x}")
            if b[b[x]] != b[x]:
                raise NotS4(f"box not idempotent at {x}")
        for x in range(self.size):
            for y in range(self.size):
                if b[x & y] != b[x] & b[y]:
                    raise NotS4(f"box not multiplicative at {x},{y}")

    @property
    def top(self):
        return self.full

    def leq(self, x, y):
        return x & ~y == 0

    def atom_floor(self, a):
        """Least open containing atom index a."""
        out = self.full
        for o in self.opens:
            if (o >> a) & 1:
                out &= o
        return out

    def __repr__(self):
        return f"InteriorAlgebra(atoms={self.atoms})"


def span(algebra):
    """Modal span of a Heyting algebra and the embedding onto its opens.

    Atoms are the join-irreducible elements; a maps to the set of
    join-irreducibles below it, and box(x) is the largest open below x.
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
    opens = sorted(set(embed))
    box_table = []
    for x in range(1 << m):
        best = 0
        for o in opens:
            if o & ~x == 0:
                best |= o
        box_table.append(best)
    labels = [algebra.label(j) for j in ji]
    return InteriorAlgebra(m, box_table, atom_labels=labels), tuple(embed)


def heyting_carcass(b):
    """Heyting algebra of the open elements, with x -> y = box(~x | y)."""
    opens = list(b.opens)
    idx = {o: i for i, o in enumerate(opens)}
    n = len(opens)
    up = [0] * n
    for i, u in enumerate(opens):
        for j, v in enumerate(opens):
            if u & ~v == 0:
                up[i] |= 1 << j
    meet = [[idx[u & v] for v in opens] for u in opens]
    join = [[idx[u | v] for v in opens] for u in opens]
    impt = [[idx[b.box[(~u & b.full) | v]] for v in opens] for u in opens]
    return HeytingAlgebra(up, meet, join, impt, idx[0], idx[b.full],
                          validate=n <= 40)


def open_generated(b):
    """Subalgebra generated by the opens, on the reduced atom set.

    Atoms indistinguishable by every open collapse into blocks; the block
    unions are exactly the Boolean closure of the opens, and they are
    already closed under box.
    """
    sig = {}
    for a in range(b.atoms):
        key = tuple((o >> a) & 1 for o in b.opens)
        sig.setdefault(key, []).append(a)
    blocks = sorted(sig.values(), key=min)
    k = len(blocks)
    expand = []
    for t in range(1 << k):
        mask = 0
        for i in _bits(t):
            for a in blocks[i]:
                mask |= 1 << a
        expand.append(mask)

    def collapse(mask):
        t = 0
        for i, blk in enumerate(blocks):
            if (mask >> blk[0]) & 1:
                t |= 1 << i
        return t

    box_table = [collapse(b.box[expand[t]]) for t in range(1 << k)]
    labels = None
    if b.atom_labels:
        labels = ["+".join(b.atom_labels[a] for a in blk) for blk in blocks]
    return InteriorAlgebra(k, box_table, atom_labels=labels)


# -- Goedel-McKinsey-Tarski translation ----------------------------------------


def gmt_translate(f):
    """Boxed-implication translation: variables, implications and negations
    are boxed; conjunction and disjunction commute."""
    k = f.kind
    if k == "var":
        return box(f)
    if k in ("top", "bot"):
        return f
    if k == "and":
        return and_(gmt_translate(f.args[0]), gmt_translate(f.args[1]))
    if k == "or":
        return or_(gmt_translate(f.args[0]), gmt_translate(f.args[1]))
    if k == "imp":
        return box(imp(gmt_translate(f.args[0]), gmt_translate(f.args[1])))
    if k == "neg":
        return box(neg(gmt_translate(f.args[0])))
    raise ValueError("formula is not assertoric")


# -- evaluation and validity -----------------------------------------------------


def evaluate_modal(f, b, valuation):
    k = f.kind
    if k == "var":
        return valuation[f.args[0]]
    if k == "top":
        return b.full
    if k == "bot":
        return 0
    if k == "neg":
        return evaluate_modal(f.args[0], b, valuation) ^ b.full
    if k == "box":
        return b.box[evaluate_modal(f.args[0], b, valuation)]
    x = evaluate_modal(f.args[0], b, valuation)
    y = evaluate_modal(f.args[1], b, valuation)
    if k == "and":
        return x & y
    if k == "or":
        return x | y
    return (~x & b.full) | y


class ModalCarrier:
    """Engine adapter for an interior algebra (elements are masks)."""

    def __init__(self, b):
        self.inner = b
        self.size = b.size
        self.top = b.full
        self._floors = {}

    def leq(self, x, y):
        return x & ~y == 0

    def join_irreducibles(self):
        return [1 << i for i in range(self.inner.atoms)]

    def box_floor(self, c):
        got = self._floors.get(c)
        if got is None:
            got = self.inner.full
            for o in self.inner.opens:
                if c & ~o == 0:
                    got &= o
            self._floors[c] = got
        return got

    def eval_node(self, f, assignment):
        return evaluate_modal(f, self.inner, assignment)


def _vars_boxed_only(f):
    """True when every variable occurrence is the immediate child of a box."""
    stack = [(f, False)]
    while stack:
        g, boxed = stack.pop()
        if g.kind == "var":
            if not boxed:
                return False
            continue
        for a in g.args:
            if isinstance(a, Formula):
                stack.append((a, g.kind == "box"))
    return True


def modal_validity(b, f, budget=1_000_000):
    """Exhaustive modal validity; returns (verdict, least counter-valuation).

    When every variable occurs boxed, only open values can matter, so the
    search runs over open tuples and the least carrier witness is
    reconstructed exactly.
    """
    vars_ = variables(f)
    k = len(vars_)
    if not k:
        val = evaluate_modal(f, b, {})
        return (val == b.full), (None if val == b.full else {})
    if _vars_boxed_only(f):
        opens = list(b.opens)
        refuting = []
        _scan_tuples(b, f, vars_, opens, refuting)
        if not refuting:
            return True, None
        refuting.sort()
        witness = {}
        remaining = refuting
        for pos, v in enumerate(vars_):
            want = {t[pos] for t in remaining}
            for x in range(b.size):
                if b.box[x] in want:
                    witness[v] = x
                    remaining = [t for t in remaining if t[pos] == b.box[x]]
                    break
        return False, witness
    total = b.size ** k
    if total > budget:
        raise SizeLimit(f"modal search needs {total} valuations")
    assignment = {}

    def rec(i):
        if i == k:
            if evaluate_modal(f, b, assignment) != b.full:
                return dict(assignment)
            return None
        for x in range(b.size):
            assignment[vars_[i]] = x
            got = rec(i + 1)
            if got is not None:
                return got
        assignment.pop(vars_[i], None)
        return None

    got = rec(0)
    return (got is None), got


def _scan_tuples(b, f, vars_, opens, refuting):
    assignment = {}

    def rec(i):
        if i == len(vars_):
            if evaluate_modal(f, b, assignment) != b.full:
                refuting.append(tuple(assignment[v] for v in vars_))
            return
        for o in opens:
            assignment[vars_[i]] = o
            rec(i + 1)
        assignment.pop(vars_[i], None)

    rec(0)


def modal_refutable(b, f):
    """Propagation-engine decision: is f refutable in the interior algebra?"""
    carrier = ModalCarrier(b)
    for cvars, constraints in _refuting_tasks(f, carrier):
        if _CSP(carrier, cvars, constraints).satisfiable():
            return True
    return False


# -- modal subdirect irreducibility and Sub-Hom ----------------------------------


def is_si_modal(b):
    return is_si(heyting_carcass(b))


def quotient_by_open(b, o):
    """Quotient by the filter of an open element, on the atoms inside it."""
    keep = [a for a in range(b.atoms) if (o >> a) & 1]
    pos = {a: i for i, a in enumerate(keep)}
    k = len(keep)

    def restrict(mask):
        t = 0
        for a in keep:
            if (mask >> a) & 1:
                t |= 1 << pos[a]
        return t

    def expand(t):
        mask = 0
        for a in keep:
            if (t >> pos[a]) & 1:
                mask |= 1 << a
        return mask

    box_table = [restrict(b.box[expand(t)] & o) for t in range(1 << k)]
    labels = [b.atom_labels[a] for a in keep] if b.atom_labels else None
    return InteriorAlgebra(k, box_table, atom_labels=labels)


def _atom_neighborhoods(b):
    return [b.atom_floor(a) for a in range(b.atoms)]


def in_sh_modal(a, b):
    """Is a embeddable into a quotient of b (interior algebras)?

    Modal congruences are the filters of open elements; embeddings are
    inverse images of surjective bounded morphisms between the atom frames.
    Returns (verdict, (open element, atom map) or None).
    """
    na = _atom_neighborhoods(a)
    for o in sorted(b.opens):
        q = quotient_by_open(b, o)
        if a.atoms > q.atoms:
            continue
        nq = _atom_neighborhoods(q)
        f = [-1] * q.atoms

        def ok(y):
            # f(R[y]) must equal R[f(y)] for all assigned atoms
            img = 0
            for z in _bits(nq[y]):
                if f[z] == -1:
                    return True  # defer until the neighborhood is assigned
                img |= 1 << f[z]
            return img == na[f[y]]

        def full_ok():
            for y in range(q.atoms):
                img = 0
                for z in _bits(nq[y]):
                    img |= 1 << f[z]
                if img != na[f[y]]:
                    return False
            return len(set(f)) == a.atoms

        def rec(y):
            if y == q.atoms:
                return full_ok()
            for x in range(a.atoms):
                f[y] = x
                if ok(y) and rec(y + 1):
                    return True
            f[y] = -1
            return False

        if rec(0):
            return True, (o, tuple(f))
    return False, None


# -- modal diagrams, presentations, characteristic formulas -----------------------


@dataclass(frozen=True)
class ModalPresentation:
    formula: Formula
    target: InteriorAlgebra
    valuation: dict
    name: str = ""

    def __post_init__(self):
        if evaluate_modal(self.formula, self.target, self.valuation) != self.target.full:
            raise ValueError("modal presentation formula is not top")
        gens = set(self.valuation.values())
        if len(subalgebra_closure(self.target, gens)) != self.target.size:
            raise ValueError("valuation image does not generate the target")


def modal_diagram_formula(b):
    """Operation-table diagram with box conjuncts, identity valuation."""
    n = b.size
    conjuncts = []
    for make, val in (((lambda x, y: and_(var(x), var(y))), lambda x, y: x & y),
                      ((lambda x, y: or_(var(x), var(y))), lambda x, y: x | y),
                      ((lambda x, y: imp(var(x), var(y))),
                       lambda x, y: (~x & b.full) | y)):
        for x in range(n):
            for y in range(n):
                conjuncts.append(iff(make(x, y), var(val(x, y))))
    for x in range(n):
        conjuncts.append(iff(neg(var(x)), var(x ^ b.full)))
    for x in range(n):
        conjuncts.append(iff(box(var(x)), var(b.box[x])))
    return conj(conjuncts), {i: i for i in range(n)}


def modal_diagram_presentation(b, name="modal-diagram"):
    d, v = modal_diagram_formula(b)
    return ModalPresentation(d, b, v, name)


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
    return ModalPresentation(formula, s, valuation, name=f"gmt({p.name})")


def modal_characteristic_formula(p, connective="box-imp"):
    """chi = box(A) -> B (default) or A -> B, with B naming the opremum of
    the carcass; the connective is a configuration point."""
    b = p.target
    carc = heyting_carcass(b)
    if not is_si(carc):
        raise NotSI("modal characteristic formula needs a s.i. carcass")
    # carcass elements are the opens in ascending mask order
    op_open = sorted(b.opens)[opremum(carc)]
    gens = sorted(p.valuation.items())
    bterm = term_for_element(b, gens, op_open)
    if connective == "box-imp":
        return imp(box(p.formula), bterm)
    if connective == "imp":
        return imp(p.formula, bterm)
    raise ValueError(f"unknown connective {connective!r}")


def check_defines_modal(p, corpus):
    """Extension criterion for a modal presentation over interior algebras."""
    from .presentation import _check_extensions
    return _check_extensions(p, corpus, ModalCarrier)


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
    return InteriorAlgebra(doc["atoms"], doc["box"])
