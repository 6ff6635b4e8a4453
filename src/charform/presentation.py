"""Finite presentations and their desk-scale verification.

A presentation claims that a formula plus a valuation defines its target
algebra over a variety.  `check_defines` tests the homomorphism-extension
criterion against every s.i. member of a finite corpus of the variety and
returns an explicit refutation or a verified-up-to-bound verdict, never an
unconditional yes.  The target may be a Heyting or an interior algebra
(`modal`): presentations, plans and `check_defines` read only its
`signature` and its operations, so one layer serves both kinds.

The criterion runs on a `GenerationPlan`, built once per target and list of
generators and kept on the target: how the valuation image generates the
target (the steps of `jankov.generation_steps`).  For each corpus algebra
B, the tuples at which the formula is top are checked one at a time, in
order, up to the first that fails: the plan replays its steps with B's
scalar operations, which gives the map h the tuple forces on the whole
target, and checks it through the least filter it sends to top.  With f
the element sent to top that has the fewest elements below it, a tuple
passes when ↓f has at most |B| elements, h(x) = h(x & f) for every x, each
unary operation commutes with h everywhere and each binary one on the
pairs of ↓f, and bottom, top and the generators go where they should:
about k |B|^2 + 2n comparisons per tuple for k binary operations and an
n-element target, each part stopping at its first mismatch.  The least
failing tuple is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import re

from .algebra import (Poset, canonical_key, close_set, concat,
                      concat_embedding, induced_subalgebra, is_si,
                      principal_filter, quotient, subalgebra_closure, _bits,
                      _sub_order)
from .formula import (Formula, _has_box, and_, compile_formula, conj,
                      evaluate, enumerate_top_valuations, iff, is_valid, neg,
                      or_, parse, pretty, refuting_rows, var, variables)
from .jankov import diagram_formula, generation_steps
from .rn import TruncationTooSmall, trunc_zprime


class VariableClash(ValueError):
    pass


class BadAnchor(ValueError):
    pass


@dataclass(frozen=True)
class Presentation:
    """A formula, a valuation into the target, and the claim that the pair
    defines the target over the variety.  The target is a Heyting or an
    interior algebra."""

    formula: Formula
    target: object
    valuation: dict
    variety: "VarietyHandle | None" = None
    name: str = ""

    def __post_init__(self):
        val = evaluate(self.formula, self.target, self.valuation)
        if val != self.target.top:
            raise ValueError("presentation formula is not top at its valuation")
        gens = set(self.valuation.values())
        if len(subalgebra_closure(self.target, gens)) != self.target.size:
            raise ValueError("valuation image does not generate the target")

    @property
    def plan(self):
        """The `GenerationPlan` of the target from the valuation image, in
        ascending variable order.  Built on first use and kept on the
        target, in its `_plans` keyed by the generator tuple, so the
        presentations of one target and one valuation share one plan."""
        gens = tuple(self.valuation[v] for v in sorted(self.valuation))
        plans = self.target._plans
        if plans is None:
            plans = self.target._plans = {}
        if gens not in plans:
            plans[gens] = GenerationPlan(self.target, list(gens))
        return plans[gens]


def diagram_presentation(algebra, variety=None, name=""):
    """The trivial presentation: diagram formula with identity valuation,
    of a Heyting or an interior algebra."""
    d, val = diagram_formula(algebra)
    return Presentation(d, algebra, val, variety, name or "diagram")


# -- varieties ---------------------------------------------------------------


@dataclass(frozen=True)
class VarietyHandle:
    """A variety given by generator algebras, by axioms, or all of Heyt.

    Corpus membership evidence is one of:
      ("sh", generator index, filter generator element, subalgebra carrier)
      ("axiom",) for axiom-checked handles.
    """

    generators: tuple = ()
    axioms: tuple = ()
    bound: int = 8
    name: str = ""

    @classmethod
    def heyting(cls, bound=8):
        return cls((), (), bound, "Heyt")

    @classmethod
    def generated(cls, generators, bound=8, name=""):
        return cls(tuple(generators), (), bound, name)

    @classmethod
    def axiomatic(cls, axioms, bound=8, name=""):
        return cls((), tuple(axioms), bound, name)


def build_corpus(handle, size_bound=None, with_evidence=False):
    """All s.i. algebras of the variety up to the bound, up to isomorphism.

    For generated varieties these are the s.i. algebras among subalgebras of
    quotients of the generators (which exhausts the s.i. members of the
    variety at this size).  Deterministic order by (size, canonical form).
    """
    bound = size_bound or handle.bound
    found, keys = {}, {}  # keys: canonical_key of each order by up masks
    if handle.generators:
        for gi, g in enumerate(handle.generators):
            # an s.i. algebra has at least two elements
            for filt, q in g.quotients(2):
                for carrier in _bounded_subalgebras(q, bound):
                    up = _si_order(q, carrier)
                    if up is None:
                        continue
                    if up not in keys:
                        keys[up] = canonical_key(Poset._trusted(up))
                    key = keys[up]
                    if key not in found:
                        _, sub = induced_subalgebra(q, carrier)
                        found[key] = (sub, ("sh", gi, filt.least, carrier))
    else:
        from .catalog import all_algebras
        for a in all_algebras(bound):
            if not is_si(a):
                continue
            if all(is_valid(a, ax)[0] for ax in handle.axioms):
                found[canonical_key(a)] = (a, ("axiom",))
    ordered = sorted(found.items(), key=lambda kv: (kv[1][0].size, kv[0]))
    if with_evidence:
        return [(a, ev) for _, (a, ev) in ordered]
    return [a for _, (a, ev) in ordered]


def _si_order(a, carrier):
    """The order of the subalgebra of a on carrier, as the tuple of up masks
    that `induced_subalgebra` would give it, or None when that subalgebra is
    not s.i.: it is when some element below top lies above all the others."""
    mask = sum(1 << x for x in carrier)
    below_top = mask & ~(1 << a.top)
    above_all = mask
    for x in _bits(below_top):
        above_all &= a.up[x]
    if not above_all & below_top:
        return None
    return _sub_order(a.up, mask)


def _bounded_subalgebras(a, bound):
    """All op-closed carriers of size <= bound, each as a frozenset, sorted
    by (size, elements).

    A Close-by-One search (Kuznetsov 1993) over `close_set`.  It starts
    from the closure of the empty set, which tries every element z outside
    it; a carrier c reached by adding element y tries each z > y outside c.
    The closure d of c and z is a child of c unless d adds an element of
    index below z.  That canonicity test gives each carrier one parent, so
    each is yielded once and none is stored to be looked up.  A closure
    above the bound is dropped, and with it all that contain it.
    """
    base = subalgebra_closure(a, ())
    if len(base) > bound:
        return []
    out, todo = [], [(base, 0)]
    while todo:
        carrier, lo = todo.pop()
        out.append(carrier)
        for y in range(lo, a.size):
            if y in carrier:
                continue
            # the carrier is closed already: only y is new
            bigger = close_set(a, {y, *carrier}, [y], limit=bound)
            if len(bigger) > bound or min(bigger - carrier) < y:
                continue
            todo.append((frozenset(bigger), y + 1))
    return sorted(out, key=lambda c: (len(c), sorted(c)))


# -- the extension criterion -------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """check_defines outcome; never a bare boolean."""

    kind: str  # "refuted" | "verified-up-to-bound"
    bound: int = 0
    witness_algebra: object = None
    witness_tuple: tuple = ()

    @property
    def refuted(self):
        return self.kind == "refuted"

    def __str__(self):
        if self.refuted:
            return f"REFUTED(tuple={self.witness_tuple})"
        return f"VERIFIED-UP-TO-BOUND({self.bound})"


class GenerationPlan:
    """How a list of elements generates an algebra A, read once for checking
    many candidate images of those elements.

    Each candidate row forces a map h on all of A: the row on the
    generators, then the steps of `jankov.generation_steps` replayed in
    their order, each with the target's scalar operation.  For each element
    x of A, `below[x]` counts the elements below it: the bits of its down
    mask in a Heyting algebra, the 2^|x| subsets of x in an interior one.
    `by_below` lists the elements by that count, ascending, the least index
    first on a tie.

    Criterion.  A row extends to a homomorphism into B exactly when h sends
    bottom, top and each generator where the row says and, for f the element
    of h^-1(top) with the fewest elements below it (the least such index on
    a tie):
      (a) ↓f has at most |B| elements;
      (b) h(x) = h(x & f) for every x;
      (c) each unary operation commutes with h at every x;
      (d) each binary operation commutes with h on the pairs of ↓f.

    Proof.  Sufficient, whatever element of h^-1(top) f is: for op in and,
    or and imp, op(x, y) & f = op(x & f, y & f) & f, by distributivity and
    by a & (b -> c) = a & ((a & b) -> (a & c)).  So (b) at op(x, y), this
    identity, (b) at op(x & f, y & f), then (d) and (b) at x and at y give
    h(op(x, y)) = h(op(x & f, y & f)) = op_B(h(x & f), h(y & f))
    = op_B(h(x), h(y)); (c) and the bounds do the rest.  Necessary: when h
    is a homomorphism, h^-1(top) is a filter, so it is ↑f with f its least
    element, which has fewer elements below it than any other member.
    Then h(x & f) = h(x) & top = h(x), which is (b), and h is injective on
    ↓f, which is (a): h(x) = h(y) puts x <-> y in ↑f, so
    x = x & f = y & f = y for x and y below f.  (c) and (d) hold for any
    homomorphism.  An interior algebra is a Boolean algebra, hence a
    Heyting algebra, with box as one more unary operation, so the proof
    covers both kinds.

    Heyting congruences are filters, so every extension factors through
    A/↑f, which is isomorphic to ↓f.  The check reads only the pairs of
    ↓f, about k |B|^2 entries per row for k binary operations, plus about
    2n for (b) and (c) over the n elements of A, against k n^2 for
    comparing every operation on all pairs of A.  What it reads of A at f,
    ↓f and the operations of A on it, is worked out for each f on first
    use and kept.
    """

    def __init__(self, algebra, gens):
        self.algebra = algebra
        self.size = n = algebra.size
        self.bottom, self.top = algebra.bottom, algebra.top
        self.gens = list(gens)
        found = generation_steps(algebra, list(enumerate(gens)))
        self.generates = len(found) == n
        # generators, constants and steps (element, op, operand, operand or
        # None), in the order generation_steps found them
        self.vars, self.consts, self.steps = [], [], []
        for z, (op, *args) in found.items():
            if op == "var":
                self.vars.append((z, args[0]))
            elif not args:
                self.consts.append((z, op))
            else:
                self.steps.append((z, op, args[0], args[1] if args[1:] else None))
        binary, unary = algebra.signature
        self.meet_row = binary[0][1]
        every = range(n)
        self.below = ([1 << x.bit_count() for x in every] if _has_box(algebra)
                      else [m.bit_count() for m in algebra.down])
        self.by_below = sorted(every, key=self.below.__getitem__)
        self.unary = [(name, [op(algebra, x) for x in every])
                      for name, op in unary]
        self._at = {}

    def at(self, f):
        """(↓f ascending, x & f for each x, and for each binary operation its
        values on the pairs of ↓f, row after row), worked out on first
        use."""
        got = self._at.get(f)
        if got is None:
            a = self.algebra
            meet_f = list(self.meet_row(a, f, range(self.size)))
            downs = [x for x, m in enumerate(meet_f) if m == x]
            got = self._at[f] = (downs, meet_f, [
                [z for x in downs for z in row(a, x, downs)]
                for _, row, _ in a.signature[0]])
        return got

    def checker(self, target):
        """The check of one row of images of the generators, one per
        generator in order, into target (of the same kind): whether the map
        h it forces extends to a homomorphism, by the criterion of the
        class docstring, stopping at the first part that fails.  A plan
        whose elements do not generate passes no row."""
        ops = target.scalar_ops()
        bot, top, size = ops["bot"], ops["top"], target.size
        n, bottom, a_top, gens = self.size, self.bottom, self.top, self.gens
        vars_, by_below = self.vars, self.by_below
        consts = [(z, ops[op]) for z, op in self.consts]
        steps = [(z, ops[op], x, y) for z, op, x, y in self.steps]
        unary = [(ops[name], images) for name, images in self.unary]
        rows = [row for _, row, _ in target.signature[0]]
        at = self.at

        def extends(row):
            if not self.generates:
                return False
            img = [0] * n
            for z, col in vars_:
                img[z] = row[col]
            for z, c in consts:
                img[z] = c
            for z, op, x, y in steps:
                img[z] = op(img[x]) if y is None else op(img[x], img[y])
            if (img[bottom] != bot or img[a_top] != top
                    or any(img[g] != v for g, v in zip(gens, row))):
                return False
            f = next(x for x in by_below if img[x] == top)
            downs, meet_f, tables = at(f)
            if len(downs) > size:                                  # (a)
                return False
            get = img.__getitem__
            if list(map(get, meet_f)) != img:                      # (b)
                return False
            for op, images in unary:                               # (c)
                if list(map(get, images)) != list(map(op, img)):
                    return False
            hd = list(map(get, downs))
            for row_b, table in zip(rows, tables):                 # (d)
                if list(map(get, table)) != [
                        v for hx in hd for v in row_b(target, hx, hd)]:
                    return False
            return True

        return extends

    def homomorphic(self, target, row):
        """Does the map that one row of generator images forces extend to a
        homomorphism into target?  (`checker`)"""
        return self.checker(target)(row)

    def first_failure(self, target, rows):
        """The index of the first of rows that does not extend to a
        homomorphism into target, or None when every row does."""
        extends = self.checker(target)
        return next((i for i, row in enumerate(rows) if not extends(row)),
                    None)


def extends_to_homomorphism(source, target, pairs):
    """Does generator(i) -> image(i) extend to a homomorphism?

    pairs is a sequence of (source element, target element); source and
    target are both Heyting algebras or both interior algebras.  One row of
    `GenerationPlan.homomorphic`, with the plan built on the fly; the
    sources must generate.
    """
    plan = GenerationPlan(source, [x for x, _ in pairs])
    return plan.homomorphic(target, [y for _, y in pairs])


def check_defines(presentation, corpus=None, size_bound=None):
    """Homomorphism-extension check of a presentation over a corpus, for
    Heyting and for interior algebras.

    For every corpus algebra B and every tuple b with A(b) = top, the map
    generator_i -> b_i must extend to a homomorphism; the first failure is
    returned as a refutation.  The top tuples of each corpus algebra are
    checked in order against the presentation's plan, up to the first that
    fails (`GenerationPlan.first_failure`).
    """
    if corpus is None:
        if presentation.variety is None:
            raise ValueError("no corpus and no variety handle")
        corpus = build_corpus(presentation.variety, size_bound)
    vars_ = sorted(presentation.valuation)
    bound = max((b.size for b in corpus), default=0)
    for b in corpus:
        tuples = enumerate_top_valuations(b, presentation.formula, vars_)
        i = presentation.plan.first_failure(b, tuples)
        if i is not None:
            return Verdict("refuted", bound, b, tuples[i])
    return Verdict("verified-up-to-bound", bound)


# -- concatenation presentations ----------------------------------------------


def _coatom(a):
    coat = a.opremum()
    if coat is None:
        raise BadAnchor("target has no unique coatom")
    return coat


def _atom(a):
    cands = [x for x in range(a.size)
             if a.down[x] == (1 << x) | (1 << a.bottom) and x != a.bottom]
    if len(cands) != 1:
        raise BadAnchor("target has no unique atom")
    return cands[0]


def concat_defining_formula(pa, pb, a_term, b_term, variety=None):
    """Presentation of A' + B' from presentations of A'+Z2 and Z2+B'.

    a_term must name the coatom of pa.target (the top of A'), b_term the
    atom of pb.target (the bottom of B'); the defining formula is
    A & B & (a_term <-> b_term) under the merged valuation.
    """
    vars_a = set(variables(pa.formula)) | set(pa.valuation)
    vars_b = set(variables(pb.formula)) | set(pb.valuation)
    if vars_a & vars_b:
        raise VariableClash(f"shared variables {sorted(vars_a & vars_b)}")
    ta, tb = pa.target, pb.target
    coat, at = _coatom(ta), _atom(tb)
    if coat == ta.bottom:
        raise BadAnchor("A' is trivial: the coatom of the first target is "
                        "its bottom")
    if evaluate(a_term, ta, pa.valuation) != coat:
        raise BadAnchor("a_term does not evaluate to the coatom")
    if evaluate(b_term, tb, pb.valuation) != at:
        raise BadAnchor("b_term does not evaluate to the atom")
    # A' as the quotient collapsing the top pair of A; B' as the up-set of
    # the atom of B
    aprime, asurj = quotient(ta, principal_filter(ta, coat))
    bcarrier = [x for x in range(tb.size) if tb.leq(at, x)]
    belems, bprime = induced_subalgebra(tb, bcarrier)
    target = concat(aprime, bprime)
    bpos = {x: i for i, x in enumerate(belems)}
    bmap = concat_embedding(aprime, bprime)
    # merge along the two natural embeddings: A'+Z2 maps its top to the new
    # top, Z2+B' maps its bottom to the new bottom
    valuation = {}
    for v, e in pa.valuation.items():
        valuation[v] = bmap[bprime.top] if e == ta.top else asurj.map[e]
    for v, e in pb.valuation.items():
        valuation[v] = target.bottom if e == tb.bottom else bmap[bpos[e]]
    formula = and_(and_(pa.formula, pb.formula), iff(a_term, b_term))
    return Presentation(formula, target, valuation, variety,
                        name=f"concat({pa.name},{pb.name})")


# -- the flagship ladder presentation -----------------------------------------


def zprime_presentation(k, variety=None):
    """The two-generator presentation of the ladder-times-two-plus-top.

    Formula (expanded form): ~(p&q) & (~~q -> q) & ((~~p -> p) -> q | ~q)
    & (((~~p -> p) -> p | ~p) -> q | ~q), with p at a = <g,0> and q at
    b = <0,1>.  The last conjunct is top at (a, b) only from k = 8 on (the
    17-element truncation); below that the formula does not present the
    target.
    """
    if k < 8:
        raise TruncationTooSmall("zprime presentation needs k >= 8")
    target = trunc_zprime(k)
    formula = conj(zprime_conjuncts())
    valuation = {0: target.element_by_label("a"),
                 1: target.element_by_label("b")}
    return Presentation(formula, target, valuation, variety, name=f"zprime({k})")


def zprime_conjuncts():
    """The four conjuncts of the expanded presentation formula."""
    return [
        parse("~(p1 & p2)"),
        parse("~~p2 -> p2"),
        parse("(~~p1 -> p1) -> p2 | ~p2"),
        parse("((~~p1 -> p1) -> p1 | ~p1) -> p2 | ~p2"),
    ]


# -- lemma shadows ------------------------------------------------------------


def lemma_points(p, corpus):
    """The points at which the three lemma shadows evaluate a formula: per
    corpus algebra c, lists (xs, ys) of values of p1 and p2 holding the
    substitution column (x, bottom) for every x, then the three corners
    (0, 0), (0, 1) and (1, 0), then, when c is s.i., the complemented
    satisfying pairs: the (x, y), in lexicographic order, at which p's
    formula is top and y is complemented, found by one `refuting_rows` run
    over all pairs."""
    pairs = compile_formula(and_(p.formula, or_(var(1), neg(var(1)))))
    out = []
    for c in corpus:
        n, bot, top = c.size, c.bottom, c.top
        xs = list(range(n)) + [bot, bot, top]
        ys = [bot] * n + [bot, top, bot]
        if is_si(c):
            grid = [(x, y) for x in range(n) for y in range(n)]
            bad = refuting_rows(pairs, c, {0: [x for x, _ in grid],
                                           1: [y for _, y in grid]})
            kept = [xy for r, xy in enumerate(grid) if not bad >> r & 1]
            xs += [x for x, _ in kept]
            ys += [y for _, y in kept]
        out.append((xs, ys))
    return out


# -- JSON ----------------------------------------------------------------------


def presentation_to_json(p, target_expr, variety_exprs=(), bound=8):
    vars_ = sorted(p.valuation)
    doc = {
        "formula": pretty(p.formula),
        "vars": [f"p{v + 1}" for v in vars_],
        "target": target_expr,
        "valuation": [p.valuation[v] for v in vars_],
        "variety": {"generators": list(variety_exprs), "bound": bound},
    }
    return json.dumps(doc, ensure_ascii=False)


def presentation_from_json(text):
    from .exprs import parse_algebra_expr
    doc = json.loads(text)
    if not (isinstance(doc, dict)
            and {"formula", "target", "vars", "valuation"} <= doc.keys()):
        raise ValueError("a presentation needs formula, target, vars and "
                         "valuation")
    vdoc = doc.get("variety") or {}
    if not isinstance(vdoc, dict):
        raise ValueError("variety is not an object")
    exprs, bound = vdoc.get("generators") or [], vdoc.get("bound", 8)
    names, values = doc["vars"], doc["valuation"]
    if not all(isinstance(x, list) for x in (names, values, exprs)):
        raise ValueError("vars, valuation and generators must be lists")
    for what, value in (("formula", doc["formula"]),
                        ("target", doc["target"]),
                        *(("generator", e) for e in exprs)):
        if not isinstance(value, str):
            raise ValueError(f"{what} {value!r} is not a string")
    if type(bound) is not int or bound < 1:
        raise ValueError(f"bound {bound!r} is not an integer >= 1")
    formula = parse(doc["formula"])
    target = parse_algebra_expr(doc["target"])
    if len(names) != len(values):
        raise ValueError(f"{len(names)} vars but {len(values)} valuation "
                         "entries")
    for name in names:
        if not (isinstance(name, str) and re.fullmatch(r"p[1-9]\d*", name)):
            raise ValueError(f"variable {name!r} is not p<n> with n >= 1")
    if len(set(names)) != len(names):
        raise ValueError("a variable is listed twice")
    for v in values:
        if type(v) is not int or not 0 <= v < target.size:
            raise ValueError(f"valuation entry {v!r} is not an element "
                             f"index 0..{target.size - 1}")
    valuation = {int(name[1:]) - 1: v for name, v in zip(names, values)}
    handle = None
    if exprs:
        gens = tuple(parse_algebra_expr(e) for e in exprs)
        handle = VarietyHandle.generated(gens, bound)
    return Presentation(formula, target, valuation, handle)
