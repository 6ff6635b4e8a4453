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
target (the steps of `jankov.generation_steps`), with the target's
operation tables stacked as one index array (`op_table`).  For each corpus
algebra B, all tuples at which the formula is top are checked in one numpy
batch: the plan computes the map h each tuple forces on the whole target,
one gather per depth of the steps, and checks it through the least filter
it sends to top.  With f the element sent to top that has the fewest
elements below it, a tuple passes when ↓f has at most |B| elements,
h(x) = h(x & f) for every x, each unary operation commutes with h
everywhere and each binary one on the pairs of ↓f, and bottom, top and the
generators go where they should: about k |B|^2 + 2n entries per tuple for k
binary operations and an n-element target.  The least failing tuple is the
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import re

import numpy as np

from .algebra import (Poset, canonical_key, close_set, concat,
                      concat_embedding, induced_subalgebra, is_si, opremum,
                      principal_filter, quotient, subalgebra_closure, _bits,
                      _sub_order)
from .formula import (Formula, and_, compile_formula, conj, evaluate,
                      enumerate_top_valuations, iff, is_valid, neg, or_,
                      parse, pretty, run_program, var, variables)
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


# Rows checked at once are capped so that one batch compares about this many
# entries.  Per row the check compares each binary operation on the pairs of
# the down-set of f, about k m^2 entries for k binary operations and m the
# smaller of the two sizes, and n entries each for h(x) = h(x & f) and for
# each unary operation, n the size of the source.
_BATCH_ENTRIES = 1 << 16


class GenerationPlan:
    """How a list of elements generates an algebra A, read once for checking
    many candidate images of those elements at once.

    Each candidate row forces a map h on all of A: the row on the
    generators, then the steps of `jankov.generation_steps` replayed one
    depth at a time in `levels`, each depth one gather from the target's
    `op_table` at (op code, operand, operand), a unary step giving its
    operand twice.  For each element x of A, `below[x]` counts the elements
    below it and `downs[x]` lists them, ascending, padded with x to A's
    size; `table` is A's own `op_table`.

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
    comparing every operation on all pairs of A.
    """

    def __init__(self, algebra, gens):
        self.size = n = algebra.size
        self.bottom, self.top = algebra.bottom, algebra.top
        self.gens = np.asarray(gens, dtype=np.intp)
        if gens:
            found = generation_steps(algebra, list(enumerate(gens)))
        else:
            # the empty set generates bottom and top
            found = {algebra.bottom: ("bot",), algebra.top: ("top",)}
        self.generates = len(found) == n
        binary, unary = algebra.signature
        names = [op for op, _, _ in binary] + [op for op, _ in unary]
        depth, self.consts, levels = {}, [], {}
        var_elems, var_cols = [], []
        for z, (op, *args) in found.items():
            if op == "var":
                var_elems.append(z)
                var_cols.append(args[0])
            elif not args:
                self.consts.append((z, op))
            else:  # the generators are at depth 0
                depth[z] = d = 1 + max(depth.get(x, 0) for x in args)
                levels.setdefault(d, []).append(
                    (z, names.index(op), args[0], args[-1]))
        self.var_elems = np.asarray(var_elems, dtype=np.intp)
        self.var_cols = np.asarray(var_cols, dtype=np.intp)
        self.levels = [[np.asarray(c, dtype=np.intp) for c in zip(*steps)]
                       for _, steps in sorted(levels.items())]
        self.table = algebra.op_table()
        self.binary = np.arange(len(binary))[:, None, None]
        self.unary = np.arange(len(binary), len(names))[:, None]
        self.unary_images = self.table[len(binary):, :, 0]
        self.meet = self.table[names.index("and")]
        every = np.arange(n)
        leq = self.meet == every  # leq[f, x]: x <= f
        self.below = leq.sum(axis=1)
        self.downs = np.where(every < self.below[:, None],
                              np.argsort(~leq, axis=1, kind="stable"),
                              every[:, None])

    def homomorphic(self, target, rows):
        """For each row of images of the generators, one per generator in
        order, whether the map extends to a homomorphism into target (of
        the same kind): a boolean array.  A plan whose elements do not
        generate passes none.

        A row passes when the map h it forces sends bottom, top and the
        generators where they belong and, with f the element sent to top
        that has the fewest elements below it, ↓f has at most target.size
        elements, h(x) = h(x & f) for every x, each unary operation
        commutes with h everywhere and each binary one on the pairs of ↓f
        (proof in the class docstring).  That compares about k m^2 + 2n
        entries per row, for k binary operations, n the plan's size and m
        the smaller of n and target.size, and rows go in batches of about
        `_BATCH_ENTRIES` entries.
        """
        rows = np.asarray(rows, dtype=np.int32).reshape(len(rows), len(self.gens))
        if not self.generates:
            return np.zeros(len(rows), dtype=bool)
        m = min(target.size, self.size)
        entries = len(self.binary) * m * m + (1 + len(self.unary)) * self.size
        per = max(1, _BATCH_ENTRIES // entries)
        return np.concatenate([self._homomorphic(target, rows[i:i + per])
                               for i in range(0, max(len(rows), 1), per)])

    def _homomorphic(self, target, rows):
        ops, table = target.batch_ops(), target.op_table()
        # img[r, x]: the image of element x that row r forces
        img = np.empty((len(rows), self.size), dtype=np.int32)
        img[:, self.var_elems] = rows[:, self.var_cols]
        for z, op in self.consts:
            img[:, z] = ops[op]
        for zs, codes, xs, ys in self.levels:
            img[:, zs] = table[codes, img[:, xs], img[:, ys]]
        top = ops["top"]
        f = np.where(img == top, self.below, self.size + 1).argmin(axis=1)
        at = np.arange(len(rows))[:, None]
        ok = ((self.below[f] <= target.size)
              & (img[:, self.bottom] == ops["bot"]) & (img[:, self.top] == top)
              & (img[:, self.gens] == rows).all(axis=1)
              & (img == img[at, self.meet[f]]).all(axis=1))
        ok &= (img[:, self.unary_images]
               == table[self.unary, img[:, None, :], 0]).all(axis=(1, 2))
        down = self.downs[f, :min(target.size, self.size)]
        x, y = down[:, None, :, None], down[:, None, None, :]
        h = img[at, down]
        ok &= (img[at[:, :, None, None], self.table[self.binary, x, y]]
               == table[self.binary, h[:, None, :, None], h[:, None, None, :]]
               ).all(axis=(1, 2, 3))
        return ok


def extends_to_homomorphism(source, target, pairs):
    """Does generator(i) -> image(i) extend to a homomorphism?

    pairs is a sequence of (source element, target element); source and
    target are both Heyting algebras or both interior algebras.  The
    one-row case of `GenerationPlan.homomorphic`, with the plan built on
    the fly; the sources must generate.
    """
    plan = GenerationPlan(source, [x for x, _ in pairs])
    return bool(plan.homomorphic(target, [[y for _, y in pairs]])[0])


def check_defines(presentation, corpus=None, size_bound=None):
    """Homomorphism-extension check of a presentation over a corpus, for
    Heyting and for interior algebras.

    For every corpus algebra B and every tuple b with A(b) = top, the map
    generator_i -> b_i must extend to a homomorphism; the first failure is
    returned as a refutation.  Each corpus algebra is one batch check of
    all its top tuples against the presentation's plan.
    """
    if corpus is None:
        if presentation.variety is None:
            raise ValueError("no corpus and no variety handle")
        corpus = build_corpus(presentation.variety, size_bound)
    vars_ = sorted(presentation.valuation)
    bound = max((b.size for b in corpus), default=0)
    for b in corpus:
        tuples = enumerate_top_valuations(b, presentation.formula, vars_)
        ok = presentation.plan.homomorphic(b, tuples)
        if not ok.all():
            return Verdict("refuted", bound, b, tuples[int(np.argmin(ok))])
    return Verdict("verified-up-to-bound", bound)


# -- concatenation presentations ----------------------------------------------


def _coatom(a):
    coat = opremum(a)
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
    corpus algebra c, int32 columns (xs, ys) of values of p1 and p2 holding
    the substitution column (x, bottom) for every x, then the three corners
    (0, 0), (0, 1) and (1, 0), then, when c is s.i., the complemented
    satisfying pairs: the (x, y), in lexicographic order, at which p's
    formula is top and y is complemented."""
    pairs = compile_formula(and_(p.formula, or_(var(1), neg(var(1)))))
    out = []
    for c in corpus:
        n, bot, top = c.size, c.bottom, c.top
        gx, gy = np.divmod(np.arange(n * n, dtype=np.int32), n)
        keep = is_si(c) & (run_program(pairs, c.batch_ops(),
                                       {0: gx, 1: gy}) == top)
        xs = np.r_[0:n, bot, bot, top, gx[keep]]
        ys = np.r_[[bot] * n, bot, top, bot, gy[keep]]
        out.append((xs.astype(np.int32), ys.astype(np.int32)))
    return out


def lemma_shadow_exhaustive(max_depth=3, trunc_k=12, corpus_bound=8):
    """Check the three lemma shadows for EVERY 2-variable formula of bounded
    depth, exhaustively.

    The lemmas interrogate a formula only through its values at finitely many
    evaluation points (the generator pair of the ladder presentation and the
    `lemma_points` of the corpus), so formulas with equal value profiles are
    indistinguishable; the check enumerates profiles compositionally, which
    covers all ~1.85e6 depth-3 syntax trees at once.  A profile is a tuple
    of int32 columns, one per algebra, combined by each algebra's
    `batch_ops`.  Returns (tree count, distinct profile count, failure
    count).
    """
    from .catalog import all_algebras

    p = zprime_presentation(trunc_k)
    corpus = all_algebras(corpus_bound)
    ops = [a.batch_ops() for a in [p.target, *corpus]]
    gens = np.asarray([[p.valuation[0]], [p.valuation[1]]], dtype=np.int32)
    profiles = {}  # bytes of a profile -> (profile, least depth)

    def add(profile, d):
        profiles.setdefault(b"".join(col.tobytes() for col in profile),
                            (profile, d))

    # the profiles of p1 and of p2: the generator, then the lemma points
    for profile in zip(gens, *lemma_points(p, corpus)):
        add(profile, 0)
    for d in range(1, max_depth + 1):
        items = list(profiles.values())
        for pa, da in items:
            if da == d - 1:
                add(tuple(o["neg"](x) for o, x in zip(ops, pa)), d)
            for op in ("and", "or", "imp"):
                for pb, db in items:
                    if max(da, db) == d - 1:
                        add(tuple(o[op](x, y) for o, x, y in zip(ops, pa, pb)),
                            d)
    trees = 2
    for _ in range(max_depth):
        trees = 2 + trees + 3 * trees ** 2
    failures = sum(
        1 for prof, _ in profiles.values()
        if prof[0][0] == p.target.top
        and not all(np.all(col == c.top) for col, c in zip(prof[1:], corpus)))
    return trees, len(profiles), failures


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
