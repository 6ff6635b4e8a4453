import functools
import itertools

import numpy as np
import pytest

from charform.algebra import (HeytingAlgebra, Homomorphism, _bits,
                              _from_tables, _image, _transpose,
                              enumerate_filters, homomorphism_search,
                              quotient)
from charform.catalog import all_algebras, si_algebras, standard_corpus
from charform.formula import (BOT, TOP, Formula, NotAssertoric,
                              UnboundVariable, _conjuncts, and_, box, conj,
                              enumerate_top_valuations, iff, imp, is_valid,
                              neg, or_, run_program, substitute, var,
                              variables)
from charform.jankov import (NotSI, generation_steps, term_for_element,
                             terms_for_all)
from charform.modal import InteriorAlgebra, quotient_by_open
from charform.presentation import (VarietyHandle, lemma_points,
                                   zprime_presentation)


@pytest.fixture(scope="session")
def all8():
    return all_algebras(8)


@pytest.fixture(scope="session")
def all6():
    return all_algebras(6)


@pytest.fixture(scope="session")
def si6():
    return si_algebras(6)


@pytest.fixture(scope="session")
def corpus10():
    return standard_corpus(10)


def _random_test_formula(rng, depth, nvars, modal=False):
    """Seeded random formula over variables 0..nvars-1 with top, bot, neg,
    box (when modal) and repeated subterms (op(g, g) shares one object)."""
    if depth == 0 or rng.random() < 0.25:
        if nvars == 0 or rng.random() < 0.15:
            return rng.choice((TOP, BOT))
        return var(rng.randrange(nvars))
    kind = rng.choice(("and", "or", "imp", "neg", "repeat")
                      + (("box",) if modal else ()))
    if kind in ("neg", "box"):
        return Formula(kind, (_random_test_formula(rng, depth - 1, nvars, modal),))
    left = _random_test_formula(rng, depth - 1, nvars, modal)
    if kind == "repeat":
        return Formula(rng.choice(("and", "or", "imp")), (left, left))
    return Formula(kind, (left, _random_test_formula(rng, depth - 1, nvars, modal)))


@pytest.fixture(scope="session")
def random_test_formula():
    return _random_test_formula


# -- slow oracles: the recursive evaluators the compiled path replaced --------


def _evaluate(f, algebra, valuation):
    """Value of an assertoric formula in a Heyting algebra, by recursion."""
    k = f.kind
    if k == "var":
        i = f.args[0]
        if i not in valuation:
            raise UnboundVariable(i)
        return valuation[i]
    if k == "top":
        return algebra.top
    if k == "bot":
        return algebra.bottom
    if k == "neg":
        return algebra.neg[_evaluate(f.args[0], algebra, valuation)]
    if k == "box":
        raise NotAssertoric("box in assertoric evaluation")
    a = _evaluate(f.args[0], algebra, valuation)
    b = _evaluate(f.args[1], algebra, valuation)
    if k == "and":
        return algebra.meet[a][b]
    if k == "or":
        return algebra.join[a][b]
    return algebra.imp[a][b]


def _evaluate_modal(f, b, valuation):
    """Value of f in the interior algebra b (masks), by recursion."""
    k = f.kind
    if k == "var":
        i = f.args[0]
        if i not in valuation:
            raise UnboundVariable(i)
        return valuation[i]
    if k == "top":
        return b.full
    if k == "bot":
        return 0
    if k == "neg":
        return _evaluate_modal(f.args[0], b, valuation) ^ b.full
    if k == "box":
        return b.box[_evaluate_modal(f.args[0], b, valuation)]
    x = _evaluate_modal(f.args[0], b, valuation)
    y = _evaluate_modal(f.args[1], b, valuation)
    if k == "and":
        return x & y
    if k == "or":
        return x | y
    return (~x & b.full) | y


@pytest.fixture(scope="session")
def evaluate_oracle():
    return _evaluate


@pytest.fixture(scope="session")
def evaluate_modal_oracle():
    return _evaluate_modal


# -- oracle: the GMT translation without the memo on the formula -------------


def _gmt_translate(f):
    """Boxed-implication translation, built afresh on every call in the two
    iterative passes of `modal.gmt_translate`."""
    order, todo = [], [f]
    while todo:
        g = todo.pop()
        order.append(g)
        if g.kind != "var":
            todo += g.args
    done = []
    for g in reversed(order):
        k = g.kind
        if k == "var":
            t = box(g)
        elif k in ("and", "or"):
            r = done.pop()
            t = Formula(k, (done.pop(), r))
        elif k == "imp":
            r = done.pop()
            t = box(imp(done.pop(), r))
        elif k == "neg":
            t = box(neg(done.pop()))
        elif k in ("top", "bot"):
            t = g
        else:
            raise ValueError("formula is not assertoric")
        done.append(t)
    return done[0]


@pytest.fixture(scope="session")
def gmt_translate_oracle():
    return _gmt_translate


# -- oracle: substitution by a walk over the tree, not the program ----------


def _substitute(f, mapping):
    """Simultaneous substitution of formulas for variables.

    Iterative, so formulas of any depth substitute: the first pass lists
    the nodes root first, right subtree before left, so that its reverse is
    the left-to-right post-order; the second rebuilds each node from the
    images of its children, taken from the top of a stack.
    """
    order, todo = [], [f]
    while todo:
        g = todo.pop()
        order.append(g)
        if g.kind != "var":
            todo.extend(g.args)
    images = []
    for g in reversed(order):
        if g.kind == "var":
            images.append(mapping.get(g.args[0], g))
        elif g.args:
            n = len(g.args)
            args = tuple(images[-n:])
            del images[-n:]
            images.append(Formula(g.kind, args))
        else:
            images.append(g)
    return images[0]


@pytest.fixture(scope="session")
def substitute_oracle():
    return _substitute


# -- slow oracles: the table loops the one diagram generator replaced ---------


def _diagram_formula(algebra):
    """Heyting diagram and identity valuation: the meet, join and imp
    tables row by row, then the negation table."""
    n = algebra.size
    conjuncts = []
    for make, tab in (((lambda x, y: and_(var(x), var(y))), algebra.meet),
                      ((lambda x, y: or_(var(x), var(y))), algebra.join),
                      ((lambda x, y: imp(var(x), var(y))), algebra.imp)):
        for x in range(n):
            for y in range(n):
                conjuncts.append(iff(make(x, y), var(tab[x][y])))
    for x in range(n):
        conjuncts.append(iff(neg(var(x)), var(algebra.neg[x])))
    return conj(conjuncts), {i: i for i in range(n)}


def _modal_diagram_formula(b):
    """Interior diagram and identity valuation: the Boolean tables computed
    on masks, then negation, then box."""
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


def _opremum(a):
    """The greatest element below top of a Heyting algebra, by pairwise
    `leq`, or None."""
    below = [x for x in range(a.size) if x != a.top]
    for x in below:
        if all(a.leq(y, x) for y in below):
            return x
    return None


def _jankov_formula(algebra):
    """The Jankov formula of a s.i. Heyting algebra: its diagram (the
    table loop) implying the variable of its opremum."""
    op = _opremum(algebra)
    if op is None:
        raise NotSI("Jankov formula needs a subdirectly irreducible algebra")
    d, _ = _diagram_formula(algebra)
    return imp(d, var(op))


def _dejongh_formula(algebra):
    """The de Jongh formula of a s.i. algebra by its own table loop over
    the terms of the join-irreducibles below top, duplicates dropped."""
    gens = [x for x in algebra.join_irreducibles() if x != algebra.top]
    if not gens:
        return and_(var(0), neg(var(0)))
    terms = terms_for_all(algebra, list(enumerate(gens)))
    assert len(terms) == algebra.size
    n = algebra.size
    conjuncts = []
    seen = set()

    def add(f):
        if f not in seen:
            seen.add(f)
            conjuncts.append(f)

    for make, tab in (((lambda a, b: and_(terms[a], terms[b])), algebra.meet),
                      ((lambda a, b: or_(terms[a], terms[b])), algebra.join),
                      ((lambda a, b: imp(terms[a], terms[b])), algebra.imp)):
        for x in range(n):
            for y in range(n):
                add(iff(make(x, y), terms[tab[x][y]]))
    for x in range(n):
        add(iff(neg(terms[x]), terms[algebra.neg[x]]))
    return imp(conj(conjuncts), terms[_opremum(algebra)])


@pytest.fixture(scope="session")
def diagram_oracle():
    return _diagram_formula


@pytest.fixture(scope="session")
def modal_diagram_oracle():
    return _modal_diagram_formula


@pytest.fixture(scope="session")
def jankov_oracle():
    return _jankov_formula


@pytest.fixture(scope="session")
def dejongh_oracle():
    return _dejongh_formula


# -- slow oracle: the closure-based extension check the batched plan replaced --


def _close_map(images, frontier, source, target):
    """Close a partial map source -> target under the operations of the
    algebras' `signature`; None as soon as some element would get two
    images."""
    binary, unary = source.signature
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
                got = images.get(z)
                if got is None:
                    images[z] = w
                    new.append(z)
                elif got != w:
                    return None
        frontier = new
    return images


def _extends_to_homomorphism(source, target, pairs):
    """Does generator(i) -> image(i) extend to a homomorphism?  Bottom, top
    and the pairs seed a map that is closed with conflict detection; the
    map must come out total."""
    images = {}
    for x, y in ((source.bottom, target.bottom), (source.top, target.top),
                 *pairs):
        if images.setdefault(x, y) != y:
            return False
    images = _close_map(images, list(images), source, target)
    return images is not None and len(images) == source.size


def _check_defines(p, corpus):
    """Slow oracle for check_defines: the extension check of every top
    tuple of every corpus algebra in turn, as (kind, bound, witness algebra,
    witness tuple)."""
    vars_ = sorted(p.valuation)
    gens = [p.valuation[v] for v in vars_]
    bound = max((b.size for b in corpus), default=0)
    for b in corpus:
        for tup in enumerate_top_valuations(b, p.formula, vars_):
            if not _extends_to_homomorphism(p.target, b, list(zip(gens, tup))):
                return "refuted", bound, b, tup
    return "verified-up-to-bound", bound, None, ()


@pytest.fixture(scope="session")
def extends_oracle():
    return _extends_to_homomorphism


@pytest.fixture(scope="session")
def check_defines_oracle():
    return _check_defines


# -- slow oracle: the breadth-first subalgebra search Close-by-One replaced ---


def _close_set(algebra, closed, frontier, limit=None):
    """The set-based closure the mask closure replaced: `closed` is a set,
    extended in place, and `frontier` lists its members not yet combined
    with the others; each element's values are computed from the
    signature's row functions.  With a limit, a set that outgrows it is
    returned at once, unclosed."""
    binary, unary = algebra.signature
    while frontier:
        items = list(closed)
        new = []
        for x in frontier:
            reached = {op(algebra, x) for _, op in unary}
            for _, row, col in binary:
                reached.update(row(algebra, x, items))
                if col is not None:
                    reached.update(col(algebra, x, items))
            reached -= closed
            closed |= reached
            new += reached
            if limit is not None and len(closed) > limit:
                return closed
        frontier = new
    return closed


@pytest.fixture(scope="session")
def close_set_oracle():
    return _close_set


def _bounded_subalgebras(a, bound):
    """All op-closed carriers of size <= bound, each a frozenset, by
    breadth-first search over the set-based closure: every (carrier, new
    element) pair is closed, and closures already found are dropped
    afterwards."""
    start = {a.bottom, a.top}
    base = frozenset(_close_set(a, start, list(start)))
    if len(base) > bound:
        return []
    done = set()
    frontier = [base]
    while frontier:
        nxt = []
        for carrier in frontier:
            if carrier in done:
                continue
            done.add(carrier)
            for x in range(a.size):
                if x in carrier:
                    continue
                bigger = frozenset(_close_set(a, {x, *carrier}, [x],
                                              limit=bound))
                if len(bigger) <= bound and bigger not in done:
                    nxt.append(bigger)
        frontier = nxt
    return sorted(done, key=lambda c: (len(c), sorted(c)))


@pytest.fixture(scope="session")
def bounded_subalgebras_oracle():
    return _bounded_subalgebras


# -- slow oracle: the propagation search with a layout per CSP ---------------


class _OracleCSP:
    """The propagation CSP as it was before layouts were shared: the greedy
    order from one set of open variables per leaf, the layout built for
    each CSP with leaves in constraint order within a depth, each slot
    computed once per node by the first leaf that reads it, a search that
    runs the leaves of a depth in that fixed order, and a lex_min that
    solves once per candidate value.  It reads the program through the
    engine's `_Slots` and shares no other code with the engine."""

    def __init__(self, slots, vars_, constraints):
        self.slots = slots
        self.vars = list(vars_)
        self.domains = {v: list(range(slots.algebra.size)) for v in self.vars}
        self.leafs = {}
        code = slots.prog.code
        for s, accept in constraints:
            op, x, _ = code[s]
            if op == "var":
                self.domains[x] = [e for e in self.domains[x] if accept >> e & 1]
            else:
                self.leafs[s] = self.leafs.get(s, -1) & accept
        self.feasible = (all(self.domains.values())
                         and all(self.leafs.values()))
        self._levels = None

    def _order(self):
        open_vars = [set(_bits(self.slots.svars[s])) for s in self.leafs]
        remaining = set(self.vars)
        order = []
        while remaining:
            closing = {v: 0 for v in remaining}
            for vs in open_vars:
                if len(vs) == 1:
                    (v,) = vs
                    closing[v] += 1
            pick = min(remaining,
                       key=lambda v: (-closing[v], len(self.domains[v]), v))
            order.append(pick)
            remaining.discard(pick)
            for vs in open_vars:
                vs.discard(pick)
        return tuple(order)

    def _prepare(self):
        if self._levels is not None:
            return
        order = self._order()
        pos = {v: i for i, v in enumerate(order)}
        slots, code, svars = self.slots, self.slots.prog.code, self.slots.svars
        depth = {s: max((pos[u] for u in _bits(svars[s])), default=-1)
                 for s in self.leafs}
        checks = [[] for _ in order]
        seen = set()
        self._ground_ok = True
        for s in sorted(self.leafs, key=depth.__getitem__):
            accept = self.leafs[s]
            if depth[s] < 0:
                self._ground_ok &= bool(accept >> slots.ground[s] & 1)
                continue
            sub, todo = [], [s]
            while todo:
                t = todo.pop()
                op, a, b = code[t]
                if t in seen or op == "var" or not svars[t]:
                    continue
                seen.add(t)
                sub.append((t, slots.ops[op], a, b))
                todo += (a,) if b is None else (a, b)
            checks[depth[s]].append((sorted(sub), s, accept))
        self._levels = [(x, slots.var_slot.get(x), checks[i])
                        for i, x in enumerate(order)]

    def solve(self, fixed=None, collect=None):
        if not self.feasible:
            return None
        self._prepare()
        if not self._ground_ok:
            return None
        if fixed and any(e not in self.domains[v] for v, e in fixed.items()):
            return None
        levels, vals, assignment = self._levels, list(self.slots.ground), {}

        def rec(i):
            if i == len(levels):
                if collect is not None:
                    collect.append(dict(assignment))
                    return None
                return dict(assignment)
            x, xs, checks = levels[i]
            values = (fixed[x],) if fixed and x in fixed else self.domains[x]
            for e in values:
                assignment[x] = e
                if xs is not None:
                    vals[xs] = e
                for steps, s, accept in checks:
                    for t, f, a, b in steps:
                        vals[t] = f(vals[a]) if b is None else f(vals[a], vals[b])
                    if not accept >> vals[s] & 1:
                        break
                else:
                    got = rec(i + 1)
                    if got is not None:
                        return got
            assignment.pop(x, None)
            return None

        return rec(0)

    def satisfiable(self, fixed=None):
        return self.solve(fixed=fixed) is not None

    def lex_min(self):
        if not self.satisfiable():
            return None
        fixed = {}
        for v in sorted(self.vars):
            for e in self.domains[v]:
                fixed[v] = e
                if self.satisfiable(fixed):
                    break
            else:
                return None
        return fixed


@pytest.fixture(scope="session")
def oracle_csp():
    return _OracleCSP


# -- slow oracle: the refuting tasks pushed once per join-irreducible ---------


def _push_per_c(slots, s, c, want):
    """Branches of constraints (slot, accept mask) forcing c <= v(s)
    (want=True) or not, pushed for one join-irreducible c, with a split of
    more than 128 branches kept as one constraint on its slot."""
    code, accept, stack = slots.prog.code, slots.accept, []
    while True:
        op, a, b = code[s]
        if op == "and" or op == "or":
            every = (op == "and") == want
            stack.append([s, c, every, [(b, c)], [[]] if every else []])
            s = a
            continue
        if op == "box":
            parts = [(a, 1 << i)
                     for i in _bits(_least_open(slots.algebra, c))]
            stack.append([s, c, want, parts[:0:-1], [[]] if want else []])
            s, c = parts[0]
            continue
        if op == "top":
            got = [[]] if want else []
        elif op == "bot":
            got = [] if want else [[]]
        elif op == "var":
            allowed = accept(c, want)
            got = [[(s, allowed)]] if allowed else []
        else:
            got = [[(s, accept(c, want))]]
        while stack:
            frame = stack[-1]
            fs, fc, every, left, out = frame
            size = len(out) * len(got) if every else len(out) + len(got)
            if size > 128:
                stack.pop()
                got = [[(fs, accept(fc, want))]]
                continue
            out = [x + y for x in out for y in got] if every else out + got
            if left:
                frame[4] = out
                s, c = left.pop()
                break
            stack.pop()
            got = out
        else:
            return got


def _refuting_tasks_per_c(slots, with_c=False):
    """The refuting tasks (vars, constraints) of a program, every conjunct
    pushed afresh for every join-irreducible c, and the right side of an
    implication afresh for every branch of its left side; with with_c, each
    task as (c, vars, constraints)."""
    code, tasks = slots.prog.code, []
    ji = sorted(slots.algebra.join_irreducibles())
    for s in _conjuncts(code, ("and",)):
        op, a, b = code[s]
        cvars = tuple(_bits(slots.svars[s]))
        for c in ji:
            if op == "imp":
                branches = [bl + br for bl in _push_per_c(slots, a, c, True)
                            for br in _push_per_c(slots, b, c, False)]
            else:
                branches = _push_per_c(slots, s, c, False)
            tasks += [(c, cvars, br) if with_c else (cvars, br)
                      for br in branches]
    return tasks


@pytest.fixture(scope="session")
def refuting_tasks_oracle():
    return _refuting_tasks_per_c


def _class_representatives(algebra, c):
    """Mask of the least element of each class of x ~ y iff x & c = y & c,
    read off the order alone: the elements below both x and c."""
    least = {}
    for x in range(algebra.size):
        below = frozenset(z for z in range(algebra.size)
                          if algebra.leq(z, x) and algebra.leq(z, c))
        least.setdefault(below, x)
    return sum(1 << x for x in least.values())


@pytest.fixture(scope="session")
def class_representatives_oracle():
    return _class_representatives


# -- oracles for the trust rule: the checking constructors ---------------------


def _recheck(a):
    """Rebuild an algebra the library derived through the public, checking
    constructor: raises if any table breaks a law."""
    return HeytingAlgebra(a.up, a.meet, a.join, a.imp, a.bottom, a.top,
                          a.labels)


def _recheck_interior(b):
    """Rebuild an interior algebra through the checking constructor."""
    return InteriorAlgebra(b.atoms, b.box, b.atom_labels)


@pytest.fixture(scope="session")
def recheck():
    return _recheck


@pytest.fixture(scope="session")
def recheck_interior():
    return _recheck_interior


# -- slow oracles: the structure-map searches the one homomorphism search
# -- replaced -------------------------------------------------------------------


def _preserves(source, target, m):
    """Does the map m preserve bottom, top and every operation of the
    source's `signature`?  Element by element, through `scalar_ops`."""
    if m[source.bottom] != target.bottom or m[source.top] != target.top:
        return False
    ops, tops = source.scalar_ops(), target.scalar_ops()
    binary, unary = source.signature
    xs = range(source.size)
    return (all(m[ops[k](x, y)] == tops[k](m[x], m[y])
                for k, _, _ in binary for x in xs for y in xs)
            and all(m[ops[k](x)] == tops[k](m[x]) for k, _ in unary for x in xs))


def _homomorphisms_product(source, target):
    """Every map source -> target that preserves the operations, in
    lexicographic order: `itertools.product` over the images of the
    elements other than bottom and top, which can only go to target's
    bottom and top."""
    free = [x for x in range(source.size) if x not in (source.bottom, source.top)]
    out = []
    for images in itertools.product(range(target.size), repeat=len(free)):
        m = [None] * source.size
        m[source.bottom], m[source.top] = target.bottom, target.top
        for x, v in zip(free, images):
            m[x] = v
        if _preserves(source, target, m):
            out.append(tuple(m))
    return out


@pytest.fixture(scope="session")
def homomorphisms_oracle():
    return _homomorphisms_product


@pytest.fixture(scope="session")
def preserves_oracle():
    return _preserves


def _least_open(b, c):
    """The least open element containing c: the meet of the opens over c."""
    out = b.full
    for o in b.opens:
        if c & ~o == 0:
            out &= o
    return out


def _atom_neighborhoods(b):
    return [_least_open(b, 1 << a) for a in range(b.atoms)]


def _in_sh_frames(a, b):
    """Sub-Hom on interior algebras through atom frames: a embeds into the
    quotient of b by an open o iff a surjective bounded morphism maps the
    atom frame of that quotient onto a's.  Opens ascending; returns
    (verdict, (open, atom map) or None)."""
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


@pytest.fixture(scope="session")
def in_sh_frames_oracle():
    return _in_sh_frames


def _in_sh_every_quotient(a, b):
    """Sub-Hom on Heyting algebras with every quotient built: the quotient
    of b by each filter, by member mask ascending, searched for the least
    embedding of a, whatever its size.  Returns (verdict, (filter members,
    embedding map) or None)."""
    for filt in enumerate_filters(b):
        q, _ = quotient(b, filt)
        found = homomorphism_search(a, q, injective=True, first_only=True)
        if found:
            return True, (filt.members, found[0].map)
    return False, None


@pytest.fixture(scope="session")
def in_sh_every_quotient_oracle():
    return _in_sh_every_quotient


# -- slow oracle: the quotient by x ~ y iff (x <-> y) in the filter ----------


def _quotient(a, filt):
    """Quotient by a filter: x ~ y iff (x <-> y) in the filter.

    Returns the quotient algebra and the natural surjection.  The class
    representative is the least element index in the class.
    """
    if filt.algebra is not a:
        raise ValueError("filter belongs to a different algebra")
    n = a.size
    fm = filt.members
    img, reps = [-1] * n, []
    for x in range(n):
        if img[x] != -1:
            continue
        for y in range(x, n):
            if img[y] == -1 and (fm >> a.imp[x][y]) & 1 and (fm >> a.imp[y][x]) & 1:
                img[y] = len(reps)
        reps.append(x)
    q = _image(a, reps, img)
    surj = Homomorphism._trusted(a, q, tuple(img))
    return q, surj


@pytest.fixture(scope="session")
def quotient_oracle():
    return _quotient


def _least_isomorphism(a, b):
    """The lexicographically least order isomorphism a -> b, or None: every
    permutation in turn."""
    if a.size != b.size:
        return None
    for p in itertools.permutations(range(b.size)):
        if all(((a.up[x] >> y) & 1) == ((b.up[p[x]] >> p[y]) & 1)
               for x in range(a.size) for y in range(a.size)):
            return p
    return None


@pytest.fixture(scope="session")
def least_isomorphism_oracle():
    return _least_isomorphism


# -- slow oracles: the canonical key and set-algebra tables before their
# -- list-based and array-built rewrites -----------------------------------------


def _refine_profile(up, down, size):
    """Iterated neighbourhood refinement, listing each element's elements
    below and above again in every round."""
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


def _canonical_key(a):
    """The canonical key with each leaf's code built by testing all n
    columns of every row."""
    n = a.size
    up = a.up
    colour = _refine_profile(up, _transpose(up), n)
    best = None
    groups = {}
    for x in sorted(range(n), key=lambda x: (colour[x], x)):
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

    flat = []
    for c in sorted(groups):
        flat.extend([groups[c]] * len(groups[c]))
    backtrack(0, flat)
    return (n,) + best


def _set_algebra(sets, interior):
    """The algebra on ascending masks `sets`, one pair at a time: a dict
    from mask to index and u -> v = interior(~u | v) on single masks."""
    idx = {s: i for i, s in enumerate(sets)}
    full = sets[-1]
    meet = [[idx[u & v] for v in sets] for u in sets]
    join = [[idx[u | v] for v in sets] for u in sets]
    imp = [[idx[interior((u ^ full) | v)] for v in sets] for u in sets]
    return _from_tables(meet, join, imp)


def _upset_algebra(poset):
    """The up-set algebra through the per-pair builder, with the interior
    of a set the complement of the down-closure of its complement."""
    full = (1 << poset.size) - 1
    down = _transpose(poset.up)

    def interior(w):
        below = 0
        for x in _bits(full ^ w):
            below |= down[x]
        return full ^ below

    return _set_algebra(poset.upset_masks(), interior)


def _heyting_carcass(b):
    """The carcass through the per-pair builder, box read per mask."""
    return _set_algebra(b.opens, b.box.__getitem__)


@pytest.fixture(scope="session")
def least_open_oracle():
    return _least_open


# -- the box-table code the atom preorder replaced, kept as oracles -----------


def _s4_laws(box):
    """Does the box table obey the S4 laws?  box(top) = top, deflation and
    idempotence at each element, and multiplicativity on all 4^m pairs."""
    full = len(box) - 1
    if box[full] != full:
        return False
    every = range(len(box))
    if any(box[x] & ~x or box[box[x]] != box[x] for x in every):
        return False
    return all(box[x & y] == box[x] & box[y] for x in every for y in every)


def _span_box(algebra):
    """The box table of the span, each mask joined with every open below
    it, the opens being the sets of join-irreducibles below an element."""
    ji = algebra.join_irreducibles()
    opens = {sum(1 << i for i, j in enumerate(ji) if algebra.leq(j, a))
             for a in range(algebra.size)}
    table = []
    for x in range(1 << len(ji)):
        best = 0
        for o in opens:
            if o & ~x == 0:
                best |= o
        table.append(best)
    return tuple(table)


def _on_blocks_box(b, blocks):
    """The box table and atom labels of the algebra on `blocks`: a set of
    blocks expands to the union of their atoms, and a mask of b collapses
    to the blocks whose first atom it holds."""
    expand = [0]
    for blk in blocks:
        m = sum(1 << a for a in blk)
        expand += [e | m for e in expand]

    def collapse(mask):
        return sum(1 << i for i, blk in enumerate(blocks)
                   if (mask >> blk[0]) & 1)

    labels = None
    if b.atom_labels:
        labels = tuple("+".join(b.atom_labels[a] for a in blk)
                       for blk in blocks)
    return tuple(collapse(b.box[e]) for e in expand), labels or None


def _open_generated_box(b):
    """`open_generated` through atoms grouped by the opens holding them."""
    sig = {}
    for a in range(b.atoms):
        sig.setdefault(tuple((o >> a) & 1 for o in b.opens), []).append(a)
    return _on_blocks_box(b, sorted(sig.values(), key=min))


def _quotient_by_open_box(b, o):
    """`quotient_by_open` through single-atom blocks."""
    return _on_blocks_box(b, [[a] for a in _bits(o)])


def _modal_characteristic_formula(p, connective):
    """box(A) -> B or A -> B, B the term of the opremum of the carcass
    (the per-pair builder), found among the opens."""
    b = p.target
    op = _opremum(_heyting_carcass(b))
    if op is None:
        raise NotSI("modal characteristic formula needs a s.i. carcass")
    op_open = sorted(b.opens)[op]
    bterm = term_for_element(b, sorted(p.valuation.items()), op_open)
    return imp(box(p.formula) if connective == "box-imp" else p.formula,
               bterm)


@pytest.fixture(scope="session")
def s4_laws_oracle():
    return _s4_laws


@pytest.fixture(scope="session")
def span_box_oracle():
    return _span_box


@pytest.fixture(scope="session")
def open_generated_oracle():
    return _open_generated_box


@pytest.fixture(scope="session")
def quotient_by_open_oracle():
    return _quotient_by_open_box


@pytest.fixture(scope="session")
def modal_characteristic_oracle():
    return _modal_characteristic_formula


@pytest.fixture(scope="session")
def refine_profile_oracle():
    return _refine_profile


@pytest.fixture(scope="session")
def canonical_key_oracle():
    return _canonical_key


@pytest.fixture(scope="session")
def upset_algebra_oracle():
    return _upset_algebra


@pytest.fixture(scope="session")
def heyting_carcass_oracle():
    return _heyting_carcass


# -- the numpy kernels the library replaced, kept as oracles -----------------
#
# The digit-grid naive engine over `batch_ops`, the batched extension check
# over `op_table` and the table builder over n x n arrays of masks, as they
# were; the library's bit-sliced engine, per-row extension check and
# dict-indexed tables are tested against them.


@functools.lru_cache(maxsize=None)
def _batch_ops(a):
    """The operations over numpy arrays of element indices, for
    `formula.run_program`: in a Heyting algebra binary ones gather from a
    flat table at x*size+y and neg gathers from its row; in an interior
    algebra the scalar ones, which numpy broadcasts, with box as a gather
    from the box table."""
    if isinstance(a, InteriorAlgebra):
        box_table = np.asarray(a.box, dtype=np.int32)
        return dict(a.scalar_ops(), box=box_table.__getitem__)
    s = a.size

    def flat(table):
        t = np.asarray(table, dtype=np.int32).reshape(-1)
        return lambda x, y: t[x * s + y]

    neg = np.asarray(a.neg, dtype=np.int32)
    return {"top": a.top, "bot": a.bottom, "and": flat(a.meet),
            "or": flat(a.join), "imp": flat(a.imp), "neg": neg.__getitem__}


@functools.lru_cache(maxsize=64)
def _digits(m, k):
    """The k x m**k grid whose column r holds the base-m digits of r, most
    significant first; read-only, since the cached grid is shared."""
    weights = m ** np.arange(k - 1, -1, -1)
    grid = np.arange(m ** k) // weights[:, None] % m
    grid.flags.writeable = False
    return grid


def _first_refutation_grid(prog, algebra, domain):
    """The least refuting valuation over domain, or None: every row of the
    digit grid in one numpy batch over `_batch_ops`."""
    k = len(prog.vars)
    cols = np.asarray(domain, dtype=np.int32)[_digits(len(domain), k)]
    bad = (run_program(prog, _batch_ops(algebra), dict(zip(prog.vars, cols)))
           != algebra.top)
    if not np.any(bad):
        return None
    return dict(zip(prog.vars, cols[:, np.argmax(bad)].tolist()))


def _refuting_rows_grid(prog, algebra, cols):
    """The rows at which prog is not top, as a bitmask, with each variable
    bound to a column of elements: one numpy batch over `_batch_ops`."""
    bad = (run_program(prog, _batch_ops(algebra),
                       {v: np.asarray(col, dtype=np.int32)
                        for v, col in cols.items()}) != algebra.top)
    return sum(1 << r for r in np.flatnonzero(bad).tolist())


@pytest.fixture(scope="session")
def first_refutation_oracle():
    return _first_refutation_grid


@pytest.fixture(scope="session")
def refuting_rows_oracle():
    return _refuting_rows_grid


@pytest.fixture(scope="session")
def batch_ops_oracle():
    return _batch_ops


@functools.lru_cache(maxsize=None)
def _op_table(a):
    """The operations of a's `signature` as one int32 index table of shape
    (ops, size, size), in signature order: entry [k, x, y] is op_k(x, y)
    for a binary op and op_k(x) for a unary one."""
    ops = _batch_ops(a)
    every = np.arange(a.size, dtype=np.int32)
    x, y = np.broadcast_arrays(every[:, None], every[None, :])
    binary, unary = a.signature
    return np.stack([ops[op](x, y) for op, _, _ in binary]
                    + [ops[op](x) for op, _ in unary]).astype(np.int32,
                                                              copy=False)


# one batch of the grid plan compares about this many entries
_BATCH_ENTRIES = 1 << 16


class _GridPlan:
    """`presentation.GenerationPlan` as one numpy batch of rows: the steps
    replayed one depth at a time, each depth one gather from the target's
    `_op_table`, and the criterion checked on every row at once."""

    def __init__(self, algebra, gens):
        self.size = n = algebra.size
        self.bottom, self.top = algebra.bottom, algebra.top
        self.gens = np.asarray(gens, dtype=np.intp)
        if gens:
            found = generation_steps(algebra, list(enumerate(gens)))
        else:
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
            else:
                depth[z] = d = 1 + max(depth.get(x, 0) for x in args)
                levels.setdefault(d, []).append(
                    (z, names.index(op), args[0], args[-1]))
        self.var_elems = np.asarray(var_elems, dtype=np.intp)
        self.var_cols = np.asarray(var_cols, dtype=np.intp)
        self.levels = [[np.asarray(c, dtype=np.intp) for c in zip(*steps)]
                       for _, steps in sorted(levels.items())]
        self.table = _op_table(algebra)
        self.binary = np.arange(len(binary))[:, None, None]
        self.unary = np.arange(len(binary), len(names))[:, None]
        self.unary_images = self.table[len(binary):, :, 0]
        self.meet = self.table[names.index("and")]
        every = np.arange(n)
        leq = self.meet == every
        self.below = leq.sum(axis=1)
        self.downs = np.where(every < self.below[:, None],
                              np.argsort(~leq, axis=1, kind="stable"),
                              every[:, None])

    def homomorphic(self, target, rows):
        """For each row, whether the map it forces extends: a bool array."""
        rows = np.asarray(rows, dtype=np.int32).reshape(len(rows), len(self.gens))
        if not self.generates:
            return np.zeros(len(rows), dtype=bool)
        m = min(target.size, self.size)
        entries = len(self.binary) * m * m + (1 + len(self.unary)) * self.size
        per = max(1, _BATCH_ENTRIES // entries)
        return np.concatenate([self._homomorphic(target, rows[i:i + per])
                               for i in range(0, max(len(rows), 1), per)])

    def _homomorphic(self, target, rows):
        ops, table = _batch_ops(target), _op_table(target)
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


@pytest.fixture(scope="session")
def grid_plan_oracle():
    return _GridPlan


def _set_algebra_grid(sets, interior):
    """The algebra on ascending masks `sets` over whole n x n arrays of
    masks: `interior` maps an array of masks to the array of interiors,
    np.searchsorted turns each mask into its index, the up mask of u has
    the bits of the v with u & v = u and its down mask those of the v with
    u & v = v.  Masks that do not fit in int64 are Python ints in a
    dtype=object array."""
    full = sets[-1]
    masks = np.array(sets, dtype=np.int64 if full < 1 << 63 else object)
    u, v = masks[:, None], masks[None, :]
    meet = u & v

    def index(table):
        return [tuple(r) for r in np.searchsorted(masks, table).tolist()]

    def masks_where(rel):
        bits = np.packbits(rel, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in bits]

    tables = index(meet), index(u | v), index(interior((u ^ full) | v))
    return HeytingAlgebra._trusted(masks_where(meet == u), *tables, 0,
                                   len(sets) - 1, down=masks_where(meet == v))


def _upset_interior_grid(poset):
    """The interior of a set of points of poset, over an array of masks: the
    set of points whose up-set it contains."""
    def interior(w):
        out = np.zeros_like(w)
        for x, m in enumerate(poset.up):
            out[(w & m) == m] |= 1 << x
        return out

    return interior


@pytest.fixture(scope="session")
def upset_algebra_grid_oracle():
    return lambda p: _set_algebra_grid(p.upset_masks(), _upset_interior_grid(p))


# -- test-only helpers --------------------------------------------------------


def _normalize_variables(f):
    """Renumber variables to a contiguous 0..k-1 block; returns (f, old list)."""
    old = variables(f)
    mapping = {o: var(i) for i, o in enumerate(old)}
    return substitute(f, mapping), old


@pytest.fixture(scope="session")
def normalize_variables():
    return _normalize_variables


def _lemma_shadow_exhaustive(max_depth=3, trunc_k=12, corpus_bound=8):
    """Check the three lemma shadows for EVERY 2-variable formula of bounded
    depth, exhaustively.

    The lemmas interrogate a formula only through its values at finitely many
    evaluation points (the generator pair of the ladder presentation and the
    `lemma_points` of the corpus), so formulas with equal value profiles are
    indistinguishable; the check enumerates profiles compositionally, which
    covers all ~1.85e6 depth-3 syntax trees at once.  A profile is a tuple
    of int32 columns, one per algebra, combined by each algebra's
    `_batch_ops`.  Returns (tree count, distinct profile count, failure
    count).
    """
    p = zprime_presentation(trunc_k)
    corpus = all_algebras(corpus_bound)
    ops = [_batch_ops(a) for a in [p.target, *corpus]]
    gens = np.asarray([[p.valuation[0]], [p.valuation[1]]], dtype=np.int32)
    points = [tuple(np.asarray(col, dtype=np.int32) for col in cols)
              for cols in lemma_points(p, corpus)]
    profiles = {}  # bytes of a profile -> (profile, least depth)

    def add(profile, d):
        profiles.setdefault(b"".join(col.tobytes() for col in profile),
                            (profile, d))

    # the profiles of p1 and of p2: the generator, then the lemma points
    for profile in zip(gens, *points):
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


@pytest.fixture(scope="session")
def lemma_shadow_exhaustive():
    return _lemma_shadow_exhaustive


# -- test-only helpers that lived in the library -----------------------------


def _consequence_refute(premises, conclusion, corpus):
    """First corpus algebra validating all premises and refuting the
    conclusion, or None.  None only means: no witness in this corpus."""
    for algebra in corpus:
        if all(is_valid(algebra, p)[0] for p in premises):
            if not is_valid(algebra, conclusion)[0]:
                return algebra
    return None


def _axiomatic_handle(axioms, bound=8, name=""):
    """The variety of the axioms, its corpus checked over the catalog."""
    return VarietyHandle((), tuple(axioms), bound, name)


@pytest.fixture(scope="session")
def consequence_refute():
    return _consequence_refute


@pytest.fixture(scope="session")
def axiomatic_handle():
    return _axiomatic_handle
