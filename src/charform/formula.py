"""Propositional and modal formulas: parsing, printing, evaluation, and
validity search.

Validity has two engines: a vectorized product enumeration over all
valuations, and a constraint-propagation engine that splits the goal into
subformula value constraints (mandatory above 6 variables).  Both are
exhaustive; counter-valuations are always the lexicographically least one,
so the engines agree witness-for-witness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .algebra import SizeLimit


class FormulaSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


class UnboundVariable(KeyError):
    pass


class NotAssertoric(ValueError):
    pass


@dataclass(frozen=True)
class Formula:
    """AST node; kind in {var, top, bot, and, or, imp, neg, box}."""

    kind: str
    args: tuple = ()

    def __repr__(self):
        return f"Formula({pretty(self)!r})"


TOP = Formula("top")
BOT = Formula("bot")


def var(i):
    return Formula("var", (i,))


def and_(l, r):
    return Formula("and", (l, r))


def or_(l, r):
    return Formula("or", (l, r))


def imp(l, r):
    return Formula("imp", (l, r))


def neg(x):
    return Formula("neg", (x,))


def box(x):
    return Formula("box", (x,))


def iff(l, r):
    """Biconditional sugar: (l -> r) & (r -> l)."""
    return and_(imp(l, r), imp(r, l))


def conj(items, empty=TOP):
    """Conjunction of a list, built as a balanced tree (kept shallow so that
    structural recursion never hits the interpreter limit); an in-order
    flatten recovers the list."""
    items = list(items)
    if not items:
        return empty
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return and_(conj(items[:mid]), conj(items[mid:]))


def variables(f):
    """Sorted tuple of variable indices occurring in f."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == "var":
            out.add(g.args[0])
        else:
            stack.extend(a for a in g.args if isinstance(a, Formula))
    return tuple(sorted(out))


def is_assertoric(f):
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == "box":
            return False
        stack.extend(a for a in g.args if isinstance(a, Formula))
    return True


def substitute(f, mapping):
    """Simultaneous substitution of formulas for variables."""
    if f.kind == "var":
        return mapping.get(f.args[0], f)
    if not f.args:
        return f
    return Formula(f.kind, tuple(substitute(a, mapping) for a in f.args))


def normalize_variables(f):
    """Renumber variables to a contiguous 0..k-1 block; returns (f, old list)."""
    old = variables(f)
    mapping = {o: var(i) for i, o in enumerate(old)}
    return substitute(f, mapping), old


# -- grammar ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(p\d+|<->|->|\[\]|[01~&|()])")


def parse(text):
    """Parse the shared grammar.

    Tokens: p<digits>, 0, 1, ~, &, |, ->, <->, [], parentheses.  Precedence
    (tightest first): prefix ~ and [], then &, |, -> (right-associative),
    <-> (non-associative, expanded immediately).
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise FormulaSyntaxError("unexpected character", pos + len(text[pos:]) - len(text[pos:].lstrip()))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    i = 0

    def peek():
        return tokens[i][0] if i < len(tokens) else None

    def take():
        nonlocal i
        tok = tokens[i]
        i += 1
        return tok

    def fail(msg):
        p = tokens[i][1] if i < len(tokens) else len(text)
        raise FormulaSyntaxError(msg, p)

    def parse_iff():
        lhs = parse_imp()
        if peek() == "<->":
            take()
            rhs = parse_imp()
            if peek() == "<->":
                fail("<-> is non-associative")
            return iff(lhs, rhs)
        return lhs

    def parse_imp():
        lhs = parse_or()
        if peek() == "->":
            take()
            return imp(lhs, parse_imp())
        return lhs

    def parse_or():
        lhs = parse_and()
        while peek() == "|":
            take()
            lhs = or_(lhs, parse_and())
        return lhs

    def parse_and():
        lhs = parse_unary()
        while peek() == "&":
            take()
            lhs = and_(lhs, parse_unary())
        return lhs

    def parse_unary():
        t = peek()
        if t == "~":
            take()
            return neg(parse_unary())
        if t == "[]":
            take()
            return box(parse_unary())
        return parse_atom()

    def parse_atom():
        t = peek()
        if t is None:
            fail("unexpected end of input")
        if t == "(":
            take()
            f = parse_iff()
            if peek() != ")":
                fail("expected )")
            take()
            return f
        if t == "0":
            take()
            return BOT
        if t == "1":
            take()
            return TOP
        if t.startswith("p"):
            take()
            idx = int(t[1:])
            if idx < 1:
                fail("variables are numbered from p1")
            return var(idx - 1)
        fail(f"unexpected token {t!r}")

    f = parse_iff()
    if i < len(tokens):
        fail(f"unexpected token {tokens[i][0]!r}")
    return f


_PREC = {"imp": 1, "or": 2, "and": 3, "neg": 4, "box": 4, "var": 5,
         "top": 5, "bot": 5}


def pretty(f):
    """Canonical minimal-parenthesis rendering; parse(pretty(f)) == f."""

    def render(g, parent_prec, right_of_imp=False):
        k = g.kind
        if k == "var":
            return f"p{g.args[0] + 1}"
        if k == "top":
            return "1"
        if k == "bot":
            return "0"
        if k in ("neg", "box"):
            sym = "~" if k == "neg" else "[]"
            return sym + render(g.args[0], _PREC[k])
        l, r = g.args
        sym = {"and": " & ", "or": " | ", "imp": " -> "}[k]
        p = _PREC[k]
        if k == "imp":
            body = render(l, p + 1) + sym + render(r, p)
        else:
            body = render(l, p) + sym + render(r, p + 1)
        if p < parent_prec:
            return "(" + body + ")"
        return body

    return render(f, 0)


# -- evaluation --------------------------------------------------------------


def evaluate(f, algebra, valuation):
    """Value of an assertoric formula in a Heyting algebra.

    valuation maps variable index -> element index.
    """
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
        return algebra.neg[evaluate(f.args[0], algebra, valuation)]
    if k == "box":
        raise NotAssertoric("box in assertoric evaluation")
    a = evaluate(f.args[0], algebra, valuation)
    b = evaluate(f.args[1], algebra, valuation)
    if k == "and":
        return algebra.meet[a][b]
    if k == "or":
        return algebra.join[a][b]
    return algebra.imp[a][b]


# -- carriers ----------------------------------------------------------------


class HeytingCarrier:
    """Adapter giving the engines a uniform view of a Heyting algebra."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.size = algebra.size
        self.top = algebra.top

    def leq(self, x, y):
        return self.algebra.leq(x, y)

    def join_irreducibles(self):
        return self.algebra.join_irreducibles()

    def box_floor(self, c):
        raise NotAssertoric("box in assertoric validity search")

    def apply(self, kind, a, b=None):
        alg = self.algebra
        if kind == "and":
            return alg.meet[a][b]
        if kind == "or":
            return alg.join[a][b]
        if kind == "imp":
            return alg.imp[a][b]
        if kind == "neg":
            return alg.neg[a]
        raise NotAssertoric(kind)

    def np_tables(self):
        alg = self.algebra
        n = alg.size
        flat = lambda t: np.asarray([t[i][j] for i in range(n) for j in range(n)],
                                    dtype=np.int32)
        return {"and": flat(alg.meet), "or": flat(alg.join),
                "imp": flat(alg.imp),
                "neg": np.asarray(alg.neg, dtype=np.int32)}

    def eval_node(self, f, assignment):
        k = f.kind
        if k == "var":
            return assignment[f.args[0]]
        if k == "top":
            return self.top
        if k == "bot":
            return self.algebra.bottom
        if k in ("neg", "box"):
            return self.apply(k, self.eval_node(f.args[0], assignment))
        return self.apply(k, self.eval_node(f.args[0], assignment),
                          self.eval_node(f.args[1], assignment))


# -- engine limits ------------------------------------------------------------


@dataclass(frozen=True)
class EngineLimits:
    naive_max_vars: int = 6
    prop_max_vars: int = 12
    naive_budget: int = 4_000_000


DEFAULT_LIMITS = EngineLimits()


# -- naive engine -------------------------------------------------------------


def _naive_search(carrier, f, vars_, budget):
    """Vectorized enumeration of all valuations; returns (valid, witness)."""
    s = carrier.size
    k = len(vars_)
    total = s ** k
    if total * max(1, k) > budget:
        raise SizeLimit(f"naive search needs {total} valuations")
    tabs = carrier.np_tables()
    idx = np.arange(total, dtype=np.int64)
    cols = {}
    for pos, v in enumerate(vars_):
        cols[v] = ((idx // (s ** (k - 1 - pos))) % s).astype(np.int32)

    def ev(g):
        kind = g.kind
        if kind == "var":
            return cols[g.args[0]]
        if kind == "top":
            return np.full(total, carrier.top, dtype=np.int32)
        if kind == "bot":
            return np.full(total, carrier.algebra.bottom, dtype=np.int32)
        if kind == "neg":
            return tabs["neg"][ev(g.args[0])]
        if kind == "box":
            raise NotAssertoric("box")
        a = ev(g.args[0])
        b = ev(g.args[1])
        return tabs[kind][a * s + b]

    vals = ev(f)
    bad = vals != carrier.top
    if not bad.any():
        return True, None
    first = int(np.argmax(bad))
    witness = {v: int((first // (s ** (k - 1 - pos))) % s)
               for pos, v in enumerate(vars_)}
    return False, witness


# -- propagation engine -------------------------------------------------------

_BRANCH_CAP = 128


def _flatten_and(f):
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == "and":
            stack.append(g.args[1])
            stack.append(g.args[0])
        else:
            out.append(g)
    return out


def _push(f, c, want, carrier):
    """Branches of leaf constraints forcing c <= v(f) (want=True) or not.

    Each branch is a list of ('dom', var, allowed frozenset) and
    ('leaf', f, c, want) items; an empty list of branches means the
    requirement is unsatisfiable, a branch [] means it holds vacuously.
    """
    k = f.kind
    if k == "top":
        return [[]] if want else []
    if k == "bot":
        return [] if want else [[]]
    if k == "var":
        x = f.args[0]
        if want:
            allowed = frozenset(e for e in range(carrier.size) if carrier.leq(c, e))
        else:
            allowed = frozenset(e for e in range(carrier.size) if not carrier.leq(c, e))
        return [[("dom", x, allowed)]] if allowed else []
    if k == "box":
        return _push(f.args[0], carrier.box_floor(c), want, carrier)
    if (k == "and" and want) or (k == "or" and not want):
        left = _push(f.args[0], c, want, carrier)
        right = _push(f.args[1], c, want, carrier)
        out = []
        for bl in left:
            for br in right:
                out.append(bl + br)
                if len(out) > _BRANCH_CAP:
                    return [[("leaf", f, c, want)]]
        return out
    if (k == "or" and want) or (k == "and" and not want):
        out = _push(f.args[0], c, want, carrier) + _push(f.args[1], c, want, carrier)
        if len(out) > _BRANCH_CAP:
            return [[("leaf", f, c, want)]]
        return out
    return [[("leaf", f, c, want)]]


class _CSP:
    """Forward-checking DFS with a constraint-closing variable order.

    Variables are ordered greedily so that each assignment completes as many
    leaf constraints as possible; on diagram-shaped formulas this makes the
    tables propagate values instead of being checked at the leaves.
    """

    def __init__(self, carrier, vars_, constraints):
        self.carrier = carrier
        self.vars = list(vars_)
        self.domains = {v: list(range(carrier.size)) for v in self.vars}
        self.leafs = []
        feasible = True
        seen = set()
        for item in constraints:
            if item[0] == "fail":
                feasible = False
                break
            if item[0] == "dom":
                _, x, allowed = item
                dom = [e for e in self.domains[x] if e in allowed]
                if not dom:
                    feasible = False
                    break
                self.domains[x] = dom
            else:
                _, g, c, want = item
                key = (g, c, want)
                if key in seen:
                    continue
                seen.add(key)
                self.leafs.append((variables(g), g, c, want))
        self.feasible = feasible
        self._order = None
        self._buckets = None
        self._ground = None

    def _leaf_ok(self, leaf, assignment):
        _, g, c, want = leaf
        val = self.carrier.eval_node(g, assignment)
        if c is None:
            return val == self.carrier.top
        return self.carrier.leq(c, val) == want

    def _prepare(self):
        if self._order is not None:
            return
        open_vars = [set(vs) for vs, *_ in self.leafs]
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
        pos = {v: i for i, v in enumerate(order)}
        buckets = [[] for _ in order]
        ground = []
        for leaf in self.leafs:
            vs = leaf[0]
            if not vs:
                ground.append(leaf)
            else:
                buckets[max(pos[u] for u in vs)].append(leaf)
        self._order = order
        self._buckets = buckets
        self._ground = ground

    def solve(self, fixed=None, collect=None):
        """First solution (dict) or None; with collect a list, all solutions."""
        if not self.feasible:
            return None
        self._prepare()
        if any(not self._leaf_ok(l, {}) for l in self._ground):
            return None
        domains = self.domains
        if fixed:
            for v, e in fixed.items():
                if e not in domains[v]:
                    return None
        order, buckets = self._order, self._buckets
        assignment = {}

        def rec(i):
            if i == len(order):
                if collect is not None:
                    collect.append(dict(assignment))
                    return None
                return dict(assignment)
            x = order[i]
            values = (fixed[x],) if fixed and x in fixed else domains[x]
            for e in values:
                assignment[x] = e
                if all(self._leaf_ok(l, assignment) for l in buckets[i]):
                    got = rec(i + 1)
                    if got is not None:
                        return got
            assignment.pop(x, None)
            return None

        return rec(0)

    def satisfiable(self, fixed=None):
        return self.solve(fixed=fixed) is not None

    def lex_min(self):
        """Lexicographically least solution over ascending variable index."""
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


def _refuting_tasks(f, carrier):
    """(vars, CSP) tasks whose solutions are exactly the refutations of f."""
    tasks = []
    ji = sorted(carrier.join_irreducibles())
    for conjunct in _flatten_and(f):
        cvars = variables(conjunct)
        if conjunct.kind == "imp":
            lhs, rhs = conjunct.args
            for c in ji:
                for bl in _push(lhs, c, True, carrier):
                    for br in _push(rhs, c, False, carrier):
                        tasks.append((cvars, bl + br))
        else:
            for c in ji:
                for b in _push(conjunct, c, False, carrier):
                    tasks.append((cvars, b))
    return tasks


def _prop_search(carrier, f, vars_):
    """Propagation engine; returns (valid, lex-least witness or None)."""
    best = None
    for cvars, constraints in _refuting_tasks(f, carrier):
        csp = _CSP(carrier, cvars, constraints)
        sol = csp.lex_min()
        if sol is None:
            continue
        full = tuple(sol.get(v, 0) for v in vars_)
        if best is None or full < best:
            best = full
    if best is None:
        return True, None
    return False, dict(zip(vars_, best))


def enumerate_top_valuations(carrier, f, vars_=None):
    """All valuations making f equal top, in lexicographic order.

    Used to enumerate satisfying tuples of rigid conjunctive formulas
    without scanning the full product space.
    """
    if vars_ is None:
        vars_ = variables(f)
    constraints = []
    for conjunct in _flatten_and(f):
        constraints.extend(_push_eqtop(conjunct, carrier))
    csp = _CSP(carrier, vars_, constraints)
    found = []
    csp.solve(collect=found)
    return sorted(tuple(sol[v] for v in vars_) for sol in found)


def _push_eqtop(f, carrier):
    """Constraints forcing v(f) = top; a leaf with c=None checks equality."""
    k = f.kind
    if k == "top":
        return []
    if k == "bot":
        return [("fail",)]
    if k == "and":
        return _push_eqtop(f.args[0], carrier) + _push_eqtop(f.args[1], carrier)
    if k == "box":
        return _push_eqtop(f.args[0], carrier)
    if k == "var":
        return [("dom", f.args[0], frozenset({carrier.top}))]
    return [("leaf", f, None, None)]


# -- public validity API ------------------------------------------------------


def is_valid(algebra, f, engine="auto", limits=DEFAULT_LIMITS):
    """Validity of an assertoric formula in a Heyting algebra.

    Returns (verdict, counter-valuation or None); the counter-valuation is
    the lexicographically least refuting map variable -> element index.
    engine is one of auto, naive, propagate, both.
    """
    if not is_assertoric(f):
        raise NotAssertoric("modal formula passed to Heyting validity")
    carrier = HeytingCarrier(algebra)
    vars_ = variables(f)
    if not vars_:
        val = carrier.eval_node(f, {})
        return (val == algebra.top), (None if val == algebra.top else {})
    if engine == "auto":
        k = len(vars_)
        cells = algebra.size ** min(k, limits.naive_max_vars + 1) * max(1, k)
        if k <= limits.naive_max_vars and cells <= limits.naive_budget:
            engine = "naive"
        elif k <= limits.prop_max_vars:
            engine = "propagate"
        else:
            raise SizeLimit(f"{k} variables exceed both engine budgets")
    if engine == "naive":
        return _naive_search(carrier, f, vars_, limits.naive_budget)
    if engine == "propagate":
        return _prop_search(carrier, f, vars_)
    if engine == "both":
        rn = _naive_search(carrier, f, vars_, limits.naive_budget)
        rp = _prop_search(carrier, f, vars_)
        if rn != rp:
            raise AssertionError(f"engines disagree: naive={rn} propagate={rp}")
        return rn
    raise ValueError(f"unknown engine {engine!r}")


def consequence_refute(premises, conclusion, corpus, limits=DEFAULT_LIMITS):
    """First corpus algebra validating all premises and refuting the
    conclusion, or None.  None only means: no witness in this corpus."""
    for algebra in corpus:
        if all(is_valid(algebra, p, limits=limits)[0] for p in premises):
            if not is_valid(algebra, conclusion, limits=limits)[0]:
                return algebra
    return None


# -- random formulas ----------------------------------------------------------


def random_formula(rng, max_depth=6, nvars=3):
    """Seeded random formula: uniform connectives, depth-capped."""
    if max_depth == 0 or rng.random() < 0.25:
        return var(rng.randrange(nvars))
    k = rng.choice(("and", "or", "imp", "neg"))
    if k == "neg":
        return neg(random_formula(rng, max_depth - 1, nvars))
    l = random_formula(rng, max_depth - 1, nvars)
    r = random_formula(rng, max_depth - 1, nvars)
    return Formula(k, (l, r))
