"""Propositional and modal formulas: parsing, printing, compilation,
evaluation and validity search.

`compile_formula` turns a formula into a straight-line `Program`: one slot
per distinct subterm (hash-consed on the operation and the child slots, so
shared subterms are evaluated once and no deep formula is ever hashed),
with the variables, whether a box occurs and whether every variable
occurrence is boxed.  The program is kept on the formula object, so each
object is compiled once.  Every evaluation reads the program, and so does
`variables`; `substitute` and the GMT translation rebuild a formula from
it, each distinct subterm once.  `run_program` runs it at one valuation
with the `scalar_ops` an algebra class gives, which is all `evaluate` does,
for both algebra kinds, or at many valuations at once over bit planes
(`_Frame`): the algebra's dual frame has the join-irreducibles of a
Heyting algebra, or the atoms of an interior algebra, as its points, and a
value at W valuations is one W-bit int per point.  And and or are bitwise;
implication, negation and box meet each point's plane with those of its
lower covers or its successors, so an implication costs one int operation
per point and one per cover.
`first_refutation` returns the lexicographically least refuting valuation
over a domain; the naive engine is built on it, and `modal.modal_validity`
is `is_valid` by that engine.  It first evaluates the first
`_PROBE_ROWS` valuations of that order one at a time with the scalar
operations, since most refutations are among them, and only if none
refutes scans the valuations in order, in blocks of bit planes
(`_sliced_scan`), unless the probe has covered them all; the least
refuting row is the lowest bit of the first block that has one.  The
planes of the variables depend only on the algebra, the domain and the
variable count, so they are built once per such triple and kept on the
algebra's frame.  `refuting_rows` runs a program the same way over given
columns of elements.

Validity, `is_valid`, has two engines, and both serve Heyting and interior
algebras: the bit-sliced enumeration of all valuations (over the opens only
when every variable occurs boxed), and a constraint-propagation engine
that splits the goal into constraints on the values of program slots
(mandatory above 6 variables).  Without a box the split depends on neither
the algebra nor the join-irreducible element c it is made for, so it is made
once per program and kept on it, and the search for c runs in the s.i.
quotient below c: each variable takes one value per class of x -> x & c,
the least.  Whether that search has a solution depends only on the
isomorphism class of the algebra below c, so the program keeps the
canonical keys of those where it had none and skips their c's from then
on (`_prop_search`).  The search
checks each constraint at the depth where its variables are all assigned:
the slots that do not depend on that depth's variable are computed once
per node, and each check runs, with the scalar operations, the rest of
its sub-program, so the checks are independent and the one that failed
last runs first.  That plan depends only on the program, the variable
order and the set of constrained slots, so it is built once per program
and such pair, kept on the program and shared by every algebra; its steps
name their operations, and each search runs them with its own algebra's.
The greedy variable order reads no algebra either and is kept on the
program too, as a cached property, as is everything else the engine
derives from the program alone.  One such search finds the least solution
of a task, with a cut; the same search, without it, enumerates the top
valuations of a presentation formula.  Both engines are exhaustive;
counter-valuations are always the lexicographically least one, so the
engines agree witness-for-witness.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections import Counter
from dataclasses import dataclass

from .algebra import (Poset, SizeLimit, _bits, _classes, _sub_order,
                      canonical_key)


class FormulaSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


class UnboundVariable(KeyError):
    pass


class NotAssertoric(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Formula:
    """AST node; kind in {var, top, bot, and, or, imp, neg, box}.

    Equality and hashing are structural and iterative, so formulas of any
    depth compare and hash.  Each node keeps its hash, once computed, as a
    private attribute outside the dataclass fields.
    """

    kind: str
    args: tuple = ()

    def __repr__(self):
        return f"Formula({pretty(self)!r})"

    def __hash__(self):
        todo = [self]
        while "_hash" not in self.__dict__:
            f = todo.pop()
            pending = [g for g in f.args
                       if isinstance(g, Formula) and "_hash" not in g.__dict__]
            if pending:
                todo += [f, *pending]
            else:  # f is frozen
                object.__setattr__(f, "_hash",
                                   hash((f.kind, *map(hash, f.args))))
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        # pairs of shared subterms are compared once
        seen, todo = set(), [(self, other)]
        while todo:
            f, g = todo.pop()
            if f is g or (id(f), id(g)) in seen:
                continue
            seen.add((id(f), id(g)))
            if f.kind != g.kind or len(f.args) != len(g.args):
                return False
            for x, y in zip(f.args, g.args):
                if isinstance(x, Formula) and isinstance(y, Formula):
                    todo.append((x, y))
                elif x != y:
                    return False
        return True


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
    return compile_formula(f).vars


def substitute(f, mapping):
    """Simultaneous substitution of formulas for variables.

    A loop over the compiled program, so formulas of any depth substitute
    and each distinct subterm is rebuilt once, from the images of its
    child slots.
    """
    images = []
    for op, a, b in compile_formula(f).code:
        if op == "var":
            images.append(mapping[a] if a in mapping else var(a))
        elif a is None:
            images.append(Formula(op))
        else:
            images.append(Formula(op, (images[a],) if b is None
                                  else (images[a], images[b])))
    return images[-1]


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
        # a loop folding to the right, so long chains need no recursion
        operands = [parse_or()]
        while peek() == "->":
            take()
            operands.append(parse_or())
        f = operands.pop()
        while operands:
            f = imp(operands.pop(), f)
        return f

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

    try:
        f = parse_iff()
    except RecursionError:
        fail("formula nested too deeply")
    if i < len(tokens):
        fail(f"unexpected token {tokens[i][0]!r}")
    return f


_PREC = {"imp": 1, "or": 2, "and": 3, "neg": 4, "box": 4, "var": 5,
         "top": 5, "bot": 5}


_SYM = {"top": "1", "bot": "0", "neg": "~", "box": "[]", "and": " & ",
        "or": " | ", "imp": " -> "}


def pretty(f):
    """Canonical minimal-parenthesis rendering; parse(pretty(f)) == f.

    Iterative, so formulas of any depth print: the stack holds the text
    still to write, as strings and as (subformula, precedence of its
    context) pairs, the next piece on top.
    """
    out, todo = [], [(f, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, parent_prec = item
        k = g.kind
        if k == "var":
            out.append(f"p{g.args[0] + 1}")
        elif len(g.args) < 2:
            out.append(_SYM[k])
            if g.args:
                todo.append((g.args[0], _PREC[k]))
        else:
            l, r = g.args
            p = _PREC[k]
            lp, rp = (p + 1, p) if k == "imp" else (p, p + 1)
            if p < parent_prec:
                out.append("(")
                todo.append(")")
            todo += [(r, rp), _SYM[k], (l, lp)]
    return "".join(out)


# -- compiled programs ---------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """Straight-line program of a formula.

    code[i] is (op, a, b): ("var", index, None), ("top"|"bot", None, None),
    (unary op, slot, None) or (binary op, slot, slot), every slot an earlier
    instruction; the last instruction is the formula.  frees[i] lists the
    slots that instruction i reads last.

    What the propagation engine derives from the program alone is kept on
    it as cached properties, outside the dataclass fields, so equality and
    hashing ignore them.
    """

    code: tuple
    frees: tuple
    vars: tuple
    has_box: bool
    boxed_only: bool  # every variable occurrence is the child of a box

    @functools.cached_property
    def _reach(self):
        """The variables below each slot (a mask over variable indices) and
        the slot of each variable."""
        svars, var_slot = [], {}
        for s, (op, a, b) in enumerate(self.code):
            if op == "var":
                var_slot[a] = s
                svars.append(1 << a)
            elif a is None:
                svars.append(0)
            else:
                svars.append(svars[a] if b is None else svars[a] | svars[b])
        return svars, var_slot

    @functools.cached_property
    def _ground(self):
        """The slots without variables, ascending, as steps (slot, operation
        name, argument slots)."""
        svars = self._reach[0]
        return [(s, *ins) for s, (ins, vs) in enumerate(zip(self.code, svars))
                if not vs]

    @functools.cached_property
    def _pushed(self):
        """Each conjunct of a program without box, as its variables and its
        refuting branches fixed for every c (`_fixed`)."""
        code, svars, out = self.code, self._reach[0], []
        for s in _conjuncts(code, ("and",)):
            cvars = tuple(_bits(svars[s]))
            branches = _refuting_branches(code, s, None, lambda c, want: want)
            out.append((cvars, [_fixed(code, cvars, br) for br in branches]))
        return out

    @functools.cached_property
    def _plans(self):
        """The search plans built so far, by (variable order, leaf set)
        (`_plan`)."""
        return {}

    @functools.cached_property
    def _orders(self):
        """The greedy variable orders found so far, by leaf set and then by
        variables and domain sizes (`_CSP._order`)."""
        return {}

    @functools.cached_property
    def _unrefuted(self):
        """The unrefuted keys of a program without box (`_prop_search`)."""
        return set()


def compile_formula(f):
    """Compile f to a Program with one slot per distinct subterm.

    Both passes are iterative, so formulas of any depth compile: the first
    lists the nodes root first, right subtree before left, so that its
    reverse is the left-to-right post-order; the second emits that order
    with a stack of child slots, keying each slot by (op, child slots).
    The program is kept on f as a private attribute outside the dataclass
    fields, so equality and hashing ignore it, and each formula object is
    compiled once.
    """
    prog = getattr(f, "_program", None)
    if prog is not None:
        return prog
    order, todo = [], [f]
    while todo:
        g = todo.pop()
        order.append(g)
        if g.kind != "var":
            todo.extend(g.args)
    code, slot_of, slots = [], {}, []
    for g in reversed(order):
        kind, n = g.kind, len(g.args)
        if kind == "var":
            key = (kind, g.args[0], None)
        elif n == 2:
            b = slots.pop()
            key = (kind, slots.pop(), b)
        else:
            key = (kind, slots.pop() if n else None, None)
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(code)
            code.append(key)
        slots.append(slot)
    vars_, last, has_box = [], {}, False
    boxed_only = code[-1][0] != "var"
    for i, (op, a, b) in enumerate(code):
        if op == "var":
            vars_.append(a)
            continue
        has_box = has_box or op == "box"
        for j in (a, b):
            if j is not None:
                last[j] = i
                if op != "box" and code[j][0] == "var":
                    boxed_only = False
    frees = [()] * len(code)
    for j, i in last.items():
        frees[i] += (j,)
    prog = Program(tuple(code), tuple(frees), tuple(sorted(vars_)), has_box,
                   boxed_only)
    object.__setattr__(f, "_program", prog)  # f is frozen
    return prog


def run_program(prog, ops, cols):
    """Value of the program with the variables bound to the columns in cols.

    ops maps "top" and "bot" to values and every other op to a function,
    over single elements (`scalar_ops` of the algebra classes) or over the
    bit planes of many valuations at once (`_Frame.ops`).
    """
    vals = [None] * len(prog.code)
    for i, (op, a, b) in enumerate(prog.code):
        if op == "var":
            if a not in cols:
                raise UnboundVariable(a)
            vals[i] = cols[a]
        elif a is None:
            vals[i] = ops[op]
        elif b is None:
            vals[i] = ops[op](vals[a])
        else:
            vals[i] = ops[op](vals[a], vals[b])
        for j in prog.frees[i]:
            vals[j] = None
    return vals[-1]


def _has_box(algebra):
    """Does the algebra's `signature` have a box?  A box is the last unary
    operation of a signature that has one, by the signature's term order."""
    return algebra.signature[1][-1][0] == "box"


def _assertoric(prog, algebra):
    """NotAssertoric when prog has a box and the algebra has none
    (`_has_box`): a box needs an interior algebra."""
    if prog.has_box and not _has_box(algebra):
        raise NotAssertoric("box in a Heyting algebra")


def _ops_for(prog, algebra):
    """The algebra's `scalar_ops()`, once checked to hold every operation
    prog runs (`_assertoric`)."""
    _assertoric(prog, algebra)
    return algebra.scalar_ops()


def evaluate(f, algebra, valuation):
    """Value of f in a Heyting or an interior algebra at valuation, a map
    variable index -> element.

    f is compiled on its first evaluation; a caller evaluating one formula
    at many valuations saves the per-call set-up by calling `run_program`
    with its program and the algebra's `scalar_ops()`.
    """
    prog = compile_formula(f)
    return run_program(prog, _ops_for(prog, algebra), valuation)


# -- bit-sliced evaluation ------------------------------------------------------


class _Frame:
    """An algebra's dual frame, read for evaluating a program at many
    valuations at once (Biham's bit slicing over the frame).

    The points are the join-irreducibles of a Heyting algebra and the atoms
    of an interior algebra (`dual_frame`), and an element is the set of
    points below it.  A value at W valuations, the rows, is one W-bit int
    per point, its plane: bit r of the plane of p is set when p is below
    the value at row r.  And and or act plane by plane.  In a Heyting
    algebra x -> y holds p when ~x | y holds p and every point below p, so
    the planes go in the frame's order and each is met with those of the
    lower covers of its point; neg is x -> 0.  In an interior algebra imp
    and neg are Boolean, and box(x) holds a when x holds a and each
    successor of a.  A value is top at a row when all its planes hold it.

    Built once per algebra and kept on it (`_frame`), with the operations
    per row count and the planes of the variables per domain and variable
    count; filling either cache twice stores equal values, so the caches
    need no lock.
    """

    def __init__(self, algebra):
        self.masks, self.edges = algebra.dual_frame()
        self.points = len(self.edges)
        self.boolean = _has_box(algebra)
        self._ops, self._planes = {}, {}

    def planes(self, rows):
        """The planes of the value that takes each element e of the dict
        rows on the rows of the mask rows[e]."""
        planes = [0] * self.points
        for e, m in rows.items():
            for p in _bits(self.masks[e]):
                planes[p] |= m
        return planes

    def column(self, elems):
        """The planes of a column of elements, one row per element."""
        rows = {}
        for r, e in enumerate(elems):
            rows[e] = rows.get(e, 0) | 1 << r
        return self.planes(rows)

    def ops(self, width):
        """The operations over the planes of `width` rows, for
        `run_program`."""
        got = self._ops.get(width)
        if got is not None:
            return got
        ones, edges, n = (1 << width) - 1, self.edges, self.points

        def and_(x, y):
            return list(map(operator.and_, x, y))

        def or_(x, y):
            return list(map(operator.or_, x, y))

        got = {"top": [ones] * n, "bot": [0] * n, "and": and_, "or": or_}
        if self.boolean:
            def imp(x, y):
                return [(a ^ ones) | b for a, b in zip(x, y)]

            def neg(x):
                return [a ^ ones for a in x]

            def box(x):
                out = []
                for a, succ in zip(x, edges):
                    for b in succ:
                        a &= x[b]
                    out.append(a)
                return out

            got["box"] = box
        else:
            def below(d):
                # the points of d whose lower covers, all earlier, hold
                out = []
                for a, covers in zip(d, edges):
                    for q in covers:
                        a &= out[q]
                    out.append(a)
                return out

            def imp(x, y):
                return below([(a ^ ones) | b for a, b in zip(x, y)])

            def neg(x):
                return below([a ^ ones for a in x])

        got["imp"], got["neg"] = imp, neg
        return self._ops.setdefault(width, got)

    def digit_planes(self, domain, k):
        """The planes of k variables over the m**k rows of their valuations
        in `domain`, of size m: row r gives the pos-th variable the pos-th
        base-m digit of r, most significant first."""
        key = (domain if isinstance(domain, (range, tuple)) else tuple(domain),
               k)
        got = self._planes.get(key)
        if got is not None:
            return got
        m = len(domain)
        width = m ** k
        ones = (1 << width) - 1
        got = []
        for pos in range(k):
            run = m ** (k - 1 - pos)      # rows per digit
            period = run * m
            digit = []                    # the rows of each digit
            for d in range(m):
                x, length = ((1 << run) - 1) << (d * run), period
                while length < width:
                    x |= x << length
                    length *= 2
                digit.append(x & ones)
            got.append(self.planes(dict(zip(domain, digit))))
        return self._planes.setdefault(key, got)


def _frame(algebra):
    """The algebra's `_Frame`, built on first use and kept on it."""
    if algebra._frame is None:
        algebra._frame = _Frame(algebra)
    return algebra._frame


def _not_top(planes, ones):
    """The rows at which the value with these planes is not top."""
    return ones ^ functools.reduce(operator.and_, planes, ones)


def refuting_rows(prog, algebra, cols):
    """The rows at which prog is not top, as a bitmask, with each variable
    v bound to the column cols[v] of elements, the columns of equal
    length: one bit-sliced run of the program over all of them."""
    _assertoric(prog, algebra)
    frame = _frame(algebra)
    width = len(next(iter(cols.values()), ()))
    ones = (1 << width) - 1
    planes = {v: frame.column(col) for v, col in cols.items()}
    return _not_top(run_program(prog, frame.ops(width), planes), ones)


# valuations `first_refutation` evaluates one at a time before its batch;
# on the `modal` benchmark 2 was faster than 1 and than 4
_PROBE_ROWS = 2

# rows of a batch block are capped so that one value, a plane per point,
# holds at most this many bits
_BLOCK_BITS = 1 << 18


def first_refutation(prog, algebra, domain):
    """Lexicographically least valuation of prog.vars over domain whose value
    is not top, as {variable: element}, or None when there is none.

    Row r of the order is the valuation whose pos-th variable takes the
    pos-th base-len(domain) digit of r, most significant first.  The first
    `_PROBE_ROWS` rows are evaluated one at a time with the scalar
    operations; if none refutes, the rest are scanned by `_sliced_scan`,
    unless the probe has covered every row.
    """
    m, k = len(domain), len(prog.vars)
    rows = m ** k
    scalar = _ops_for(prog, algebra)
    for r in range(min(_PROBE_ROWS, rows)):
        valuation = _valuation(prog, domain, r)
        if run_program(prog, scalar, valuation) != algebra.top:
            return valuation
    if rows <= _PROBE_ROWS:
        return None
    r = _sliced_scan(prog, algebra, domain)
    return None if r is None else _valuation(prog, domain, r)


def _valuation(prog, domain, r):
    """The valuation at row r of the order of `first_refutation`."""
    m, values = len(domain), []
    for _ in prog.vars:
        r, d = divmod(r, m)
        values.append(domain[d])
    return dict(zip(prog.vars, reversed(values)))


def _sliced_scan(prog, algebra, domain):
    """The least row of the order of `first_refutation` at which prog is
    not top, or None: the rows in order, in blocks of m**j rows for the
    greatest j <= k whose block keeps a value within `_BLOCK_BITS` bits.
    In a block the last j variables take the planes of `digit_planes`, and
    the first k - j are constant, so the least refuting row is the lowest
    bit of the first block that has one."""
    frame = _frame(algebra)
    m, k = len(domain), len(prog.vars)
    j = k
    while j and m ** j * frame.points > _BLOCK_BITS:
        j -= 1
    width = m ** j
    ones = (1 << width) - 1
    ops, low = frame.ops(width), frame.digit_planes(domain, j)
    high = [frame.planes({e: ones}) for e in domain] if j < k else []
    for block, digits in enumerate(itertools.product(range(m), repeat=k - j)):
        planes = [high[d] for d in digits] + low
        bad = _not_top(run_program(prog, ops, dict(zip(prog.vars, planes))),
                       ones)
        if bad:
            return block * width + (bad & -bad).bit_length() - 1
    return None


# -- engine limits ------------------------------------------------------------


# the naive engine's variable cap and its budget of cells, valuations times
# variables
NAIVE_MAX_VARS = 6
NAIVE_BUDGET = 4_000_000
# the propagation engine's default variable cap (`is_valid`'s max_vars)
PROP_MAX_VARS = 12


# -- naive engine -------------------------------------------------------------


def _naive_domain(algebra, prog):
    """The values the naive engine tries for each variable: the opens when
    every variable occurs boxed, as only their open values matter (every
    open o is the least mask whose interior is o, so the least refuting
    open tuple is the least refuting one), else the carrier."""
    boxed = prog.has_box and prog.boxed_only
    return algebra.opens if boxed else range(algebra.size)


def _naive_search(algebra, prog):
    """Enumeration of all valuations over `_naive_domain` by
    `first_refutation`; returns (valid, witness).  SizeLimit is raised,
    before any valuation is evaluated, when the cells of the valuations,
    valuations times variables, exceed `NAIVE_BUDGET`."""
    _assertoric(prog, algebra)
    domain = _naive_domain(algebra, prog)
    k = len(prog.vars)
    total = len(domain) ** k
    if total * max(1, k) > NAIVE_BUDGET:
        raise SizeLimit(f"naive search needs {total} valuations")
    witness = first_refutation(prog, algebra, domain)
    return witness is None, witness


# -- propagation engine -------------------------------------------------------
#
# The engine reads only the program of a formula.  A constraint is a pair
# (slot, accept): the value of that slot must be an element whose bit is
# set in the mask accept.  A constraint on a variable slot is a domain.

_BRANCH_CAP = 128


def _plan(prog, order, leaves):
    """Search plan for a variable order and a frozenset of leaf slots:
    (levels, ground leaves), built once per program and pair and kept on
    the program (`Program._plans`), as it reads no algebra.

    A leaf is checked at the depth that assigns the last of its variables.
    levels[i] is (variable, its slot or None, pre steps, [(steps, leaf
    slot)]) for depth i, the leaves by ascending slot.  The pre steps
    compute, once per node and before any value of the variable is tried,
    the slots that the leaves of depth i read, that do not depend on the
    variable and that no shallower depth computes.  The steps of a check
    compute every slot of its leaf's sub-program that depends on the
    variable, so no check reads a slot that another check of its depth
    computes, and the checks of a depth may run in any order.  A step is
    (slot, operation name, argument slots); steps go by ascending slot, and
    a search runs each by looking its name up in its own algebra's
    operations.  The ground leaves are those without variables.
    """
    plans = prog._plans
    key = (order, leaves)
    got = plans.get(key)
    if got is not None:
        return got
    code = prog.code
    svars, var_slot = prog._reach
    pos = {v: i for i, v in enumerate(order)}
    at_depth, ground = [[] for _ in order], []
    for s in sorted(leaves):
        d = max((pos[u] for u in _bits(svars[s])), default=-1)
        (ground if d < 0 else at_depth[d]).append(s)
    levels, done = [], set()  # slots that earlier steps compute
    for x, here in zip(order, at_depth):
        pre, checks, owns = [], [], []
        for s in here:
            own, todo = set(), [s]
            while todo:
                t = todo.pop()
                op, a, b = code[t]
                if t in own or t in done or op == "var" or not svars[t]:
                    continue
                if svars[t] >> x & 1:
                    own.add(t)
                else:
                    pre.append(t)
                    done.add(t)
                todo += (a,) if b is None else (a, b)
            checks.append(([(t, *code[t]) for t in sorted(own)], s))
            owns.append(own)
        done.update(*owns)
        levels.append((x, var_slot.get(x),
                       [(t, *code[t]) for t in sorted(pre)], checks))
    got = plans[key] = (levels, ground)
    return got


class _Slots:
    """A program read in one algebra: its scalar operations, the value of
    each slot without variables (None for the others) and the up-sets that
    accept masks are made of.  The variables below each slot (`svars`), the
    slot of each variable (`var_slot`) and the list of the slots without
    variables read no algebra; they are the program's cached properties,
    computed once per program."""

    def __init__(self, algebra, prog):
        self.algebra, self.prog = algebra, prog
        self.ops = ops = _ops_for(prog, algebra)
        self.full = (1 << algebra.size) - 1
        self.svars, self.var_slot = prog._reach
        ground = [None] * len(prog.code)
        for s, op, a, b in prog._ground:
            if a is None:
                ground[s] = ops[op]
            elif b is None:
                ground[s] = ops[op](ground[a])
            else:
                ground[s] = ops[op](ground[a], ground[b])
        self.ground = ground
        self._ups = {}

    def accept(self, c, want):
        """Mask of the elements e with (c <= e) == want."""
        up = self._ups.get(c)
        if up is None:
            alg = self.algebra
            up = self._ups[c] = sum(1 << e for e in range(alg.size)
                                    if alg.leq(c, e))
        return up if want else self.full & ~up


def _push(code, s, c, want, accept, box_floor=None):
    """Branches of constraints forcing c <= v(s) (want=True) or not, for c
    join-irreducible; a constraint on a slot t is (t, accept(c, want)).

    An empty list of branches means the requirement is unsatisfiable, a
    branch [] means it holds vacuously.  A conjunction, a disjunction or a
    box splits into parts whose branches combine (all parts, or any one);
    a split that would give more than _BRANCH_CAP branches is kept as one
    constraint on its own slot.  The parts are pushed depth first from an
    explicit stack of frames [slot, c, all parts?, parts left, branches so
    far], so formulas of any depth push.

    Only a box changes c, to the atoms of box_floor(c), and accept(c, want)
    is never empty, as c is never 0.  So without a box the branches depend
    on c only through accept: pushed with accept(c, want) = want, they hold
    (slot, want) pairs that serve every c.
    """
    stack = []
    while True:
        op, a, b = code[s]
        if op == "and" or op == "or":
            every = (op == "and") == want
            stack.append([s, c, every, [(b, c)], [[]] if every else []])
            s = a
            continue
        if op == "box":
            # c <= box(x) iff the least open above c is below x, i.e. iff
            # each of its atoms is; descending by atoms keeps c join-prime
            # (c is never 0, so there is at least one atom)
            parts = [(a, 1 << i) for i in _bits(box_floor(c))]
            stack.append([s, c, want, parts[:0:-1], [[]] if want else []])
            s, c = parts[0]
            continue
        if op == "top":
            got = [[]] if want else []
        elif op == "bot":
            got = [] if want else [[]]
        else:
            got = [[(s, accept(c, want))]]
        # combine got into the frames it completes, up to one with a part
        # left to push
        while stack:
            frame = stack[-1]
            fs, fc, every, left, out = frame
            size = len(out) * len(got) if every else len(out) + len(got)
            if size > _BRANCH_CAP:
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


def _refuting_branches(code, s, c, accept, box_floor=None):
    """`_push` branches whose solutions refute the conjunct s at c: c below
    the left side of an implication and not below its right side, or c not
    below s."""
    op, a, b = code[s]
    if op != "imp":
        return _push(code, s, c, False, accept, box_floor)
    right = _push(code, b, c, False, accept, box_floor)
    return [bl + br for bl in _push(code, a, c, True, accept, box_floor)
            for br in right]


def _fixed(code, cvars, branch):
    """A branch of (slot, want) pairs of a program without box, read once
    for every c: (the leaf slots, that is the constrained slots that are not
    variables, as a frozenset; those slots grouped by want code; the want
    code of each variable of cvars).  A want code is 0 for not below c, 1
    for below c, 2 for both, which no element satisfies, and 3 for a
    variable left free."""
    wants = {}
    for t, want in branch:
        w = int(want)
        wants[t] = w if wants.get(t, w) == w else 2
    groups, var_wants = ([], [], []), {}
    for t, w in wants.items():
        op, x, _ = code[t]
        if op == "var":
            var_wants[x] = w
        else:
            groups[w].append(t)
    return (frozenset().union(*groups), groups,
            tuple(var_wants.get(v, 3) for v in cvars))


def _conjuncts(code, through):
    """Distinct slots below the root through the ops in through, left to
    right."""
    out, seen, todo = [], set(), [len(code) - 1]
    while todo:
        s = todo.pop()
        op, a, b = code[s]
        if op in through:
            todo.extend(j for j in (b, a) if j is not None)
        elif s not in seen:
            seen.add(s)
            out.append(s)
    return out


class _CSP:
    """Forward-checking DFS with a constraint-closing variable order.

    Variables are ordered greedily so that each assignment completes as many
    leaf constraints as possible; on diagram-shaped formulas this makes the
    tables propagate values instead of being checked at the leaves.  At each
    node the slots of the depth's leaves that do not depend on the depth's
    variable are computed once, before its values are tried; each leaf
    check then computes its own slots that depend on the variable, so the
    checks of a depth do not depend on each other.  A value passes iff every
    check accepts it, whatever their order, so a check that fails moves to
    the front of its depth: later values try first the check most likely
    to reject them.  The search tree, the solutions and their order do not
    depend on the order of the checks; only the checks run per value do.
    One search finds the least solution, with a cut (`solve`).

    The plan of the search depends only on the program, the variable order
    and the set of leaf slots, so it is built once per program and such
    pair and kept on the program (`_plan`), for every algebra; `solve` runs
    each step by looking its operation name up in the scalar operations of
    its own `_Slots`.  A CSP adds its own accept masks, and its own check
    order per depth.  The frozenset of its leaf slots keys both the order
    and the plan; for a program without box it is fixed once per refuting
    branch, on the program (`_pushed`).
    """

    def __init__(self, slots, vars_, domains, leafs, leaves, sizes):
        """A search over the variables vars_: domains maps each to the
        ascending list of its values, leafs maps each leaf slot to its
        accept mask, leaves is the frozenset of the leaf slots and sizes the
        domain size of each variable as the variable order reads it."""
        self.slots = slots
        self.vars = list(vars_)
        self.domains, self.leafs = domains, leafs
        self.leaves, self.sizes = leaves, sizes
        self.feasible = all(domains.values()) and all(leafs.values())
        self._levels = None

    @classmethod
    def of_constraints(cls, slots, vars_, constraints):
        """The CSP of a list of constraints (slot, accept): those on a slot
        are conjoined, and those on a variable slot make its domain."""
        domains = {v: list(range(slots.algebra.size)) for v in vars_}
        leafs = {}  # slot -> accept mask, constraints on it conjoined
        code = slots.prog.code
        for s, accept in constraints:
            op, x, _ = code[s]
            if op == "var":
                domains[x] = [e for e in domains[x] if accept >> e & 1]
            else:
                leafs[s] = leafs.get(s, -1) & accept
        return cls(slots, vars_, domains, leafs, frozenset(leafs),
                   tuple(len(domains[v]) for v in vars_))

    def _order(self):
        """Greedy variable order: next the variable that is the last open
        one of the most leaves, then the one with the least domain, then the
        least index.  The leaves are counted by their masks of open
        variables.  The order reads only the leaf set, the variables and
        their domain sizes (`sizes`, which for domains cut to class
        representatives are those of the full domains), so it is kept on
        the program, by leaf set first and then by variables and sizes."""
        leaves, sizes = self.leaves, self.sizes
        orders = self.slots.prog._orders
        by_vars = orders.get(leaves)
        if by_vars is None:
            by_vars = orders[leaves] = {}
        key = (tuple(self.vars), sizes)
        got = by_vars.get(key)
        if got is not None:
            return got
        size = dict(zip(self.vars, sizes))
        open_masks = Counter(self.slots.svars[s] for s in leaves)
        remaining, order = set(self.vars), []
        while remaining:
            pick = min(remaining, key=lambda v: (-open_masks[1 << v],
                                                 size[v], v))
            order.append(pick)
            remaining.discard(pick)
            keep, left = ~(1 << pick), Counter()
            for m, n in open_masks.items():
                left[m & keep] += n
            open_masks = left
        got = by_vars[key] = tuple(order)
        return got

    def _prepare(self):
        if self._levels is not None:
            return
        leafs, leaves = self.leafs, self.leaves
        levels, ground = _plan(self.slots.prog, self._order(), leaves)
        self._ground_ok = all(leafs[s] >> self.slots.ground[s] & 1
                              for s in ground)
        self._levels = [(x, xs, pre,
                         [(steps, s, leafs[s]) for steps, s in checks])
                        for x, xs, pre, checks in levels]

    def solve(self, collect=None):
        """The least solution by ascending variable index (dict) or None;
        with collect a list, every solution into it, with no cut.

        The search keeps the last solution found.  A value tried is cut,
        with the larger ones at its depth, if the first variable by index
        that is unassigned or differs from that solution is assigned and
        larger: no completion is smaller.  So each solution found is
        smaller than the one before, and the last is the least."""
        if not self.feasible:
            return None
        self._prepare()
        if not self._ground_ok:
            return None
        domains, levels, ops = self.domains, self._levels, self.slots.ops
        names = sorted(self.vars)
        vals = list(self.slots.ground)
        assignment, best = {}, None

        def rec(i):
            nonlocal best
            if i == len(levels):
                if collect is not None:
                    collect.append(dict(assignment))
                else:
                    best = dict(assignment)
                return
            x, xs, pre, checks = levels[i]
            for t, op, a, b in pre:
                vals[t] = (ops[op](vals[a]) if b is None
                           else ops[op](vals[a], vals[b]))
            for e in domains[x]:
                assignment[x] = e
                if best is not None:
                    for v in names:
                        got = assignment.get(v)
                        if got != best[v]:
                            break
                    if got is not None and got > best[v]:
                        break
                if xs is not None:
                    vals[xs] = e
                for k, (steps, s, accept) in enumerate(checks):
                    for t, op, a, b in steps:
                        vals[t] = (ops[op](vals[a]) if b is None
                                   else ops[op](vals[a], vals[b]))
                    if not accept >> vals[s] & 1:
                        if k:
                            checks.insert(0, checks.pop(k))
                        break
                else:
                    rec(i + 1)
            assignment.pop(x, None)

        try:
            rec(0)
        finally:
            del rec  # rec refers to itself; free vals now, not at the next GC
        return best


def _refuting_tasks(slots, ji=None):
    """The CSPs whose solutions are exactly the refutations of the program
    at the join-irreducibles c in ji (by default every one, ascending): for
    each conjunct, in program order, and each c of ji, in order, one CSP per
    refuting branch (see `_refuting_branches`).

    A box moves c, so a program with box pushes each conjunct for each c.
    A program without box pushes each conjunct once (`_pushed`), and each c
    fills in the masks accept(c, want) and the domains of the variables.
    There c is read only through c <= v(s), that is v(s) & c == c, and
    x -> x & c is a homomorphism onto the algebra below c, which is the
    s.i. quotient of the algebra by the filter above c.  So the outcome of
    a task depends only on the class of each variable's value under it, and
    each variable takes only the least element of each class.  A solution
    with each value replaced by the least element of its class is a
    solution no larger componentwise, so the least solution and the least
    witness are those over the full domains.  The variable order reads the
    sizes of the full domains, so the search is the one over the full
    domains with the other members of each class cut off.
    """
    prog, alg, svars = slots.prog, slots.algebra, slots.svars
    if ji is None:
        ji = sorted(alg.join_irreducibles())
    tasks = []
    if prog.has_box:
        for s in _conjuncts(prog.code, ("and",)):
            cvars = tuple(_bits(svars[s]))
            for c in ji:
                tasks += [_CSP.of_constraints(slots, cvars, br)
                          for br in _refuting_branches(
                              prog.code, s, c, slots.accept, alg.box_floor)]
        return tasks
    # per c, by want code (see `_fixed`): accept masks, domains and the
    # sizes of the full domains
    meet, n, per_c = slots.ops["and"], alg.size, []
    for c in ji:
        accepts = (slots.accept(c, False), slots.accept(c, True), 0)
        reps = sum(1 << x for x in _classes([meet(x, c) for x in range(n)])[1])
        per_c.append((accepts,
                      [list(_bits(m & reps)) for m in accepts]
                      + [list(_bits(reps))],
                      [m.bit_count() for m in accepts] + [n]))
    for cvars, branches in prog._pushed:
        for accepts, domains, sizes in per_c:
            for leaves, groups, codes in branches:
                leafs = {}
                for ts, m in zip(groups, accepts):
                    leafs.update(dict.fromkeys(ts, m))
                tasks.append(_CSP(
                    slots, cvars,
                    {v: domains[w] for v, w in zip(cvars, codes)}, leafs,
                    leaves, tuple(sizes[w] for w in codes)))
    return tasks


# a c is looked up in, and added to, a program's set of unrefuted keys only
# when the order below c has at most this many elements: the worst
# `canonical_key` over `all_algebras(n)` takes about 1.5 ms at n = 12,
# 3.5 ms at 14, 40 ms at 15 and 8.5 s (B(4)) at 16 on a 2-core Xeon
_MEMO_MAX = 12


@functools.lru_cache(maxsize=None)
def _chain_key(n):
    """The `canonical_key` of the n-element chain."""
    return canonical_key(Poset._trusted([(1 << n) - (1 << i)
                                         for i in range(n)]))


def _down_key(algebra, c):
    """The `canonical_key` of the order below the join-irreducible c, which
    is that of the s.i. quotient by the filter above c, read off the up
    masks restricted to the down-set of c (`_sub_order`); None when it has
    more than _MEMO_MAX elements.  An order whose elements have 1, 2, ...,
    n elements above them is the n-element chain.  The c of an interior
    algebra is an atom, so its down-set is the two-element chain."""
    down = getattr(algebra, "down", None)
    if down is None:
        return _chain_key(2)
    d = down[c]
    n = d.bit_count()
    if n > _MEMO_MAX:
        return None
    ups = _sub_order(algebra.up, d)
    if sorted(m.bit_count() for m in ups) == list(range(1, n + 1)):
        return _chain_key(n)
    return canonical_key(Poset._trusted(ups))


def _prop_search(algebra, prog):
    """Propagation engine; returns (valid, lex-least witness or None).

    The tasks run c by c; the least witness is the least over all tasks, so
    the order does not change it.  A program without box keeps the set of
    unrefuted keys, the `_down_key`s of the c's none of whose tasks has a
    solution, and skips every c whose key is in it, in this and any later
    search.  That is exact: the tasks at c read each value only through
    x -> x & c, a homomorphism onto the algebra below c, so they have a
    solution iff that algebra has a valuation making some conjunct's left
    side top and its right side not (or, for a conjunct that is no
    implication, the conjunct not top), which depends only on its
    isomorphism class; and a skipped c, whose tasks have no solution, adds
    no witness.  A program with box moves c and neither reads nor fills
    the set.
    """
    ji = sorted(algebra.join_irreducibles())
    if prog.has_box:
        unrefuted, keys = frozenset(), [None]
        groups = [ji]
    else:
        unrefuted = prog._unrefuted
        keys = [_down_key(algebra, c) for c in ji]
        if all(key in unrefuted for key in keys):
            return True, None
        groups = [[c] for c in ji]
    slots, best = _Slots(algebra, prog), None
    for key, cs in zip(keys, groups):
        if key in unrefuted:
            continue
        refuted = False
        for csp in _refuting_tasks(slots, cs):
            sol = csp.solve()
            if sol is None:
                continue
            refuted = True
            full = tuple(sol.get(v, 0) for v in prog.vars)
            if best is None or full < best:
                best = full
        if not refuted and key is not None:
            unrefuted.add(key)
    if best is None:
        return True, None
    return False, dict(zip(prog.vars, best))


def enumerate_top_valuations(algebra, f, vars_=None):
    """All valuations making f equal top, in lexicographic order.

    Used to enumerate satisfying tuples of rigid conjunctive formulas
    without scanning the full product space: the conjuncts, below boxes
    too, must each be top.
    """
    slots = _Slots(algebra, compile_formula(f))
    if vars_ is None:
        vars_ = slots.prog.vars
    top = 1 << algebra.top
    csp = _CSP.of_constraints(slots, vars_, [
        (s, top) for s in _conjuncts(slots.prog.code, ("and", "box"))])
    found = []
    csp.solve(collect=found)
    return sorted(tuple(sol[v] for v in vars_) for sol in found)


# -- public validity API ------------------------------------------------------


def is_valid(algebra, f, engine="auto", max_vars=PROP_MAX_VARS):
    """Validity of a formula in a Heyting algebra or, box allowed, in an
    interior algebra; a box in a Heyting algebra raises NotAssertoric.

    Returns (verdict, counter-valuation or None); the counter-valuation is
    the lexicographically least refuting map variable -> element index.
    engine is one of auto, naive, propagate, both.  auto runs the naive
    engine within its budget, else the propagation engine on at most
    max_vars variables, else raises SizeLimit.
    """
    prog = compile_formula(f)
    if engine == "auto":
        _assertoric(prog, algebra)  # before the box-aware sizing
        k = len(prog.vars)
        m = len(_naive_domain(algebra, prog))
        cells = m ** min(k, NAIVE_MAX_VARS + 1) * max(1, k)
        if k <= NAIVE_MAX_VARS and cells <= NAIVE_BUDGET:
            engine = "naive"
        elif k <= max_vars:
            engine = "propagate"
        else:
            raise SizeLimit(f"{k} variables exceed both engine budgets")
    if engine == "naive":
        return _naive_search(algebra, prog)
    if engine == "propagate":
        return _prop_search(algebra, prog)
    if engine == "both":
        rn = _naive_search(algebra, prog)
        rp = _prop_search(algebra, prog)
        if rn != rp:
            raise AssertionError(f"engines disagree: naive={rn} propagate={rp}")
        return rn
    raise ValueError(f"unknown engine {engine!r}")


def consequence_refute(premises, conclusion, corpus):
    """First corpus algebra validating all premises and refuting the
    conclusion, or None.  None only means: no witness in this corpus."""
    for algebra in corpus:
        if all(is_valid(algebra, p)[0] for p in premises):
            if not is_valid(algebra, conclusion)[0]:
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
