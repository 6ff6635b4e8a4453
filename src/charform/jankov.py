"""Diagram, Jankov, de Jongh-style and characteristic formulas.

The diagram of a finite Heyting or interior algebra writes out the
operation tables of its `signature` as one big conjunction of
biconditionals; the Jankov formula is the diagram implying the variable of
the opremum.  Characteristic formulas generalize this to an arbitrary
finite presentation of the algebra.
"""

from __future__ import annotations

from .algebra import is_si, opremum
from .formula import Formula, _has_box, and_, conj, iff, imp, neg, var


class NotSI(ValueError):
    pass


class NotGenerated(ValueError):
    pass


def _diagram_conjuncts(algebra, term):
    """One biconditional op(term[x], term[y]) <-> term[op(x, y)] per entry
    of the algebra's operation tables, read from its `signature`: each
    binary operation row by row, then each unary one, in signature order."""
    binary, unary = algebra.signature
    every = range(algebra.size)
    for kind, row, _ in binary:
        for x in every:
            tx = term[x]
            for y, z in zip(every, row(algebra, x, every)):
                yield iff(Formula(kind, (tx, term[y])), term[z])
    for kind, op in unary:
        for x in every:
            yield iff(Formula(kind, (term[x],)), term[op(algebra, x)])


def diagram_formula(algebra):
    """Diagram of the algebra and its identity valuation.

    One conjunct per table entry (`_diagram_conjuncts` over the variables):
    3n^2 + n for a Heyting algebra, 3n^2 + 2n with box for an interior one.
    """
    n = algebra.size
    return (conj(_diagram_conjuncts(algebra, [var(x) for x in range(n)])),
            {x: x for x in range(n)})


def jankov_formula(algebra):
    """Diagram implying the opremum's variable; requires a s.i. algebra."""
    if not is_si(algebra):
        raise NotSI("Jankov formula needs a subdirectly irreducible algebra")
    d, _ = diagram_formula(algebra)
    return imp(d, var(opremum(algebra)))


def generation_steps(algebra, gens, want=None):
    """How the generators reach each element, breadth-first.

    gens is a sequence of (variable index, element) pairs; algebra is a
    Heyting or an interior algebra, searched through its `signature`.
    Returns a dict, in discovery order, from each element reached to its
    step: ("var", v) for a generator (the first variable naming it), or
    (op, x) or (op, x, y) with operands reached at an earlier depth, the
    greatest of them one depth below.  Ties are broken by connective order
    and < or < imp < neg < box, then by operand discovery order.  With want
    given, the search stops after the depth at which want is reached.
    """
    steps = {}
    for v, e in gens:
        steps.setdefault(e, ("var", v))
    order = list(steps)
    binary, unary = algebra.signature
    start = 0  # order[start:] are the elements of the greatest depth
    while want not in steps:
        items = list(order)
        last = items[start:]
        new = []
        # a new element has an operand of the greatest depth
        for kind, row, _ in binary:
            for i, x in enumerate(items):
                ys = items if i >= start else last
                for y, z in zip(ys, row(algebra, x, ys)):
                    if z not in steps:
                        steps[z] = (kind, x, y)
                        new.append(z)
        for kind, op in unary:
            for x in last:
                z = op(algebra, x)
                if z not in steps:
                    steps[z] = (kind, x)
                    new.append(z)
        if not new:
            break
        start = len(order)
        order.extend(new)
    return steps


def terms_for_all(algebra, gens, want=None):
    """Minimal-depth defining term for every generated element: the terms
    of the steps of `generation_steps`, with the same arguments."""
    known = {}
    for z, (kind, *args) in generation_steps(algebra, gens, want).items():
        known[z] = (var(args[0]) if kind == "var"
                    else Formula(kind, tuple(known[x] for x in args)))
    return known


def term_for_element(algebra, gens, target):
    """A minimal-depth term over the generator variables reaching target."""
    known = terms_for_all(algebra, gens, want=target)
    if target not in known:
        raise NotGenerated(f"element {target} is not generated")
    return known[target]


def dejongh_formula(algebra):
    """Reduced-diagram variant over the join-irreducible generators.

    Generators are the join-irreducible elements distinct from top (bottom
    is excluded as the empty join); every element is replaced by a defining
    term.  Distinct elements have distinct terms, as the terms take their
    elements' values at the generators, so no conjunct repeats.
    """
    if not is_si(algebra):
        raise NotSI("de Jongh formula needs a subdirectly irreducible algebra")
    gens = [x for x in algebra.join_irreducibles() if x != algebra.top]
    if not gens:
        # the two-element algebra has no generators below top; its
        # characteristic formula is the contradiction
        return and_(var(0), neg(var(0)))
    # the join-irreducibles generate every element, as joins
    terms = terms_for_all(algebra, list(enumerate(gens)))
    return imp(conj(_diagram_conjuncts(algebra, terms)),
               terms[opremum(algebra)])


def characteristic_formula(presentation):
    """A(p) -> B(p) where B defines the opremum through the presentation:
    of a Heyting target, or the greatest open element below top of an
    interior one (`InteriorAlgebra.opremum_open`).

    The presentation must target a s.i. algebra whose generators are the
    valuation image.
    """
    target = presentation.target
    op = target.opremum_open() if _has_box(target) else opremum(target)
    if op is None:
        raise NotSI("characteristic formula needs a s.i. target")
    gens = sorted(presentation.valuation.items())
    b = term_for_element(target, gens, op)
    return imp(presentation.formula, b)
