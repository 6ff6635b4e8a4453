"""Diagram, Jankov, de Jongh-style and characteristic formulas.

The diagram of a finite Heyting or interior algebra writes out the
operation tables of its `signature` as one big conjunction of
biconditionals.  Every characteristic formula, of either kind, is
box(A) -> B or A -> B with B the term of the opremum (`_characteristic`):
A is the diagram in the Jankov formula, the diagram over the terms of the
join-irreducibles in the de Jongh one, a presentation's formula in
`characteristic_formula`.
"""

from __future__ import annotations

from .formula import Formula, _has_box, and_, box, conj, iff, imp, neg, var


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


def _characteristic(formula, target, gens, connective, terms=None):
    """box(formula) -> B ("box-imp") or formula -> B ("imp"), B the term
    over gens, (variable, element) pairs, of the target's opremum (`NotSI`
    if none); a Heyting target has no box, so both give formula -> B.
    `terms`, when given, is `terms_for_all` over the same generators, and
    B is read from it."""
    if connective not in ("box-imp", "imp"):
        raise ValueError(f"unknown connective {connective!r}")
    op = target.opremum()
    if op is None:
        raise NotSI("characteristic formula needs a subdirectly irreducible "
                    "algebra")
    if connective == "box-imp" and _has_box(target):
        formula = box(formula)
    return imp(formula, terms[op] if terms is not None
               else term_for_element(target, gens, op))


def jankov_formula(algebra):
    """Characteristic formula of the diagram; requires a s.i. algebra."""
    d, val = diagram_formula(algebra)
    return _characteristic(d, algebra, val.items(), "box-imp")


def generation_steps(algebra, gens, want=None):
    """How the generators reach each element, breadth-first.

    gens is a sequence of (variable index, element) pairs; algebra is a
    Heyting or an interior algebra, searched through its `signature`.
    Returns a dict, in discovery order, from each element reached to its
    step: ("var", v) for a generator (the first variable naming it),
    ("bot",) and ("top",) for the constants when there are no generators,
    or (op, x) or (op, x, y) with operands reached at an earlier depth, the
    greatest of them one depth below.  Ties are broken by connective order
    and < or < imp < neg < box, then by operand discovery order.  With want
    given, the search stops after the depth at which want is reached.
    """
    steps = {}
    for v, e in gens:
        steps.setdefault(e, ("var", v))
    if not steps:  # the empty set generates bottom and top
        steps = {algebra.bottom: ("bot",), algebra.top: ("top",)}
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
    if algebra.size == 2:
        # the two-element algebra has no generators below top; its
        # characteristic formula is the contradiction
        return and_(var(0), neg(var(0)))
    gens = list(enumerate(x for x in algebra.join_irreducibles()
                          if x != algebra.top))
    # the join-irreducibles generate every element, as joins; the search
    # with no element wanted reaches each one's term as the search for it
    # alone would, so the opremum's term is read from the same terms
    terms = terms_for_all(algebra, gens)
    return _characteristic(conj(_diagram_conjuncts(algebra, terms)), algebra,
                           gens, "box-imp", terms)


def characteristic_formula(presentation, connective="box-imp"):
    """`_characteristic` of the presentation's formula, target and
    valuation, its generators being the valuation image."""
    return _characteristic(presentation.formula, presentation.target,
                           sorted(presentation.valuation.items()), connective)
