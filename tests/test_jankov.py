import pytest

from charform.algebra import concat, homomorphism_search, in_sh
from charform.catalog import all_algebras, si_algebras
from charform.formula import (BOT, TOP, evaluate, is_valid, pretty, var,
                              variables)
from charform.jankov import (NotGenerated, NotSI, characteristic_formula,
                             dejongh_formula, diagram_formula, jankov_formula,
                             term_for_element, terms_for_all)
from charform.modal import open_generated, quotient_by_open, span
from charform.presentation import (Presentation, diagram_presentation,
                                   zprime_presentation)
from charform.rn import boolean, rn_algebra, trunc_zprime


def _conjuncts(f):
    """The conjuncts of f, left to right."""
    if f.kind == "and":
        return _conjuncts(f.args[0]) + _conjuncts(f.args[1])
    return [f]


def test_diagram_conjunct_count():
    for n in (2, 3, 4):
        a = rn_algebra(n)
        d, _ = diagram_formula(a)
        # each of the 3n^2 + n biconditionals expands to two implications
        assert len(_conjuncts(d)) == 2 * (3 * n * n + n)


def test_diagram_formula_matches_oracles(all6, diagram_oracle,
                                         modal_diagram_oracle):
    # the one generator against the old Heyting and interior table loops,
    # on all_algebras(6), their spans, open-generated parts and quotients
    # by open elements
    interior = 0
    for a in all6:
        assert diagram_formula(a) == diagram_oracle(a)
        s, _ = span(a)
        for b in [s, open_generated(s)] + [quotient_by_open(s, o)
                                           for o in s.opens]:
            assert diagram_formula(b) == modal_diagram_oracle(b)
            interior += 1
    assert interior > 2 * len(all6)


def test_dejongh_formula_matches_oracle(dejongh_oracle):
    for a in si_algebras(10):
        assert dejongh_formula(a) == dejongh_oracle(a)


def test_jankov_formula_matches_oracle(jankov_oracle):
    for a in si_algebras(10):
        assert jankov_formula(a) == jankov_oracle(a)


def test_diagram_identity_valuation(si6):
    for a in si6:
        d, v = diagram_formula(a)
        assert evaluate(d, a, v) == a.top


def test_diagram_top_iff_homomorphism(all6):
    # a valuation satisfies the diagram exactly when it is a homomorphism
    for n in (2, 3):
        a = rn_algebra(n)
        d, _ = diagram_formula(a)
        for b in [x for x in all6 if x.size <= 4]:
            homs = {h.map for h in homomorphism_search(a, b)}
            import itertools
            for tup in itertools.product(range(b.size), repeat=n):
                val = evaluate(d, b, dict(enumerate(tup)))
                assert (val == b.top) == (tup in homs)


def test_jankov_self_refutation(si6):
    for a in si6:
        chi = jankov_formula(a)
        ok, w = is_valid(a, chi)
        assert not ok
        assert w == {i: i for i in range(a.size)}


def test_jankov_requires_si():
    with pytest.raises(NotSI):
        jankov_formula(boolean(2))


def test_jankov_iff_sub_hom_small(si6, all6):
    for a in [x for x in si6 if x.size <= 4]:
        chi = jankov_formula(a)
        for b in all6:
            assert (not is_valid(b, chi)[0]) == in_sh(a, b)[0]


def test_antichain_member_pair():
    a = concat(concat(rn_algebra(6), rn_algebra(2)), rn_algebra(2))
    b = concat(concat(rn_algebra(8), rn_algebra(2)), rn_algebra(2))
    assert is_valid(b, jankov_formula(a), engine="propagate")[0]
    assert not in_sh(a, b)[0]


def test_term_for_element_examples():
    a = rn_algebra(3)
    g = a.element_by_label("g")
    assert term_for_element(a, [(0, g)], g) == var(0)
    # in the chain the negation is already bottom, one level earlier
    assert pretty(term_for_element(a, [(0, g)], a.bottom)) == "~p1"
    sq = boolean(2)
    atom = sq.join_irreducibles()[0]
    assert pretty(term_for_element(sq, [(0, atom)], sq.bottom)) == "p1 & ~p1"
    zp = trunc_zprime(12)
    gens = [(0, zp.element_by_label("a")), (1, zp.element_by_label("b"))]
    t = term_for_element(zp, gens, zp.opremum())
    assert pretty(t) == "p2 | (p2 -> p1)"
    assert evaluate(t, zp, dict(gens)) == zp.opremum()
    with pytest.raises(NotGenerated):
        # the second generator itself is outside the subalgebra of the first
        term_for_element(zp, gens[:1], zp.element_by_label("b"))


def test_terms_for_all_cover():
    a = rn_algebra(5)
    g = a.element_by_label("g")
    terms = terms_for_all(a, [(0, g)])
    assert set(terms) == set(range(a.size))
    for e, t in terms.items():
        assert evaluate(t, a, {0: g}) == e


def test_dejongh_variable_counts():
    assert len(variables(dejongh_formula(rn_algebra(3)))) == 1
    assert len(variables(jankov_formula(rn_algebra(3)))) == 3
    assert pretty(dejongh_formula(rn_algebra(2))) == "p1 & ~p1"


def test_dejongh_self_refutation(si6):
    for a in si6:
        assert not is_valid(a, dejongh_formula(a))[0]


def test_dejongh_jankov_same_models(si6, all8):
    for a in [x for x in si6 if x.size <= 5]:
        dj, ch = dejongh_formula(a), jankov_formula(a)
        for b in all8:
            assert is_valid(b, dj)[0] == is_valid(b, ch)[0], (a.size, b.size)


def test_characteristic_formula_of_diagram_is_jankov(si6, all6):
    for a in [x for x in si6 if x.size <= 4]:
        chi1 = characteristic_formula(diagram_presentation(a))
        chi2 = jankov_formula(a)
        assert chi1 == chi2


def test_characteristic_formula_zprime():
    p = zprime_presentation(10)
    chi = characteristic_formula(p)
    assert not evaluate(chi, p.target, p.valuation) == p.target.top
    # the antecedent is the presentation formula, the consequent the opremum term
    assert chi.kind == "imp" and chi.args[0] == p.formula


def test_characteristic_formula_needs_si():
    sq = boolean(2)
    with pytest.raises(NotSI):
        characteristic_formula(diagram_presentation(sq))


def test_characteristic_formula_without_generators():
    # the empty valuation generates bottom and top, so the target is the
    # two-element algebra, Heyting or interior, whose opremum is bottom: B
    # is BOT, and every nontrivial algebra refutes the formula
    heyting = all_algebras(4)
    spans = [span(a)[0] for a in heyting]
    for z2, corpus in ((rn_algebra(2), heyting),
                       (span(rn_algebra(2))[0], spans)):
        chi = characteristic_formula(Presentation(TOP, z2, {}))
        assert chi.args[1] == BOT
        for b in corpus:
            assert is_valid(b, chi)[0] == (b.size == 1)


def test_interior_jankov_and_dejongh_refuted_iff_sub_hom():
    # the theorem's shadow for interior algebras: the Jankov and de Jongh
    # formulas of each s.i. source of at most 3 atoms (the spans of
    # all_algebras(5), their open-generated parts and open quotients) are
    # refuted on a target exactly when the source is in SH of it, over the
    # spans of all_algebras(4) and their open quotients
    sources = []
    for a in all_algebras(5):
        s, _ = span(a)
        for b in [s, open_generated(s)] + [quotient_by_open(s, o)
                                           for o in s.opens]:
            if b.atoms <= 3 and b.opremum() is not None:
                sources.append(b)
    targets = []
    for a in all_algebras(4):
        s, _ = span(a)
        targets += [s] + [quotient_by_open(s, o) for o in s.opens]
    assert (len(sources), len(targets)) == (25, 19)
    for b in sources:
        for chi in (jankov_formula(b), dejongh_formula(b)):
            for t in targets:
                assert (not is_valid(t, chi)[0]) == in_sh(b, t)[0]


def test_golden_formulas():
    import hashlib
    import json
    import pathlib
    golden = json.loads((pathlib.Path(__file__).parent / "golden"
                         / "formulas.json").read_text(encoding="utf-8"))
    built = {
        "jankov_Z3": jankov_formula(rn_algebra(3)),
        "dejongh_Z3": dejongh_formula(rn_algebra(3)),
        "jankov_Z6_Z2_Z2": jankov_formula(
            concat(concat(rn_algebra(6), rn_algebra(2)), rn_algebra(2))),
        "dejongh_Z5": dejongh_formula(rn_algebra(5)),
        "jankov_span_Z3": jankov_formula(span(rn_algebra(3))[0]),
        "dejongh_span_Z3": dejongh_formula(span(rn_algebra(3))[0]),
    }
    for name, f in built.items():
        text = pretty(f)
        assert text == golden[name]["formula"], name
        assert hashlib.sha256(text.encode()).hexdigest() == golden[name]["sha256"]
