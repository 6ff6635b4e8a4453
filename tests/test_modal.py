import itertools
import random

import pytest

from charform.algebra import SizeLimit, is_isomorphic, is_si, subalgebra_closure
from charform.formula import (Formula, UnboundVariable, box, compile_formula,
                              conj, imp, is_valid, parse, pretty,
                              random_formula, substitute, var, variables)
from charform.jankov import NotSI
from charform.modal import (InteriorAlgebra, ModalPresentation, NotS4,
                            box_from_meet_of_arrows, check_defines_modal,
                            evaluate_modal, gmt_presentation, gmt_translate,
                            heyting_carcass, in_sh_modal, interior_from_json,
                            interior_to_json, is_si_modal,
                            modal_characteristic_formula,
                            modal_diagram_presentation, modal_refutable,
                            modal_validity, open_generated, quotient_by_open,
                            span)
from charform.presentation import diagram_presentation
from charform.rn import boolean, chain, rn_algebra


def test_span_examples():
    s2, e2 = span(rn_algebra(2))
    assert s2.atoms == 1 and s2.box == (0, 1)
    s3, e3 = span(rn_algebra(3))
    assert s3.atoms == 2 and s3.size == 4 and len(s3.opens) == 3
    bad = [x for x in range(4) if x not in s3.opens]
    assert len(bad) == 1 and s3.box[bad[0]] in s3.opens


def test_span_size_is_two_to_the_irreducibles(corpus10):
    for a in corpus10:
        if len(a.join_irreducibles()) > 9:
            continue
        s, _ = span(a)
        assert s.size == 2 ** len(a.join_irreducibles())


def test_not_s4():
    with pytest.raises(NotS4):
        InteriorAlgebra(1, (1, 1))  # box(0) = 1 is not below 0
    with pytest.raises(NotS4):
        InteriorAlgebra(2, (0, 1, 2, 0))  # box(top) != top


def test_carcass_round_trip(all8):
    for a in all8:
        s, _ = span(a)
        assert is_isomorphic(heyting_carcass(s), a)[0]


def test_carcass_of_identity_box():
    b = InteriorAlgebra(2, tuple(range(4)))
    h = heyting_carcass(b)
    assert h.size == 4
    assert is_isomorphic(h, boolean(2))[0]


def test_open_generated():
    s5, _ = span(rn_algebra(5))
    og = open_generated(s5)
    assert og.atoms == s5.atoms and og.box == s5.box
    # adding a spare atom keeps the open-generated part a span of the carcass
    for a in (rn_algebra(3), rn_algebra(5), chain(4)):
        s, _ = span(a)
        opens = sorted(set(s.box))
        full2 = s.size * 2 - 1
        box = []
        for x in range(s.size * 2):
            best = full2 if x == full2 else 0
            for o in opens:
                if o & ~x == 0:
                    best |= o
            box.append(best)
        b = InteriorAlgebra(s.atoms + 1, box)
        bo = open_generated(b)
        sh, _ = span(heyting_carcass(b))
        assert bo.atoms == sh.atoms and bo.box == sh.box


def test_trivial_opens():
    b = InteriorAlgebra(2, tuple(3 if x == 3 else 0 for x in range(4)))
    bo = open_generated(b)
    assert bo.size == 2


def test_gmt_clauses():
    assert pretty(gmt_translate(parse("p1"))) == "[]p1"
    assert pretty(gmt_translate(parse("p1 -> p2"))) == "[]([]p1 -> []p2)"
    assert pretty(gmt_translate(parse("~p1"))) == "[]~[]p1"
    assert pretty(gmt_translate(parse("p1 & p2"))) == "[]p1 & []p2"


def test_modal_validity_examples():
    s2, _ = span(rn_algebra(2))
    assert modal_validity(s2, parse("[]p1 -> p1"))[0]
    s3, _ = span(rn_algebra(3))
    ok, w = modal_validity(s3, gmt_translate(parse("p1 | ~p1")))
    assert not ok and w is not None
    # the witness is the least one over the carrier
    vars_ = sorted(w)
    for cand in range(w[vars_[0]]):
        trial = dict(w)
        trial[vars_[0]] = cand
        if evaluate_modal(gmt_translate(parse("p1 | ~p1")), s3, trial) != s3.full:
            pytest.fail("witness not least")


def test_grz_on_spans(all6):
    grz = parse("[]([](p1 -> []p1) -> p1) -> p1")
    for a in all6:
        s, _ = span(a)
        assert modal_validity(s, grz)[0]


# -- slow oracles for modal_validity ----------------------------------------


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


def _scan_open_tuples(b, f):
    """Oracle for boxed-only formulas: every open tuple, evaluated one at a
    time; the least carrier witness is rebuilt position by position from
    the sorted refuting tuples."""
    vars_ = variables(f)
    refuting = []
    assignment = {}

    def rec(i):
        if i == len(vars_):
            if evaluate_modal(f, b, assignment) != b.full:
                refuting.append(tuple(assignment[v] for v in vars_))
            return
        for o in b.opens:
            assignment[vars_[i]] = o
            rec(i + 1)
        assignment.pop(vars_[i], None)

    rec(0)
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


def _scan_full_product(b, f):
    """Oracle for any formula: every carrier tuple in lexicographic order."""
    vars_ = variables(f)
    assignment = {}

    def rec(i):
        if i == len(vars_):
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


def _oracle_algebras(all6):
    """Spans of all6 with their quotients by opens and open-generated parts."""
    out = {}
    for a in all6:
        s, _ = span(a)
        for b in [s, open_generated(s)] + [quotient_by_open(s, o) for o in s.opens]:
            out.setdefault((b.atoms, b.box), b)
    return list(out.values())


def test_modal_validity_matches_oracles(all6, random_test_formula):
    rng = random.Random(29)
    algebras = _oracle_algebras(all6)
    branches = {False: 0, True: 0}
    for i in range(400):
        b = algebras[i % len(algebras)]
        nvars = i % 5
        f = random_test_formula(rng, 4, nvars, modal=True)
        boxed = substitute(f, {v: box(var(v)) for v in range(nvars)})
        for g in (f, boxed, gmt_translate(random_formula(rng, 4, max(1, nvars)))):
            got = modal_validity(b, g)
            assert compile_formula(g).boxed_only == _vars_boxed_only(g)
            if _vars_boxed_only(g):
                assert got == _scan_open_tuples(b, g)
            if b.size ** len(variables(g)) <= 4096:
                assert got == _scan_full_product(b, g)
                branches[_vars_boxed_only(g)] += 1
    assert min(branches.values()) > 100


def test_boxed_search_has_a_budget():
    s, _ = span(chain(8))
    f = gmt_translate(conj([var(i) for i in range(7)]))
    assert len(s.opens) ** 7 > 1_000_000
    with pytest.raises(SizeLimit):
        modal_validity(s, f)


def test_modal_validity_many_variables_on_one_element():
    trivial = InteriorAlgebra(0, [0])
    for f in (conj([var(i) for i in range(70)]),
              conj([box(var(i)) for i in range(70)])):
        assert modal_validity(trivial, f) == (True, None)


def test_modal_unbound_variable():
    s, _ = span(rn_algebra(3))
    with pytest.raises(UnboundVariable):
        evaluate_modal(var(0), s, {})


def test_deep_chain_modal_validity():
    # p1 -> (p2 -> (p3 -> ... -> p1)), 5000 implications, holds everywhere;
    # ending in p4 instead, on two elements it is refuted only at
    # p1=p2=p3=top, p4=0
    s, _ = span(rn_algebra(2))
    for last, want in ((var(0), (True, None)),
                       (var(3), (False, {0: s.full, 1: s.full, 2: s.full, 3: 0}))):
        f = last
        for i in range(5000):
            f = imp(var(i % 3), f)
        assert modal_validity(s, f) == want


def test_gmt_transfer(all8):
    rng = random.Random(17)
    spans = [(a, span(a)[0]) for a in all8 if a.size <= 6]
    for _ in range(60):
        f = random_formula(rng, 5, 3)
        for a, s in spans:
            assert is_valid(a, f)[0] == modal_validity(s, gmt_translate(f))[0]


def test_box_from_meet_of_arrows(all6):
    for a in all6:
        s, e = span(a)
        assert box_from_meet_of_arrows(a, s, e)


def test_modal_si_and_quotients():
    s3, _ = span(rn_algebra(3))
    assert is_si_modal(s3)
    sq, _ = span(boolean(2))
    assert not is_si_modal(sq)
    for o in s3.opens:
        q = quotient_by_open(s3, o)
        assert q.atoms == bin(o).count("1")


def test_in_sh_modal():
    s2, _ = span(rn_algebra(2))
    s3, _ = span(rn_algebra(3))
    assert in_sh_modal(s3, s3)[0]
    assert in_sh_modal(s2, s3)[0]
    assert not in_sh_modal(s3, s2)[0]


def test_modal_characteristic_formula():
    s3, _ = span(rn_algebra(3))
    mp = modal_diagram_presentation(s3)
    chi = modal_characteristic_formula(mp)
    assert evaluate_modal(chi, s3, mp.valuation) != s3.full
    s2, _ = span(rn_algebra(2))
    assert not modal_refutable(s2, chi)
    with pytest.raises(NotSI):
        modal_characteristic_formula(modal_diagram_presentation(span(boolean(2))[0]))


def test_modal_characteristic_connectives():
    # the box-guarded variant is weaker: any refutation of it collapses
    # through an open filter, so refutability implies refutability of the
    # plain variant, but not conversely (the plain variant is refuted on
    # span(Z3) by the diagram of span(C4) while the guarded one is valid)
    corpus = [span(a)[0] for a in (rn_algebra(2), rn_algebra(3), chain(4),
                                   boolean(2))]
    witnessed_difference = False
    for a in (rn_algebra(3), chain(4)):
        s, _ = span(a)
        mp = modal_diagram_presentation(s)
        chi_box = modal_characteristic_formula(mp, "box-imp")
        chi_plain = modal_characteristic_formula(mp, "imp")
        assert evaluate_modal(chi_box, s, mp.valuation) != s.full
        assert evaluate_modal(chi_plain, s, mp.valuation) != s.full
        for b in corpus:
            if modal_refutable(b, chi_box):
                assert modal_refutable(b, chi_plain)
            # only the guarded variant stays inside the theorem
            if modal_refutable(b, chi_box):
                assert in_sh_modal(s, b)[0]
            if modal_refutable(b, chi_plain) != modal_refutable(b, chi_box):
                witnessed_difference = True
    assert witnessed_difference


def test_theorem_shadow_refutation_implies_sub_hom():
    small = [rn_algebra(n) for n in (2, 3, 4, 5)] + [chain(4), boolean(2)]
    sis = [a for a in small if is_si(a)]
    spans = [span(a)[0] for a in small]
    for a in sis:
        sa, _ = span(a)
        chi = modal_characteristic_formula(modal_diagram_presentation(sa))
        for sb in spans:
            if modal_refutable(sb, chi):
                assert in_sh_modal(sa, sb)[0]


def test_translf_shadow():
    corpus_h = [rn_algebra(2), rn_algebra(3), chain(4), boolean(2), rn_algebra(5)]
    corpus_m = [span(a)[0] for a in corpus_h]
    from charform.presentation import Presentation, check_defines
    for a in (rn_algebra(3), chain(4), rn_algebra(5)):
        hp = diagram_presentation(a)
        mp = gmt_presentation(hp)
        hv = check_defines(hp, [c for c in corpus_h if is_si(c)])
        mv = check_defines_modal(mp, corpus_m)
        assert not hv.refuted and not mv.refuted
    # a presentation that fails on the Heyting side fails on the modal side
    z2 = rn_algebra(2)
    hp = Presentation(parse("~~p1 -> p1"), z2, {0: z2.top})
    mp = gmt_presentation(hp)
    hv = check_defines(hp, [c for c in corpus_h if is_si(c)])
    mv = check_defines_modal(mp, corpus_m)
    assert hv.refuted and mv.refuted


def _naive_modal_closure(b, gens):
    """Slow oracle: all-pairs fixpoint under &, |, ->, ~ and box."""
    full = b.full
    closed = {0, full, *gens}
    while True:
        more = {op(x, y) for op in (lambda x, y: x & y, lambda x, y: x | y,
                                    lambda x, y: (x ^ full) | y)
                for x in closed for y in closed}
        more |= {x ^ full for x in closed} | {b.box[x] for x in closed}
        if more <= closed:
            return closed
        closed |= more


def test_modal_closure_matches_naive_fixpoint(all6):
    for a in all6:
        s, embed = span(a)
        # the image of a, then every set of one or two elements
        assert subalgebra_closure(s, embed) == _naive_modal_closure(s, embed)
        for k in (1, 2):
            for gens in itertools.combinations(range(s.size), k):
                assert subalgebra_closure(s, gens) == _naive_modal_closure(s, gens)


def test_modal_trivial_source_has_no_extension():
    trivial = InteriorAlgebra(0, [0])
    p = ModalPresentation(parse("p1"), trivial, {0: 0})
    v = check_defines_modal(p, [span(rn_algebra(2))[0]])
    assert str(v) == "REFUTED(tuple=(1,))"


def test_modal_presentation_validation():
    s3, _ = span(rn_algebra(3))
    with pytest.raises(ValueError):
        ModalPresentation(parse("p1 & ~p1"), s3, {0: s3.full})


def test_interior_json_round_trip():
    s, _ = span(rn_algebra(5))
    t = interior_to_json(s)
    s2 = interior_from_json(t)
    assert s2.atoms == s.atoms and s2.box == s.box
