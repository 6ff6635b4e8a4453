import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charform.algebra import SizeLimit, homomorphism_search, in_sh, make_algebra
from charform.formula import (Formula, FormulaSyntaxError, HeytingCarrier,
                              NotAssertoric, UnboundVariable, and_, box,
                              compile_formula, conj, consequence_refute,
                              enumerate_top_valuations, evaluate, iff, imp,
                              is_valid, neg, normalize_variables, or_, parse,
                              pretty, random_formula, run_program, substitute,
                              var, variables)
from charform.modal import gmt_translate
from charform.rn import boolean, chain, rn_algebra


def test_parse_precedence():
    assert parse("p1 -> p2 | ~p1") == imp(var(0), or_(var(1), neg(var(0))))
    assert parse("p1 & p2 | p3") == or_(and_(var(0), var(1)), var(2))
    assert parse("p1 -> p2 -> p3") == imp(var(0), imp(var(1), var(2)))


def test_parse_iff_expands():
    assert parse("p1 <-> p2") == iff(var(0), var(1))
    with pytest.raises(FormulaSyntaxError):
        parse("p1 <-> p2 <-> p3")


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as e:
        parse("((p1")
    assert e.value.pos == 4
    with pytest.raises(FormulaSyntaxError):
        parse("p1 &")
    with pytest.raises(FormulaSyntaxError):
        parse("q1")


def test_parse_constants_and_box():
    assert parse("0 -> 1") == imp(Formula("bot"), Formula("top"))
    assert parse("[]p1") == box(var(0))
    assert compile_formula(parse("[]p1")).has_box


@st.composite
def formulas(draw, nvars=3, modal=False):
    kinds = ["var", "and", "or", "imp", "neg"] + (["box"] if modal else [])
    depth = draw(st.integers(min_value=0, max_value=5))

    def build(d):
        k = draw(st.sampled_from(kinds if d else ["var"]))
        if k == "var":
            return var(draw(st.integers(min_value=0, max_value=nvars - 1)))
        if k in ("neg", "box"):
            return Formula(k, (build(d - 1),))
        return Formula(k, (build(d - 1), build(d - 1)))

    return build(depth)


@settings(max_examples=200, deadline=None)
@given(formulas(modal=True))
def test_print_parse_round_trip(f):
    assert parse(pretty(f)) == f


def test_print_of_parse_stable():
    for txt in ["p1 -> p2 -> p3", "(p1 -> p2) -> p3", "~p1 & p2 | p3",
                "[](p1 -> p2)", "p1 & (p2 | p3)"]:
        assert pretty(parse(txt)) == txt


def test_evaluate_examples():
    z2, z3 = rn_algebra(2), rn_algebra(3)
    em = parse("p1 | ~p1")
    assert evaluate(em, z2, {0: 0}) == z2.top
    g = z3.element_by_label("g")
    assert evaluate(em, z3, {0: g}) == g
    with pytest.raises(UnboundVariable):
        evaluate(em, z2, {})
    with pytest.raises(NotAssertoric):
        evaluate(box(var(0)), z2, {0: 0})


def test_substitute():
    f = parse("p1")
    assert substitute(f, {0: parse("p2 & ~p2")}) == parse("p2 & ~p2")
    assert substitute(parse("p1 -> p1"), {0: parse("p3")}) == parse("p3 -> p3")
    # simultaneous, not sequential
    g = substitute(parse("p1 & p2"), {0: var(1), 1: var(0)})
    assert g == and_(var(1), var(0))


def test_normalize_variables():
    f = parse("p5 -> p2")
    g, old = normalize_variables(f)
    assert g == parse("p2 -> p1") and old == (1, 4)


def test_validity_examples():
    z2, z3 = rn_algebra(2), rn_algebra(3)
    em = parse("p1 | ~p1")
    assert is_valid(z2, em) == (True, None)
    ok, w = is_valid(z3, em)
    assert not ok and w == {0: z3.element_by_label("g")}
    assert is_valid(z3, parse("~p1 | ~~p1"))[0]


def test_engines_agree_with_witnesses(all6):
    rng = random.Random(13)
    algs = [a for a in all6 if a.size >= 2]
    for i in range(300):
        f = random_formula(rng, 4, 3)
        a = algs[i % len(algs)]
        assert is_valid(a, f, engine="both")


def _full_product(a, f):
    """Oracle: every valuation in lexicographic order, evaluated one at a time."""
    vars_ = variables(f)
    for t in itertools.product(range(a.size), repeat=len(vars_)):
        valuation = dict(zip(vars_, t))
        if evaluate(f, a, valuation) != a.top:
            return False, valuation
    return True, None


def test_naive_engine_matches_full_product(all6, random_test_formula):
    rng = random.Random(31)
    for a in all6:
        for i in range(100):
            f = random_test_formula(rng, 4, i % 4)
            assert is_valid(a, f, engine="naive") == _full_product(a, f)


def _subterms(f):
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        out.add(g)
        stack.extend(a for a in g.args if isinstance(a, Formula))
    return out


def test_compile_shares_repeated_subterms():
    x = or_(var(0), neg(var(1)))
    fs = [iff(x, x), gmt_translate(parse("(p1 -> p2) & ~p1 -> (p1 -> p2) | p1")),
          # equal subterms built as distinct objects
          and_(imp(var(0), var(1)), imp(var(0), var(1)))]
    for f in fs:
        assert len(compile_formula(f).code) == len(_subterms(f))
    assert len(compile_formula(iff(x, x)).code) == 6


def test_compile_flags():
    p = compile_formula(parse("[]p3 -> [](p1 & 1)"))
    assert p.vars == (0, 2) and p.has_box and not p.boxed_only
    p = compile_formula(parse("[]p3 -> []p1 & 1"))
    assert p.boxed_only
    p = compile_formula(parse("p2 | ~p2"))
    assert p.vars == (1,) and not p.has_box and not p.boxed_only


def test_deep_chain_naive_engine():
    # 5000 right-nested implications over three variables, ending in p1:
    # valid; ending in p4: refuted only at p1=p2=p3=top, p4=bottom in Z(2)
    z2 = rn_algebra(2)
    for last, want in ((var(0), (True, None)),
                       (var(3), (False, {0: z2.top, 1: z2.top, 2: z2.top,
                                         3: z2.bottom}))):
        f = last
        for i in range(5000):
            f = imp(var(i % 3), f)
        assert is_valid(z2, f, engine="naive") == want


def test_naive_engine_many_variables_on_one_element():
    # 70 variables: one valuation, far more variables than numpy dimensions
    trivial = make_algebra([[1]])
    f = conj([var(i) for i in range(70)])
    assert is_valid(trivial, f, engine="naive") == (True, None)


def test_run_program_unbound_variable():
    z3 = rn_algebra(3)
    with pytest.raises(UnboundVariable):
        run_program(compile_formula(parse("p1 & p2")), z3.batch_ops(),
                    {0: np.arange(z3.size)})


def test_size_limit():
    f = conj([var(i) for i in range(13)])
    with pytest.raises(SizeLimit):
        is_valid(rn_algebra(4), f)
    # but explicit engines may exceed the default budget
    assert is_valid(rn_algebra(4), f, engine="propagate")[0] is False


def test_consequence_refute():
    z2, z3 = rn_algebra(2), rn_algebra(3)
    wem, em = parse("~p1 | ~~p1"), parse("p1 | ~p1")
    assert consequence_refute([wem], em, [z2, z3]) is z3
    assert consequence_refute([], parse("1"), [z2, z3]) is None


def test_enumerate_top_valuations():
    z3 = rn_algebra(3)
    car = HeytingCarrier(z3)
    tops = enumerate_top_valuations(car, parse("~~p1 -> p1"))
    assert tops == [(0,), (2,)]
    tops2 = enumerate_top_valuations(car, parse("p1 & ~p1"), (0,))
    assert tops2 == []


def test_monotone_evaluation(all6):
    # and/or formulas are monotone in the valuation order
    rng = random.Random(5)
    fs = []
    while len(fs) < 20:
        f = random_formula(rng, 4, 2)
        if all(k not in pretty(f) for k in ("~", "->")):
            fs.append(f)
    for a in all6:
        for f in fs:
            for x in range(a.size):
                for y in range(a.size):
                    if not a.leq(x, y):
                        continue
                    for z in range(a.size):
                        lo = evaluate(f, a, {0: x, 1: z})
                        hi = evaluate(f, a, {0: y, 1: z})
                        assert a.leq(lo, hi)


def test_morphism_commutation():
    rng = random.Random(9)
    pairs = [(rn_algebra(3), chain(4)), (rn_algebra(2), boolean(2)),
             (rn_algebra(5), rn_algebra(5))]
    for a, b in pairs:
        homs = homomorphism_search(a, b)[:4]
        for _ in range(25):
            f = random_formula(rng, 4, 2)
            v = {0: rng.randrange(a.size), 1: rng.randrange(a.size)}
            for h in homs:
                lhs = h(evaluate(f, a, v))
                rhs = evaluate(f, b, {k: h(x) for k, x in v.items()})
                assert lhs == rhs


def test_validity_antitone_under_sub_hom(all6):
    rng = random.Random(3)
    small = [a for a in all6 if 2 <= a.size <= 5]
    fs = [random_formula(rng, 4, 2) for _ in range(15)]
    for a in small:
        for b in small:
            if not in_sh(a, b)[0]:
                continue
            for f in fs:
                if is_valid(b, f)[0]:
                    assert is_valid(a, f)[0]
