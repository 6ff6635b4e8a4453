import itertools
import random
from collections import Counter
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from charform import formula as formula_module
from charform.acceptance import KG_AXIOM, pretrue_formula
from charform.algebra import (Poset, SizeLimit, concat, homomorphism_search,
                              in_sh, make_algebra, relabel_algebra,
                              upset_algebra)
from charform.catalog import all_algebras, si_algebras
from charform.formula import (BOT, TOP, Formula, FormulaSyntaxError,
                              NotAssertoric, UnboundVariable,
                              _Frame, _frame, _prop_search, _refuting_tasks,
                              _Slots, and_, box, compile_formula, conj,
                              enumerate_top_valuations, evaluate,
                              first_refutation, iff, imp, is_valid, neg,
                              or_, parse, refuting_rows,
                              pretty, random_formula, run_program, substitute,
                              var, variables)
from charform.jankov import jankov_formula
from charform.modal import gmt_translate, span
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


def test_normalize_variables(normalize_variables):
    f = parse("p5 -> p2")
    g, old = normalize_variables(f)
    assert g == parse("p2 -> p1") and old == (1, 4)


def _variables_by_dfs(f):
    """The sorted variable indices of f, by a plain walk over its nodes."""
    out, todo = set(), [f]
    while todo:
        g = todo.pop()
        if g.kind == "var":
            out.add(g.args[0])
        else:
            todo.extend(g.args)
    return tuple(sorted(out))


def test_substitute_matches_oracle(random_test_formula, substitute_oracle,
                                   normalize_variables):
    # random formulas with and without box, a Jankov formula (its variable
    # nodes are shared objects) and a 5000-deep chain; each is substituted
    # under random mappings, some leaving variables unmapped and some
    # naming a variable the formula lacks
    rng = random.Random(61)
    inputs = [random_test_formula(rng, 6, 1 + i % 5, modal=i % 2 == 1)
              for i in range(60)]
    inputs.append(jankov_formula(rn_algebra(5)))
    deep = var(0)
    for i in range(1, 5001):
        deep = and_(deep, var(i % 3))
    inputs.append(deep)
    for f in inputs:
        vs = _variables_by_dfs(f)
        assert variables(f) == vs
        for _ in range(4):
            mapping = {v: random_test_formula(rng, 3, 6, modal=True)
                       for v in vs if rng.random() < 0.6}
            mapping[rng.randrange(8)] = var(rng.randrange(8))
            got, want = substitute(f, mapping), substitute_oracle(f, mapping)
            assert got == want and pretty(got) == pretty(want)
        got, old = normalize_variables(f)
        want = substitute_oracle(f, {o: var(i) for i, o in enumerate(vs)})
        assert old == vs and got == want and pretty(got) == pretty(want)


def test_validity_examples():
    z2, z3 = rn_algebra(2), rn_algebra(3)
    em = parse("p1 | ~p1")
    assert is_valid(z2, em) == (True, None)
    ok, w = is_valid(z3, em)
    assert not ok and w == {0: z3.element_by_label("g")}
    assert is_valid(z3, parse("~p1 | ~~p1"))[0]


@pytest.mark.parametrize("engine", ["auto", "naive", "propagate", "both"])
def test_validity_rejects_box_in_heyting_algebra(engine):
    # 13 variables exceed both engine budgets; the box is reported first
    for f in (box(var(0)), conj([box(var(i)) for i in range(13)])):
        with pytest.raises(NotAssertoric):
            is_valid(rn_algebra(2), f, engine=engine)


def test_engines_agree_with_witnesses(all6, random_test_formula):
    # constants and repeated subterms: constant slots and leaves that share
    # a slot in the propagation engine
    rng = random.Random(13)
    algs = [a for a in all6 if a.size >= 2]
    for i in range(300):
        f = random_test_formula(rng, 4, i % 5)
        a = algs[i % len(algs)]
        assert is_valid(a, f, engine="both")


def _lex_min_counting(csp, least="solve"):
    """The least solution, from csp's method least, and the number of
    solves it ran: one for the engine's `solve`, one per candidate value
    for the oracle's `lex_min`."""
    calls, solve = 0, csp.solve

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve(*args, **kwargs)

    csp.solve = counted
    return getattr(csp, least)(), calls


class _Enough(Exception):
    pass


class _Capped(list):
    """A list to collect solutions in that stops the search at the n-th."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def append(self, solution):
        super().append(solution)
        if len(self) == self.n:
            raise _Enough


def _first_solutions(csp, n=200):
    """The first n solutions of csp.solve(collect=...), in its order."""
    found = _Capped(n)
    try:
        csp.solve(collect=found)
    except _Enough:
        pass
    return list(found)


def _check_against_oracle(a, f, oracle_csp, refuting_tasks_oracle,
                          class_representatives):
    """The propagation engine against the oracles.  The refuting tasks, in
    order, are those pushed afresh for each c, each with one more
    constraint per variable holding it to the least element of each class
    of x -> x & c: the same variables, domains, leaf masks and feasibility
    as the oracle's CSP of those constraints.  Per task, against the
    oracle's search over the full domains: the same variable order, the
    same least solution with no more solves and, when the task is feasible,
    as solutions those of the oracle that take only class representatives,
    in the same order (the first 200, among the oracle's first 2,000: some
    random formulas have millions); a plan kept on the program for each
    distinct (order, leaf set); and the verdict and least witness of
    `is_valid` equal to those the oracle's solutions give."""
    prog = compile_formula(f)
    slots = _Slots(a, prog)
    tasks = _refuting_tasks(slots)
    oracle_tasks = refuting_tasks_oracle(slots, with_c=True)
    assert len(tasks) == len(oracle_tasks)
    best, keys = None, set()
    for csp, (c, cvars, constraints) in zip(tasks, oracle_tasks):
        reps = class_representatives(a, c)
        classes = [(slots.var_slot[v], reps) for v in cvars]
        task = oracle_csp(slots, cvars, constraints + classes)
        assert ((csp.vars, csp.domains, csp.leafs, csp.feasible)
                == (task.vars, task.domains, task.leafs, task.feasible))
        old = oracle_csp(slots, cvars, constraints)
        got, calls = _lex_min_counting(csp)
        want, old_calls = _lex_min_counting(old, "lex_min")
        assert got == want and calls <= old_calls
        assert csp.feasible == old.feasible
        if csp.feasible:
            assert csp.leaves == frozenset(old.leafs)
            assert csp._order() == old._order()
            keys.add((old._order(), frozenset(old.leafs)))
            found = _first_solutions(csp)
            every = _first_solutions(old, 2000)
            on_reps = [sol for sol in every
                       if all(reps >> e & 1 for e in sol.values())]
            if len(every) < 2000:
                assert found == on_reps[:200]
            else:
                k = min(len(on_reps), 200)
                assert found[:k] == on_reps[:k]
                assert not any(sol in every for sol in found[k:])
        if want is not None:
            full = tuple(want.get(v, 0) for v in prog.vars)
            best = full if best is None else min(best, full)
    assert keys <= set(prog._plans)
    verdict = (True, None) if best is None else (False,
                                                 dict(zip(prog.vars, best)))
    assert is_valid(a, f, engine="propagate") == verdict
    return verdict[0]


def _relabelled(algebras, seed):
    rng = random.Random(seed)
    out = []
    for a in algebras:
        order = list(range(a.size))
        rng.shuffle(order)
        out.append(relabel_algebra(a, order))
    return out


def test_propagation_engine_matches_oracle_on_jankov(
        oracle_csp, refuting_tasks_oracle, class_representatives_oracle):
    targets = _relabelled(all_algebras(7), 17)
    verdicts = set()
    for a in si_algebras(5):
        chi = jankov_formula(a)
        for b in targets:
            verdicts.add(_check_against_oracle(
                b, chi, oracle_csp, refuting_tasks_oracle,
                class_representatives_oracle))
    assert verdicts == {True, False}


def test_propagation_engine_matches_oracle_on_pretrue(
        oracle_csp, refuting_tasks_oracle, class_representatives_oracle):
    kg = parse(KG_AXIOM)
    pre, _, _ = pretrue_formula()
    targets = [b for b in all_algebras(10) if b.size == 10
               and is_valid(b, kg)[0]][::7]
    verdicts = {_check_against_oracle(b, pre, oracle_csp,
                                      refuting_tasks_oracle,
                                      class_representatives_oracle)
                for b in _relabelled(targets, 19)}
    assert verdicts == {True, False}


def test_propagation_engine_matches_oracle_on_random(
        all6, random_test_formula, oracle_csp, refuting_tasks_oracle,
        class_representatives_oracle):
    rng = random.Random(23)
    algs = [a for a in all6 if a.size >= 2]
    checked = 0
    while checked < 40:
        f = random_test_formula(rng, 6, 7 + checked % 3)
        if len(variables(f)) >= 7:
            _check_against_oracle(algs[checked % len(algs)], f, oracle_csp,
                                  refuting_tasks_oracle,
                                  class_representatives_oracle)
            checked += 1


def test_propagation_engine_matches_oracle_on_box_free_interior(
        random_test_formula, oracle_csp, refuting_tasks_oracle,
        class_representatives_oracle):
    # c is an atom, so each variable takes two values: 0 and c
    rng = random.Random(31)
    spans = [span(a)[0] for a in all_algebras(5)]
    verdicts = set()
    for i in range(120):
        s = spans[i % len(spans)]
        f = random_test_formula(rng, 5, 2 + i % 3)
        valid = _check_against_oracle(s, f, oracle_csp, refuting_tasks_oracle,
                                      class_representatives_oracle)
        assert is_valid(s, f, engine="both")[0] == valid
        verdicts.add(valid)
    assert verdicts == {True, False}


def test_refuting_tasks_with_box_match_oracle(random_test_formula,
                                              oracle_csp,
                                              refuting_tasks_oracle):
    # a box moves c, so these programs still push once per c, and their
    # variables keep their full domains
    rng = random.Random(29)
    spans = [span(a)[0] for a in all_algebras(5)]
    checked = 0
    for s in spans:
        for i in range(30):
            prog = compile_formula(random_test_formula(rng, 5, 1 + i % 4,
                                                       modal=True))
            if prog.has_box:
                slots = _Slots(s, prog)
                want = [oracle_csp(slots, cvars, constraints) for
                        cvars, constraints in refuting_tasks_oracle(slots)]
                assert ([(t.vars, t.domains, t.leafs, t.feasible)
                         for t in _refuting_tasks(slots)]
                        == [(t.vars, t.domains, t.leafs, t.feasible)
                            for t in want])
                checked += 1
    assert checked > 50


def test_least_solution_found_in_one_search_with_a_cut(oracle_csp):
    # 11 variables over the 4-element chain, no two neighbours both bottom
    # (p1 | p2, p2 | p3, ..., p10 | p11): 2,432,187 solutions.  ~~p2, which
    # accepts every value, makes the greedy order p2, p1, p3, ..., p11, so
    # the first solution found, p2 = 0 and p1 = 1, is not the least: that
    # needs p2 raised while p1, of lower index, is still unassigned
    a = chain(4)
    ors = [or_(var(i), var(i + 1)) for i in range(10)]
    prog = compile_formula(conj([neg(neg(var(1)))] + ors))
    slots = _Slots(a, prog)
    not_bottom = slots.full & ~(1 << a.bottom)
    conjuncts = formula_module._conjuncts(prog.code, ("and",))
    constraints = ([(conjuncts[0], slots.full)]
                   + [(s, not_bottom) for s in conjuncts[1:]])
    csp = formula_module._CSP.of_constraints(slots, prog.vars, constraints)
    assert csp._order() == (1, 0, *range(2, 11))
    want = oracle_csp(slots, prog.vars, constraints).lex_min()
    assert want == {v: v % 2 for v in range(1, 11)} | {0: 0}
    calls = 0

    def counted(op):
        def call(*args):
            nonlocal calls
            calls += 1
            return op(*args)
        return call if callable(op) else op

    slots.ops = {k: counted(op) for k, op in slots.ops.items()}
    assert csp.solve() == want
    # each of the two solutions found and the values cut after them run a
    # few operations per depth; taking the least of all solutions would
    # run at least one per solution
    assert calls <= 100


def test_plans_shared_across_algebras_and_bound_per_algebra(
        oracle_csp, refuting_tasks_oracle):
    # fresh formulas, so that their programs hold the plans of this test only
    chi = substitute(jankov_formula(chain(3)), {})
    lin = parse("[]([]p1 -> []p2) | []([]p2 -> []p1)")
    heyting = [chain(4), concat(boolean(2), chain(2)), boolean(3)]
    assert len({a.size for a in heyting}) == 3
    spans = [span(a)[0] for a in heyting]
    for f, algebras in ((chi, heyting + spans), (lin, spans)):
        keys, verdicts = set(), set()
        for a in algebras:
            got = is_valid(a, f, engine="both")
            # the same formula compiled apart: a program with no plans yet
            alone = compile_formula(substitute(f, {}))
            assert _prop_search(a, alone) == got
            verdicts.add(got[0])
            slots = _Slots(a, alone)
            for cvars, constraints in refuting_tasks_oracle(slots):
                old = oracle_csp(slots, cvars, constraints)
                if old.feasible:
                    keys.add((old._order(), frozenset(old.leafs)))
        assert verdicts == {True, False}
        assert set(compile_formula(f)._plans) == keys


def _fresh(f):
    """An object equal to f with a program of its own, so with an empty set
    of quotient keys: `compile_formula` keeps the program on the root."""
    return Formula(f.kind, f.args)


def _searched_cs(monkeypatch):
    """A list that gets, per call of `_refuting_tasks`, the number of c's
    it makes tasks for."""
    searched, tasks = [], formula_module._refuting_tasks

    def counted(slots, ji=None):
        searched.append(len(slots.algebra.join_irreducibles()) if ji is None
                        else len(ji))
        return tasks(slots, ji)

    monkeypatch.setattr(formula_module, "_refuting_tasks", counted)
    return searched


def test_quotient_memo_matches_fresh_formulas_on_jankov(monkeypatch):
    # one object per Jankov formula meets every target, in a shuffled order,
    # so its set of quotient keys fills and is read across targets; each
    # fresh object starts with an empty set
    searched = _searched_cs(monkeypatch)
    targets = _relabelled(all_algebras(8), 37)
    random.Random(37).shuffle(targets)
    verdicts, by_memo, fresh = set(), 0, 0
    for a in si_algebras(5):
        chi = jankov_formula(a)
        kept = _fresh(chi)
        for b in targets:
            del searched[:]
            got = is_valid(b, kept, engine="both")
            by_memo += sum(searched)
            del searched[:]
            assert got == is_valid(b, _fresh(chi), engine="both")
            fresh += sum(searched)
            verdicts.add(got[0])
    assert verdicts == {True, False}
    assert by_memo < fresh


def test_quotient_memo_matches_fresh_formulas_on_pretrue():
    # 17 variables: too many for the naive engine
    kg = parse(KG_AXIOM)
    pre, _, _ = pretrue_formula()
    kept = _fresh(pre)
    targets = _relabelled([b for b in all_algebras(10) if is_valid(b, kg)[0]],
                          43)
    got = [is_valid(b, kept, engine="propagate") for b in targets]
    assert got == [is_valid(b, _fresh(pre), engine="propagate")
                   for b in targets]
    assert {valid for valid, _ in got} == {True, False}
    assert compile_formula(kept)._unrefuted


def test_box_program_never_touches_the_quotient_memo(random_test_formula,
                                                     monkeypatch):
    keyed = []
    monkeypatch.setattr(formula_module, "_down_key",
                        lambda *args: keyed.append(args))
    rng = random.Random(53)
    spans = [span(a)[0] for a in all_algebras(5)]
    checked = 0
    for i in range(200):
        f = random_test_formula(rng, 5, 1 + i % 3, modal=True)
        prog = compile_formula(f)
        if prog.has_box:
            for s in spans[i % 3::3]:
                is_valid(s, f, engine="both")
            assert "_unrefuted" not in prog.__dict__
            checked += 1
    assert checked > 50 and not keyed


def test_quotient_memo_across_algebra_kinds(random_test_formula):
    # the order below an atom is the two-element algebra in both kinds, so
    # a key that an interior algebra adds serves Heyting algebras and back
    rng = random.Random(47)
    heyting = _relabelled(all_algebras(6), 47)
    spans = [span(a)[0] for a in all_algebras(5)]
    forms = [parse("p1 | ~p1"), parse("~p1 | ~~p1")]
    forms += [jankov_formula(a) for a in si_algebras(4)]
    forms += [random_test_formula(rng, 5, 1 + i % 3) for i in range(30)]
    verdicts = set()
    for f in forms:
        for algebras in (spans + heyting, heyting + spans):
            kept = _fresh(f)
            for b in algebras:
                got = is_valid(b, kept, engine="both")
                assert got == is_valid(b, _fresh(f), engine="both")
                verdicts.add(got[0])
    assert verdicts == {True, False}


def test_quotient_memo_keys_no_order_above_the_cap(monkeypatch):
    # the top of B(4) + C(2) is join-irreducible, with all 17 elements below
    b = concat(boolean(4), chain(2))
    assert b.top in b.join_irreducibles()
    assert b.size > formula_module._MEMO_MAX
    sizes, key = [], formula_module.canonical_key

    def recorded(order):
        sizes.append(order.size)
        return key(order)

    monkeypatch.setattr(formula_module, "canonical_key", recorded)
    for f in (parse("p1 | ~p1"), jankov_formula(chain(3)),
              jankov_formula(chain(4))):
        kept = _fresh(f)
        want = is_valid(b, _fresh(f), engine="naive")
        # the top is searched every time: its key is never kept
        for _ in range(2):
            assert is_valid(b, kept, engine="both") == want
        if f == parse("p1 | ~p1"):
            # refuted at the top alone; each atom has the two-element chain
            assert not want[0]
            assert compile_formula(kept)._unrefuted == {
                formula_module._chain_key(2)}
    assert all(n <= formula_module._MEMO_MAX for n in sizes)


def test_quotient_memo_shared_by_threads():
    # more threads than cores search with one program, so its set of
    # unrefuted keys is read and filled concurrently: a race may repeat a
    # search but must not change a verdict or a witness
    targets = _relabelled(all_algebras(8), 59)
    chis = [jankov_formula(a) for a in si_algebras(5)]
    want = {(i, j): is_valid(b, _fresh(chi), engine="propagate")
            for i, chi in enumerate(chis) for j, b in enumerate(targets)}
    got, kept = {}, [_fresh(chi) for chi in chis]

    def work(seed):
        order = list(want)
        random.Random(seed).shuffle(order)
        for i, j in order:
            got[seed, i, j] = is_valid(targets[j], kept[i], engine="propagate")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {(k, *key): v for k in range(4) for key, v in want.items()}


def _full_product(a, f, ev):
    """Oracle: every valuation in lexicographic order, evaluated one at a time."""
    vars_ = variables(f)
    for t in itertools.product(range(a.size), repeat=len(vars_)):
        valuation = dict(zip(vars_, t))
        if ev(f, a, valuation) != a.top:
            return False, valuation
    return True, None


def test_naive_engine_matches_full_product(all6, random_test_formula,
                                           evaluate_oracle):
    rng = random.Random(31)
    for a in all6:
        for i in range(100):
            f = random_test_formula(rng, 4, i % 4)
            assert (is_valid(a, f, engine="naive")
                    == _full_product(a, f, evaluate_oracle))


def test_evaluate_matches_oracles(all6, random_test_formula, evaluate_oracle,
                                  evaluate_modal_oracle):
    rng = random.Random(41)
    for a in all6:
        s, _ = span(a)
        for alg, modal, oracle in ((a, False, evaluate_oracle),
                                   (s, True, evaluate_modal_oracle)):
            for i in range(60):
                f = random_test_formula(rng, 4, i % 4, modal=modal)
                v = {x: rng.randrange(alg.size) for x in range(i % 4)}
                assert evaluate(f, alg, v) == oracle(f, alg, v)
        boxed = parse("p1 & []p1")
        for ev in (evaluate, evaluate_oracle):
            with pytest.raises(NotAssertoric):
                ev(boxed, a, {0: a.top})


def test_enumerate_top_valuations_matches_oracles(all6, random_test_formula,
                                                  evaluate_oracle,
                                                  evaluate_modal_oracle):
    rng = random.Random(43)
    checked = 0
    for a in all6:
        s, _ = span(a)
        for alg, modal, oracle in ((a, False, evaluate_oracle),
                                   (s, True, evaluate_modal_oracle)):
            for i in range(40):
                f = random_test_formula(rng, 4, i % 4, modal=modal)
                if rng.random() < 0.5:
                    # conjunctions of equations are what presentations use
                    f = and_(f, random_test_formula(rng, 3, i % 4, modal=modal))
                vars_ = variables(f)
                if alg.size ** len(vars_) > 4096:
                    continue
                want = [t for t in itertools.product(range(alg.size),
                                                     repeat=len(vars_))
                        if oracle(f, alg, dict(zip(vars_, t))) == alg.top]
                assert enumerate_top_valuations(alg, f) == want
                checked += 1
    assert checked > 400


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


def test_deep_chain_naive_engine(normalize_variables):
    # 5000 right-nested implications over three variables, ending in p1:
    # valid; ending in p4: refuted only at p1=p2=p3=top, p4=bottom in Z(2)
    z2 = rn_algebra(2)
    for last, want in ((var(0), (True, None)),
                       (var(3), (False, {0: z2.top, 1: z2.top, 2: z2.top,
                                         3: z2.bottom}))):
        f = last
        for i in range(5000):
            f = imp(var(i % 3), f)
        for engine in ("naive", "propagate", "both"):
            assert is_valid(z2, f, engine=engine) == want
        text = " -> ".join([f"p{i % 3 + 1}" for i in reversed(range(5000))]
                           + [pretty(last)])
        assert pretty(f) == text and repr(f) == f"Formula({text!r})"
        # the parser reads the chain back, equal and with an equal hash
        g = parse(text)
        assert pretty(g) == text
        assert g == f and hash(g) == hash(f) and g in {f}
        assert compile_formula(g).code == compile_formula(f).code
        assert g != imp(var(0), f) and g != parse(text[:-2] + "p3")
        tops = {v: z2.top for v in range(4)}
        assert evaluate(f, z2, tops) == z2.top
        assert evaluate(f, z2, want[1] or tops) == (z2.top if want[0]
                                                   else z2.bottom)
    # 5000 right-nested disjunctions, which the propagation engine splits:
    # ending in ~p1 valid, ending in p4 refuted only at all bottoms
    bottoms = {v: z2.bottom for v in range(4)}
    for last, want in ((neg(var(0)), (True, None)), (var(3), (False, bottoms))):
        f = last
        for i in range(5000):
            f = or_(var(i % 3), f)
        for engine in ("propagate", "both"):
            assert is_valid(z2, f, engine=engine) == want
        # a disjunction right of a disjunction is parenthesised
        text = (" | (".join(f"p{i % 3 + 1}" for i in reversed(range(5000)))
                + f" | {pretty(last)}" + ")" * 4999)
        assert pretty(f) == text and repr(f) == f"Formula({text!r})"
    # a 5000-deep left-nested conjunction round-trips, hashes and sits in a
    # set; each node keeps its hash, so a deeper chain on top of it hashes
    g = var(0)
    for i in range(1, 5001):
        g = and_(g, var(i % 3))
    h = parse(pretty(g))
    assert h is not g and h == g and hash(h) == hash(g)
    assert h in {g} and {g, h} == {g} and {g: 1}[h] == 1
    assert and_(g, TOP) != and_(h, BOT) and and_(g, TOP) in {and_(h, TOP)}
    # substitution moves p1, p2, p3 of the chain to p6, p8, p10, and
    # normalize_variables moves them back
    want = var(5)
    for i in range(1, 5001):
        want = and_(want, var(2 * (i % 3) + 5))
    moved = substitute(g, {v: var(2 * v + 5) for v in range(3)})
    assert moved == want and variables(moved) == (5, 7, 9)
    assert normalize_variables(moved) == (g, (5, 7, 9))


def test_naive_engine_many_variables_on_one_element(monkeypatch):
    # 70 variables: one valuation, which the probe evaluates, or, with no
    # probe, a bit-sliced scan of one row over a frame with no points
    trivial = make_algebra([[1]])
    f = conj([var(i) for i in range(70)])
    assert is_valid(trivial, f, engine="naive") == (True, None)
    monkeypatch.setattr(formula_module, "_PROBE_ROWS", 0)
    assert is_valid(trivial, f, engine="naive") == (True, None)
    assert formula_module._sliced_scan(compile_formula(f), trivial,
                                       range(1)) is None


def test_run_program_unbound_variable():
    z3 = rn_algebra(3)
    with pytest.raises(UnboundVariable):
        run_program(compile_formula(parse("p1 & p2")), z3.scalar_ops(), {0: 0})
    with pytest.raises(UnboundVariable):
        refuting_rows(compile_formula(parse("p1 & p2")), z3,
                      {0: list(range(z3.size))})


def test_size_limit():
    f = conj([var(i) for i in range(13)])
    with pytest.raises(SizeLimit):
        is_valid(rn_algebra(4), f)
    # but explicit engines may exceed the default budget
    assert is_valid(rn_algebra(4), f, engine="propagate")[0] is False


def test_consequence_refute(consequence_refute):
    z2, z3 = rn_algebra(2), rn_algebra(3)
    wem, em = parse("~p1 | ~~p1"), parse("p1 | ~p1")
    assert consequence_refute([wem], em, [z2, z3]) is z3
    assert consequence_refute([], parse("1"), [z2, z3]) is None


def test_enumerate_top_valuations():
    z3 = rn_algebra(3)
    tops = enumerate_top_valuations(z3, parse("~~p1 -> p1"))
    assert tops == [(0,), (2,)]
    tops2 = enumerate_top_valuations(z3, parse("p1 & ~p1"), (0,))
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


def _product_scan(prog, ops, domain, top):
    """Oracle for `first_refutation`: the first tuple of a lexicographic
    `itertools.product` scan whose value is not top."""
    for values in itertools.product(domain, repeat=len(prog.vars)):
        valuation = dict(zip(prog.vars, values))
        if run_program(prog, ops, valuation) != top:
            return valuation
    return None


def test_first_refutation_matches_product_scan(random_test_formula):
    # the variable planes are cached per (domain, variable count), so equal
    # length domains with different elements alternate, and each case runs
    # twice, the second time on the cached planes, which stay equal to
    # planes built afresh
    rng = random.Random(12)
    alternated = 0
    for a in all_algebras(5):
        s = span(a)[0]
        scalar = s.scalar_ops()
        closed = sorted(s.full ^ o for o in s.opens)
        alternated += closed != list(s.opens)
        for k in range(4):
            for _ in range(3):
                prog = compile_formula(random_test_formula(rng, 4, k, True))
                while len(prog.vars) != k:
                    prog = compile_formula(random_test_formula(rng, 4, k, True))
                for domain in (range(s.size), s.opens, closed, s.opens, closed):
                    want = _product_scan(prog, scalar, domain, s.full)
                    for _ in range(2):
                        assert first_refutation(prog, s, domain) == want
                planes = _frame(s).digit_planes(s.opens, k)
                assert planes == _Frame(s).digit_planes(s.opens, k)
                assert _frame(s).digit_planes(s.opens, k) is planes
    assert alternated


def test_first_refutation_across_blocks():
    # 33**3 valuations of 3 variables over the 32 points of the chain are
    # more bits than one block holds, so the scan runs 33**2-row blocks
    c = chain(33)
    f = parse("(p1 -> p2) | (p2 -> p3) | ~~p3 -> p1 | ~p1")
    prog = compile_formula(f)
    assert 33 ** 3 * 32 > formula_module._BLOCK_BITS >= 33 ** 2 * 32
    want = _product_scan(prog, c.scalar_ops(), range(c.size), c.top)
    assert want is not None
    assert first_refutation(prog, c, range(c.size)) == want


def test_first_refutation_probe_edges(all6, random_test_formula, monkeypatch):
    # the first P rows are probed one at a time before the batch: over
    # every algebra of all_algebras(6) and its span, with 0 to 4 variables,
    # least refutations at rows 0, P-1, P and P+1 and valid formulas, the
    # witness is the product scan's, with and without the probe, its values
    # are ints, and a batch runs only when no probed row refutes and some
    # row is left unprobed
    P = formula_module._PROBE_ROWS
    scan, batches = formula_module._sliced_scan, []

    def counted_scan(*args):
        batches.append(True)
        return scan(*args)

    monkeypatch.setattr(formula_module, "_sliced_scan", counted_scan)
    rng = random.Random(21)
    cases = []
    for a in all6:
        s = span(a)[0]
        closed = sorted(s.full ^ o for o in s.opens)
        cases.append((a, range(a.size), False))
        cases += [(s, d, True) for d in (range(s.size), s.opens, closed)]
    rows = Counter()
    for alg, domain, modal in cases:
        scalar, m = alg.scalar_ops(), len(domain)
        progs = [compile_formula(f) for f in (TOP, BOT, neg(TOP))]
        for k in range(1, 5):
            for _ in range(4 if m ** k <= 1296 else 0):
                prog = compile_formula(random_test_formula(rng, 4, k, modal))
                while len(prog.vars) != k:
                    prog = compile_formula(
                        random_test_formula(rng, 4, k, modal))
                progs.append(prog)
        for prog in progs:
            want = _product_scan(prog, scalar, domain, alg.top)
            row = None if want is None else sum(
                list(domain).index(want[v]) * m ** i
                for i, v in enumerate(reversed(prog.vars)))
            rows[row if row is None or row <= P + 1 else "later"] += 1
            for probe in (P, 0):
                monkeypatch.setattr(formula_module, "_PROBE_ROWS", probe)
                batches.clear()
                got = first_refutation(prog, alg, domain)
                assert got == want
                assert all(type(x) is int for x in (got or {}).values())
                ran = ((row is None or row >= probe)
                       and m ** len(prog.vars) > probe)
                assert batches.count(True) == ran
    assert all(rows[r] for r in (0, P - 1, P, P + 1, None)), rows


def test_sliced_scan_matches_grid_oracle(all6, random_test_formula,
                                         first_refutation_oracle,
                                         refuting_rows_oracle):
    # the bit-sliced scan against the digit-grid batch it replaced, over
    # every algebra of all_algebras(6) and its span, with 0 to 4 variables,
    # random formulas with box on the spans and without on both: the least
    # refuting valuation, and every refuting row of a bit-sliced run over
    # the explicit columns of all valuations
    rng = random.Random(44)
    refuted = valid = 0
    for a in all6:
        s = span(a)[0]
        for alg, modal in ((a, False), (s, False), (s, True)):
            for k in range(5):
                for _ in range(4 if alg.size ** k <= 4096 else 0):
                    prog = compile_formula(random_test_formula(rng, 5, k, modal))
                    for domain in {range(alg.size), getattr(alg, "opens", ())}:
                        used = len(prog.vars)
                        if not domain or len(domain) ** used > 4096:
                            continue
                        want = first_refutation_oracle(prog, alg, domain)
                        got = formula_module._sliced_scan(prog, alg, domain)
                        if want is None:
                            assert got is None
                            valid += 1
                        else:
                            assert formula_module._valuation(
                                prog, domain, got) == want
                            refuted += 1
                        if used:
                            rows = list(itertools.product(domain, repeat=used))
                            cols = {v: [r[i] for r in rows]
                                    for i, v in enumerate(prog.vars)}
                            assert (refuting_rows(prog, alg, cols)
                                    == refuting_rows_oracle(prog, alg, cols))
    assert refuted and valid


def test_sliced_scan_finds_a_refutation_in_a_later_block(monkeypatch):
    # with blocks of one row per valuation of the last variable, the least
    # refuting row of p1 -> p2 over the 4-chain is 1 * 4 + 0, in the second
    # block; and over a 200-element chain, whose blocks hold 200 rows,
    # p1 -> p2 first fails in the row (1, 0), in the second block, and
    # (p1 -> p2) | (p2 -> p1) never does
    c4 = chain(4)
    prog = compile_formula(parse("p1 -> p2"))
    monkeypatch.setattr(formula_module, "_BLOCK_BITS", 4 * 3)
    assert formula_module._sliced_scan(prog, c4, range(4)) == 4
    assert first_refutation(prog, c4, range(4)) == {0: 1, 1: 0}
    monkeypatch.undo()
    big = upset_algebra(Poset._trusted([(1 << 199) - (1 << i)
                                        for i in range(199)]))
    assert big.size == 200 and big.bottom == 0
    assert 200 ** 2 * 199 > formula_module._BLOCK_BITS >= 200 * 199
    for text, want in (("p1 -> p2", {0: 1, 1: 0}),
                       ("(p1 -> p2) | (p2 -> p1)", None)):
        prog = compile_formula(parse(text))
        assert first_refutation(prog, big, range(big.size)) == want
        assert is_valid(big, parse(text), engine="naive") == (want is None,
                                                              want)
