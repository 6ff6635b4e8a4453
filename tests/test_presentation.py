import itertools
import random

import pytest

from charform.algebra import (_bits, concat, enumerate_filters,
                              generated_subalgebra,
                              homomorphism_search, induced_subalgebra,
                              is_isomorphic, is_si, make_algebra, product,
                              quotient, principal_filter, relabel_algebra,
                              subalgebra_closure)
from charform.catalog import all_algebras, si_algebras
from charform.formula import conj, enumerate_top_valuations, evaluate, imp, \
    is_valid, parse, substitute, var
from charform.jankov import characteristic_formula, generation_steps
from charform.modal import InteriorAlgebra, span
from charform.presentation import (BadAnchor, GenerationPlan, Presentation,
                                   VariableClash,
                                   VarietyHandle, _bounded_subalgebras,
                                   build_corpus, check_defines,
                                   concat_defining_formula,
                                   diagram_presentation,
                                   extends_to_homomorphism, lemma_points,
                                   presentation_from_json,
                                   presentation_to_json, zprime_conjuncts,
                                   zprime_presentation)
from charform.rn import (TruncationTooSmall, chain, rn_algebra, trunc,
                         trunc_zprime, trunc_zstar)


def _verdicts(plan, target, rows):
    """The plan's verdict on each row, checked to agree with the index of
    the first failure."""
    got = [plan.homomorphic(target, r) for r in rows]
    assert plan.first_failure(target, rows) == (
        got.index(False) if False in got else None)
    return got


def test_presentation_invariants():
    p = zprime_presentation(10)
    assert evaluate(p.formula, p.target, p.valuation) == p.target.top
    with pytest.raises(ValueError):
        Presentation(parse("p1 & ~p1"), rn_algebra(2), {0: 1})
    with pytest.raises(ValueError):
        # top at the valuation, but the image does not generate
        Presentation(parse("p1"), rn_algebra(3), {0: 2})


def test_zprime_presentation_bound():
    # the last conjunct is not top at (a, b) on the 13- and 15-element
    # truncations, so k = 8 is the least k with a presentation
    for k in range(1, 16):
        if k < 8:
            with pytest.raises(TruncationTooSmall, match="needs k >= 8"):
                zprime_presentation(k)
        else:
            p = zprime_presentation(k)
            assert p.target.size == 2 * k + 1
            assert evaluate(p.formula, p.target, p.valuation) == p.target.top
    t = trunc("Zprime", 7)
    v = {0: t.element_by_label("a"), 1: t.element_by_label("b")}
    assert evaluate(zprime_conjuncts()[3], t, v) != t.top


def test_build_corpus_examples():
    assert [a.size for a in build_corpus(VarietyHandle.generated((rn_algebra(2),), 4))] == [2]
    c = build_corpus(VarietyHandle.generated((rn_algebra(3),), 5))
    assert [a.size for a in c] == [2, 3]
    zs = trunc_zstar(8)
    corp = build_corpus(VarietyHandle.generated((zs,), 8))
    probe = concat(product(rn_algebra(3), rn_algebra(2)), rn_algebra(2))
    assert any(is_isomorphic(probe, b)[0] for b in corp)


def test_build_corpus_evidence():
    zs = trunc_zstar(8)
    handle = VarietyHandle.generated((zs,), 6)
    for algebra, ev in build_corpus(handle, with_evidence=True):
        assert is_si(algebra)
        kind, gi, elt, carrier = ev
        assert kind == "sh"
        q, _ = quotient(zs, principal_filter(zs, elt))
        _, sub = induced_subalgebra(q, carrier)
        assert is_isomorphic(sub, algebra)[0]


def test_axiomatic_corpus():
    handle = VarietyHandle.axiomatic((parse("p1 | ~p1"),), bound=6)
    corp = build_corpus(handle)
    # Boolean s.i. algebras: just the two-element one
    assert [a.size for a in corp] == [2]


def test_extends_to_homomorphism():
    c3 = rn_algebra(3)
    g = c3.element_by_label("g")
    assert extends_to_homomorphism(c3, rn_algebra(2), [(g, 1)])
    assert not extends_to_homomorphism(c3, rn_algebra(2), [(g, 0)])


def test_extends_to_homomorphism_matches_search(all6):
    # the slow oracle: backtracking search for a homomorphism through the
    # generator images; with generating sources at most one exists
    cases = 0
    for s in all6:
        gensets = [g for k in (1, 2) for g in itertools.combinations(range(s.size), k)
                   if len(subalgebra_closure(s, g)) == s.size]
        for t in all6:
            for g in gensets:
                for tup in itertools.product(range(t.size), repeat=len(g)):
                    pairs = list(zip(g, tup))
                    found = homomorphism_search(s, t, partial=dict(pairs),
                                                first_only=True)
                    assert extends_to_homomorphism(s, t, pairs) == bool(found)
                    cases += 1
    assert cases == 9862


def test_plan_counts_match_meet_rows(all8):
    # the count of the elements below each element, read off down masks or
    # atom counts, against the meet row of the element, on all_algebras(8)
    # and their spans; and a plan over the discrete algebra on 11 atoms,
    # whose meet rows would take 2^22 steps
    for a in all8:
        for b in (a, span(a)[0]):
            every = range(b.size)
            meet = b.signature[0][0][1]
            assert GenerationPlan(b, []).below == [
                sum(x == y for x, y in zip(every, meet(b, f, every)))
                for f in every]
    big = InteriorAlgebra(11, list(range(1 << 11)))
    plan = GenerationPlan(big, [1])
    assert plan.below[big.full] == big.size
    assert plan.by_below[:3] == [0, 1, 2] and not plan.generates


def test_batched_extension_matches_oracle(all6, extends_oracle):
    # every list of at most two generators, generating or not, repeated or
    # not, and every image tuple as one batch; all6 has the one-element
    # source, and the generating pairs cover the cases above
    rows_checked, extend = 0, 0
    for s in all6:
        for k in (0, 1, 2):
            for g in itertools.product(range(s.size), repeat=k):
                plan = GenerationPlan(s, list(g))
                for t in all6:
                    rows = list(itertools.product(range(t.size), repeat=k))
                    want = [extends_oracle(s, t, list(zip(g, r))) for r in rows]
                    assert _verdicts(plan, t, rows) == want
                    rows_checked += len(rows)
                    extend += sum(want)
    assert (rows_checked, extend) == (94251, 3268)


def test_batched_extension_matches_oracle_on_spans(extends_oracle):
    # seeded generator lists and image tuples between the interior
    # algebras that span all_algebras(5), up to 16 elements each
    rng = random.Random(2025)
    spans = [span(a)[0] for a in all_algebras(5)]
    outcomes = set()
    for s in spans:
        for t in spans:
            for _ in range(3):
                g = [rng.randrange(s.size) for _ in range(rng.randint(0, 3))]
                plan = GenerationPlan(s, g)
                rows = [tuple(rng.randrange(t.size) for _ in g) for _ in range(40)]
                if t is s:
                    rows.append(tuple(g))  # the identity extends when g generates
                want = [extends_oracle(s, t, list(zip(g, r))) for r in rows]
                assert _verdicts(plan, t, rows) == want
                outcomes.update(want)
    assert outcomes == {True, False}


def test_batched_extension_matches_oracle_on_relabelled_sources(
        all6, extends_oracle):
    # the case above over a seeded relabelling of each source, so that the
    # down-set of an element is no longer a run of low indices; every list
    # of one or two generators and every image tuple
    rng = random.Random(2025)
    rows_checked, extend = 0, 0
    for s in all6:
        a = relabel_algebra(s, rng.sample(range(s.size), s.size))
        for k in (1, 2):
            for g in itertools.product(range(a.size), repeat=k):
                plan = GenerationPlan(a, list(g))
                for t in all6:
                    rows = list(itertools.product(range(t.size), repeat=k))
                    want = [extends_oracle(a, t, list(zip(g, r))) for r in rows]
                    assert _verdicts(plan, t, rows) == want
                    rows_checked += len(rows)
                    extend += sum(want)
    assert (rows_checked, extend) == (94082, 3254)


def test_extension_through_least_filter_matches_oracle(extends_oracle):
    # every row of the zprime(10..15) plans, whose targets have 21-31
    # elements, into each member of the Zstar(10) corpus, and the same for
    # a seeded relabelling of each target, whose indices do not ascend
    # along its order; the forced map of each row is replayed here to see
    # that rows the criterion rejects by the size of the down-set of f, and
    # rows whose preimage of top is not a principal filter, both occur
    rng = random.Random(2025)
    corpus = build_corpus(VarietyHandle.generated((trunc_zstar(10),), 8))
    rows_checked, extend, too_big, not_principal = 0, 0, 0, 0
    for k in range(10, 16):
        p = zprime_presentation(k)
        gens = [p.valuation[v] for v in sorted(p.valuation)]
        order = rng.sample(range(p.target.size), p.target.size)
        new = {x: i for i, x in enumerate(order)}
        for a, g in ((p.target, gens),
                     (relabel_algebra(p.target, order), [new[x] for x in gens])):
            plan = GenerationPlan(a, g)
            steps = generation_steps(a, list(enumerate(g)))
            for b in corpus:
                rows = list(itertools.product(range(b.size), repeat=2))
                want = [extends_oracle(a, b, list(zip(g, r))) for r in rows]
                assert _verdicts(plan, b, rows) == want
                ops = b.scalar_ops()
                for r in rows:
                    h = {}
                    for z, (op, *args) in steps.items():
                        h[z] = (r[args[0]] if op == "var"
                                else ops[op](*(h[x] for x in args)))
                    tops = {x for x in range(a.size) if h[x] == b.top}
                    if not tops:
                        continue
                    f = min(tops, key=lambda x: (a.down[x].bit_count(), x))
                    too_big += a.down[f].bit_count() > b.size
                    not_principal += tops != set(_bits(a.up[f]))
                rows_checked += len(rows)
                extend += sum(want)
    assert (rows_checked, extend) == (9792, 1668)
    assert too_big and not_principal


def test_check_defines_matches_oracle_loop(check_defines_oracle):
    # the zprime presentations and their mutations over the members of two
    # corpora, one member at a time, so every refutation is compared
    cs = zprime_conjuncts()
    mutations = [conj(cs[1:]), conj([cs[0], cs[2], cs[3]]), conj(cs[:2])]
    corpora = [build_corpus(VarietyHandle.generated((trunc(name, 10),), 8))
               for name in ("Zstar", "KG")]
    kinds = []
    for k in range(10, 16):
        p = zprime_presentation(k)
        for q in [p] + [Presentation(f, p.target, p.valuation) for f in mutations]:
            for b in (b for corpus in corpora for b in corpus):
                v = check_defines(q, [b])
                assert ((v.kind, v.bound, v.witness_algebra, v.witness_tuple)
                        == check_defines_oracle(q, [b]))
                kinds.append(v.kind)
    assert len(kinds) == 24 * 39 and "refuted" in kinds


def test_trivial_source_has_no_extension():
    # bottom and top of the one-element algebra coincide, so no map into a
    # nontrivial algebra preserves both
    p = Presentation(parse("p1"), make_algebra([[1]]), {0: 0})
    assert str(check_defines(p, [rn_algebra(2)])) == "REFUTED(tuple=(1,))"


def _naive_bounded_subalgebras(a, bound):
    """Slow oracle: every subset of size <= bound that is a subalgebra."""
    out = []
    for mask in range(1 << a.size):
        c = frozenset(x for x in range(a.size) if (mask >> x) & 1)
        if (len(c) <= bound and {a.bottom, a.top} <= c
                and all(t[x][y] in c for t in (a.meet, a.join, a.imp)
                        for x in c for y in c)):
            out.append(c)
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def test_bounded_subalgebras_match_naive(all8):
    for a in all8:
        for bound in (2, 4, 6, 8):
            assert _bounded_subalgebras(a, bound) == _naive_bounded_subalgebras(a, bound)


# the generators of the corpus benchmark workload, built in at these sizes
CORPUS_GENERATORS = (("Zstar", 10), ("Zstar", 7), ("Zstar", 8), ("Zstar", 9),
                     ("KG", 8), ("KG", 9), ("KG", 10), ("KG", 11), ("KG", 12),
                     ("Zprime", 10), ("Zprime", 12), ("Zprime", 14),
                     ("Zprime", 16), ("Zinf", 18), ("Zinf", 20))


def test_bounded_subalgebras_match_bfs_oracle(bounded_subalgebras_oracle):
    # every quotient build_corpus searches for the benchmark generators at
    # bound 8 and for the criterion-6 generators at bound k + 1
    cases = ([(trunc(kind, k), 8) for kind, k in CORPUS_GENERATORS]
             + [(trunc_zstar(k), k + 1) for k in (10, 12)])
    quotients = 0
    for g, bound in cases:
        for filt in enumerate_filters(g):
            q, _ = quotient(g, filt)
            assert (_bounded_subalgebras(q, bound)
                    == bounded_subalgebras_oracle(q, bound))
            quotients += 1
    assert quotients == 329 + 64


def test_check_defines_diagram_presentations(si6):
    corpus = si_algebras(6)
    for a in [x for x in si6 if x.size <= 5]:
        v = check_defines(diagram_presentation(a), corpus)
        assert not v.refuted


def test_zprime_check_defines_and_stability():
    verdicts = []
    for k in (10, 12):
        p = zprime_presentation(k)
        corpus = build_corpus(VarietyHandle.generated((trunc_zstar(k),), 8))
        verdicts.append(check_defines(p, corpus).kind)
    assert verdicts == ["verified-up-to-bound"] * 2


def test_zprime_mutation_with_genuine_witness():
    p = zprime_presentation(10)
    cs = zprime_conjuncts()
    corpus = build_corpus(VarietyHandle.generated((trunc_zstar(10),), 8))
    broken = Presentation(conj(cs[1:]), p.target, p.valuation)
    v = check_defines(broken, corpus)
    assert v.refuted
    # one plan per target and generator list, kept on the target
    assert broken.plan is p.plan
    # the witness satisfies only the mutated formula
    w = dict(enumerate(v.witness_tuple))
    assert evaluate(p.formula, v.witness_algebra, w) != v.witness_algebra.top


def test_regularity_conjunct_is_derivable(all8):
    # ~~q -> q follows from the other conjuncts, so dropping it cannot be
    # refuted for the genuine reason; the ledger records the analysis
    cs = zprime_conjuncts()
    claim = imp(conj([cs[0], cs[2], cs[3]]), cs[1])
    for b in all8:
        assert is_valid(b, claim)[0]


def test_same_target_same_model_classes(all6):
    c3 = rn_algebra(3)
    g = c3.element_by_label("g")
    p1 = diagram_presentation(c3)
    p2 = Presentation(parse("~p1 -> p1"), c3, {0: g})
    corpus = [a for a in all6 if is_si(a)]
    assert not check_defines(p1, corpus).refuted
    assert not check_defines(p2, corpus).refuted
    chi1, chi2 = characteristic_formula(p1), characteristic_formula(p2)
    for b in all6:
        assert is_valid(b, chi1)[0] == is_valid(b, chi2)[0]


def test_defining_formula_implication_gives_surjection():
    # free one-generated algebra of V(C3) vs C3 itself: the trivially
    # presented algebra maps onto the one with the stronger relation
    c3 = rn_algebra(3)
    cube = product(product(c3, c3), c3)
    # the free one-generated algebra of V(C3): the subalgebra of C3^3
    # generated by the element whose coordinates run over all of C3
    diag_elt = (0 * 3 + 1) * 3 + 2
    closed, free1 = generated_subalgebra(cube, {diag_elt})
    assert free1.size == 6
    g_free = sorted(closed).index(diag_elt)
    pa = Presentation(parse("p1 -> p1"), free1, {0: g_free})
    pb = Presentation(parse("~p1 -> p1"), c3, {0: c3.element_by_label("g")})
    corpus = build_corpus(VarietyHandle.generated((c3,), 5))
    assert not check_defines(pa, corpus).refuted
    assert not check_defines(pb, corpus).refuted
    assert all(is_valid(b, parse("(~p1 -> p1) -> (p1 -> p1)"))[0] for b in corpus)
    onto = [h for h in homomorphism_search(free1, c3)
            if set(h.map) == set(range(c3.size))]
    assert onto


def test_concat_defining_formula_three_chain():
    c3 = rn_algebra(3)
    pa = diagram_presentation(c3)
    pb0 = diagram_presentation(c3)
    shift = {v: var(v + 3) for v in range(3)}
    pb = Presentation(substitute(pb0.formula, shift), c3,
                      {v + 3: e for v, e in pb0.valuation.items()})
    g = c3.element_by_label("g")
    combined = concat_defining_formula(pa, pb, var(g), var(g + 3))
    assert is_isomorphic(combined.target, c3)[0]
    v = check_defines(combined, si_algebras(6))
    assert not v.refuted


def test_concat_defining_formula_errors():
    c3 = rn_algebra(3)
    pa = diagram_presentation(c3)
    pb = diagram_presentation(c3)
    with pytest.raises(VariableClash):
        concat_defining_formula(pa, pb, var(1), var(1))
    shift = {v: var(v + 3) for v in range(3)}
    pb2 = Presentation(substitute(pb.formula, shift), c3,
                       {v + 3: e for v, e in pb.valuation.items()})
    with pytest.raises(BadAnchor):
        concat_defining_formula(pa, pb2, var(0), var(4))
    # the coatom of C2 is its bottom, so A' would be trivial
    c2 = diagram_presentation(chain(2))
    with pytest.raises(BadAnchor):
        concat_defining_formula(c2, pb2, var(c2.target.bottom),
                                var(3 + c3.element_by_label("g")))


def test_presentation_json_round_trip():
    p = zprime_presentation(8)
    text = presentation_to_json(p, "trunc(Zprime,8)", ["trunc(Zstar,8)"], 8)
    q = presentation_from_json(text)
    assert q.formula == p.formula
    assert q.valuation == p.valuation
    assert is_isomorphic(q.target, p.target)[0]
    assert q.variety is not None and q.variety.bound == 8


def test_lemma_points_match_scalar_loops(all6):
    # the per-point loops that lemma_points replaced, as the oracle; the
    # second presentation formula is top everywhere, so on each s.i. algebra
    # both complemented values of p2 give pairs
    for p in (zprime_presentation(12),
              Presentation(parse("p1 -> p1 | p2"), chain(2), {0: 0, 1: 1})):
        for c, (xs, ys) in zip(all6, lemma_points(p, all6)):
            bot, top = c.bottom, c.top
            want = [(x, bot) for x in range(c.size)]
            want += [(bot, bot), (bot, top), (top, bot)]
            if is_si(c):
                want += [(x, y) for x in range(c.size) for y in range(c.size)
                         if evaluate(p.formula, c, {0: x, 1: y}) == top
                         and c.join[y][c.neg[y]] == top]
            assert all(type(v) is int for v in xs + ys)
            assert list(zip(xs, ys)) == want


def test_lemma_shadow_exhaustive_depth3(lemma_shadow_exhaustive):
    assert lemma_shadow_exhaustive(max_depth=3) == (1854176, 17, 0)
    assert lemma_shadow_exhaustive(max_depth=2) == (786, 12, 0)


def test_extension_check_matches_grid_oracle_on_zprime_corpora(
        grid_plan_oracle):
    # the per-row check against the numpy batch it replaced: for k = 8..12,
    # the zprime(k) presentation and its three conjunct mutations, over the
    # s.i. corpus of the variety trunc(Zprime, k) generates, every top
    # tuple of every member; the verdicts, the first failure and the
    # verdict of check_defines agree
    cs = zprime_conjuncts()
    mutations = [conj([cs[1], cs[2], cs[3]]), conj([cs[0], cs[2], cs[3]]),
                 conj([cs[0], cs[1]])]
    rows_checked, extend, refuted = 0, 0, 0
    for k in range(8, 13):
        p = zprime_presentation(k)
        corpus = build_corpus(VarietyHandle.generated((trunc_zprime(k),), 8))
        gens = [p.valuation[v] for v in sorted(p.valuation)]
        oracle = grid_plan_oracle(p.target, gens)
        for f in [p.formula, *mutations]:
            q = Presentation(f, p.target, p.valuation)
            for b in corpus:
                rows = enumerate_top_valuations(b, f, [0, 1])
                want = oracle.homomorphic(b, rows).tolist()
                assert _verdicts(q.plan, b, rows) == want
                rows_checked += len(rows)
                extend += sum(want)
            verdict = check_defines(q, corpus)
            refuted += verdict.refuted
            assert verdict.refuted == any(
                not all(oracle.homomorphic(
                    b, enumerate_top_valuations(b, f, [0, 1])))
                for b in corpus)
    assert (rows_checked, extend, refuted) == (1688, 1356, 14)
