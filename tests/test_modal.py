import itertools
import json
import random

import pytest

from charform import formula
from charform.algebra import (SizeLimit, in_sh, is_isomorphic, is_si,
                              subalgebra_closure)
from charform.catalog import all_algebras
from charform.formula import (Formula, UnboundVariable, box, compile_formula,
                              conj, imp, is_valid, parse, pretty,
                              random_formula, substitute, var, variables)
from charform.jankov import NotSI, characteristic_formula, jankov_formula
from charform.modal import (InteriorAlgebra, NotS4, box_from_meet_of_arrows,
                            evaluate_modal, gmt_presentation, gmt_translate,
                            heyting_carcass, interior_from_json,
                            interior_to_json, modal_validity,
                            open_generated, quotient_by_open, span)
from charform.presentation import (Presentation, check_defines,
                                   diagram_presentation)
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


def _corpus_interior(all8):
    """The spans of all_algebras(8), their open-generated subalgebras and
    their quotients by opens: 307 interior algebras."""
    out = []
    for a in all8:
        s, _ = span(a)
        out += [s, open_generated(s)]
        out += [quotient_by_open(s, o) for o in s.opens]
    return out


def _accepts(atoms, table):
    try:
        InteriorAlgebra(atoms, table)
    except NotS4:
        return False
    return True


def test_preorder_check_matches_s4_laws_oracle(all8, s4_laws_oracle):
    # the check through the atom preorder accepts and rejects exactly the
    # tables that obey the S4 laws: the corpus tables; seeded one-entry
    # corruptions of them, each entry changed to a random value or to a
    # random part of its own mask (of a nonzero mask), which keeps box below
    # the identity;
    # every table on at most two atoms; seeded random tables on three atoms,
    # uniform or below the identity
    rng = random.Random(2025)
    corpus = [(b.atoms, b.box) for b in _corpus_interior(all8)]
    corrupted = []
    for atoms, table in corpus:
        for k in range(20 if atoms else 0):
            x = rng.randrange(len(table))
            bad = list(table)
            bad[x] = rng.choice([v for v in range(len(table)) if v != table[x]
                                 and (k % 2 or not x or v & ~x == 0)])
            corrupted.append((atoms, bad))
    small = [(atoms, t) for atoms in (0, 1, 2)
             for t in itertools.product(range(1 << atoms), repeat=1 << atoms)]
    small += [(3, [rng.randrange(x + 1) & x if k % 2 else rng.randrange(8)
                   for x in range(8)]) for k in range(9000)]
    counts = []
    for cases in (corpus, corrupted, small):
        verdicts = [_accepts(atoms, t) for atoms, t in cases]
        assert verdicts == [s4_laws_oracle(t) for _, t in cases]
        counts.append((len(cases), sum(verdicts)))
    assert counts == [(307, 307), (5380, 422), (9261, 38)]


def test_frame_helpers_match_box_table_oracles(
        all8, span_box_oracle, open_generated_oracle, quotient_by_open_oracle,
        heyting_carcass_oracle, least_open_oracle):
    # span, box_floor, open_generated, quotient_by_open, heyting_carcass and
    # the s.i. test read the atom preorder; the oracles read box tables
    for a in all8:
        s, _ = span(a)
        assert s.box == span_box_oracle(a)
        for b in [s, open_generated(s)] + [quotient_by_open(s, o)
                                           for o in s.opens]:
            assert b.opens == tuple(sorted(set(b.box)))
            assert all(b.box_floor(c) == least_open_oracle(b, c)
                       for c in range(b.size))
            og = open_generated(b)
            assert (og.box, og.atom_labels) == open_generated_oracle(b)
            for o in b.opens:
                q = quotient_by_open(b, o)
                assert (q.box, q.atom_labels) == quotient_by_open_oracle(b, o)
            h, want = heyting_carcass(b), heyting_carcass_oracle(b)
            assert all(getattr(h, k) == getattr(want, k) for k in
                       ("up", "meet", "join", "imp", "neg", "bottom", "top"))
            assert is_si(b) == is_si(want)


def test_large_chain_frame_table_is_checked():
    # the box of the 14-atom chain frame, R(a) the atoms from a up: box(x)
    # holds the atoms above the highest one missing from x.  The check is
    # O(2^m m), where the pairwise laws took 4^14 steps
    m = 14
    full = (1 << m) - 1
    table = [full ^ ((1 << (full ^ x).bit_length()) - 1)
             for x in range(1 << m)]
    b = interior_from_json(json.dumps({"atoms": m, "box": table}))
    assert b.box == tuple(table)
    assert b.successors == tuple(full ^ ((1 << a) - 1) for a in range(m))
    # one entry changed: an interior that is not the preorder's, and a
    # co-atom's interior that splits the chain at atom 7
    for x, wrong in ((0b11 << 12, 1 << 13),
                     (full ^ (1 << 7), full ^ (1 << 7))):
        broken = list(table)
        broken[x] = wrong
        with pytest.raises(NotS4):
            interior_from_json(json.dumps({"atoms": m, "box": broken}))


@pytest.mark.parametrize("atoms, box, labels", [
    (1, (0,), None),                # box table too short
    (1, (0, 2), None),              # entry outside the carrier
    (1, (0, -1), None),             # negative entry
    (1, (0, 1), ("a", "b")),        # too many atom labels
    (-1, (0,), None),               # negative atom count
    ("1", (0, 1), None),            # atom count not an int
    (10**9, (0, 1), None),          # atom count far beyond the table
    (1, 3, None),                   # box table not a sequence
    (1, (0, 1.0), None),            # entry not an int
])
def test_interior_constructor_rejects_malformed_tables(atoms, box, labels):
    with pytest.raises(ValueError):
        InteriorAlgebra(atoms, box, labels)
    if labels is None:
        with pytest.raises(ValueError):
            interior_from_json(json.dumps({"atoms": atoms, "box": box}))


@pytest.mark.parametrize("text", ['{}', '{"atoms": 1}', '[1, [0, 1]]'])
def test_interior_json_rejects_missing_keys(text):
    with pytest.raises(ValueError, match="needs atoms and box"):
        interior_from_json(text)


@pytest.mark.parametrize("text", ['{"atoms": 1, "box": 3}',
                                  '{"atoms": 1, "box": [0, 1.0]}'])
def test_interior_json_rejects_wrongly_typed_fields(text):
    with pytest.raises(ValueError, match="box is not a list of integers"):
        interior_from_json(text)


def test_derived_interior_algebras_pass_the_full_check(all6, recheck_interior):
    # span, open_generated and quotient_by_open skip the checks; the public
    # constructor re-runs them here, as oracles (the carcass: round trip)
    for a in all6:
        s, _ = span(a)
        recheck_interior(s)
        recheck_interior(open_generated(s))
        for o in s.opens:
            recheck_interior(quotient_by_open(s, o))


def test_carcass_round_trip(all8, recheck):
    for a in all8:
        s, _ = span(a)
        h = heyting_carcass(s)
        recheck(h)  # the carcass skips the check; re-run it as an oracle
        assert is_isomorphic(h, a)[0]


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


def test_gmt_translate_memo(gmt_translate_oracle, random_test_formula):
    rng = random.Random(31)
    for _ in range(200):
        f = random_test_formula(rng, 6, 3)
        twin = parse(pretty(f))  # equal to f, built apart, never translated
        t = gmt_translate(f)
        assert t == gmt_translate_oracle(f)
        assert gmt_translate(f) is t
        # the kept translation is outside the fields equality and hash read
        assert f == twin and twin == f and hash(f) == hash(twin)
        assert gmt_translate(twin) == t
    with pytest.raises(ValueError):
        gmt_translate(box(var(0)))
    with pytest.raises(ValueError):
        gmt_translate(box(var(0)))


def test_gmt_translate_deep_chain(gmt_translate_oracle):
    f = var(0)
    for i in range(5000):
        f = imp(var(i % 3), f)
    t = gmt_translate(f)
    assert gmt_translate(f) is t
    assert t == gmt_translate_oracle(f)


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


def _scan_open_tuples(b, f, ev):
    """Oracle for boxed-only formulas: every open tuple, evaluated one at a
    time; the least carrier witness is rebuilt position by position from
    the sorted refuting tuples."""
    vars_ = variables(f)
    refuting = []
    assignment = {}

    def rec(i):
        if i == len(vars_):
            if ev(f, b, assignment) != b.full:
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


def _scan_full_product(b, f, ev):
    """Oracle for any formula: every carrier tuple in lexicographic order."""
    vars_ = variables(f)
    assignment = {}

    def rec(i):
        if i == len(vars_):
            if ev(f, b, assignment) != b.full:
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


def test_modal_validity_matches_oracles(all6, random_test_formula,
                                       evaluate_modal_oracle):
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
                assert got == _scan_open_tuples(b, g, evaluate_modal_oracle)
            if b.size ** len(variables(g)) <= 4096:
                assert got == _scan_full_product(b, g, evaluate_modal_oracle)
                branches[_vars_boxed_only(g)] += 1
    assert min(branches.values()) > 100


def test_engines_agree_on_interior_algebras(all6, random_test_formula):
    # engine="both" raises unless the naive and the propagation engine give
    # the same verdict and the same least witness
    rng = random.Random(37)
    algebras = _oracle_algebras(all6)
    refuted = 0
    for i in range(600):
        b = algebras[i % len(algebras)]
        f = random_test_formula(rng, 4, i % 4, modal=True)
        if i % 3 == 0:
            f = gmt_translate(random_formula(rng, 4, max(1, i % 4)))
        got = is_valid(b, f, engine="both")
        assert got == modal_validity(b, f)
        refuted += not got[0]
    assert 100 < refuted < 500


def test_auto_engine_sizes_boxed_formulas_by_the_opens(monkeypatch):
    # 128 elements but 8 opens: the 8**3 open valuations fit the naive
    # budget, the 128**3 carrier ones would not
    s, _ = span(chain(8))
    f = gmt_translate(parse("(p1 -> p2) | (p2 -> p3)"))
    assert (s.size, len(s.opens)) == (128, 8)

    def refuse(*args):
        raise AssertionError("auto chose the propagation engine")

    monkeypatch.setattr(formula, "_prop_search", refuse)
    assert is_valid(s, f) == modal_validity(s, f)


def test_boxed_search_has_a_budget():
    s, _ = span(chain(8))
    f = gmt_translate(conj([var(i) for i in range(7)]))
    assert len(s.opens) ** 7 * 7 > formula.NAIVE_BUDGET
    with pytest.raises(SizeLimit):
        modal_validity(s, f)


def test_extension_check_answers_on_a_large_target():
    # the check builds no table of the target's operations, so it answers
    # on the discrete interior algebra of 2^12 elements, where the identity
    # on the two-element span extends and the constant top map does not;
    # its box table passes the public constructor's check
    big = InteriorAlgebra(12, list(range(1 << 12)))
    p = gmt_presentation(diagram_presentation(chain(2)))
    assert p.plan.homomorphic(big, (0, big.full)) is True
    assert p.plan.homomorphic(big, (big.full, big.full)) is False
    assert p.plan.first_failure(big, [(0, big.full), (0, 0)]) == 1
    assert p.plan.homomorphic(span(chain(2))[0], (0, 1)) is True


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
    z2 = rn_algebra(2)
    s, embed = span(z2)
    for last, want in ((var(0), (True, None)),
                       (var(3), (False, {0: s.full, 1: s.full, 2: s.full, 3: 0}))):
        f = last
        for i in range(5000):
            f = imp(var(i % 3), f)
        assert modal_validity(s, f) == want
        # the translation of the chain holds in the span exactly where the
        # chain holds in Z(2), and the open witnesses are the embedded ones
        ok, w = is_valid(z2, f)
        w = w and {v: embed[e] for v, e in w.items()}
        assert modal_validity(s, gmt_translate(f)) == (ok, w)


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
    assert is_si(s3)
    sq, _ = span(boolean(2))
    assert not is_si(sq)
    for o in s3.opens:
        q = quotient_by_open(s3, o)
        assert q.atoms == bin(o).count("1")


def test_in_sh_modal():
    s2, _ = span(rn_algebra(2))
    s3, _ = span(rn_algebra(3))
    assert in_sh(s3, s3)[0]
    assert in_sh(s2, s3)[0]
    assert not in_sh(s3, s2)[0]


def test_in_sh_matches_frame_oracle(all6, in_sh_frames_oracle,
                                    preserves_oracle):
    spans = [span(a)[0] for a in all6]
    targets = spans + [quotient_by_open(s, o) for s in spans for o in s.opens]
    for a in spans:
        for b in targets:
            ok, witness = in_sh(a, b)
            want_ok, want = in_sh_frames_oracle(a, b)
            assert ok == want_ok
            if ok:
                o, emb = witness
                assert o == want[0]
                q = quotient_by_open(b, o)
                assert emb.target.box == q.box
                assert len(set(emb.map)) == a.size
                assert preserves_oracle(a, q, emb.map)


def test_sub_hom_answers_on_spans_of_all8(all8, in_sh_frames_oracle):
    # within the search budget: no SizeLimit, and the oracle's answer
    spans = [span(a)[0] for a in all8]
    for a in spans:
        for b in spans:
            ok, witness = in_sh(a, b)
            want_ok, want = in_sh_frames_oracle(a, b)
            assert ok == want_ok and (not ok or witness[0] == want[0])


def test_modal_characteristic_formula():
    s3, _ = span(rn_algebra(3))
    mp = diagram_presentation(s3)
    chi = characteristic_formula(mp)
    assert evaluate_modal(chi, s3, mp.valuation) != s3.full
    s2, _ = span(rn_algebra(2))
    assert is_valid(s2, chi, engine="propagate")[0]
    with pytest.raises(NotSI):
        characteristic_formula(diagram_presentation(span(boolean(2))[0]))


def test_characteristic_formula_serves_both_kinds(
        all6, jankov_oracle, modal_characteristic_oracle):
    # on the diagram presentations of all_algebras(6), the Jankov formula
    # under both connectives; on those of their spans and on the GMT
    # presentations, the formula built through the carcass, box-guarded by
    # default, and the span's Jankov formula is the guarded one; a span
    # that is not s.i. raises NotSI
    interior = 0
    for a in all6:
        s, _ = span(a)
        mps = [diagram_presentation(s)]
        if not is_si(a):
            assert not is_si(s)
            for connective in ("box-imp", "imp"):
                with pytest.raises(NotSI):
                    characteristic_formula(mps[0], connective)
            continue
        hp = diagram_presentation(a)
        assert characteristic_formula(hp) == jankov_oracle(a)
        assert (characteristic_formula(hp, "box-imp")
                == characteristic_formula(hp, "imp"))
        assert jankov_formula(s) == modal_characteristic_oracle(mps[0],
                                                                "box-imp")
        for p in mps + [gmt_presentation(hp)]:
            assert (characteristic_formula(p)
                    == modal_characteristic_oracle(p, "box-imp"))
            assert (characteristic_formula(p, "imp")
                    == modal_characteristic_oracle(p, "imp"))
            interior += 1
    assert interior == 16
    z3 = rn_algebra(3)
    for p in (diagram_presentation(z3), diagram_presentation(span(z3)[0])):
        with pytest.raises(ValueError, match="unknown connective"):
            characteristic_formula(p, "iff")


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
        mp = diagram_presentation(s)
        chi_box = characteristic_formula(mp, "box-imp")
        chi_plain = characteristic_formula(mp, "imp")
        assert evaluate_modal(chi_box, s, mp.valuation) != s.full
        assert evaluate_modal(chi_plain, s, mp.valuation) != s.full
        for b in corpus:
            refutes_box = not is_valid(b, chi_box, engine="propagate")[0]
            refutes_plain = not is_valid(b, chi_plain, engine="propagate")[0]
            if refutes_box:
                assert refutes_plain
                # only the guarded variant stays inside the theorem
                assert in_sh(s, b)[0]
            if refutes_plain != refutes_box:
                witnessed_difference = True
    assert witnessed_difference


def test_theorem_shadow_refutation_iff_sub_hom():
    small = [rn_algebra(n) for n in (2, 3, 4, 5)] + [chain(4), boolean(2)]
    sis = [a for a in small if is_si(a)]
    spans = [span(a)[0] for a in small]
    for a in sis:
        sa, _ = span(a)
        chi = characteristic_formula(diagram_presentation(sa))
        for sb in spans:
            refuted = not is_valid(sb, chi, engine="propagate")[0]
            assert refuted == in_sh(sa, sb)[0]


def test_translf_shadow():
    corpus_h = [rn_algebra(2), rn_algebra(3), chain(4), boolean(2), rn_algebra(5)]
    corpus_m = [span(a)[0] for a in corpus_h]
    for a in (rn_algebra(3), chain(4), rn_algebra(5)):
        hp = diagram_presentation(a)
        mp = gmt_presentation(hp)
        hv = check_defines(hp, [c for c in corpus_h if is_si(c)])
        mv = check_defines(mp, corpus_m)
        assert not hv.refuted and not mv.refuted
    # a presentation that fails on the Heyting side fails on the modal side
    z2 = rn_algebra(2)
    hp = Presentation(parse("~~p1 -> p1"), z2, {0: z2.top})
    mp = gmt_presentation(hp)
    hv = check_defines(hp, [c for c in corpus_h if is_si(c)])
    mv = check_defines(mp, corpus_m)
    assert hv.refuted and mv.refuted


def test_check_defines_modal_matches_oracle_loop(check_defines_oracle):
    # GMT presentations over the spans of all_algebras(5), one member at a
    # time, so every refutation is compared
    spans = [span(a)[0] for a in all_algebras(5)]
    c3, z2 = rn_algebra(3), rn_algebra(2)
    g = c3.element_by_label("g")
    heyting = [diagram_presentation(a)
               for a in (rn_algebra(3), chain(4), rn_algebra(5), boolean(2))]
    heyting += [Presentation(parse("~p1 -> p1"), c3, {0: g}),
                Presentation(parse("p1 -> p1"), c3, {0: g}),
                Presentation(parse("~~p1 -> p1"), z2, {0: z2.top})]
    kinds = set()
    for hp in heyting:
        mp = gmt_presentation(hp)
        for b in spans:
            v = check_defines(mp, [b])
            assert ((v.kind, v.bound, v.witness_algebra, v.witness_tuple)
                    == check_defines_oracle(mp, [b]))
            kinds.add(v.kind)
    assert kinds == {"refuted", "verified-up-to-bound"}


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
    p = Presentation(parse("p1"), trivial, {0: 0})
    v = check_defines(p, [span(rn_algebra(2))[0]])
    assert str(v) == "REFUTED(tuple=(1,))"


def test_modal_presentation_validation():
    s3, _ = span(rn_algebra(3))
    with pytest.raises(ValueError):
        Presentation(parse("p1 & ~p1"), s3, {0: s3.full})


def test_interior_json_round_trip():
    s, _ = span(rn_algebra(5))
    t = interior_to_json(s)
    s2 = interior_from_json(t)
    assert s2.atoms == s.atoms and s2.box == s.box
