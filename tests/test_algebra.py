import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from charform.algebra import (Filter, HeytingAlgebra, Homomorphism,
                              NotALattice, NotResiduated, Poset, SizeLimit,
                              algebra_from_json, algebra_to_json,
                              canonical_key, concat, concat_embedding,
                              dense_elements,
                              enumerate_filters, generated_subalgebra,
                              homomorphism_search, in_sh, induced_subalgebra,
                              is_isomorphic, is_si, make_algebra,
                              principal_filter, product, quotient,
                              regular_elements, relabel_algebra,
                              subalgebra_closure, upset_algebra, _bits,
                              _from_tables, _refine_profile)
from charform import algebra as algebra_module
from charform import rn as rn_module
from charform.catalog import _posets_with_few_upsets, all_algebras
from charform.exprs import parse_algebra_expr
from charform.modal import heyting_carcass, span
from charform.presentation import _bounded_subalgebras, _si_order
from charform.rn import chain, rn_algebra, trunc, universal_frame

Z2 = make_algebra([[1, 1], [0, 1]])
SQUARE = make_algebra([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])


def test_two_chain():
    assert Z2.neg == (1, 0)
    assert Z2.bottom == 0 and Z2.top == 1


def test_square_is_boolean():
    assert SQUARE.neg == (3, 2, 1, 0)
    assert SQUARE.meet[1][2] == 0 and SQUARE.join[1][2] == 3


def test_pentagon_not_residuated():
    n5 = [[1, 1, 1, 1, 1],
          [0, 1, 0, 1, 1],
          [0, 0, 1, 0, 1],
          [0, 0, 0, 1, 1],
          [0, 0, 0, 0, 1]]
    with pytest.raises(NotResiduated):
        make_algebra(n5)


def test_not_a_lattice():
    # two maximal elements with no join
    order = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(NotALattice):
        make_algebra(order)


def _tables(a):
    return [list(map(list, t)) for t in (a.meet, a.join, a.imp)]


def test_constructor_checks_at_any_size():
    # 100 elements: above the size where checks used to be skipped
    a = product(chain(10), chain(10))
    meet, join, imp = _tables(a)
    imp[a.top][a.bottom] = a.top
    with pytest.raises(NotResiduated):
        HeytingAlgebra(a.up, meet, join, imp, a.bottom, a.top)


@pytest.mark.parametrize("change", [
    lambda t: t["meet"].pop(),                          # not n x n
    lambda t: t["join"][1].append(0),                   # ragged row
    lambda t: t["imp"][0].__setitem__(0, 9),            # entry out of range
    lambda t: t["imp"][0].__setitem__(0, -1),           # negative entry
    lambda t: t.__setitem__("bottom", 4),               # bottom out of range
    lambda t: t.__setitem__("top", -1),                 # top out of range
    lambda t: t.__setitem__("labels", ["a", "b"]),      # too few labels
    lambda t: t["up"].__setitem__(0, 1 << 4),           # mask outside carrier
    lambda t: t["up"].__setitem__(0, -1),               # negative mask
])
def test_constructor_rejects_malformed_tables(change):
    meet, join, imp = _tables(SQUARE)
    t = {"up": list(SQUARE.up), "meet": meet, "join": join, "imp": imp,
         "bottom": SQUARE.bottom, "top": SQUARE.top, "labels": None}
    HeytingAlgebra(**t)
    change(t)
    with pytest.raises(ValueError):
        HeytingAlgebra(**t)


def test_json_rejects_short_labels():
    doc = json.loads(algebra_to_json(chain(3)))
    doc["labels"] = ["0", "1"]
    with pytest.raises(ValueError, match="2 labels for 3 elements"):
        algebra_from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ['{}', '{"size": 2}', '[2, [[1, 1], [0, 1]]]'])
def test_json_rejects_missing_keys(text):
    with pytest.raises(ValueError, match="needs size and leq"):
        algebra_from_json(text)


@pytest.mark.parametrize("text", [
    '{"size": 2, "leq": 5}',
    '{"size": 2, "leq": [[1, 0], 5]}',
    '{"size": 2, "leq": [[1, 0], [1, 1]], "labels": 3}',
])
def test_json_rejects_wrongly_typed_fields(text):
    with pytest.raises(ValueError, match="is not a list"):
        algebra_from_json(text)


@pytest.mark.parametrize("text", [
    '{"size": 2, "leq": [[1, "x"], [0, 1]]}',
    '{"size": 2, "leq": [[1, 0.5], [null, true]]}',
])
def test_json_rejects_leq_entries_other_than_0_1_or_bool(text):
    with pytest.raises(ValueError, match="leq entries must be 0, 1"):
        algebra_from_json(text)


def test_derived_algebras_pass_the_full_check(recheck):
    # the library's own constructions skip the check; the public
    # constructor re-runs it on each of them here, as an oracle
    algebras = all_algebras(7)
    for a in algebras:
        recheck(a)
        for x in range(a.size):
            recheck(quotient(a, principal_filter(a, x))[0])
        for carrier in _bounded_subalgebras(a, 6):
            elems, sub = induced_subalgebra(a, carrier)
            recheck(sub)
            order = _si_order(a, carrier)
            if order is not None:
                assert Poset(order).up == sub.up
    small = all_algebras(4)
    for a in small:
        for b in small:
            recheck(product(a, b))
            recheck(concat(a, b))
    for a in (trunc("Zprime", 6), trunc("KG", 4), rn_algebra(9)):
        recheck(a)
        order = list(range(a.size))
        random.Random(7).shuffle(order)
        recheck(relabel_algebra(a, order))
    for a in algebras:
        recheck(heyting_carcass(span(a)[0]))
    for p in _posets_with_few_upsets(7):
        Poset(p.up)
    Poset(universal_frame(6)[0].up)


def test_upset_algebra_examples():
    assert upset_algebra(Poset([0b1])).size == 2
    anti = upset_algebra(Poset([0b01, 0b10]))
    assert anti.size == 4
    assert is_isomorphic(anti, SQUARE)[0]
    two_chain = upset_algebra(Poset.from_leq([[1, 1], [0, 1]]))
    assert two_chain.size == 3
    assert is_isomorphic(two_chain, chain(3))[0]


def test_product_examples():
    assert is_isomorphic(product(Z2, Z2), SQUARE)[0]
    one = rn_algebra(1)
    assert is_isomorphic(product(chain(3), one), chain(3))[0]
    p = product(chain(3), Z2)
    coatoms = [x for x in range(p.size)
               if x != p.top and p.up[x] == (1 << x) | (1 << p.top)]
    assert p.size == 6 and len(coatoms) == 2


def test_concat_examples():
    assert is_isomorphic(concat(Z2, Z2), chain(3))[0]
    a1 = concat(rn_algebra(7), Z2)
    assert a1.size == 8
    a, b, c = chain(3), SQUARE, rn_algebra(5)
    left = concat(concat(a, b), c)
    right = concat(a, concat(b, c))
    assert is_isomorphic(left, right)[0]


def test_concat_mixed_laws():
    a, b = SQUARE, chain(3)
    ab = concat(a, b)
    brest = range(a.size, ab.size)
    for x in range(a.size):
        if x == a.top:
            continue
        for y in brest:
            assert ab.meet[x][y] == x
            assert ab.join[x][y] == y
            assert ab.imp[x][y] == ab.top
            assert ab.imp[y][x] == x


def test_principal_filter():
    c3 = chain(3)
    assert principal_filter(c3, c3.top).members == 1 << c3.top
    assert principal_filter(c3, c3.bottom).members == (1 << 3) - 1
    g = 1
    assert set(_bits(principal_filter(c3, g).members)) == {1, 2}


@pytest.mark.parametrize("alg, mask, message", [
    (chain(3), 0b011, "must contain top"),
    (chain(3), 0b101, "not upward closed"),
    (SQUARE, 0b1110, "not meet-closed"),
    (chain(3), 0b1111, "must be an int"),
    (chain(3), -1, "must be an int"),
])
def test_filter_rejects_a_mask_that_is_not_a_filter(alg, mask, message):
    with pytest.raises(ValueError, match=message):
        Filter(alg, mask)


def _brute_force_filters(a):
    out = []
    for mask in range(1 << a.size):
        if not (mask >> a.top) & 1:
            continue
        ok = True
        for x in _bits(mask):
            if a.up[x] & ~mask:
                ok = False
                break
            for y in _bits(mask):
                if not (mask >> a.meet[x][y]) & 1:
                    ok = False
                    break
        if ok:
            out.append(mask)
    return sorted(out)


@pytest.mark.parametrize("alg", [Z2, chain(3), SQUARE, rn_algebra(5), rn_algebra(6)])
def test_enumerate_filters_matches_brute_force(alg):
    got = [f.members for f in enumerate_filters(alg)]
    assert got == _brute_force_filters(alg)


def test_filter_counts():
    assert len(enumerate_filters(Z2)) == 2
    assert len(enumerate_filters(chain(3))) == 3
    assert len(enumerate_filters(SQUARE)) == 4


def test_quotient_examples():
    q, h = quotient(SQUARE, principal_filter(SQUARE, SQUARE.top))
    assert q.size == SQUARE.size and is_isomorphic(q, SQUARE)[0]
    q2, _ = quotient(SQUARE, principal_filter(SQUARE, SQUARE.bottom))
    assert q2.size == 1
    # representative is the least index of the class
    c3 = chain(3)
    q3, h3 = quotient(c3, principal_filter(c3, 1))
    assert h3.map == (0, 1, 1)


def test_quotient_matches_oracle_on_relabellings(all8, quotient_oracle):
    # relabelled, so that index order does not extend the order and the
    # least element of a class need not be x & f; labelled, so that the
    # quotient's labels name the class representatives
    rng = random.Random(30)
    for a in all8:
        b = relabel_algebra(a, _shuffled(a.size, rng),
                            [f"e{x}" for x in range(a.size)])
        for filt in enumerate_filters(b):
            members = filt.elements()
            assert [filt.least] == [x for x in members if all(
                b.leq(x, y) for y in members)]
            q, h = quotient(b, filt)
            want, want_h = quotient_oracle(b, filt)
            assert (q.meet, q.join, q.imp, q.labels) == (
                want.meet, want.join, want.imp, want.labels)
            assert h.map == want_h.map


def test_concat_quotient_isomorphism(all6):
    # (A+B)/nabla' iso A + B/nabla for every filter of B
    algs = [a for a in all6 if a.size <= 5]
    for a in algs:
        for b in algs:
            ab = concat(a, b)
            bmap = concat_embedding(a, b)
            for f in enumerate_filters(b):
                members = 0
                for e in _bits(f.members):
                    members |= 1 << bmap[e]
                lhs, _ = quotient(ab, Filter(ab, members))
                rq, _ = quotient(b, f)
                assert is_isomorphic(lhs, concat(a, rq))[0]


def test_generated_subalgebra_examples():
    s, sub = generated_subalgebra(SQUARE, {SQUARE.bottom})
    assert s == {SQUARE.bottom, SQUARE.top}
    s2, sub2 = generated_subalgebra(SQUARE, {1})
    assert len(s2) == 4


def test_generated_subalgebra_closure_operator(all6):
    for a in all6:
        for g1 in range(min(a.size, 3)):
            c1 = subalgebra_closure(a, {g1})
            assert {g1, a.bottom, a.top} <= c1                      # extensive
            assert subalgebra_closure(a, c1) == c1                  # idempotent
            for g2 in range(min(a.size, 3)):
                c2 = subalgebra_closure(a, {g1, g2})
                assert c1 <= c2                                     # monotone


def _naive_closure(a, gens):
    """Slow oracle: all-pairs fixpoint under meet, join, imp and neg."""
    closed = {a.bottom, a.top, *gens}
    while True:
        more = {t[x][y] for t in (a.meet, a.join, a.imp)
                for x in closed for y in closed}
        more |= {a.neg[x] for x in closed}
        if more <= closed:
            return closed
        closed |= more


def test_subalgebra_closure_matches_naive_fixpoint(all6):
    for a in all6:
        for k in range(3):
            for gens in itertools.combinations(range(a.size), k):
                assert subalgebra_closure(a, gens) == _naive_closure(a, gens)


def test_homomorphism_search_examples():
    b = rn_algebra(5)
    hs = homomorphism_search(Z2, b)
    assert len(hs) == 1 and hs[0].map == (b.bottom, b.top)
    assert hs[0].is_embedding
    assert homomorphism_search(chain(3), SQUARE, injective=True) == []
    c4 = chain(4)
    hs2 = homomorphism_search(chain(3), c4, injective=True)
    assert hs2 and all(h.is_embedding for h in hs2)
    # maps come out in lexicographic order
    assert [h.map for h in hs2] == sorted(h.map for h in hs2)


def test_homomorphism_search_partial():
    c4 = chain(4)
    pinned = homomorphism_search(chain(3), c4, partial={1: 2}, injective=True)
    assert all(h.map[1] == 2 for h in pinned)
    assert len(pinned) < len(homomorphism_search(chain(3), c4, injective=True)) + 1


def _check_search_against_product(a, b, expected):
    """homomorphism_search, all, injective, first_only and with every
    one-element partial map, against the product oracle's maps."""
    def got(**kw):
        return [h.map for h in homomorphism_search(a, b, **kw)]

    embeddings = [m for m in expected if len(set(m)) == len(m)]
    assert got() == expected
    assert got(injective=True) == embeddings
    assert got(first_only=True) == expected[:1]
    assert got(injective=True, first_only=True) == embeddings[:1]
    for x in range(a.size):
        for v in range(b.size):
            assert got(partial={x: v}) == [m for m in expected if m[x] == v]
            assert got(partial={x: v}, injective=True) == [
                m for m in embeddings if m[x] == v]


def test_homomorphism_search_matches_product_oracle(homomorphisms_oracle):
    algebras = all_algebras(5)
    for a in algebras:
        for b in algebras:
            _check_search_against_product(a, b, homomorphisms_oracle(a, b))


def test_homomorphism_search_matches_product_oracle_on_spans(
        homomorphisms_oracle):
    spans = [span(a)[0] for a in all_algebras(4)]
    for a in spans:
        for b in spans:
            _check_search_against_product(a, b, homomorphisms_oracle(a, b))


def test_homomorphism_checks_every_operation(preserves_oracle):
    # every map that keeps bottom and top, between small Heyting algebras
    # and between their spans (where only box can fail for some maps)
    pairs = [(a, b) for a in all_algebras(4) for b in all_algebras(4)]
    spans = [s for s in (span(a)[0] for a in all_algebras(4)) if s.size <= 4]
    pairs += [(a, b) for a in spans for b in spans]
    for a, b in pairs:
        for m in itertools.product(range(b.size), repeat=a.size):
            if m[a.bottom] != b.bottom or m[a.top] != b.top:
                continue
            try:
                Homomorphism(a, b, m)
            except ValueError:
                assert not preserves_oracle(a, b, m)
            else:
                assert preserves_oracle(a, b, m)


def test_homomorphism_search_keeps_no_frame_per_element():
    # the chain's 1,048 free elements outnumber Python's default recursion
    # limit; the search walks them with a list of choices
    n = 1050
    rows = range(n)
    c = _from_tables([[min(x, y) for y in rows] for x in rows],
                     [[max(x, y) for y in rows] for x in rows],
                     [[n - 1 if x <= y else y for y in rows] for x in rows])
    found = homomorphism_search(c, c, injective=True, first_only=True)
    assert found[0].map == tuple(rows)


def test_injective_is_a_filter_of_all(si6):
    for a in [Z2, chain(3)]:
        for b in si6[:5]:
            every = homomorphism_search(a, b)
            inj = homomorphism_search(a, b, injective=True)
            assert [h.map for h in inj] == [h.map for h in every if h.is_embedding]


def test_in_sh_examples():
    ok, wit = in_sh(chain(3), chain(3))
    assert ok and wit[1].is_embedding
    for b in [chain(3), SQUARE, rn_algebra(6)]:
        assert in_sh(Z2, b)[0]
    a = concat(concat(rn_algebra(6), Z2), Z2)
    b = concat(concat(rn_algebra(8), Z2), Z2)
    assert not in_sh(a, b)[0]
    assert not in_sh(b, a)[0]


def test_in_sh_quasi_order(all6):
    small = [a for a in all6 if a.size <= 4]
    for a in small:
        assert in_sh(a, a)[0]
    for a in small:
        for b in small:
            for c in small:
                if in_sh(a, b)[0] and in_sh(b, c)[0]:
                    assert in_sh(a, c)[0]


def test_in_sh_builds_no_quotient_smaller_than_the_source(
        monkeypatch, in_sh_every_quotient_oracle):
    # a quotient with fewer elements than a is skipped unbuilt; the verdict
    # and the witness (filter, least embedding) are those of the search
    # that builds every quotient
    algebras = all_algebras(7)
    built, real = [], algebra_module.quotient

    def counted(a, filt):
        got = real(a, filt)
        built.append(got[0].size)
        return got

    monkeypatch.setattr(algebra_module, "quotient", counted)
    for a in algebras:
        for b in algebras:
            want = in_sh_every_quotient_oracle(a, b)
            built.clear()
            ok, found = in_sh(a, b)
            assert (ok, found and (found[0].members, found[1].map)) == want
            assert all(n >= a.size for n in built)


def test_si_and_opremum():
    assert is_si(Z2) and Z2.opremum() == Z2.bottom
    assert not is_si(SQUARE) and SQUARE.opremum() is None
    zp = concat(product(rn_algebra(8), Z2), Z2)
    assert is_si(zp)
    assert zp.label(zp.opremum()) == "⟨1,1⟩"


def test_dense_regular():
    assert set(dense_elements(Z2).elements()) == {1}
    assert regular_elements(Z2) == (0, 1)
    c3 = chain(3)
    assert set(dense_elements(c3).elements()) == {1, 2}
    assert regular_elements(c3) == (0, 2)


def test_quotient_by_dense_is_boolean(corpus10):
    for a in corpus10:
        q, _ = quotient(a, dense_elements(a))
        for x in range(q.size):
            assert q.join[x][q.neg[x]] == q.top


def test_is_isomorphic_examples():
    assert is_isomorphic(SQUARE, SQUARE)[0]
    assert is_isomorphic(concat(Z2, Z2), rn_algebra(3))[0]
    assert not is_isomorphic(product(chain(3), Z2), chain(6))[0]


def test_is_isomorphic_is_the_least_isomorphism(all6,
                                                least_isomorphism_oracle):
    rng = random.Random(11)
    for a in all6:
        for _ in range(3):
            order = list(range(a.size))
            rng.shuffle(order)
            b = relabel_algebra(a, order)
            want = least_isomorphism_oracle(a, b)
            assert want is not None
            assert is_isomorphic(a, b) == (True, want)
        for c in all6:
            if c is not a and c.size == a.size:
                assert least_isomorphism_oracle(a, c) is None
                assert is_isomorphic(a, c) == (False, None)


def test_is_isomorphic_on_large_relabellings():
    # each free element takes values of its colour class only, so an atom
    # of a Boolean algebra is never sent to an element of higher rank
    rng = random.Random(5)
    for expr in ["B(8)", "B(10)", "C(60)", "C(8) x C(12)", "B(3) x C(16)"]:
        a = parse_algebra_expr(expr)
        order = list(range(a.size))
        rng.shuffle(order)
        b = relabel_algebra(a, order)
        ok, m = is_isomorphic(a, b)
        assert ok and sorted(m) == list(range(a.size))
        for x in range(a.size):
            assert sum(1 << m[y] for y in _bits(a.up[x])) == b.up[m[x]]


def test_search_budget_ends_a_hard_negative():
    a = parse_algebra_expr("C(6) x C(6)")
    b = parse_algebra_expr("C(4) x C(4) x C(8)")
    start = time.perf_counter()
    with pytest.raises(SizeLimit):
        in_sh(a, b)
    assert time.perf_counter() - start < 3


def test_canonical_key_invariance(all6):
    keys = [canonical_key(a) for a in all6]
    assert len(set(keys)) == len(keys)


def _relabel_poset(p, order):
    """Permuted copy of a poset: new point k is old point order[k]."""
    pos = {x: k for k, x in enumerate(order)}
    return Poset._trusted([sum(1 << pos[y] for y in _bits(p.up[x]))
                           for x in order])


def _shuffled(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    return order


def test_canonical_key_matches_oracle_on_the_catalog(canonical_key_oracle):
    rng = random.Random(22)
    for p in _posets_with_few_upsets(13):
        want = canonical_key_oracle(p)
        assert canonical_key(p) == want
        q = _relabel_poset(p, _shuffled(p.size, rng))
        assert canonical_key(q) == canonical_key_oracle(q) == want
    for a in all_algebras(13):
        want = canonical_key_oracle(a)
        assert canonical_key(a) == want
        b = relabel_algebra(a, _shuffled(a.size, rng))
        assert canonical_key(b) == canonical_key_oracle(b) == want


def test_canonical_key_matches_oracle_on_symmetric_orders(canonical_key_oracle):
    # wide colour classes: B(2)+(B(2)xB(2)) has 829,440 leaves, so the
    # oracle, 35 s a call on a 2 vCPU Xeon, runs on one relabelling only
    rng = random.Random(7)
    for expr in ["B(3) x C(3)", "B(2) + (B(2) x B(2))"]:
        a = parse_algebra_expr(expr)
        b = relabel_algebra(a, _shuffled(a.size, rng))
        want = canonical_key_oracle(b)
        assert canonical_key(b) == want
        assert canonical_key(a) == want


def test_refine_profile_matches_oracle(refine_profile_oracle):
    rng = random.Random(34)
    for a in all_algebras(12):
        for b in (a, relabel_algebra(a, _shuffled(a.size, rng))):
            want = refine_profile_oracle(b.up, b.down, b.size)
            assert _refine_profile([list(_bits(m)) for m in b.up]) == want


def _same_tables(a, b):
    return all(getattr(a, k) == getattr(b, k) for k in
               ("up", "meet", "join", "imp", "neg", "bottom", "top"))


def _from_order(a):
    """The algebra `make_algebra` derives from a's order alone."""
    return make_algebra([[int(a.leq(x, y)) for y in range(a.size)]
                         for x in range(a.size)])


def test_upset_algebra_tables_match_oracles(upset_algebra_oracle, monkeypatch):
    frames = list(_posets_with_few_upsets(12))
    # the catalog's algebras, built over one shared dict, have the tables
    # of the up-set algebras of its posets built one at a time
    alone = sorted(map(upset_algebra, frames),
                   key=lambda a: (a.size, canonical_key(a)))
    assert len(alone) == len(all_algebras(12))
    assert all(map(_same_tables, alone, all_algebras(12)))
    # the universal frames behind the truncations, built afresh
    seen = []
    monkeypatch.setattr(rn_module, "rn_algebra", rn_module.rn_algebra.__wrapped__)
    monkeypatch.setattr(rn_module, "upset_algebra",
                        lambda p: (seen.append(p), upset_algebra(p))[1])
    for name, k in [("Zstar", 10), ("KG", 12), ("Zprime", 16), ("Zinf", 20)]:
        trunc(name, k)
    assert max(p.size for p in seen) == 26
    frames += seen
    # a chain of 64 points: its masks do not fit in int64
    frames.append(Poset._trusted([(1 << 64) - (1 << i) for i in range(64)]))
    assert frames[-1].up[0] >= 1 << 63
    for p in frames:
        a = upset_algebra(p)
        assert _same_tables(a, upset_algebra_oracle(p))
        assert _same_tables(a, _from_order(a))
        assert all(type(x) is int for row in a.imp for x in row)


def test_heyting_carcass_tables_match_oracles(all6, heyting_carcass_oracle):
    for a in all6:
        for b in (span(a)[0], span(product(a, Z2))[0]):
            h = heyting_carcass(b)
            assert _same_tables(h, heyting_carcass_oracle(b))
            assert _same_tables(h, _from_order(h))


def test_json_round_trip(corpus10):
    for a in corpus10[:20]:
        b = algebra_from_json(algebra_to_json(a))
        assert is_isomorphic(a, b)[0]
        assert canonical_key(a) == canonical_key(b)


@st.composite
def posets(draw, max_points=5):
    n = draw(st.integers(min_value=1, max_value=max_points))
    rel = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rel[i][j] = draw(st.booleans())
    # transitive closure of a strict upper-triangular relation
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if rel[i][k] and rel[k][j]:
                    rel[i][j] = True
    up = []
    for i in range(n):
        mask = 1 << i
        for j in range(n):
            if rel[i][j]:
                mask |= 1 << j
        up.append(mask)
    return Poset(up)


@settings(max_examples=60, deadline=None)
@given(posets())
def test_upset_algebra_residuation(p):
    a = upset_algebra(p)
    for x in range(a.size):
        for y in range(a.size):
            r = a.imp[x][y]
            for c in range(a.size):
                assert a.leq(c, r) == a.leq(a.meet[x][c], y)


@settings(max_examples=60, deadline=None)
@given(posets())
def test_upset_algebra_distributive(p):
    a = upset_algebra(p)
    for x in range(a.size):
        for y in range(a.size):
            for z in range(a.size):
                assert (a.meet[x][a.join[y][z]]
                        == a.join[a.meet[x][y]][a.meet[x][z]])


def test_tables_match_grid_oracle_on_all15(upset_algebra_grid_oracle):
    # the dict-indexed tables against the numpy builder they replaced, on
    # every algebra of all_algebras(15), its up and down masks too
    posets = _posets_with_few_upsets(15)
    catalog = {canonical_key(a): a for a in all_algebras(15)}
    assert len(catalog) == len(posets) == 1996
    for p in posets:
        want = upset_algebra_grid_oracle(p)
        a = catalog[canonical_key(want)]
        assert _same_tables(a, want) and a.down == want.down


def test_all_algebras_keeps_every_poset():
    # each poset with at most n up-sets gives an algebra of at most n
    # elements, so none is dropped
    assert len(all_algebras(15)) == len(_posets_with_few_upsets(15))
