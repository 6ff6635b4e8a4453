from charform.algebra import canonical_key
from charform.catalog import all_algebras, si_algebras


def test_counts_match_distributive_lattice_sequence():
    # numbers of distributive lattices with n elements
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15, 9: 26, 10: 47}
    counts = {}
    for a in all_algebras(10):
        counts[a.size] = counts.get(a.size, 0) + 1
    assert counts == expected


def test_si_count_small():
    assert [a.size for a in si_algebras(6)] == [2, 3, 4, 5, 5, 6, 6, 6]


def test_all_algebras_deduplicated():
    algs = all_algebras(8)
    keys = {canonical_key(a) for a in algs}
    assert len(keys) == len(algs)


def test_catalog_holds_one_object_per_distinct_row_and_mask():
    first = {}
    rows = [r for a in all_algebras(12) for t in (a.meet, a.join, a.imp)
            for r in t]
    assert all(type(r) is tuple and all(type(x) is int for x in r)
               for r in rows)
    assert all(first.setdefault(r, r) is r for r in rows)
    masks = [m for a in all_algebras(12) for t in (a.up, a.down) for m in t]
    assert all(first.setdefault(m, m) is m for m in masks)


def test_standard_corpus_contains_bases(corpus10):
    sizes = [a.size for a in corpus10]
    assert sizes == sorted(sizes)
    keys = {canonical_key(a) for a in corpus10}
    assert len(keys) == len(corpus10)
    from charform.rn import boolean, chain, rn_algebra
    for probe in (chain(7), rn_algebra(9), boolean(3)):
        assert canonical_key(probe) in keys
