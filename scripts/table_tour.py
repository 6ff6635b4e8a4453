#!/usr/bin/env python3
"""A tour of the derived algebras' tables: one line per algebra with the
sha256 of its (up, meet, join, imp, bottom, top, labels), or of its
(atoms, box, atom labels) for an interior algebra.  It covers
`all_algebras(8)`; every principal quotient and every subalgebra of at
most 6 elements of each of `all_algebras(7)`; products and
concatenations of pairs from `all_algebras(4)`; seeded relabellings of
trunc("Zprime", 6), trunc("KG", 4) and Z(9); carcasses of the spans of
`all_algebras(7)`; and the open-generated parts and every quotient by an
open element of the spans of `all_algebras(6)`.  Three last lines guard the
cold catalog: one sha256 over `all_algebras(15)` in order, of each
algebra's (canonical key, up, meet, join, imp, bottom, top), one over the
canonical keys of the posets of `_posets_with_few_upsets(15)`, and the
number of meet, join and imp rows of `all_algebras(15)`, of their distinct
values and of their distinct objects; the last two are equal when equal
rows are shared.

Its output is compared with tests/golden/table_tour.txt, so any change to
a constructor's tables, element indices or labels shows:

    PYTHONPATH=src python3 scripts/table_tour.py | diff - tests/golden/table_tour.txt
"""

import hashlib
import random

from charform.algebra import (canonical_key, concat, induced_subalgebra,
                              principal_filter, product, quotient,
                              relabel_algebra)
from charform.catalog import _posets_with_few_upsets, all_algebras
from charform.modal import heyting_carcass, open_generated, quotient_by_open, span
from charform.presentation import _bounded_subalgebras
from charform.rn import rn_algebra, trunc


def digest(alg):
    if hasattr(alg, "box"):
        parts = (alg.atoms, alg.box, alg.atom_labels)
    else:
        parts = (alg.up, alg.meet, alg.join, alg.imp, alg.bottom, alg.top,
                 alg.labels)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def sha256_of(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def show(name, alg):
    print(f"{name}: size {alg.size} {digest(alg)}")


def main():
    for i, a in enumerate(all_algebras(8)):
        show(f"catalog {i}", a)
    for i, a in enumerate(all_algebras(7)):
        for x in range(a.size):
            show(f"algebra {i} quotient by {x}",
                 quotient(a, principal_filter(a, x))[0])
        for carrier in _bounded_subalgebras(a, 6):
            show(f"algebra {i} subalgebra {sorted(carrier)}",
                 induced_subalgebra(a, carrier)[1])
    small = all_algebras(4)
    for i, a in enumerate(small):
        for j, b in enumerate(small):
            show(f"product {i} {j}", product(a, b))
            show(f"concat {i} {j}", concat(a, b))
    for name, alg in (("Zprime 6", trunc("Zprime", 6)), ("KG 4", trunc("KG", 4)),
                      ("Z(9)", rn_algebra(9))):
        for seed in range(3):
            order = list(range(alg.size))
            random.Random(seed).shuffle(order)
            show(f"{name} relabelled by seed {seed}", relabel_algebra(alg, order))
    for i, a in enumerate(all_algebras(7)):
        show(f"carcass of span {i}", heyting_carcass(span(a)[0]))
    for i, a in enumerate(all_algebras(6)):
        s = span(a)[0]
        show(f"span {i} open-generated", open_generated(s))
        for o in s.opens:
            show(f"span {i} quotient by {o}", quotient_by_open(s, o))
    catalog = all_algebras(15)
    print(f"catalog 15: {len(catalog)} algebras " + sha256_of(
        (canonical_key(a), a.up, a.meet, a.join, a.imp, a.bottom, a.top)
        for a in catalog))
    posets = _posets_with_few_upsets(15)
    print(f"posets with at most 15 up-sets: {len(posets)} posets "
          + sha256_of(canonical_key(p) for p in posets))
    rows = [r for a in catalog for t in (a.meet, a.join, a.imp) for r in t]
    print(f"catalog 15 rows: {len(rows)} in all, {len(set(rows))} distinct, "
          f"{len(set(map(id, rows)))} distinct objects")


if __name__ == "__main__":
    main()
