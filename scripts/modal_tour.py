#!/usr/bin/env python3
"""A tour of the modal diagrams and presentations: over the spans of every
Heyting algebra up to 5 elements, their open-generated parts and every
quotient by an open element, the sha256 of the pretty-printed diagram of
each, and for each s.i. one the sha256 of its modal characteristic formula
under both connectives.  Then the `check_defines` verdict of the GMT
presentation of each algebra's diagram over the spans.  Last, the transfer:
for seeded random formulas and each Heyting algebra up to 5 elements, the
Heyting verdict and least counter-valuation of the formula, then the modal
verdict and least counter-valuation of its GMT translation on the span.
Then Sub-Hom: for each ordered pair of those spans, whether the first
embeds into a quotient of the second, with the least open of the second
whose quotient takes it.

Its output is compared with tests/golden/modal_tour.txt, so any change to
a diagram, a characteristic formula, a verdict or a witness shows:

    PYTHONPATH=src python3 scripts/modal_tour.py | diff - tests/golden/modal_tour.txt
"""

import hashlib
import random

from charform.algebra import in_sh, is_si
from charform.catalog import all_algebras
from charform.formula import is_valid, pretty, random_formula
from charform.jankov import characteristic_formula, diagram_formula
from charform.modal import (gmt_presentation, gmt_translate, modal_validity,
                            open_generated, quotient_by_open, span)
from charform.presentation import check_defines, diagram_presentation


def digest(f):
    return hashlib.sha256(pretty(f).encode()).hexdigest()


def verdict(result):
    ok, witness = result
    if ok:
        return "valid"
    return "refuted at " + " ".join(f"p{v + 1}={e}"
                                   for v, e in sorted(witness.items()))


def transfer(heyting, spans, count=40, seed=2025):
    rng = random.Random(seed)
    for i in range(count):
        f = random_formula(rng, 5, 3)
        t = gmt_translate(f)
        print(f"transfer {i}: {pretty(f)}")
        for j, (a, s) in enumerate(zip(heyting, spans)):
            print(f"  algebra {j}: heyting {verdict(is_valid(a, f))}; "
                  f"modal {verdict(modal_validity(s, t))}")


def sub_hom(spans):
    for i, sa in enumerate(spans):
        for j, sb in enumerate(spans):
            ok, witness = in_sh(sa, sb)
            print(f"sub-hom span {i} into span {j}: "
                  + (f"yes at open {witness[0]}" if ok else "no"))


def main():
    heyting = all_algebras(5)
    spans = [span(a)[0] for a in heyting]
    for i, s in enumerate(spans):
        parts = [("span", s), ("open-generated", open_generated(s))]
        parts += [(f"quotient by {o}", quotient_by_open(s, o)) for o in s.opens]
        for name, b in parts:
            print(f"span {i} {name}: {b.atoms} atoms, box {list(b.box)}")
            print(f"  diagram {digest(diagram_formula(b)[0])}")
            if is_si(b):
                mp = diagram_presentation(b)
                for connective in ("box-imp", "imp"):
                    chi = characteristic_formula(mp, connective)
                    print(f"  chi {connective} {digest(chi)}")
    for i, a in enumerate(heyting):
        v = check_defines(gmt_presentation(diagram_presentation(a)), spans)
        where = ("" if v.witness_algebra is None
                 else f" on span {spans.index(v.witness_algebra)}")
        print(f"gmt(diagram {i}, size {a.size}): {v}{where}")
    transfer(heyting, spans)
    sub_hom(spans)


if __name__ == "__main__":
    main()
