#!/usr/bin/env python3
"""A tour of the propagation engine: the verdict and least witness of
`is_valid(..., engine="propagate")` for the Jankov formula of every s.i.
algebra up to 6 elements against every algebra up to 8 elements, and for
the pre-true formula against every KG-validating algebra up to 10 elements.

Its output is compared with tests/golden/validity_tour.txt, so any change
to a verdict or a witness shows:

    PYTHONPATH=src python3 scripts/validity_tour.py | diff - tests/golden/validity_tour.txt
"""

from charform.acceptance import KG_AXIOM, pretrue_formula
from charform.catalog import all_algebras, si_algebras
from charform.formula import is_valid, parse
from charform.jankov import jankov_formula


def show(name, b, f):
    valid, witness = is_valid(b, f, engine="propagate")
    shown = "-" if witness is None else " ".join(
        f"p{v + 1}={b.label(e)}" for v, e in sorted(witness.items()))
    print(f"  {name} on size {b.size} up {list(b.up)}: "
          f"{'valid' if valid else 'refuted'} {shown}")


def main():
    targets = all_algebras(8)
    for i, a in enumerate(si_algebras(6)):
        print(f"chi(si {i}, size {a.size} up {list(a.up)})")
        chi = jankov_formula(a)
        for b in targets:
            show("chi", b, chi)
    kg = parse(KG_AXIOM)
    pre, _, _ = pretrue_formula()
    print("pre-true formula")
    for b in all_algebras(10):
        if is_valid(b, kg)[0]:
            show("pre", b, pre)


if __name__ == "__main__":
    main()
