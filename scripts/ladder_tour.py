#!/usr/bin/env python3
"""A quick tour: small one-generated algebras, built-in truncations, and
the antichain of ladder concatenations."""

from charform.algebra import concat, in_sh, is_si
from charform.formula import is_valid
from charform.jankov import jankov_formula
from charform.rn import rn_algebra, trunc


def main():
    print("one-generated algebras")
    for n in range(2, 9):
        a = rn_algebra(n)
        covers = " ".join(f"{a.label(i)}<{a.label(j)}" for i, j in a.covers())
        op = a.opremum()
        print(f"  Z({n}): si={is_si(a)} opremum="
              f"{a.label(op) if op is not None else '-'}  {covers}")

    print("built-in truncations at k = 8")
    for name in ("Zinf", "Zprime", "Zstar", "KG"):
        t = trunc(name, 8)
        print(f"  {name}: {t.size} elements, si={is_si(t)}")

    print("the antichain Z(2k)+Z(2)+Z(2), k in 3..5")
    fam = {k: concat(concat(rn_algebra(2 * k), rn_algebra(2)), rn_algebra(2))
           for k in (3, 4, 5)}
    for k, a in fam.items():
        chi = jankov_formula(a)
        row = []
        for m, b in fam.items():
            sh = in_sh(a, b)[0]
            valid = is_valid(b, chi, engine="propagate")[0]
            row.append(f"A{m}: in_sh={'y' if sh else 'n'} chi-valid={'y' if valid else 'n'}")
        print(f"  chi(A{k}) vs " + "; ".join(row))


if __name__ == "__main__":
    main()
