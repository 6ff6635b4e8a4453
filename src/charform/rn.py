"""The one-generated ladder: universal frame, Z(n), and truncations.

Z(n) is the n-element one-generated Heyting algebra, obtained as a quotient
of the free one-generated algebra (the Rieger-Nishimura ladder).  Infinite
algebras never exist in memory: `trunc` builds a finite stand-in where every
ladder factor is replaced by its n-element quotient.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (NoSuchAlgebra, Poset, concat,
                      generated_subalgebra, make_algebra, principal_filter,
                      product, quotient, relabel_algebra, upset_algebra,
                      _transpose)


class TruncationTooSmall(Exception):
    pass


def universal_frame(rounds):
    """One-variable universal frame, grown breadth-first for `rounds` rounds.

    Returns (poset, index of the unique point where the variable holds).
    Points are added for every (antichain, valuation) pair obeying
    persistence and properness; for one variable this grows the familiar
    width-two ladder, which downstream assertions re-check.
    """
    up = [0b01, 0b10]
    val = [True, False]
    seen = {((0,), True), ((1,), False)}

    def antichains():
        n = len(up)
        down = _transpose(up)
        out = [(i,) for i in range(n)]
        stack = [((i,), up[i] | down[i]) for i in range(n)]
        while stack:
            chain, excl = stack.pop()
            for j in range(chain[-1] + 1, n):
                if not (excl >> j) & 1:
                    ext = chain + (j,)
                    out.append(ext)
                    stack.append((ext, excl | up[j] | down[j]))
        return sorted(out)

    for _ in range(rounds - 1):
        new = []
        for chain in antichains():
            sigmas = (True, False) if all(val[i] for i in chain) else (False,)
            for sigma in sigmas:
                if len(chain) == 1 and sigma == val[chain[0]]:
                    continue
                if (chain, sigma) in seen:
                    continue
                new.append((chain, sigma))
        for chain, sigma in new:
            seen.add((chain, sigma))
            mask = 1 << len(up)
            for i in chain:
                mask |= up[i]
            up.append(mask)
            val.append(sigma)
    return Poset._trusted(up), 0


def _ladder_subalgebra(rounds):
    """Generated subalgebra of the variable upset in the frame's upset algebra."""
    frame, p_point = universal_frame(rounds)
    u = upset_algebra(frame)
    masks = frame.upset_masks()
    g = masks.index(1 << p_point)
    carrier, sub = generated_subalgebra(u, {g})
    g_sub = sorted(carrier).index(g)
    return sub, g_sub


@lru_cache(maxsize=None)
def rn_algebra(n):
    """The n-element one-generated algebra Z(n).

    Construction: upset algebra of the universal frame with margin, the
    subalgebra generated by the variable upset, then the quotient by the
    principal filter leaving exactly n elements.  One-generatedness and the
    element count are asserted post hoc rather than trusted.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 64:
        from .algebra import SizeLimit
        raise SizeLimit("ladder quotients are capped at 64 elements")
    if n == 1:
        return make_algebra([[1]], labels=["0"])
    rounds = max(3, n // 2 + 3)
    sub = g_sub = None
    for _ in range(4):
        sub, g_sub = _ladder_subalgebra(rounds)
        if any(sub.down[x].bit_count() == n for x in range(sub.size)):
            break
        rounds += max(2, n // 2)
    cands = [x for x in range(sub.size) if sub.down[x].bit_count() == n]
    if not cands:
        raise NoSuchAlgebra(f"no ladder quotient with {n} elements")
    cut = min(cands)
    q, h = quotient(sub, principal_filter(sub, cut))
    if q.size != n:
        raise NoSuchAlgebra(f"quotient size {q.size} != {n}")
    g = h.map[g_sub]
    carrier, _ = generated_subalgebra(q, {g})
    if len(carrier) != n:
        raise NoSuchAlgebra(f"Z({n}) candidate not one-generated")
    order = sorted(range(n), key=lambda x: (q.down[x].bit_count(),
                                            0 if x == g else 1, x))
    labels = []
    for k, x in enumerate(order):
        size = q.down[x].bit_count()
        if size == 1:
            labels.append("0")
        elif size == n:
            labels.append("1")
        elif x == g:
            labels.append("g")
        elif size == 2:
            labels.append("r2")
        elif size == 3:
            labels.append("r1")
        elif size == 4:
            labels.append("t")
        else:
            labels.append(f"z{size}")
    return relabel_algebra(q, order, labels=labels)


def chain(n):
    """The n-element chain."""
    return make_algebra([[1 if i <= j else 0 for j in range(n)]
                         for i in range(n)])


def boolean(atoms):
    """The Boolean algebra with the given number of atoms, as upsets."""
    return upset_algebra(Poset._trusted([1 << i for i in range(atoms)]))


# -- truncations of the built-in infinite algebras -------------------------


def trunc_zinf(k):
    if k < 2:
        raise TruncationTooSmall("Zinf truncation needs k >= 2")
    return rn_algebra(k)


def trunc_zprime(k):
    """Ladder-times-two with a new top: the stand-in for Z x Z2 + Z2.

    The generator pair is labelled a = <g,0> and b = <0,1>.
    """
    if k < 6:
        raise TruncationTooSmall("Zprime truncation needs k >= 6")
    base = product(rn_algebra(k), rn_algebra(2))
    alg = concat(base, rn_algebra(2))
    labels = list(alg.labels)
    labels[alg.element_by_label("⟨g,0⟩")] = "a"
    labels[alg.element_by_label("⟨0,1⟩")] = "b"
    return relabel_algebra(alg, range(alg.size), labels=labels)


def trunc_zstar(k):
    """Stand-in for Z x Z2 + Z: ladder-times-two with a ladder on top."""
    if k < 6:
        raise TruncationTooSmall("Zstar truncation needs k >= 6")
    return concat(product(rn_algebra(k), rn_algebra(2)), rn_algebra(k))


def trunc_kg(k):
    """Stand-in for Z + Z7 + Z2."""
    if k < 2:
        raise TruncationTooSmall("KG truncation needs k >= 2")
    return concat(concat(rn_algebra(k), rn_algebra(7)), rn_algebra(2))


TRUNC_BUILTINS = {
    "Zinf": trunc_zinf,
    "Zprime": trunc_zprime,
    "Zstar": trunc_zstar,
    "KG": trunc_kg,
}


def trunc(name, k):
    if name not in TRUNC_BUILTINS:
        raise KeyError(f"unknown truncation built-in {name!r}")
    return TRUNC_BUILTINS[name](k)
