"""The acceptance suite: ten exhaustively checked criteria.

Each criterion is a standalone function returning (passed, detail); the
pass/fail table goes to stdout and timings to stderr.  All checks are exact
algebraic equalities, no tolerances.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass

from .algebra import (Filter, Homomorphism, concat, concat_embedding,
                      homomorphism_search, in_sh, is_isomorphic, is_si,
                      product, principal_filter, quotient, _bits)
from .catalog import all_algebras, si_algebras, standard_corpus
from .formula import (compile_formula, conj, evaluate, is_valid, parse,
                      pretty, random_formula, refuting_rows, substitute, var)
from .jankov import jankov_formula
from .modal import (InteriorAlgebra, box_from_meet_of_arrows, heyting_carcass,
                    modal_validity, gmt_translate, span)
from .presentation import (Presentation, VarietyHandle, _atom, _coatom,
                           build_corpus, check_defines,
                           concat_defining_formula, diagram_presentation,
                           lemma_points, zprime_conjuncts,
                           zprime_presentation)
from .rn import boolean, chain, rn_algebra, trunc_zstar
from .jankov import term_for_element


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


def crit1(seed):
    """Kernel laws on the standard corpus (sizes <= 10), checked here since
    the library builds these algebras unchecked; a broken law raises."""
    corpus = standard_corpus(10)
    for a in corpus:
        a._validate()
        for x in range(a.size):
            filt = principal_filter(a, x)          # validates the filter
            q, h = quotient(a, filt)
            q._validate()
            Homomorphism(a, q, h.map)              # validates the surjection
    return True, f"{len(corpus)} algebras, all filters and quotients"


def crit2(seed):
    """Concatenation quotient: (A+B)/nabla' iso A + B/nabla."""
    parts = [rn_algebra(2), rn_algebra(3), rn_algebra(4), rn_algebra(5),
             chain(4), boolean(2)]
    checked = 0
    for a in parts:
        for b in parts:
            ab = concat(a, b)
            bmap = concat_embedding(a, b)
            for x in range(b.size):
                nab = principal_filter(b, x)
                members = 0
                for e in _bits(nab.members):
                    members |= 1 << bmap[e]
                lhs, _ = quotient(ab, Filter(ab, members))
                rhs_q, _ = quotient(b, nab)
                rhs = concat(a, rhs_q)
                ok, _ = is_isomorphic(lhs, rhs)
                if not ok:
                    return False, f"fails at sizes {a.size}+{b.size}, filter {x}"
                checked += 1
    return True, f"{checked} (pair, filter) instances"


def crit3(seed):
    """Jankov theorem, both directions, via the propagation engine."""
    sis = si_algebras(6)
    corpus = all_algebras(8)
    for a in sis:
        chi = jankov_formula(a)
        for b in corpus:
            refuted = not is_valid(b, chi, engine="propagate")[0]
            sh = in_sh(a, b)[0]
            if refuted != sh:
                return False, f"mismatch |A|={a.size} |B|={b.size}"
    return True, f"{len(sis)} x {len(corpus)} pairs"


def crit4(seed):
    """chi(Z3) and excluded middle have the same models up to size 8."""
    chi = jankov_formula(rn_algebra(3))
    em = parse("p1 | ~p1")
    corpus = all_algebras(8)
    for b in corpus:
        if is_valid(b, chi)[0] != is_valid(b, em)[0]:
            return False, f"differs on size {b.size}"
    return True, f"{len(corpus)} algebras"


def crit5(seed):
    """The ladder antichain: pairwise Sub-Hom failure and independence."""
    fam = {k: concat(concat(rn_algebra(2 * k), rn_algebra(2)), rn_algebra(2))
           for k in (3, 4, 5)}
    for k, a in fam.items():
        if not is_si(a):
            return False, f"A{k} not s.i."
        for m, b in fam.items():
            if in_sh(a, b)[0] != (k == m):
                return False, f"in_sh(A{k}, A{m}) wrong"
    for k, a in fam.items():
        chi = jankov_formula(a)
        for m, b in fam.items():
            valid = is_valid(b, chi, engine="propagate")[0]
            if valid != (k != m):
                return False, f"chi(A{k}) on A{m} wrong"
    return True, "k, m in {3, 4, 5}: 9 order checks, 9 formula checks"


def crit6(seed):
    """The flagship two-generator ladder presentation.

    Verified at k = 10 and 12 over the s.i. corpus of the generated variety
    (bound 8) with identical verdicts; the three single-conjunct mutations
    are each refuted (the regularity conjunct needs an 11-element witness,
    so mutations run at bound 12); the named element identities hold.
    """
    verdicts = []
    for k in (10, 12):
        p = zp = zprime_presentation(k)
        t = p.target
        handle = VarietyHandle.generated((trunc_zstar(k),), bound=8)
        corpus = build_corpus(handle)
        v = check_defines(p, corpus)
        verdicts.append(v.kind)
        if v.refuted:
            return False, f"presentation refuted at k={k}"
        # element identities
        a, b = p.valuation[0], p.valuation[1]
        if evaluate(p.formula, t, p.valuation) != t.top:
            return False, f"A(a,b) != 1 at k={k}"
        a7 = evaluate(parse("(~~p1 -> p1) -> p1 | ~p1"), t, {0: a, 1: b})
        if a7 != t.element_by_label("⟨z7,1⟩"):
            return False, f"a^7 identity fails at k={k}"
        d = t.element_by_label("⟨r2,0⟩")
        dnd = t.join[d][t.neg[d]]
        if not (t.leq(dnd, a7) and dnd != a7):
            return False, f"<r2|r1,1> < a^7 fails at k={k}"
        # mutations of the three-conjunct form, explicit witnesses required;
        # the regularity conjunct is derivable from the others, so its only
        # witnesses are truncation artifacts that first appear at size k+1
        cs = zprime_conjuncts()
        big_handle = VarietyHandle.generated((trunc_zstar(k),), bound=k + 1)
        big_corpus = build_corpus(big_handle)
        muts = [(conj([cs[1], cs[2], cs[3]]), True),
                (conj([cs[0], cs[2], cs[3]]), False),
                (conj([cs[0], cs[1]]), True)]
        for i, (mf, genuine) in enumerate(muts):
            mp = Presentation(mf, t, p.valuation)
            mv = check_defines(mp, big_corpus)
            if not mv.refuted:
                return False, f"mutation {i} not refuted at k={k}"
            w, tup = mv.witness_algebra, mv.witness_tuple
            sat_full = evaluate(p.formula, w, dict(enumerate(tup))) == w.top
            if sat_full == genuine:
                return False, f"mutation {i} witness has wrong character"
    if verdicts[0] != verdicts[1]:
        return False, "verdicts differ across truncations"
    return True, ("verified at k=10,12; mutations refuted (regularity-drop "
                  "witness is a truncation artifact, conjunct derivable); "
                  "identities hold")


def crit7(seed):
    """Concatenation presentability via the explicit defining formula."""
    # three-chain instance: both halves are diagram presentations of C3
    c3 = rn_algebra(3)
    pa = diagram_presentation(c3)
    pb0 = diagram_presentation(c3)
    shift = {v: var(v + 3) for v in range(3)}
    pb = Presentation(substitute(pb0.formula, shift), c3,
                      {v + 3: e for v, e in pb0.valuation.items()})
    g = c3.element_by_label("g")
    combined = concat_defining_formula(pa, pb, var(g), var(g + 3))
    ok, _ = is_isomorphic(combined.target, c3)
    if not ok:
        return False, "3-chain concat target wrong"
    v = check_defines(combined, [a for a in all_algebras(6) if is_si(a)])
    if v.refuted:
        return False, "3-chain concat presentation refuted"
    # ladder instance: zprime at k=10 concatenated with Z2 + Z7
    k = 10
    pa = zprime_presentation(k)
    tb = concat(rn_algebra(2), rn_algebra(7))
    pb0 = diagram_presentation(tb)
    shift = {v: var(v + 2) for v in range(tb.size)}
    pb = Presentation(substitute(pb0.formula, shift), tb,
                      {v + 2: e for v, e in pb0.valuation.items()})
    coat_term = term_for_element(pa.target,
                                 sorted(pa.valuation.items()),
                                 _coatom(pa.target))
    atom_term = var(2 + _atom(tb))
    combined = concat_defining_formula(pa, pb, coat_term, atom_term)
    generator = concat(product(rn_algebra(k), rn_algebra(2)), rn_algebra(7))
    ok, _ = is_isomorphic(combined.target, generator)
    if not ok:
        return False, "ladder concat target wrong"
    handle = VarietyHandle.generated((generator,), bound=8)
    v = check_defines(combined, build_corpus(handle))
    if v.refuted:
        return False, f"ladder concat presentation refuted: {v}"
    return True, "3-chain and trunc(ladder x2 + Z7, 10) both verified"


def sample_lemma_formulas(seed, count=500, max_attempts=40000):
    """Seeded 2-variable formulas whose value at (a, b) is top."""
    p = zprime_presentation(12)
    t = p.target
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        f = random_formula(rng, 6, 2)
        attempts += 1
        if evaluate(f, t, p.valuation) == t.top:
            out.append(f)
    return p, out


def first_lemma_shadow_failure(p, formulas, corpus):
    """The first failure of the three lemma properties, as a string, or
    None.  Each formula, over p1 and p2 and not variable-free, runs once
    per corpus algebra, over all its `lemma_points` (`refuting_rows`)."""
    points = lemma_points(p, corpus)
    for i, f in enumerate(formulas):
        prog = compile_formula(f)
        for c, (xs, ys) in zip(corpus, points):
            bad = refuting_rows(prog, c, {0: xs, 1: ys})
            if bad:
                n = c.size
                kind = ("substitution" if bad & (1 << n) - 1
                        else "corner" if bad >> n & 7
                        else "complemented-pair")
                return f"{kind} lemma fails: formula {i}, size {n}"
    return None


def crit8(seed):
    """Lemma shadows on 500 seeded satisfying formulas."""
    p, formulas = sample_lemma_formulas(seed)
    if len(formulas) < 500:
        return False, f"only {len(formulas)} satisfying samples"
    corpus = all_algebras(8)
    fail = first_lemma_shadow_failure(p, formulas, corpus)
    if fail:
        return False, fail
    return True, f"500 formulas x {len(corpus)} algebras, zero exceptions"


KG_AXIOM = "(p1 -> p2) | (p2 -> p3) | ((p2 -> p3) -> p3) | (p3 -> (p1 | p2))"


def pretrue_formula():
    """Formula refuted exactly where Z7+Z2 or Z2+Z7+Z2 is homo-embeddable.

    Realized as the conjunction of the two Jankov formulas; the printed
    source of the compact three-variable form is corrupt (one reading is an
    intuitionistic tautology, the other refutes on Z7 alone), so the check
    uses the definable realization.
    """
    a1 = concat(rn_algebra(7), rn_algebra(2))
    a2 = concat(concat(rn_algebra(2), rn_algebra(7)), rn_algebra(2))
    chi1 = jankov_formula(a1)
    shift = {v: var(v + a1.size) for v in range(a2.size)}
    chi2 = substitute(jankov_formula(a2), shift)
    return conj([chi1, chi2]), a1, a2


def crit9(seed):
    """Pre-true formula vs plain embeddability of the two concatenations.

    The iff needs refutability through quotients to coincide with plain
    subalgebra containment on the KG class, which is the point of the
    source observation.
    """
    kg = parse(KG_AXIOM)
    pre, a1, a2 = pretrue_formula()
    checked = 0
    for b in all_algebras(10):
        if not is_valid(b, kg)[0]:
            continue
        checked += 1
        valid = is_valid(b, pre, engine="propagate")[0]
        emb1 = bool(homomorphism_search(a1, b, injective=True, first_only=True))
        emb2 = bool(homomorphism_search(a2, b, injective=True, first_only=True))
        if valid != (not emb1 and not emb2):
            return False, f"fails on size {b.size}"
    return True, (f"{checked} KG-validating algebras; pre-true realized as "
                  "chi(Z7+Z2) & chi(Z2+Z7+Z2)")


def crit10(seed):
    """Modal bridge: S4 and Grz laws, span round trip, translation transfer,
    and the meet-of-arrows interior formula."""
    grz = parse("[]([](p1 -> []p1) -> p1) -> p1")
    for a in standard_corpus(10):
        s, embed = span(a)
        InteriorAlgebra(s.atoms, s.box)  # the S4 laws; raises NotS4
        if not modal_validity(s, grz)[0]:
            return False, f"Grz fails on span of size {a.size}"
        h = heyting_carcass(s)
        ok, _ = is_isomorphic(a, h)
        if not ok:
            return False, f"carcass round trip fails at size {a.size}"
        if not box_from_meet_of_arrows(a, s, embed):
            return False, f"meet-of-arrows box differs at size {a.size}"
    rng = random.Random(seed)
    spans = [(a, span(a)) for a in all_algebras(8)]
    for _ in range(200):
        f = random_formula(rng, 6, 3)
        for a, (s, _) in spans:
            if is_valid(a, f)[0] != modal_validity(s, gmt_translate(f))[0]:
                return False, f"transfer fails: {pretty(f)} at size {a.size}"
    return True, "laws, round trips, 200 x corpus transfers"


CRITERIA = [
    (1, "kernel laws on the standard corpus", crit1),
    (2, "concatenation quotient isomorphism", crit2),
    (3, "Jankov theorem iff Sub-Hom", crit3),
    (4, "chi(Z3) matches excluded middle", crit4),
    (5, "ladder antichain and independence", crit5),
    (6, "two-generator ladder presentation", crit6),
    (7, "concatenation presentability", crit7),
    (8, "lemma shadows on sampled formulas", crit8),
    (9, "pre-true formula vs embeddability", crit9),
    (10, "modal bridge", crit10),
]


def run_criteria(numbers=None, seed=2025):
    results = []
    for num, title, fn in CRITERIA:
        if numbers and num not in numbers:
            continue
        t0 = time.time()
        try:
            passed, detail = fn(seed)
        except Exception as e:  # a crash is a failure, not an abort
            passed, detail = False, f"error: {e!r}"
        results.append(CriterionResult(num, title, passed, detail,
                                       time.time() - t0))
    return results


def print_report(results, out=None):
    out = out or sys.stdout
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number:2d} {status}  {r.title}: {r.detail}",
              file=out)
        print(f"criterion {r.number:2d} took {r.seconds:.1f}s",
              file=sys.stderr)
        ok = ok and r.passed
    print("ALL PASS" if ok else "SUITE FAILED", file=out)
    return ok
