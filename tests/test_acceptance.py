"""The acceptance gate: every criterion runs at its stated budget and must
pass; one line is printed per criterion."""

import pytest

from charform import acceptance
from charform.catalog import all_algebras
from charform.formula import parse
from charform.presentation import Presentation
from charform.rn import chain

BUDGETS = {1: 10, 2: 30, 3: 300, 4: 60, 5: 600, 6: 600, 7: 600, 8: 300,
           9: 300, 10: 300}


@pytest.mark.parametrize("number,title,fn",
                         acceptance.CRITERIA,
                         ids=[f"criterion-{n}" for n, _, _ in acceptance.CRITERIA])
def test_criterion(number, title, fn):
    import time
    t0 = time.time()
    passed, detail = fn(seed=2025)
    took = time.time() - t0
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} {status} ({took:.1f}s)  {title}: {detail}")
    assert passed, f"criterion {number}: {detail}"
    assert took < BUDGETS[number], f"criterion {number} exceeded its budget"


@pytest.mark.parametrize("texts, want", [
    (["p2 | ~p2"], None),
    (["p1 | ~p1"], "substitution lemma fails: formula 0, size 3"),
    (["p2 -> p1"], "corner lemma fails: formula 0, size 2"),
    (["p2 | ~p2", "p1 -> ~p2"],
     "complemented-pair lemma fails: formula 1, size 2"),
])
def test_first_lemma_shadow_failure(texts, want):
    # the presentation formula is top everywhere, so every pair with a
    # complemented p2 is a lemma point
    p = Presentation(parse("p1 -> p1 | p2"), chain(2), {0: 0, 1: 1})
    formulas = [parse(t) for t in texts]
    assert acceptance.first_lemma_shadow_failure(
        p, formulas, all_algebras(4)) == want
