import pytest

from charform.catalog import all_algebras, si_algebras, standard_corpus
from charform.formula import BOT, TOP, Formula, var


@pytest.fixture(scope="session")
def all8():
    return all_algebras(8)


@pytest.fixture(scope="session")
def all6():
    return all_algebras(6)


@pytest.fixture(scope="session")
def si6():
    return si_algebras(6)


@pytest.fixture(scope="session")
def corpus10():
    return standard_corpus(10)


def _random_test_formula(rng, depth, nvars, modal=False):
    """Seeded random formula over variables 0..nvars-1 with top, bot, neg,
    box (when modal) and repeated subterms (op(g, g) shares one object)."""
    if depth == 0 or rng.random() < 0.25:
        if nvars == 0 or rng.random() < 0.15:
            return rng.choice((TOP, BOT))
        return var(rng.randrange(nvars))
    kind = rng.choice(("and", "or", "imp", "neg", "repeat")
                      + (("box",) if modal else ()))
    if kind in ("neg", "box"):
        return Formula(kind, (_random_test_formula(rng, depth - 1, nvars, modal),))
    left = _random_test_formula(rng, depth - 1, nvars, modal)
    if kind == "repeat":
        return Formula(rng.choice(("and", "or", "imp")), (left, left))
    return Formula(kind, (left, _random_test_formula(rng, depth - 1, nvars, modal)))


@pytest.fixture(scope="session")
def random_test_formula():
    return _random_test_formula
