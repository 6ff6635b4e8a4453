#!/usr/bin/env python3
"""A tour of s.i. corpora: every member of the corpora the benchmark and
criterion 6 build, in corpus order, with its size, up-set masks, labels
and membership evidence.

Its output is compared with tests/golden/corpus_tour.txt, so any change
to the members, their order, their labelling or their evidence shows:

    PYTHONPATH=src python3 scripts/corpus_tour.py | diff - tests/golden/corpus_tour.txt
"""

from charform.presentation import VarietyHandle, build_corpus
from charform.rn import trunc, trunc_zstar

# the generators of the corpus benchmark workload, built in at these sizes
CORPUS_GENERATORS = (("Zstar", 10), ("Zstar", 7), ("Zstar", 8), ("Zstar", 9),
                     ("KG", 8), ("KG", 9), ("KG", 10), ("KG", 11), ("KG", 12),
                     ("Zprime", 10), ("Zprime", 12), ("Zprime", 14),
                     ("Zprime", 16), ("Zinf", 18), ("Zinf", 20))


def tour(name, generator, bound):
    corpus = build_corpus(VarietyHandle.generated((generator,), bound),
                          with_evidence=True)
    print(f"{name} at bound {bound}: {len(corpus)} members")
    for a, (kind, gi, elt, carrier) in corpus:
        labels = " ".join(a.label(x) for x in range(a.size))
        print(f"  size {a.size} up {list(a.up)} labels [{labels}] "
              f"evidence ({kind}, {gi}, {elt}, {sorted(carrier)})")


def main():
    for kind, k in CORPUS_GENERATORS:
        tour(f"{kind}({k})", trunc(kind, k), 8)
    for k in (10, 12):
        for bound in (8, k + 1):
            tour(f"trunc_zstar({k})", trunc_zstar(k), bound)


if __name__ == "__main__":
    main()
