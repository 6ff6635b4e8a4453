"""The three workloads of the charform benchmark.

A workload is built from a seed in set-up and then lists its tasks.  A
task is one public call that returns one verdict or one corpus.  The
harness times `call`, and only after the timed loop turns each result into
a hashable `record` (for the run's digest) and runs `check` on it.

The default seed keeps the acceptance instances among its inputs, as the
acceptance suite labels them: criteria 3 and 9 in validity, the bound-8
check of criterion 6 in corpus, the formulas of criterion 10 in modal.
Every other seed relabels each input algebra by a seeded permutation, and
draws the modal formulas with the same mix of sizes and variable counts as
the default seed.  So the number of tasks does not depend on the seed, while
the least witnesses do.  The work of a search depends on the labelling, so
every search task gets a labelling of its own: a run's latencies then
average hundreds of labellings rather than the few dozen of its distinct
algebras, and vary less from seed to seed.  In corpus the searched algebras
are instead the members of the corpora the run builds, in the labelling
build_corpus gives them, which follows from the seed's relabelling of the
generator.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from charform import (acceptance, algebra, catalog, formula, jankov, modal,
                      presentation, rn)

DEFAULT_SEED = 2025

# Heyting algebras with exactly n elements, n = 1 .. 15, up to isomorphism.
CATALOG_COUNTS = (1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151, 269, 494, 891)

GRZ = "[]([](p1 -> []p1) -> p1) -> p1"

# Per size: corpus generators (built-in, k) with the number of s.i. algebras
# up to 8 elements in their variety (invariant under relabelling), the
# generators whose corpora check_defines runs over, and the zprime sizes.
# Many mid-sized generators rather than a few large ones: the small
# check_defines tasks run in the gaps between them, so their latencies
# sample the whole run.  The checks run over three corpora, so that the
# median latency is taken over well over a thousand tasks: with a few
# hundred, the sparse middle of their latency distribution lets the median
# jump from run to run.
CORPUS_SIZES = {
    "full": dict(catalog=15,
                 generators={("Zstar", 10): 19, ("Zstar", 7): 17,
                             ("Zstar", 8): 13, ("Zstar", 9): 20,
                             ("KG", 8): 16, ("KG", 9): 18, ("KG", 10): 20,
                             ("KG", 11): 20, ("KG", 12): 20, ("Zprime", 10): 10,
                             ("Zprime", 12): 13, ("Zprime", 14): 14,
                             ("Zprime", 16): 18, ("Zinf", 18): 14,
                             ("Zinf", 20): 18},
                 check_over=(("Zstar", 10), ("Zstar", 9), ("KG", 10)),
                 zprime=(10, 11, 12, 13, 14, 15)),
    "tiny": dict(catalog=8,
                 generators={("Zstar", 6): 8, ("KG", 6): 18},
                 check_over=(("Zstar", 6),), zprime=(8,)),
}
VALIDITY_SIZES = {
    "full": dict(si=6, targets=8, kg_catalog=10, kg_count=102),
    "tiny": dict(si=4, targets=5, kg_catalog=7, kg_count=None),
}
# The default seed's first 200 formulas are the acceptance instances; 300
# make a run long enough to average out some of the machine's drift.
MODAL_SIZES = {
    "full": dict(formulas=300, catalog=8, standard=10),
    "tiny": dict(formulas=20, catalog=6, standard=6),
}
CORPUS_BOUND = 8


@dataclass
class Task:
    group: str
    call: Callable[[], Any]
    record: Callable[[Any], tuple]
    check: Callable[[Any], bool]


def spread(major, minor):
    """Merge two task lists, each kept in its own order, with the tasks of
    minor evenly spaced among those of major.

    Machine speed drifts over seconds, so a kind of task run all in one
    stretch would have its latencies set by that stretch alone.
    """
    out, j = [], 0
    for i, task in enumerate(major):
        out.append(task)
        due = len(minor) * (i + 1) // len(major)
        out += minor[j:due]
        j = due
    return out + minor[j:]


def _witness(w):
    return None if w is None else tuple(sorted(w.items()))


def fingerprint(a):
    """Isomorphism-invariant summary of an algebra: size and the sorted
    (down-set size, up-set size) of its elements."""
    return (a.size, tuple(sorted((a.down[x].bit_count(), a.up[x].bit_count())
                                 for x in range(a.size))))


def relabeller(seed, stream):
    """Identity for the default seed, else a seeded random relabelling;
    each named stream draws its own permutations."""
    if seed == DEFAULT_SEED:
        return lambda a: a
    rng = random.Random(f"{seed}/{stream}")

    def relabel(a):
        order = list(range(a.size))
        rng.shuffle(order)
        return algebra.relabel_algebra(a, order)
    return relabel


# -- corpus -------------------------------------------------------------------


class CorpusWorkload:
    """Corpora built from nothing: the cold catalog, s.i. corpora of
    generated varieties, and check_defines of the zprime presentation and
    its conjunct mutations against some of those corpora."""

    def __init__(self, seed, size):
        cfg = CORPUS_SIZES[size]
        relabel = relabeller(seed, "generators")
        self.catalog_bound = cfg["catalog"]
        self.generators = [(key, count, relabel(rn.trunc(*key)))
                           for key, count in cfg["generators"].items()]
        self.counts = cfg["generators"]
        self.check_over = cfg["check_over"]
        cs = presentation.zprime_conjuncts()
        mutations = [formula.conj([cs[1], cs[2], cs[3]]),
                     formula.conj([cs[0], cs[2], cs[3]]),
                     formula.conj([cs[0], cs[1]])]
        self.presentations = []     # (must be verified, presentation)
        for k in cfg["zprime"]:
            p = presentation.zprime_presentation(k)
            self.presentations.append((k >= 10, p))
            self.presentations += [
                (False, presentation.Presentation(mf, p.target, p.valuation))
                for mf in mutations]

    def tasks(self):
        bound = self.catalog_bound
        big = [Task("all_algebras", lambda: catalog.all_algebras(bound),
                    _catalog_record, lambda r: _catalog_ok(r, bound))]
        corpora = {}
        for key, count, gen in self.generators:
            def build(key=key, gen=gen):
                handle = presentation.VarietyHandle.generated((gen,), CORPUS_BOUND)
                corpora[key] = presentation.build_corpus(handle)
                return corpora[key]
            big.append(Task("build_corpus", build,
                            lambda c: tuple(sorted(map(fingerprint, c))),
                            lambda c, count=count: _corpus_ok(c, count)))
        # one task per (corpus checked over, presentation, member); the
        # first tasks build the corpora checked over, and their member
        # counts are known, so the list is fixed
        keys = [k for k, _, _ in self.generators]
        built_first = [1 + keys.index(key) for key in self.check_over]
        small = [Task("check_defines",
                      lambda key=key, p=p, i=i: presentation.check_defines(
                          p, [corpora[key][i]]),
                      lambda v: (v.kind, v.bound, v.witness_tuple),
                      lambda v, m=must_verify: not (m and v.refuted))
                 for key in self.check_over
                 for must_verify, p in self.presentations
                 for i in range(self.counts[key])]
        return [big[i] for i in built_first] + spread(
            small, [t for i, t in enumerate(big) if i not in built_first])


def _catalog_record(algebras):
    counts = Counter(a.size for a in algebras)
    return (tuple(counts[n] for n in range(1, max(counts) + 1)),
            tuple(sorted(map(fingerprint, algebras))))


def _catalog_ok(algebras, bound):
    counts = Counter(a.size for a in algebras)
    return tuple(counts[n] for n in range(1, bound + 1)) == CATALOG_COUNTS[:bound] \
        and max(counts) == bound


def _corpus_ok(corpus, count):
    """Every member s.i., within the bound, and no two isomorphic."""
    if len(corpus) != count:
        return False
    if not all(algebra.is_si(a) and a.size <= CORPUS_BOUND for a in corpus):
        return False
    return not any(a.size == b.size and algebra.is_isomorphic(a, b)[0]
                   for i, a in enumerate(corpus) for b in corpus[i + 1:])


# -- validity -----------------------------------------------------------------


class ValidityWorkload:
    """Jankov formulas and the pre-true formula checked by the propagation
    engine against a fixed catalog, each verdict paired with the Sub-Hom or
    embedding search that must agree with it."""

    def __init__(self, seed, size):
        cfg = VALIDITY_SIZES[size]
        relabel = relabeller(seed, "targets")
        sis = [(a, jankov.jankov_formula(a)) for a in catalog.si_algebras(cfg["si"])]
        targets = catalog.all_algebras(cfg["targets"])
        # every (formula, target) task searches its own relabelled target
        self.pairs = [(a, chi, relabel(b)) for a, chi in sis for b in targets]
        kg = formula.parse(acceptance.KG_AXIOM)
        self.kg_targets = [relabel(b) for b in catalog.all_algebras(cfg["kg_catalog"])
                           if formula.is_valid(b, kg)[0]]
        if cfg["kg_count"] is not None and len(self.kg_targets) != cfg["kg_count"]:
            raise RuntimeError(f"{len(self.kg_targets)} KG-validating algebras, "
                               f"expected {cfg['kg_count']}")
        self.pretrue, self.a1, self.a2 = acceptance.pretrue_formula()

    def tasks(self):
        jankov_tasks = [
            Task("jankov", lambda a=a, chi=chi, b=b: (
                formula.is_valid(b, chi, engine="propagate"),
                algebra.in_sh(a, b)), _jankov_record, _jankov_ok)
            for a, chi, b in self.pairs]
        pretrue_tasks = [
            Task("pretrue", lambda b=b: self._pretrue(b),
                 lambda r: (r[0][0], _witness(r[0][1]), r[1], r[2]),
                 lambda r: r[0][0] == (r[1] is None and r[2] is None))
            for b in self.kg_targets]
        return spread(jankov_tasks, pretrue_tasks)

    def _pretrue(self, b):
        valid = formula.is_valid(b, self.pretrue, engine="propagate")
        embeds = []
        for a in (self.a1, self.a2):
            found = algebra.homomorphism_search(a, b, injective=True, first_only=True) \
                if a.size <= b.size else []
            embeds.append(found[0].map if found else None)
        return valid, embeds[0], embeds[1]


def _jankov_record(result):
    (valid, witness), (sh, sh_witness) = result
    if sh_witness is not None:
        filt, emb = sh_witness
        sh_witness = (filt.members, emb.map)
    return valid, _witness(witness), sh, sh_witness


def _jankov_ok(result):
    (valid, _), (sh, _) = result
    return (not valid) == sh


# -- modal --------------------------------------------------------------------


class ModalWorkload:
    """Random Heyting formulas checked on every small algebra and, through
    the Goedel-McKinsey-Tarski translation, on its modal span; plus Grz
    validity and the carcass round trip on the constructor corpus."""

    def __init__(self, seed, size):
        cfg = MODAL_SIZES[size]
        self.algebras = [(a, modal.span(a)[0])
                         for a in catalog.all_algebras(cfg["catalog"])]
        self.formulas = sample_formulas(seed, cfg["formulas"])
        self.standard = [(a, modal.span(a)[0])
                         for a in catalog.standard_corpus(cfg["standard"])]
        self.grz = formula.parse(GRZ)

    def tasks(self):
        out = [Task("transfer", lambda f=f, a=a, s=s: (
                    formula.is_valid(a, f),
                    modal.modal_validity(s, modal.gmt_translate(f))),
                    lambda r: (r[0][0], _witness(r[0][1]), r[1][0], _witness(r[1][1])),
                    lambda r: r[0][0] == r[1][0])
               for f in self.formulas for a, s in self.algebras]
        for a, s in self.standard:
            out.append(Task("grz", lambda s=s: modal.modal_validity(s, self.grz),
                            lambda r: (r[0], _witness(r[1])), lambda r: r[0]))
            out.append(Task("carcass", lambda a=a, s=s: algebra.is_isomorphic(
                a, modal.heyting_carcass(s)), tuple, lambda r: r[0]))
        return out


def _shape(f):
    """(variable count, size bucket) of f; the bucket is a quarter-octave
    of the node count of the translation of f, which boxes every variable,
    implication and negation."""
    nodes, boxed, seen = 0, 0, set()
    stack = [f]
    while stack:
        g = stack.pop()
        nodes += 1
        if g.kind == "var":
            seen.add(g.args[0])
        if g.kind in ("var", "imp", "neg"):
            boxed += 1
        stack.extend(a for a in g.args if isinstance(a, formula.Formula))
    return len(seen), int(4 * math.log2(nodes + boxed))


def sample_formulas(seed, count, max_draws=1_000_000):
    """count depth-6, 3-variable random formulas drawn from the seed.

    The mix of shapes is that of the default seed's first count formulas,
    which the default seed therefore returns unchanged.  Modal checking time
    grows with the variable count and the size, so fixing the mix keeps the
    work per run independent of the seed.
    """
    ref = random.Random(DEFAULT_SEED)
    need = Counter(_shape(formula.random_formula(ref, 6, 3)) for _ in range(count))
    rng = random.Random(seed)
    out = []
    for _ in range(max_draws):
        f = formula.random_formula(rng, 6, 3)
        shape = _shape(f)
        if need[shape]:
            need[shape] -= 1
            out.append(f)
            if len(out) == count:
                return out
    raise RuntimeError(f"seed {seed}: formula mix not filled in {max_draws} draws")


WORKLOADS = {
    "corpus": CorpusWorkload,
    "validity": ValidityWorkload,
    "modal": ModalWorkload,
}
