#!/usr/bin/env python3
"""Work counts of the propagation engine and of Sub-Hom over the tasks of
the `validity` benchmark workload: the join-irreducible c's the engine
searches and those it answers from a program's set of quotient keys, the
CSPs it builds, how many of them are feasible (no domain or leaf mask
empty) and how many have a solution, the calls of the scalar operations it
runs, and the quotients `in_sh` builds.  With --modal, work counts of the
naive engine over the tasks of the `modal` workload instead: its calls, the
batches it runs (bit-sliced scans, `formula._sliced_scan`, of the
valuations the probe left) and the calls whose verdict is valid.  With
--corpus, work counts of the extension check over the `check_defines`
tasks of the `corpus` workload instead: the calls of
`GenerationPlan.first_failure`, the rows (top tuples) they are given, the
rows that extend to a homomorphism, each checked again here, and the
members on which a presentation is refuted.  With --subalgebras, the
work of the subalgebra scan behind `build_corpus` instead, one line for
each generator of the `corpus` workload at its bound: the quotients
searched, the carriers `_bounded_subalgebras` lists in them, the s.i.
carriers among those, the distinct orders of the s.i. carriers (each
relabelled by its elements' positions, ascending) and the members of the
corpus.

    python3 scripts/search_counts.py [--seed 2025] \
        [--fresh | --modal | --corpus | --subalgebras]

With --fresh every validity check gets a formula object of its own,
parsed from the printed formula, so that nothing a program keeps (its set
of quotient keys, its search plans and variable orders) carries over from
one task to the next: the counts are then those of the engine alone.

Run it from the root of a checkout: the library is imported from ./src and
the tasks from ./perfbench/workloads.py.  The counts are made from outside
the library, by wrapping its functions after the workload is set up and
before its tasks run, so two checkouts can be compared with the same
script.  They are deterministic: one line per count, then the same counts
as one JSON object.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from charform import algebra, formula, presentation  # noqa: E402
import workloads  # noqa: E402


def install(counts, fresh):
    """Wrap the counted functions; counts fills in as the tasks run.  The
    tasks of `validity` search Heyting algebras only."""
    prop_search, refuting_tasks = formula._prop_search, formula._refuting_tasks

    def counted_prop_search(algebra, prog):
        counts["cs"] += len(algebra.join_irreducibles())
        return prop_search(algebra, prog)

    def counted_refuting_tasks(slots, *ji):
        counts["cs_searched"] += len(
            ji[0] if ji and ji[0] is not None
            else slots.algebra.join_irreducibles())
        return refuting_tasks(slots, *ji)

    formula._prop_search = counted_prop_search
    formula._refuting_tasks = counted_refuting_tasks

    if fresh:
        is_valid = formula.is_valid
        formula.is_valid = lambda algebra, f, *args, **kwargs: is_valid(
            algebra, formula.parse(formula.pretty(f)), *args, **kwargs)

    init = formula._CSP.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts["csps"] += 1
        counts["feasible_csps"] += bool(self.feasible)

    solve = formula._CSP.solve

    def counted_solve(self, collect=None):
        got = solve(self, collect)
        counts["solved_csps"] += collect is None and got is not None
        return got

    formula._CSP.__init__ = counted_init
    formula._CSP.solve = counted_solve

    def counted_op(op):
        def call(*args):
            counts["scalar_op_calls"] += 1
            return op(*args)
        return call if callable(op) else op

    scalar_ops = algebra.HeytingAlgebra.scalar_ops
    algebra.HeytingAlgebra.scalar_ops = lambda self: {
        k: counted_op(op) for k, op in scalar_ops(self).items()}

    in_sh, quotient, inside = algebra.in_sh, algebra.quotient, [0]

    def counted_in_sh(*args):
        inside[0] += 1
        try:
            return in_sh(*args)
        finally:
            inside[0] -= 1

    def counted_quotient(*args):
        counts["in_sh_quotients"] += inside[0] > 0
        return quotient(*args)

    algebra.in_sh, algebra.quotient = counted_in_sh, counted_quotient


def install_modal(counts):
    """Wrap the naive engine; counts fills in as the tasks run.  A batch is
    a bit-sliced scan of the valuations the probe left."""
    naive_search, sliced_scan = formula._naive_search, formula._sliced_scan

    def counted_naive_search(algebra, prog):
        counts["naive_calls"] += 1
        got = naive_search(algebra, prog)
        counts["naive_valid"] += got[0]
        return got

    def counted_sliced_scan(*args):
        counts["naive_batches"] += 1
        return sliced_scan(*args)

    formula._naive_search = counted_naive_search
    formula._sliced_scan = counted_sliced_scan


def install_corpus(counts):
    """Wrap the extension check and `check_defines`; counts fills in as the
    tasks run.  The rows that extend are counted over all the rows of a
    call, through `GenerationPlan.checker`, though the check itself stops
    at the first row that does not."""
    first_failure = presentation.GenerationPlan.first_failure
    check_defines = presentation.check_defines

    def counted_first_failure(self, target, rows):
        counts["plan_calls"] += 1
        counts["plan_rows"] += len(rows)
        counts["plan_rows_extend"] += sum(map(self.checker(target), rows))
        return first_failure(self, target, rows)

    def counted_check_defines(*args, **kwargs):
        verdict = check_defines(*args, **kwargs)
        counts["refuted_members"] += verdict.refuted
        return verdict

    presentation.GenerationPlan.first_failure = counted_first_failure
    presentation.check_defines = counted_check_defines


def si_order(a, mask):
    """The up masks of the subalgebra of a on the carrier mask, each element
    renumbered by its position in the carrier, or None when it is not s.i.
    (no element below top lies above every other element below top)."""
    elems = [x for x in range(a.size) if mask >> x & 1]
    below_top = [x for x in elems if x != a.top]
    if not any(all(a.leq(y, x) for y in below_top) for x in below_top):
        return None
    return tuple(sum(1 << j for j, y in enumerate(elems) if a.leq(x, y))
                 for x in elems)


def subalgebra_counts(seed):
    """The counts of --subalgebras, one dict per generator, in workload
    order.  A carrier is taken as a mask or as a set of elements, so the
    script reads either form of `_bounded_subalgebras`."""
    bound = workloads.CORPUS_BOUND
    out = []
    for (kind, k), _, gen in workloads.CorpusWorkload(seed, "full").generators:
        counts = dict.fromkeys(("quotients", "carriers", "si_carriers"), 0)
        orders = set()
        for _, q in gen.quotients(2):
            counts["quotients"] += 1
            for carrier in presentation._bounded_subalgebras(q, bound):
                if not isinstance(carrier, int):
                    carrier = sum(1 << x for x in carrier)
                counts["carriers"] += 1
                order = si_order(q, carrier)
                if order is not None:
                    counts["si_carriers"] += 1
                    orders.add(order)
        counts["si_orders"] = len(orders)
        handle = presentation.VarietyHandle.generated((gen,), bound)
        counts["members"] = len(presentation.build_corpus(handle))
        out.append((f"{kind}({k})", counts))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--fresh", action="store_true",
                       help="a formula object of its own for every check")
    group.add_argument("--modal", action="store_true",
                       help="count the naive engine over the modal workload")
    group.add_argument("--corpus", action="store_true",
                       help="count the extension check over the corpus "
                       "workload")
    group.add_argument("--subalgebras", action="store_true",
                       help="count the subalgebra scan of the corpus "
                       "workload's generators")
    args = ap.parse_args(argv)
    if args.subalgebras:
        rows = subalgebra_counts(args.seed)
        for name, counts in rows:
            print(name, " ".join(f"{k} {v}" for k, v in counts.items()))
        print(json.dumps({"generators": dict(rows), "seed": args.seed,
                          "bound": workloads.CORPUS_BOUND,
                          "subalgebras": True}))
        return
    if args.corpus:
        tasks = workloads.CorpusWorkload(args.seed, "full").tasks()
        counts = dict.fromkeys(("plan_calls", "plan_rows", "plan_rows_extend",
                                "refuted_members"), 0)
        install_corpus(counts)
        mode = {"corpus": True}
    elif args.modal:
        tasks = workloads.ModalWorkload(args.seed, "full").tasks()
        counts = dict.fromkeys(("naive_calls", "naive_batches",
                                "naive_valid"), 0)
        install_modal(counts)
        mode = {"modal": True}
    else:
        tasks = workloads.ValidityWorkload(args.seed, "full").tasks()
        counts = dict.fromkeys(("cs", "cs_searched", "cs_from_memo", "csps",
                                "feasible_csps", "solved_csps",
                                "scalar_op_calls", "in_sh_quotients"), 0)
        install(counts, args.fresh)
        mode = {"fresh": args.fresh}
    for task in tasks:
        task.call()
    if not (args.modal or args.corpus):
        counts["cs_from_memo"] = counts["cs"] - counts["cs_searched"]
    for name, value in counts.items():
        print(f"{name} {value}")
    print(json.dumps(dict(counts, seed=args.seed, tasks=len(tasks), **mode)))


if __name__ == "__main__":
    main()
