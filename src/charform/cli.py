"""Command-line front end.

Exit codes: 0 holds/valid, 1 fails/refuted, 2 input error, 3 resource
limit, 4 precondition failure (e.g. the algebra is not subdirectly
irreducible).  Stdout is deterministic; timings go to stderr.
"""

from __future__ import annotations

import argparse
import re
import sys

from .algebra import (SizeLimit, algebra_to_json, dense_elements, in_sh,
                      is_si, regular_elements)
from .exprs import ExprError, parse_algebra_expr
from .formula import (PROP_MAX_VARS, FormulaSyntaxError, evaluate, is_valid,
                      parse, pretty, variables)
from .jankov import NotGenerated, NotSI, dejongh_formula, jankov_formula, \
    characteristic_formula
from .modal import interior_to_json, span
from .presentation import (VarietyHandle, build_corpus, check_defines,
                           presentation_from_json, zprime_presentation)
from .rn import TruncationTooSmall, trunc_zstar


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_PRECOND = 4


def _max_vars(args):
    # 0, the default, keeps the engine's own budget
    if args.size_limit < 0:
        raise ValueError(f"--size-limit {args.size_limit} is not an integer "
                         ">= 0")
    return args.size_limit or PROP_MAX_VARS


def _show_note(expr_text, out):
    ns = [int(m) for m in re.findall(r"Z\((\d+)\)", expr_text)]
    if any(n > 6 for n in ns):
        out.append("note: Z(n) is the n-element one-generated ladder quotient;"
                   " uniqueness checked by enumeration for n <= 6, taken as"
                   " notation beyond")


def cmd_show(args):
    a = parse_algebra_expr(args.expr)
    if args.json:
        print(algebra_to_json(a))
        return EXIT_OK
    out = [f"size: {a.size}",
           "elements: " + " ".join(a.label(i) for i in range(a.size)),
           "covers: " + " ".join(f"{a.label(i)}<{a.label(j)}"
                                 for i, j in a.covers())]
    si = is_si(a)
    out.append(f"si: {'yes' if si else 'no'}")
    op = a.opremum()
    out.append(f"opremum: {a.label(op) if op is not None else '-'}")
    dn = dense_elements(a)
    out.append("dense: " + " ".join(a.label(x) for x in dn.elements()))
    out.append("regular: " + " ".join(a.label(x) for x in regular_elements(a)))
    _show_note(args.expr, out)
    print("\n".join(out))
    return EXIT_OK


def _valuation(text, a, f):
    """The --at valuation p<n>=<index or label>,...; ValueError unless every
    entry names a variable and an element of a, no variable is given twice,
    and every variable of f gets a value."""
    valuation = {}
    for part in text.split(","):
        name, _, val = (x.strip() for x in part.partition("="))
        m = re.fullmatch(r"p(\d+)", name)
        if not m or int(m.group(1)) < 1 or not val:
            raise ValueError(f"--at entry {part.strip()!r} is not p<n>=<element>")
        v = int(m.group(1)) - 1
        if v in valuation:
            raise ValueError(f"--at gives p{v + 1} twice")
        if val.isdigit():
            e = int(val)
            if e >= a.size:
                raise ValueError(f"element {e} is out of range 0..{a.size - 1}")
        else:
            try:
                e = a.element_by_label(val)
            except KeyError:
                raise ValueError(f"no element labelled {val!r}") from None
        valuation[v] = e
    missing = [f"p{v + 1}" for v in variables(f) if v not in valuation]
    if missing:
        raise ValueError(f"--at gives no value for {', '.join(missing)}")
    return valuation


def cmd_valid(args):
    a = parse_algebra_expr(args.expr)
    f = parse(args.formula)
    if args.at:
        value = evaluate(f, a, _valuation(args.at, a, f))
        print(f"VALUE {a.label(value)}")
        return EXIT_OK if value == a.top else EXIT_FAIL
    verdict, witness = is_valid(a, f, engine=args.engine,
                                max_vars=_max_vars(args))
    if verdict:
        print("VALID")
        return EXIT_OK
    parts = " ".join(f"p{v + 1}={a.label(witness[v])}" for v in sorted(witness))
    print(f"REFUTED {parts}".rstrip())
    return EXIT_FAIL


def cmd_jankov(args):
    a = parse_algebra_expr(args.expr)
    f = dejongh_formula(a) if args.style == "dejongh" else jankov_formula(a)
    print(pretty(f))
    print(f"vars: {len(variables(f))}")
    return EXIT_OK


def cmd_charf(args):
    if args.builtin:
        if args.builtin != "zprime":
            raise ExprError(f"unknown built-in presentation {args.builtin!r}", 0)
        p = zprime_presentation(args.k)
    else:
        from .presentation import diagram_presentation
        p = diagram_presentation(parse_algebra_expr(args.expr))
    f = characteristic_formula(p)
    print(pretty(f))
    print(f"vars: {len(variables(f))}")
    return EXIT_OK


def cmd_embeds(args):
    a = parse_algebra_expr(args.expr_a)
    b = parse_algebra_expr(args.expr_b)
    verdict, witness = in_sh(a, b)
    if not verdict:
        print("NO")
        return EXIT_FAIL
    filt, emb = witness
    print("YES")
    print("filter: " + " ".join(b.label(x) for x in filt.elements()))
    print("embedding: " + " ".join(f"{a.label(i)}->{emb.target.label(v)}"
                                   for i, v in enumerate(emb.map)))
    return EXIT_OK


def cmd_present_verify(args):
    # without --bound, the built-in uses 8 and a file its variety's bound
    if args.bound is not None and args.bound < 1:
        raise ValueError(f"--bound {args.bound} is not an integer >= 1")
    if args.builtin:
        if args.builtin != "zprime":
            raise ExprError(f"unknown built-in presentation {args.builtin!r}", 0)
        p = zprime_presentation(args.k)
        variety = VarietyHandle.generated((trunc_zstar(args.k),), bound=8)
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            p = presentation_from_json(fh.read())
        if p.variety is None:
            print("presentation file has no variety", file=sys.stderr)
            return EXIT_INPUT
        variety = p.variety
    verdict = check_defines(p, build_corpus(variety, args.bound))
    print(str(verdict))
    return EXIT_OK if not verdict.refuted else EXIT_FAIL


def cmd_gmt(args):
    from .modal import gmt_translate
    print(pretty(gmt_translate(parse(args.formula))))
    return EXIT_OK


def cmd_span(args):
    a = parse_algebra_expr(args.expr)
    s, embed = span(a)
    if args.json:
        print(interior_to_json(s))
        return EXIT_OK
    print(f"atoms: {s.atoms}")
    print(f"carrier: {s.size}")
    print(f"opens: {len(s.opens)}")
    if s.atom_labels:
        print("atom labels: " + " ".join(s.atom_labels))
    print("embedding: " + " ".join(f"{a.label(i)}->{m}"
                                   for i, m in enumerate(embed)))
    return EXIT_OK


def cmd_suite(args):
    from . import acceptance
    if args.name != "acceptance":
        print(f"unknown suite {args.name!r}", file=sys.stderr)
        return EXIT_INPUT
    wanted = None
    if args.criteria:
        wanted = [int(x) for x in args.criteria.split(",")]
    results = acceptance.run_criteria(wanted, seed=args.seed)
    ok = acceptance.print_report(results)
    return EXIT_OK if ok else EXIT_FAIL


def build_parser():
    ap = argparse.ArgumentParser(prog="charform",
                                 description="finite Heyting and interior "
                                             "algebras, Jankov and "
                                             "characteristic formulas")
    ap.add_argument("--size-limit", type=int, default=0,
                    help="override the propagation-engine variable budget")
    ap.add_argument("--seed", type=int, default=2025)
    ap.add_argument("--engine", choices=["auto", "naive", "propagate", "both"],
                    default="auto")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="algebra summary")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser("valid", help="validity of a formula in an algebra")
    p.add_argument("expr")
    p.add_argument("formula")
    p.add_argument("--at", default="", help="evaluate at p1=label,p2=label")
    p.set_defaults(fn=cmd_valid)

    p = sub.add_parser("jankov", help="Jankov formula of a s.i. algebra")
    p.add_argument("expr")
    p.add_argument("--style", choices=["full", "dejongh"], default="full")
    p.set_defaults(fn=cmd_jankov)

    p = sub.add_parser("charf", help="characteristic formula")
    p.add_argument("expr", nargs="?", default="")
    p.add_argument("--builtin", default="")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(fn=cmd_charf)

    p = sub.add_parser("embeds", help="Sub-Hom quasi-order test")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.set_defaults(fn=cmd_embeds)

    p = sub.add_parser("present-verify", help="check a finite presentation")
    p.add_argument("file", nargs="?", default="")
    p.add_argument("--builtin", default="")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--bound", type=int)
    p.set_defaults(fn=cmd_present_verify)

    p = sub.add_parser("gmt", help="modal translation of a formula")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_gmt)

    p = sub.add_parser("span", help="modal span of an algebra")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_span)

    p = sub.add_parser("suite", help="run a verification suite")
    p.add_argument("name")
    p.add_argument("--criteria", default="")
    p.set_defaults(fn=cmd_suite)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code else EXIT_OK
    try:
        return args.fn(args)
    except (ExprError, FormulaSyntaxError, ValueError) as e:
        if isinstance(e, (NotSI, NotGenerated)):
            print(f"precondition: {e}", file=sys.stderr)
            return EXIT_PRECOND
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except TruncationTooSmall as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SizeLimit as e:
        print(f"size limit: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except FileNotFoundError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
