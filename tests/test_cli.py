import json
import time

import pytest

from charform.cli import main
from charform.exprs import ExprError, parse_algebra_expr
from charform.algebra import canonical_key, algebra_from_json
from charform.rn import rn_algebra
from charform.presentation import (presentation_to_json, zprime_presentation,
                                   zprime_conjuncts, Presentation)
from charform.formula import conj, pretty


def test_expr_grammar():
    assert parse_algebra_expr("Z(3)").size == 3
    assert parse_algebra_expr("C(4)").size == 4
    assert parse_algebra_expr("B(2)").size == 4
    assert parse_algebra_expr("Z(2) x Z(3)").size == 6
    assert parse_algebra_expr("Z(2) + Z(2)").size == 3
    # + binds looser than x
    a = parse_algebra_expr("Z(2) x Z(2) + Z(3)")
    assert a.size == 4 + 3 - 1
    b = parse_algebra_expr("(Z(2) + Z(2)) x Z(2)")
    assert b.size == 6
    q = parse_algebra_expr("C(4) / nabla(2)")
    assert q.size == 3
    assert parse_algebra_expr("trunc(Zprime, 8)").size == 17
    with pytest.raises(ExprError):
        parse_algebra_expr("Z(2) x")
    with pytest.raises(ExprError):
        parse_algebra_expr("trunc(Foo, 3)")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_show(capsys):
    code, out = run(capsys, "show", "Z(3)")
    assert code == 0
    assert "size: 3" in out and "si: yes" in out and "opremum: g" in out
    code, out = run(capsys, "show", "Z(6)+Z(2)+Z(2)")
    assert code == 0 and "size: 8" in out
    code, _ = run(capsys, "show", "Z(2) x")
    assert code == 2


def test_show_size_caps(capsys):
    # C(n) is capped as Z(n) is, and x and + are capped on the size of
    # their result before any table is built
    for expr in ("C(65)", "C(40) x C(40)", "B(11)"):
        code = main(["show", expr])
        assert code == 3
        assert capsys.readouterr().err.startswith("size limit:")


def test_show_notation_note(capsys):
    _, out = run(capsys, "show", "Z(8)")
    assert "note:" in out
    _, out = run(capsys, "show", "Z(3)")
    assert "note:" not in out


def test_valid(capsys):
    code, out = run(capsys, "valid", "C(2)", "p1 | ~p1")
    assert code == 0 and out.strip() == "VALID"
    code, out = run(capsys, "valid", "Z(3)", "p1 | ~p1")
    assert code == 1 and out.strip() == "REFUTED p1=g"
    code, _ = run(capsys, "valid", "Z(3)", "p1 |")
    assert code == 2


def test_valid_rejects_deep_nesting(capsys):
    # too deep for the recursive descent: an input error, not a traceback
    code = main(["valid", "Z(2)", "(" * 2000 + "p1" + ")" * 2000])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("input error: formula nested too deeply")


def test_valid_at(capsys):
    formula = pretty(conj(zprime_conjuncts()))
    code, out = run(capsys, "valid", "trunc(Zprime,12)", formula,
                    "--at", "p1=a,p2=b")
    assert code == 0 and out.strip() == "VALUE 1"


@pytest.mark.parametrize("at, message", [
    ("p1=zz", "no element labelled 'zz'"),
    ("p1=99", "element 99 is out of range 0..2"),
    ("p1=3", "element 3 is out of range 0..2"),
    ("p2=1", "--at gives no value for p1"),
    ("x1=0", "--at entry 'x1=0' is not p<n>=<element>"),
    ("p1=1,p1=2", "--at gives p1 twice"),
])
def test_valid_at_rejects_bad_input(capsys, at, message):
    code = main(["valid", "Z(3)", "p1 | ~p1", "--at", at])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"input error: {message}\n"


def test_jankov(capsys):
    code, out = run(capsys, "jankov", "Z(3)", "--style", "dejongh")
    assert code == 0 and out.strip().endswith("vars: 1")
    code, _ = run(capsys, "jankov", "B(2)")
    assert code == 4
    code, out = run(capsys, "jankov", "Z(6)+Z(2)+Z(2)")
    assert code == 0 and out.strip().endswith("vars: 8")


def test_charf(capsys):
    code, out = run(capsys, "charf", "Z(3)")
    assert code == 0 and "vars: 3" in out
    code, out = run(capsys, "charf", "--builtin", "zprime", "--k", "8")
    assert code == 0 and "vars: 2" in out


def test_charf_zprime_bound(capsys):
    for k in range(1, 16):
        code = main(["charf", "--builtin", "zprime", "--k", str(k)])
        out = capsys.readouterr()
        if k < 8:
            assert code == 2 and "needs k >= 8" in out.err and not out.out
        else:
            assert code == 0 and out.out.strip().endswith("vars: 2")


def test_embeds(capsys):
    code, out = run(capsys, "embeds", "Z(2)", "Z(3)")
    assert code == 0 and out.startswith("YES")
    code, out = run(capsys, "embeds", "Z(6)+Z(2)+Z(2)", "Z(8)+Z(2)+Z(2)")
    assert code == 1 and out.strip() == "NO"
    # of the two concatenations, only the one with the two-element bottom
    # block sits inside the truncated three-block algebra
    code, out = run(capsys, "embeds", "Z(2)+Z(7)+Z(2)", "trunc(KG,10)")
    assert code == 0 and out.startswith("YES")
    code, out = run(capsys, "embeds", "Z(7)+Z(2)", "trunc(KG,10)")
    assert code == 1 and out.strip() == "NO"


def test_embeds_past_the_search_budget(capsys):
    code = main(["embeds", "C(6) x C(6)", "C(4) x C(4) x C(8)"])
    assert code == 3
    assert capsys.readouterr().err.startswith("size limit:")


def test_embeds_answers_a_longer_chain_at_once(capsys):
    # rank 63 against rank 10: no quotient of B(10) holds a chain that
    # long, so the answer comes before any search and its budget
    start = time.perf_counter()
    code, out = run(capsys, "embeds", "C(64)", "B(10)")
    assert code == 1 and out.strip() == "NO"
    assert time.perf_counter() - start < 2


def test_present_verify_builtin(capsys):
    code, out = run(capsys, "present-verify", "--builtin", "zprime", "--k", "10")
    assert code == 0 and out.strip().startswith("VERIFIED-UP-TO-BOUND")


def test_present_verify_mutated_file(tmp_path, capsys):
    p = zprime_presentation(10)
    cs = zprime_conjuncts()
    broken = Presentation(conj(cs[1:]), p.target, p.valuation)
    doc = presentation_to_json(broken, "trunc(Zprime,10)",
                               ["trunc(Zstar,10)"], 8)
    f = tmp_path / "broken.json"
    f.write_text(doc, encoding="utf-8")
    code, out = run(capsys, "present-verify", str(f))
    assert code == 1 and out.startswith("REFUTED")


def test_size_limit_below_zero_is_an_input_error(capsys):
    f = "(p1->p2)|(p2->p3)|(p3->p4)|(p4->p5)|(p5->p6)|(p6->p7)"
    code = main(["--size-limit", "-1", "valid", "C(3)", f])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("input error: --size-limit -1 is not")
    # 0 keeps the default budget
    assert run(capsys, "--size-limit", "0", "valid", "C(3)", f) == (
        0, "VALID\n")


def test_size_limit_below_the_variable_count(capsys):
    f = "(p1->p2)|(p2->p3)|(p3->p4)|(p4->p5)|(p5->p6)|(p6->p7)"
    assert main(["--size-limit", "6", "valid", "C(3)", f]) == 3
    assert capsys.readouterr().err.startswith("size limit:")
    assert run(capsys, "--size-limit", "7", "valid", "C(3)", f) == (
        0, "VALID\n")


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_present_verify_rejects_bound_below_one(capsys, bound):
    code = main(["present-verify", "--builtin", "zprime", "--k", "10",
                 "--bound", bound])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"input error: --bound {bound} is not")


def test_present_verify_file_bound(tmp_path, capsys):
    # the file's own bound applies unless --bound is given
    doc = presentation_to_json(zprime_presentation(10), "trunc(Zprime,10)",
                               ["trunc(Zstar,10)"], 5)
    f = tmp_path / "bound5.json"
    f.write_text(doc, encoding="utf-8")
    assert run(capsys, "present-verify", str(f)) == (
        0, "VERIFIED-UP-TO-BOUND(5)\n")
    assert run(capsys, "present-verify", str(f), "--bound", "6") == (
        0, "VERIFIED-UP-TO-BOUND(6)\n")


@pytest.mark.parametrize("field, value, message", [
    ("valuation", [99, 0], "valuation entry 99 is not an element index"),
    ("valuation", [-1, 0], "valuation entry -1 is not an element index"),
    ("valuation", ["1", 0], "valuation entry '1' is not an element index"),
    ("valuation", [0], "2 vars but 1 valuation entries"),
    ("vars", ["p1"], "1 vars but 2 valuation entries"),
    ("vars", ["x1", "p2"], "variable 'x1' is not p<n> with n >= 1"),
    ("vars", ["p0", "p2"], "variable 'p0' is not p<n> with n >= 1"),
    ("vars", ["p1", "p1"], "a variable is listed twice"),
    ("vars", None, "a presentation needs formula, target, vars and valuation"),
    ("vars", 5, "vars, valuation and generators must be lists"),
    ("formula", 5, "formula 5 is not a string"),
    ("target", 5, "target 5 is not a string"),
    ("variety", [1], "variety is not an object"),
    ("variety", {"generators": [3]}, "generator 3 is not a string"),
    ("variety", {"generators": "Z(3)"},
     "vars, valuation and generators must be lists"),
    ("variety", {"generators": ["Z(3)"], "bound": "x"},
     "bound 'x' is not an integer >= 1"),
    ("variety", {"generators": ["Z(3)"], "bound": True},
     "bound True is not an integer >= 1"),
    ("variety", {"generators": ["Z(3)"], "bound": 0},
     "bound 0 is not an integer >= 1"),
])
def test_present_verify_rejects_bad_file(tmp_path, capsys, field, value,
                                         message):
    doc = json.loads(presentation_to_json(zprime_presentation(10),
                                          "trunc(Zprime,10)"))
    assert doc["vars"] == ["p1", "p2"]
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["present-verify", str(f)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"input error: {message}")


def test_gmt(capsys):
    code, out = run(capsys, "gmt", "p1 -> p2")
    assert code == 0 and out.strip() == "[]([]p1 -> []p2)"


def test_span(capsys):
    code, out = run(capsys, "span", "Z(3)")
    assert code == 0
    assert "atoms: 2" in out and "carrier: 4" in out and "opens: 3" in out


def test_deterministic_stdout(capsys):
    outs = []
    for _ in range(2):
        _, out = run(capsys, "jankov", "Z(6)+Z(2)+Z(2)")
        outs.append(out)
    assert outs[0] == outs[1]


def test_json_round_trip_canonical(capsys):
    _, out = run(capsys, "show", "Z(5)", "--json")
    a = algebra_from_json(out)
    assert canonical_key(a) == canonical_key(rn_algebra(5))


def test_suite_subset(capsys):
    code = main(["suite", "acceptance", "--criteria", "2,4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "criterion  2 PASS" in out and "criterion  4 PASS" in out
    assert "ALL PASS" in out


def test_unknown_suite(capsys):
    assert main(["suite", "nope"]) == 2
