"""The library runs on the standard library alone: numpy is a test
dependency of the oracles in conftest.py, never imported by charform."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
from charform import catalog, cli, formula, modal, presentation
algebras = catalog.all_algebras(6)
s = modal.span(algebras[-1])[0]
f = modal.gmt_translate(formula.parse("p1 | ~p1"))
assert formula.is_valid(s, f, engine="naive")[0] is False
p = presentation.zprime_presentation(8)
corpus = presentation.build_corpus(
    presentation.VarietyHandle.generated((p.target,), 8))
assert str(presentation.check_defines(p, corpus)) == "REFUTED(tuple=(2, 0))"
assert cli.main(["valid", "Z(3)", "p1 | ~p1"]) == 1
assert "numpy" not in sys.modules, "charform imported numpy"
"""


def test_library_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
