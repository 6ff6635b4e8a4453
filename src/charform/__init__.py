"""Finite Heyting and interior algebras, Jankov and characteristic
formulas, finite presentations, and exhaustive desk-scale verification."""

from .algebra import (AlgebraError, Filter, HeytingAlgebra, Homomorphism,
                      NoSuchAlgebra, NotALattice, NotResiduated, Poset,
                      SizeLimit, algebra_from_json, algebra_to_json,
                      canonical_key, concat, dense_elements,
                      enumerate_filters, generated_subalgebra,
                      homomorphism_search, in_sh, is_isomorphic, is_si,
                      make_algebra, principal_filter, product, quotient,
                      regular_elements, upset_algebra)
from .catalog import all_algebras, si_algebras, standard_corpus
from .formula import (Formula, FormulaSyntaxError, NotAssertoric,
                      UnboundVariable, evaluate, is_valid, parse, pretty,
                      random_formula, substitute, variables)
from .jankov import (NotGenerated, NotSI, characteristic_formula,
                     dejongh_formula, diagram_formula, jankov_formula,
                     term_for_element)
from .modal import (InteriorAlgebra, NotS4, evaluate_modal, gmt_translate,
                    heyting_carcass, modal_validity, open_generated, span)
from .presentation import (BadAnchor, Presentation, VariableClash, VarietyHandle,
                           Verdict, build_corpus, check_defines,
                           concat_defining_formula, diagram_presentation,
                           zprime_presentation)
from .rn import TruncationTooSmall, boolean, chain, rn_algebra, trunc
