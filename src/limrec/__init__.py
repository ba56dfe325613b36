"""Limited-recursion counting logic over finite relational structures,
with directed-tree and interval-graph canonisation built on top of it."""

from .errors import (
    DomainError, FormulaError, LimrecError, ParseError, RecognitionError,
)
from .structures import (
    Structure, Vocabulary, generate_layered_graph, num_decode, num_encode,
    quotient_by_equivalence,
)
from .syntax import Formula, Var, expand_dtc, free_variables, parse_formula, pretty
from .evaluator import EvalContext, Transduction, apply_transduction, evaluate
from .treelogic import (
    DirectedTree, circuit_value, tree_canon, tree_isomorphic, tree_order_less,
)
from .intervalcanon import (
    Graph, build_modular_tree, canon_L, clique_preorder, interval_canon, interval_model,
    max_cliques, modular_partition,
)

__version__ = "0.1.0"
