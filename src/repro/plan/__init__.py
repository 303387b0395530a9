"""Plan trees (Section 3.4.1) and their conversions (Figures 4-7, 10-11)."""

from repro.plan.convert import (
    ast_to_tree,
    normalize,
    process_to_tree,
    tree_to_ast,
    tree_to_process,
)
from repro.plan.metrics import (
    controller_census,
    representation_efficiency,
    summary,
    terminal_census,
)
from repro.plan.randgen import random_shape, random_tree
from repro.plan.tree import (
    Controller,
    ControllerKind,
    PlanNode,
    Terminal,
    concurrent,
    iter_nodes,
    iterative,
    preorder_path,
    pretty,
    replace_at,
    selective,
    sequential,
    subtree_at,
    terminal,
    tree_depth,
    tree_size,
)

__all__ = [
    "PlanNode",
    "Terminal",
    "Controller",
    "ControllerKind",
    "sequential",
    "concurrent",
    "selective",
    "iterative",
    "terminal",
    "iter_nodes",
    "subtree_at",
    "preorder_path",
    "replace_at",
    "tree_size",
    "tree_depth",
    "pretty",
    "ast_to_tree",
    "tree_to_ast",
    "tree_to_process",
    "process_to_tree",
    "normalize",
    "random_tree",
    "random_shape",
    "representation_efficiency",
    "controller_census",
    "terminal_census",
    "summary",
]
