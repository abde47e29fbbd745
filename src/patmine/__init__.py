"""patmine: frequent subgraph mining over a template graph.

Patterns are connected induced subgraphs of a template that admit an
injective label/edge-preserving mapping into at least N+ positive and at
most N- negative example graphs. The miner enumerates one canonical
representative per isomorphism class, level-wise by pattern size, under
either a decomposed (per-example oracle) or a monolithic (combined search
space) strategy. A code generator emits equivalent ASP and IDP encodings.
"""

__version__ = "0.1.0"

from .graphs import (
    Dataset,
    EdgeOutOfRange,
    Example,
    ExampleClass,
    GraphError,
    LabelArityMismatch,
    LabeledGraph,
    VertexNotInGraph,
    build_graph,
    induced_subgraph,
    is_connected,
)
from .morphism import (
    CoverageReport,
    Mapping,
    coverage,
    find_homomorphism,
    is_isomorphic,
)
from .miner import (
    MineResult,
    MiningConfig,
    Strategy,
    candidate_subsets,
    evaluate_strategy,
    is_valid_pattern,
    mine,
)
from .dataio import (
    SynthParams,
    build_dataset,
    gen_synthetic,
    parse_graphs,
    parse_patterns,
    write_bench_csv,
    write_graphs,
    write_patterns,
)

__all__ = [
    "Dataset",
    "EdgeOutOfRange",
    "EmptyDataset",
    "Example",
    "ExampleClass",
    "GraphError",
    "LabelArityMismatch",
    "LabeledGraph",
    "Mapping",
    "MineResult",
    "MiningConfig",
    "Strategy",
    "SynthParams",
    "VertexNotInGraph",
    "CoverageReport",
    "build_dataset",
    "build_graph",
    "candidate_subsets",
    "coverage",
    "emit_asp",
    "emit_idp",
    "evaluate_strategy",
    "find_homomorphism",
    "gen_synthetic",
    "induced_subgraph",
    "is_connected",
    "is_isomorphic",
    "is_valid_pattern",
    "mine",
    "parse_graphs",
    "parse_patterns",
    "write_bench_csv",
    "write_graphs",
    "write_patterns",
]


def __getattr__(name: str):
    """Load ``encoder`` on first use (PEP 562): mining never needs it."""
    if name in ("EmptyDataset", "emit_asp", "emit_idp"):
        from . import encoder

        return getattr(encoder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
