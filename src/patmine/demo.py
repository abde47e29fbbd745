"""Built-in demo instance: an 8-vertex template with one positive and one
negative example, all vertices sharing one label.

The template is a hexagon (vertices 0..5) with a chord between 1 and 4 and
a two-vertex tail hanging off vertex 3. The positive example is a hexagon
with two long diagonals; the negative example is a 4-vertex path. With
thresholds (1, 0) the hexagon-plus-chord is a valid pattern while any small
path shape is not (it also maps into the negative path).
"""

from __future__ import annotations

from .graphs import Dataset, Example, ExampleClass, LabeledGraph, build_graph

HEX_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]

TEMPLATE_EDGES = HEX_EDGES + [(1, 4), (3, 6), (6, 7)]
POSITIVE_EDGES = HEX_EDGES + [(0, 3), (2, 5)]
NEGATIVE_EDGES = [(0, 1), (1, 2), (2, 3)]


def demo_template() -> LabeledGraph:
    return build_graph(8, TEMPLATE_EDGES, ["a"] * 8, undirected=True)


def demo_positive() -> LabeledGraph:
    return build_graph(6, POSITIVE_EDGES, ["a"] * 6, undirected=True)


def demo_negative() -> LabeledGraph:
    return build_graph(4, NEGATIVE_EDGES, ["a"] * 4, undirected=True)


def demo_dataset(n_pos_threshold: int = 1, n_neg_threshold: int = 0) -> Dataset:
    return Dataset(
        template=demo_template(),
        examples=(
            Example(0, ExampleClass.POSITIVE, demo_positive()),
            Example(1, ExampleClass.NEGATIVE, demo_negative()),
        ),
        n_pos_threshold=n_pos_threshold,
        n_neg_threshold=n_neg_threshold,
    )

