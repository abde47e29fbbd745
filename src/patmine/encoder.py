"""Generate ASP and IDP encodings of a loaded mining instance.

The emitted programs are artifacts for external solvers; they are never
executed here. Output is deterministic: instance facts are sorted by
(predicate, arguments) and headers carry no timestamps.

Predicate spellings are normalized to one form each (homowith, inpattern,
t_edge/t_label/t_node for ASP; the per-example label function is named
example_label in IDP to avoid colliding with the label type). The
canonicity block emitted is the template-based check; the previous-solution
variant needs prior solutions a static generator does not have.
"""

from __future__ import annotations

import re

from . import __version__
from .graphs import Dataset

# A label kept as its own atom: a constant other than ``not`` and ``lbl<digits>``.
_ATOM_RE = re.compile(r"(?!(not|lbl[0-9]+)\Z)[a-z][A-Za-z0-9_]*")
_ASP_FACT = {  # the ASP spelling of a row of each fact predicate
    "edge": "edge(g{},v{},v{}).", "label": "label(g{},v{},{}).",
    "negative": "negative(g{}).", "positive": "positive(g{}).",
    "t_edge": "t_edge(x{},x{}).", "t_label": "t_label(x{},{}).",
}


class EmptyDataset(ValueError):
    pass


def _instance(dataset: Dataset) -> tuple[dict[str, str], str, dict[str, list[tuple]]]:
    """The disjoint-union instance both encodings render: each label's atom,
    the summary line, and the argument rows of each fact predicate, in
    (predicate, arguments) order. A label matching ``_ATOM_RE`` keeps its
    spelling and any other becomes ``lbl<its index in label_universe()>``,
    so no two labels share an atom."""
    template = dataset.template
    if template.n == 0:
        raise EmptyDataset("template graph has no vertices")
    atom = {
        label: label if _ATOM_RE.fullmatch(label) else f"lbl{i}"
        for i, label in enumerate(dataset.label_universe())
    }
    examples = dataset.examples
    facts = {
        "edge": [(ex.graph_id, u, v) for ex in examples for u, v in sorted(ex.graph.edges)],
        "label": [
            (ex.graph_id, v, atom[label])
            for ex in examples
            for v, label in enumerate(ex.graph.labels)
        ],
        "negative": [(ex.graph_id,) for ex in dataset.negatives()],
        "positive": [(ex.graph_id,) for ex in dataset.positives()],
        "t_edge": sorted(template.edges),
        "t_label": [(v, atom[label]) for v, label in enumerate(template.labels)],
    }
    summary = (
        f"template {template.n} vertices / {len(template.edges)} directed edges; "
        f"examples: {len(facts['positive'])} positive, {len(facts['negative'])} "
        f"negative; labels: {len(atom)}"
    )
    return atom, summary, facts


def emit_asp(dataset: Dataset) -> str:
    """Self-contained ASP program: instance facts, positive matching,
    saturation-based negative matching, and the template canonicity check."""
    _, summary, facts = _instance(dataset)
    template = dataset.template

    lines = [
        f"% patmine ASP encoding (generator {__version__})",
        f"% instance: {summary}",
        f"% thresholds: positive count >= {dataset.n_pos_threshold}; "
        f"negative count <= {dataset.n_neg_threshold}",
        "% predicate spellings normalized: homowith, inpattern, t_edge, t_label, t_node",
        "% canonicity: template-based saturation check only",
        "",
        "% ---- instance facts ----",
    ]
    lines += [_ASP_FACT[pred].format(*row) for pred, rows in facts.items() for row in rows]

    lines += [
        "",
        "% ---- auxiliary derivation rules ----",
    ]
    if template.undirected_input:
        lines += [
            "edge(G,Y,X) :- edge(G,X,Y).",
            "t_edge(Y,X) :- t_edge(X,Y).",
        ]
    lines += [
        "node(G,V) :- label(G,V,_).",
        "t_node(X) :- t_label(X,_).",
        "",
        "% ---- pattern choice and connectedness ----",
        "0 { inpattern(X) } 1 :- t_node(X).",
        "t_path(X,Y) :- t_edge(X,Y), inpattern(X), inpattern(Y).",
        "t_path(X,Y) :- t_edge(X,Z), t_path(Z,Y), inpattern(X).",
        ":- inpattern(X), inpattern(Y), not t_path(X,Y).",
        "",
        "% ---- positive matching ----",
        "0 { homowith(G) } 1 :- positive(G).",
        "1 { f(G,X,V) : node(G,V) } 1 :- positive(G), inpattern(X).",
        ":- used_f(G,X,V1), used_f(G,Y,V2), t_edge(X,Y), not edge(G,V1,V2), "
        "inpattern(X), inpattern(Y).",
        ":- used_f(G,X,V), t_label(X,L), not label(G,V,L), inpattern(X).",
        "used_f(G,X,V) :- homowith(G), f(G,X,V).",
        ":- used_f(G,X,V), used_f(G,Y,V), X != Y.",
        "positive_count(N) :- N = #count{G:homowith(G)}.",
        f":- positive_count(N), N < {dataset.n_pos_threshold}.",
        "",
        "% ---- negative matching (saturation) ----",
    ]

    negatives = dataset.negatives()
    if not negatives:
        lines += [
            "% no negative examples: saturation block omitted; "
            "negative count constraint vacuous.",
        ]
    else:
        # The map head must enumerate every vertex of each negative graph;
        # this is the instance-specific part of the saturation technique.
        # Nothing maps into a negative without vertices: it is saturated.
        for ex in negatives:
            head = " | ".join(f"map(g{ex.graph_id},X,v{v})" for v in ex.graph.vertices())
            rule = f"{head} :- inpattern(X), negative(g{ex.graph_id})."
            lines.append(rule if head else f"saturated(g{ex.graph_id}).")
        lines += [
            "map(G,X,V) :- saturated(G), t_node(X), node(G,V).",
            "saturated(G) :- t_edge(X,Y), map(G,X,V1), map(G,Y,V2), "
            "not edge(G,V1,V2), negative(G), inpattern(X), inpattern(Y).",
            "saturated(G) :- map(G,X,V), map(G,Y,V), X != Y, inpattern(X), inpattern(Y).",
            "saturated(G) :- map(G,X,V), t_label(X,L), not label(G,V,L), negative(G), inpattern(X).",
            "neg_homowith(G) :- not saturated(G), negative(G).",
            "negative_count(N) :- N = #count{G:neg_homowith(G)}.",
            f":- negative_count(N), N > {dataset.n_neg_threshold}.",
        ]

    iso_head = " | ".join(f"iso(X,x{v})" for v in template.vertices())
    lines += [
        "",
        "% ---- canonicity (template-based saturation) ----",
        f"{iso_head} :- inpattern(X).",
        "candidate_var(X) :- iso(_,X).",
        "iso_saturated :- inpattern(X1), inpattern(X2), iso(X1,V1), iso(X2,V2), "
        "t_edge(V1,V2), not t_edge(X1,X2).",
        "iso_saturated :- inpattern(X1), inpattern(X2), iso(X1,V1), iso(X2,V2), "
        "not t_edge(V1,V2), t_edge(X1,X2).",
        "iso(X,V) :- inpattern(X), t_node(V), iso_saturated.",
        "d1(X) :- inpattern(X), not candidate_var(X).",
        "d2(X) :- not inpattern(X), candidate_var(X).",
        "not_equal :- d1(X).",
        "not_equal :- d2(X).",
        "iso_saturated :- not not_equal.",
        "min_d1(N) :- N = #min{ X: d1(X) }, not iso_saturated.",
        "min_d2(N) :- N = #min{ X: d2(X) }, not iso_saturated.",
        "iso_saturated :- min_d1(N1), min_d2(N2), N1 > N2.",
    ]
    return "\n".join(lines) + "\n"


def emit_idp(dataset: Dataset) -> str:
    """IDP vocabulary, positive theory, and structure for the instance."""
    atom, summary, facts = _instance(dataset)
    max_node = max([dataset.template.n] + [ex.graph.n for ex in dataset.examples])

    lines = [
        f"// patmine IDP encoding (generator {__version__})",
        f"// instance: {summary}",
        f"// positive threshold: {dataset.n_pos_threshold}",
        "// normalizations: per-example label function named example_label;",
        "// the cardinality constraint counts gid, not a free symbol.",
        "",
        "vocabulary V{",
        "    type node isa nat",
        "    type graphid isa nat",
        "    type label",
        "",
        "    // Predicates determining the template graph.",
        "    template_edge(node, node)",
        "    template_label(node):label",
        "",
        "    // Predicates describing the example graphs.",
        "    example_edge(graphid, node, node)",
        "    example_label(graphid, node):label",
        "    positive(graphid)",
        "    threshold: int",
        "",
        "    // Predicates describing the pattern graph and its matches.",
        "    inpattern(node)",
        "    partial f(graphid, node):node",
        "    homowith(graphid)",
        "    path(node, node)",
        "}",
        "",
        "theory Positive : V{",
        "    // The pattern is a connected subgraph of the template: from every",
        "    // node in the pattern there is a path to every other pattern node.",
        "    !x,y[node] : x ~= y & inpattern(x) & inpattern(y) => path(x,y).",
        "    {",
        "        path(x,y) <- template_edge(x,y) & inpattern(x) & inpattern(y).",
        "        path(x,y) <- ?z[node] : path(x,z) & path(z,y).",
        "        path(x,y) <- path(y,x).",
        "    }",
        "",
        "    // Existence of a homomorphic f from the pattern to example gid.",
        "    !gid[graphid] : !x[node] : homowith(gid) & inpattern(x) <=> "
        "?y[node] : y = f(gid,x).",
        "    !gid[graphid] : !x,y[node] : homowith(gid) & inpattern(x) & "
        "inpattern(y) & x ~= y => f(gid,x) ~= f(gid,y).",
        "    !gid[graphid] : !x,y[node] : homowith(gid) & inpattern(x) & "
        "inpattern(y) & template_edge(x,y) => example_edge(gid, f(gid,x), f(gid,y)).",
        "    !gid[graphid] : !x[node] : homowith(gid) & inpattern(x) => "
        "template_label(x) = example_label(gid, f(gid,x)).",
        "",
        "    // At least threshold homomorphisms must be found.",
        "    #{ gid[graphid] : positive(gid) & homowith(gid) } >= threshold.",
        "}",
        "",
        "structure S : V{",
    ]

    gids = "; ".join(str(ex.graph_id) for ex in dataset.examples)
    lines += [
        f"    node = {{0..{max_node - 1}}}",
        f"    graphid = {{{gids}}}",
        "    label = {" + "; ".join(atom.values()) + "}",
        "    positive = {" + "; ".join(str(gid) for gid, in facts["positive"]) + "}",
    ]
    for name, pred in zip(
        ("template_edge", "template_label", "example_edge", "example_label"),
        ("t_edge", "t_label", "edge", "label"),
    ):
        sep = "->" if pred.endswith("label") else ","
        cells = "; ".join(
            ",".join(map(str, row[:-1])) + sep + str(row[-1]) for row in facts[pred]
        )
        lines.append(f"    {name} = {{{cells}}}")
    lines += [f"    threshold = {dataset.n_pos_threshold}", "}"]
    return "\n".join(lines) + "\n"
