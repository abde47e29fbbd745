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
from .graphs import Dataset, ExampleClass

_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")


class EmptyDataset(ValueError):
    pass


def _require_nonempty(dataset: Dataset) -> None:
    if dataset.template.n == 0:
        raise EmptyDataset("template graph has no vertices")


def _label_atom(label: str, universe: tuple[str, ...]) -> str:
    if _ATOM_RE.fullmatch(label):
        return label
    return f"lbl{universe.index(label)}"


def _instance_summary(dataset: Dataset) -> str:
    n_pos = len(dataset.positives())
    n_neg = len(dataset.negatives())
    return (
        f"template {dataset.template.n} vertices / {len(dataset.template.edges)} "
        f"directed edges; examples: {n_pos} positive, {n_neg} negative; "
        f"labels: {len(dataset.label_universe())}"
    )


def emit_asp(dataset: Dataset) -> str:
    """Self-contained ASP program: instance facts, positive matching,
    saturation-based negative matching, and the template canonicity check."""
    _require_nonempty(dataset)
    universe = dataset.label_universe()
    lab = lambda s: _label_atom(s, universe)
    template = dataset.template

    lines = [
        f"% patmine ASP encoding (generator {__version__})",
        f"% instance: {_instance_summary(dataset)}",
        f"% thresholds: positive count >= {dataset.n_pos_threshold}; "
        f"negative count <= {dataset.n_neg_threshold}",
        "% predicate spellings normalized: homowith, inpattern, t_edge, t_label, t_node",
        "% canonicity: template-based saturation check only",
        "",
        "% ---- instance facts ----",
    ]

    facts: list[tuple[str, tuple, str]] = []
    for u, v in sorted(template.edges):
        facts.append(("t_edge", (u, v), f"t_edge(x{u},x{v})."))
    for v in template.vertices():
        facts.append(("t_label", (v,), f"t_label(x{v},{lab(template.labels[v])})."))
    for ex in dataset.examples:
        g = ex.graph
        for u, v in sorted(g.edges):
            facts.append(("edge", (ex.graph_id, u, v), f"edge(g{ex.graph_id},v{u},v{v})."))
        for v in g.vertices():
            facts.append(
                ("label", (ex.graph_id, v), f"label(g{ex.graph_id},v{v},{lab(g.labels[v])}).")
            )
        pred = "positive" if ex.cls is ExampleClass.POSITIVE else "negative"
        facts.append((pred, (ex.graph_id,), f"{pred}(g{ex.graph_id})."))
    facts.sort(key=lambda f: (f[0], f[1]))
    lines.extend(text for _, _, text in facts)

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
        "node(G,Y) :- edge(G,Y,_).",
        "t_node(X) :- t_edge(X,_).",
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
        for ex in negatives:
            head = " | ".join(f"map(g{ex.graph_id},X,v{v})" for v in ex.graph.vertices())
            lines.append(f"{head} :- inpattern(X), negative(g{ex.graph_id}).")
        lines += [
            "map(G,X,V) :- saturated(G), t_node(X), node(G,V).",
            "saturated(G) :- t_edge(X,Y), map(G,X,V1), map(G,Y,V2), "
            "not edge(G,V1,V2), negative(G), inpattern(X), inpattern(Y).",
            "saturated(G) :- map(G,X,V), map(G,Y,V), X != Y, inpattern(X), inpattern(Y).",
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
    _require_nonempty(dataset)
    universe = dataset.label_universe()
    lab = lambda s: _label_atom(s, universe)
    template = dataset.template

    max_node = max(
        [template.n] + [ex.graph.n for ex in dataset.examples]
    )

    lines = [
        f"// patmine IDP encoding (generator {__version__})",
        f"// instance: {_instance_summary(dataset)}",
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
        "    #{ gid[graphid] : homowith(gid) } >= threshold.",
        "}",
        "",
        "structure S : V{",
    ]

    if max_node > 0:
        lines.append(f"    node = {{0..{max_node - 1}}}")
    else:
        lines.append("    node = {}")
    gids = "; ".join(str(ex.graph_id) for ex in dataset.examples)
    lines.append(f"    graphid = {{{gids}}}")
    lines.append("    label = {" + "; ".join(lab(s) for s in universe) + "}")

    t_edges = "; ".join(f"{u},{v}" for u, v in sorted(template.edges))
    lines.append(f"    template_edge = {{{t_edges}}}")
    t_labels = "; ".join(f"{v}->{lab(template.labels[v])}" for v in template.vertices())
    lines.append(f"    template_label = {{{t_labels}}}")

    ex_edges = "; ".join(
        f"{ex.graph_id},{u},{v}"
        for ex in dataset.examples
        for u, v in sorted(ex.graph.edges)
    )
    lines.append(f"    example_edge = {{{ex_edges}}}")
    ex_labels = "; ".join(
        f"{ex.graph_id},{v}->{lab(ex.graph.labels[v])}"
        for ex in dataset.examples
        for v in ex.graph.vertices()
    )
    lines.append(f"    example_label = {{{ex_labels}}}")
    lines.append(f"    threshold = {dataset.n_pos_threshold}")
    lines.append("}")
    return "\n".join(lines) + "\n"
