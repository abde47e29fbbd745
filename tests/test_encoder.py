from __future__ import annotations

import re

import pytest

from patmine import Dataset, EmptyDataset, build_graph, emit_asp, emit_idp
from patmine.demo import demo_dataset
from patmine.graphs import Example, ExampleClass


def template_only_dataset():
    t = build_graph(3, [(0, 1), (1, 2)], ["a", "b", "a"], undirected=True)
    return Dataset(template=t, examples=(), n_pos_threshold=0, n_neg_threshold=0)


def isolated_vertex_dataset(undirected=True):
    """Template a-b with one edge. Positive 0 is a lone b vertex, negative 1
    a lone a vertex, and positive 2 the edge b -> a, whose a vertex has only
    an incoming edge when directed."""
    edge = build_graph(2, [(0, 1)], ["b", "a"], undirected)
    return Dataset(
        template=build_graph(2, [(0, 1)], ["a", "b"], undirected),
        examples=(
            Example(0, ExampleClass.POSITIVE, build_graph(1, [], ["b"], undirected)),
            Example(1, ExampleClass.NEGATIVE, build_graph(1, [], ["a"], undirected)),
            Example(2, ExampleClass.POSITIVE, edge),
        ),
        n_pos_threshold=1,
        n_neg_threshold=0,
    )


def derived(text, head):
    """The ``head`` atoms that the program's one-atom rules, such as
    ``node(G,V) :- label(G,V,_).``, derive from its facts, as argument
    tuples."""
    facts = {}
    for pred, args in re.findall(r"^(\w+)\(([^()]*)\)\.$", text, re.M):
        facts.setdefault(pred, []).append(args.split(","))
    rule = rf"^{head}\(([^()]*)\) :- (\w+)\(([^()]*)\)\.$"
    out = set()
    for head_args, body, body_args in re.findall(rule, text, re.M):
        for row in facts.get(body, ()):
            bound = dict(zip(body_args.split(","), row))
            out.add(tuple(bound[a] for a in head_args.split(",")))
    return out


def one_step(text, head, atoms):
    """The ``head`` atoms, as argument tuples, that the program's rules
    with a ``head(...)`` head derive in one step from ``atoms``, a set of
    (predicate, argument tuple) pairs: positive body atoms are matched
    against ``atoms``, then each ``not`` atom and ``!=`` is checked under
    the bindings. Upper-case names are variables, ``_`` matches anything."""
    literal = re.compile(r"(not )?(\w+)\(([^()]*)\)|(\w+) != (\w+)")
    out = set()
    for head_args, body in re.findall(rf"^{head}\(([^()]*)\) :- (.*)\.$", text, re.M):
        bindings, checks = [{}], []
        for neg, pred, args, left, right in literal.findall(body):
            if not pred or neg:
                checks.append((pred, args.split(","), left, right))
                continue
            bindings = [
                b for binding in bindings for fact, row in atoms if fact == pred
                if (b := unify(args.split(","), row, binding)) is not None
            ]
        for b in bindings:
            if all(
                unify(args, row, b) is None for pred, args, _, _ in checks if pred
                for fact, row in atoms if fact == pred
            ) and all(b[x] != b[y] for pred, _, x, y in checks if not pred):
                out.add(tuple(b.get(a, a) for a in head_args.split(",")))
    return out


def unify(args, row, binding):
    """``binding`` extended so that ``args`` match the constants ``row``,
    or None."""
    b = dict(binding)
    for a, c in zip(args, row, strict=True):
        if a == "_":
            continue
        if a[0].isupper():
            if b.setdefault(a, c) != c:
                return None
        elif a != c:
            return None
    return b


def facts(text):
    """The program's facts as (predicate, argument tuple) pairs."""
    return {
        (pred, tuple(args.split(",")))
        for pred, args in re.findall(r"^(\w+)\(([^()]*)\)\.$", text, re.M)
    }


class TestEmitAsp:
    def test_matches_golden_file(self, golden_dir):
        expected = (golden_dir / "demo.lp").read_text(encoding="utf-8")
        assert emit_asp(demo_dataset()) == expected

    def test_deterministic(self):
        assert emit_asp(demo_dataset()) == emit_asp(demo_dataset())

    def test_saturation_head_width_matches_negative_graph(self):
        text = emit_asp(demo_dataset())
        heads = [
            line for line in text.splitlines() if line.startswith("map(") and "|" in line
        ]
        assert len(heads) == 1
        # one disjunct per vertex of the 4-vertex negative example
        assert heads[0].count("map(g1,X,") == 4

    def test_vertexless_negative_is_saturated(self):
        # Nothing maps into a negative without vertices, so it is saturated
        # by a fact; an empty disjunctive head would be a constraint that
        # forbids every pattern.
        ds = demo_dataset()
        empty = build_graph(0, [], [], undirected=True)
        ds = Dataset(
            template=ds.template,
            examples=(*ds.examples, Example(2, ExampleClass.NEGATIVE, empty)),
            n_pos_threshold=1,
            n_neg_threshold=0,
        )
        lines = emit_asp(ds).splitlines()
        assert "saturated(g2)." in lines
        assert not [line for line in lines if line.startswith(" :-")]
        assert [line for line in lines if "negative(g2)" in line] == ["negative(g2)."]
        heads = [line for line in lines if line.startswith("map(") and "|" in line]
        assert heads[0].count("map(g1,X,") == 4 and len(heads) == 1

    @pytest.mark.parametrize("undirected", [True, False])
    def test_every_vertex_is_a_node(self, undirected):
        # A vertex without an edge, or directed with only an incoming one,
        # must still be a node, or no pattern vertex can map onto it.
        ds = isolated_vertex_dataset(undirected)
        text = emit_asp(ds)
        assert derived(text, "node") == {
            (f"g{ex.graph_id}", f"v{v}") for ex in ds.examples for v in ex.graph.vertices()
        }
        assert derived(text, "t_node") == {("x0",), ("x1",)}

    @pytest.mark.parametrize("undirected", [True, False])
    def test_negative_block_has_a_label_rule(self, undirected):
        # Template a-b; positive g0 is a lone b vertex, negative g1 a lone a
        # vertex. Mapping the b pattern vertex x1 onto g1's a vertex must
        # saturate g1, or g1 counts as covered by the pattern [x1]; mapping
        # the a vertex x0 there must not.
        ds = Dataset(
            template=build_graph(2, [(0, 1)], ["a", "b"], undirected),
            examples=(
                Example(0, ExampleClass.POSITIVE, build_graph(1, [], ["b"], undirected)),
                Example(1, ExampleClass.NEGATIVE, build_graph(1, [], ["a"], undirected)),
            ),
            n_pos_threshold=1,
            n_neg_threshold=0,
        )
        text = emit_asp(ds)
        for x, want in (("x1", {("g1",)}), ("x0", set())):
            guess = {("inpattern", (x,)), ("map", ("g1", x, "v0"))}
            assert one_step(text, "saturated", facts(text) | guess) == want

    def test_threshold_constants_substituted(self):
        text = emit_asp(demo_dataset(n_pos_threshold=1, n_neg_threshold=0))
        assert ":- positive_count(N), N < 1." in text
        assert ":- negative_count(N), N > 0." in text
        text = emit_asp(demo_dataset(n_pos_threshold=1, n_neg_threshold=1))
        assert ":- negative_count(N), N > 1." in text

    def test_no_negatives_omits_saturation(self):
        ds = demo_dataset()
        pos_only = Dataset(
            template=ds.template,
            examples=ds.examples[:1],
            n_pos_threshold=1,
            n_neg_threshold=0,
        )
        text = emit_asp(pos_only)
        assert "saturated(G)" not in text
        assert "saturation block omitted" in text

    def test_fact_soundness_parse_back(self):
        ds = demo_dataset()
        text = emit_asp(ds)
        edge_facts = set(re.findall(r"^edge\(g(\d+),v(\d+),v(\d+)\)\.$", text, re.M))
        expected = {
            (str(ex.graph_id), str(u), str(v))
            for ex in ds.examples
            for u, v in ex.graph.edges
        }
        assert edge_facts == expected
        t_edge_facts = set(re.findall(r"^t_edge\(x(\d+),x(\d+)\)\.$", text, re.M))
        assert t_edge_facts == {(str(u), str(v)) for u, v in ds.template.edges}
        label_facts = set(re.findall(r"^label\(g(\d+),v(\d+),(\w+)\)\.$", text, re.M))
        expected_labels = {
            (str(ex.graph_id), str(v), ex.graph.labels[v])
            for ex in ds.examples
            for v in ex.graph.vertices()
        }
        assert label_facts == expected_labels

    def test_identical_examples_differ_only_in_graph_id(self):
        g = build_graph(2, [(0, 1)], ["a", "a"], undirected=True)
        t = build_graph(2, [(0, 1)], ["a", "a"], undirected=True)
        ds = Dataset(
            template=t,
            examples=(
                Example(0, ExampleClass.NEGATIVE, g),
                Example(1, ExampleClass.NEGATIVE, g),
            ),
            n_pos_threshold=0,
            n_neg_threshold=0,
        )
        text = emit_asp(ds)
        heads = [line for line in text.splitlines() if line.startswith("map(")
                 and ":-" in line and "|" in line]
        assert len(heads) == 2
        assert heads[0].replace("g0", "gX") == heads[1].replace("g1", "gX")

    def test_empty_template_rejected(self):
        ds = Dataset(
            template=build_graph(0, [], [], undirected=True),
            examples=(),
            n_pos_threshold=0,
            n_neg_threshold=0,
        )
        with pytest.raises(EmptyDataset):
            emit_asp(ds)


class TestEmitIdp:
    def test_matches_golden_file(self, golden_dir):
        expected = (golden_dir / "demo.idp").read_text(encoding="utf-8")
        assert emit_idp(demo_dataset()) == expected

    def test_deterministic(self):
        assert emit_idp(demo_dataset()) == emit_idp(demo_dataset())

    def test_structure_enumerates_instance(self):
        text = emit_idp(demo_dataset())
        assert "graphid = {0; 1}" in text
        assert "threshold = 1" in text
        assert "node = {0..7}" in text

    def test_count_ranges_over_positives_only(self):
        # The negative example 1 lies between the positives 0 and 2.
        text = emit_idp(isolated_vertex_dataset())
        vocabulary, theory = text.split("theory Positive")
        assert "    positive(graphid)\n" in vocabulary
        (condition,) = re.findall(r"#\{ gid\[graphid\] : (.*) \} >= threshold\.", theory)
        assert "positive(gid)" in [c.strip() for c in condition.split("&")]
        assert re.findall(r"^    positive = \{(.*)\}$", text, re.M) == ["0; 2"]
        assert "    graphid = {0; 1; 2}" in text

    def test_label_type_never_empty(self):
        text = emit_idp(template_only_dataset())
        m = re.search(r"label = \{(.*)\}", text)
        assert m and m.group(1).strip()

    def test_template_only_dataset(self):
        text = emit_idp(template_only_dataset())
        assert "example_edge = {}" in text
        assert "threshold = 0" in text
        assert "graphid = {}" in text

    def test_threshold_echoes_config(self):
        g = build_graph(2, [(0, 1)], ["a", "a"], undirected=True)
        ds = Dataset(
            template=g,
            examples=tuple(
                Example(i, ExampleClass.POSITIVE, g) for i in range(3)
            ),
            n_pos_threshold=2,
            n_neg_threshold=0,
        )
        assert "threshold = 2" in emit_idp(ds)

    def test_empty_template_rejected(self):
        ds = Dataset(
            template=build_graph(0, [], [], undirected=True),
            examples=(),
            n_pos_threshold=0,
            n_neg_threshold=0,
        )
        with pytest.raises(EmptyDataset):
            emit_idp(ds)


def asp_instance(text):
    """{(graph id, or None for the template, "edge" | "label"): rows} read
    back from the ASP edge, label, t_edge and t_label facts."""
    table = {}
    for t, pred, args in re.findall(r"^(t_)?(edge|label)\(([^()]*)\)\.$", text, re.M):
        *ids, last = args.split(",")
        row = (*(int(a[1:]) for a in ids), int(last[1:]) if pred == "edge" else last)
        key = (None, pred) if t else (row[0], pred)
        table.setdefault(key, []).append(row if t else row[1:])
    return table


def idp_instance(text):
    """The same table read back from the IDP structure's template_edge,
    template_label, example_edge and example_label relations."""
    table = {}
    pattern = r"^    (template|example)_(edge|label) = \{(.*)\}$"
    for kind, pred, cells in re.findall(pattern, text, re.M):
        for cell in filter(None, cells.split("; ")):
            *ids, last = re.split(r",|->", cell)
            row = (*map(int, ids), int(last) if pred == "edge" else last)
            key = (None, pred) if kind == "template" else (row[0], pred)
            table.setdefault(key, []).append(row if kind == "template" else row[1:])
    return table


def labeled_dataset(labels, undirected=True, edges=((0, 1), (1, 2))):
    """A template over ``labels`` with one positive and one negative copy."""
    g = build_graph(len(labels), edges, labels, undirected)
    return Dataset(
        template=g,
        examples=(
            Example(0, ExampleClass.POSITIVE, g), Example(1, ExampleClass.NEGATIVE, g)
        ),
        n_pos_threshold=1,
        n_neg_threshold=0,
    )


class TestSharedInstance:
    @pytest.mark.parametrize("dataset", [
        demo_dataset(),
        # directed: a self-loop at 2 and the antiparallel pair 0 <-> 1
        labeled_dataset("aab", undirected=False, edges=((0, 1), (1, 0), (1, 2), (2, 2))),
        # two labels, one of them not an atom
        labeled_dataset(["a", "B-1", "a"]),
    ], ids=["demo", "directed-loop-antiparallel", "non-atom-label"])
    def test_both_encodings_list_the_same_facts(self, dataset):
        asp = asp_instance(emit_asp(dataset))
        assert asp == idp_instance(emit_idp(dataset))
        graphs = [(None, dataset.template)]
        graphs += [(ex.graph_id, ex.graph) for ex in dataset.examples]
        assert set(asp) == {(gid, pred) for gid, _ in graphs for pred in ("edge", "label")}
        atoms = {}
        for gid, g in graphs:
            assert asp[gid, "edge"] == sorted(g.edges)
            assert [v for v, _ in asp[gid, "label"]] == list(g.vertices())
            for v, atom in asp[gid, "label"]:
                assert atoms.setdefault(g.labels[v], atom) == atom
        assert len(set(atoms.values())) == len(atoms) == len(dataset.label_universe())

    def test_distinct_labels_get_distinct_atoms(self):
        # "A" is no atom and used to be renamed lbl0, the spelling of the
        # label "lbl0"; "not" is the ASP keyword. "lbl" and "nota" keep theirs.
        dataset = labeled_dataset(["A", "lbl", "lbl0", "not", "nota"])
        atoms = ["lbl0", "lbl", "lbl2", "lbl3", "nota"]
        asp = emit_asp(dataset)
        assert re.findall(r"^t_label\(x\d+,(\w+)\)\.$", asp, re.M) == atoms
        assert re.findall(r"^label\(g0,v\d+,(\w+)\)\.$", asp, re.M) == atoms
        assert "    label = {lbl0; lbl; lbl2; lbl3; nota}" in emit_idp(dataset)
