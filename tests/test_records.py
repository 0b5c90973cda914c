"""Value semantics of the result records: construction, defaults, equality,
hash, repr text and immutability.

The frozen records are NamedTuples, Graph is a NamedTuple of (n, edges)
with a cached adjacency, and SweepSummary is a plain mutable class.  The
repr strings pinned here are those the records printed as dataclasses.
"""

import pytest

import fermatecc as fe
from fermatecc.graph import Ecc2Profile, GraphClass, GraphKind
from fermatecc.fermat import FermatProfile, FermatWitness
from fermatecc.generators import TreeDecoration
from fermatecc.indices import Comparison, IndexReport
from fermatecc.verify import CheckOutcome, SweepSummary

RECORDS = [
    (
        GraphClass,
        dict(kind=GraphKind.TREE, cyclomatic=0),
        "GraphClass(kind=<GraphKind.TREE: 'tree'>, cyclomatic=0)",
    ),
    (
        Ecc2Profile,
        dict(ecc=(2, 1, 2), radius=1, diameter=2, center=(1,)),
        "Ecc2Profile(ecc=(2, 1, 2), radius=1, diameter=2, center=(1,))",
    ),
    (
        FermatWitness,
        dict(pair=(0, 2), fermat_vertex=1, value=2),
        "FermatWitness(pair=(0, 2), fermat_vertex=1, value=2)",
    ),
    (
        FermatProfile,
        dict(eps3=(1,), witnesses=(FermatWitness((0, 0), 0, 0),), pair_evaluations=3),
        "FermatProfile(eps3=(1,), witnesses=(FermatWitness(pair=(0, 0), fermat_vertex=0, value=0),),"
        " pair_evaluations=3)",
    ),
    (
        TreeDecoration,
        dict(diametrical_path=(0, 1, 2), center=(1,), subtree_depths=(0,), ell=0, subtree_membership=(0, 1, 2)),
        "TreeDecoration(diametrical_path=(0, 1, 2), center=(1,), subtree_depths=(0,), ell=0,"
        " subtree_membership=(0, 1, 2))",
    ),
    (
        IndexReport,
        dict(
            n=3, m=2, kind=GraphKind.TREE, eps3=(2, 2, 2), f1=12, f2=8, e1=9, e2=4, z1=6, z2=4,
            comparison=Comparison.ZERO,
        ),
        "IndexReport(n=3, m=2, kind=<GraphKind.TREE: 'tree'>, eps3=(2, 2, 2), f1=12, f2=8, e1=9, e2=4,"
        " z1=6, z2=4, comparison=<Comparison.ZERO: 'zero'>)",
    ),
    (
        CheckOutcome,
        dict(check_name="main", instance="Bw", passed=False, detail="n*F2 > m*F1"),
        "CheckOutcome(check_name='main', instance='Bw', passed=False, detail='n*F2 > m*F1')",
    ),
]


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_value_semantics(cls, kwargs, text):
    rec = cls(**kwargs)
    assert repr(rec) == text
    assert tuple(rec) == tuple(kwargs.values())
    same = cls(*kwargs.values())
    assert rec == same and hash(rec) == hash(same)
    name = next(iter(kwargs))
    assert rec != rec._replace(**{name: None})
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)


def test_record_defaults():
    p = FermatProfile(eps3=(2, 2, 2))
    assert (p.witnesses, p.pair_evaluations) == (None, None)
    assert repr(p) == "FermatProfile(eps3=(2, 2, 2), witnesses=None, pair_evaluations=None)"
    c = CheckOutcome(check_name="lipschitz", instance="", passed=True)
    assert c.detail == ""
    assert repr(c) == "CheckOutcome(check_name='lipschitz', instance='', passed=True, detail='')"


def test_records_from_the_analysis():
    texts = {cls: text for cls, _, text in RECORDS}
    assert repr(fe.full_report(fe.path(3))) == texts[IndexReport]
    assert repr(fe.classify(fe.cycle(4))) == "GraphClass(kind=<GraphKind.UNICYCLIC: 'unicyclic'>, cyclomatic=1)"
    assert repr(fe.eccentricity2_profile(fe.star(4))) == "Ecc2Profile(ecc=(1, 2, 2, 2), radius=1, diameter=2, center=(0,))"
    assert repr(fe.decorate_tree(fe.path(4))) == (
        "TreeDecoration(diametrical_path=(0, 1, 2, 3), center=(1, 2), subtree_depths=(0, 0), ell=0,"
        " subtree_membership=(0, 1, 2, 3))"
    )


def test_graph_value_semantics():
    g = fe.make_graph(3, [(1, 2), (0, 1)])
    assert repr(g) == "Graph(n=3, m=2)"
    assert (g.n, g.edges, g.m) == (3, ((0, 1), (1, 2)), 2)
    h = fe.Graph(n=3, edges=((0, 1), (1, 2)))
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != fe.Graph(3, ((0, 1), (0, 2)))
    for name in ("n", "edges", "adj", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    with pytest.raises(AttributeError):
        del g.n


def test_graph_adjacency_is_built_once():
    g = fe.path(4)
    first = g.adj
    assert first == ((1,), (0, 2), (1, 3), (2,))
    assert g.adj is first
    assert (g.degree(1), g.has_edge(2, 3), g.has_edge(0, 3)) == (2, True, False)


def test_sweep_summary_is_mutable_with_fresh_lists():
    a, b = SweepSummary(swept="tree"), SweepSummary(swept="tree")
    assert a == b and a.passed and a.complete and a.instance_count == 0
    lists = ("failures", "equality_instances", "positive_instances", "negative_instances")
    assert all(getattr(a, name) is not getattr(b, name) for name in lists)
    assert repr(a) == (
        "SweepSummary(swept='tree', instance_count=0, failures=[], equality_instances=[],"
        " positive_instances=[], negative_instances=[], complete=True)"
    )
    a.positive_instances.append("Bw")
    assert b.positive_instances == [] and a != b
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize(
    "field, value",
    [
        ("swept", "unicyclic"),
        ("instance_count", 1),
        ("failures", [CheckOutcome("main", "Bw", False)]),
        ("equality_instances", ["Bw"]),
        ("positive_instances", ["Bw"]),
        ("negative_instances", ["Bw"]),
        ("complete", False),
    ],
)
def test_sweep_summary_equality_reads_every_field(field, value):
    a, b = SweepSummary("tree"), SweepSummary("tree")
    setattr(b, field, value)
    assert a != b
    setattr(a, field, value)
    assert a == b
    assert not a.passed if field == "failures" else a.passed
