"""Tree model tests; labeling counts are checked against brute force."""

import itertools
import math

import pytest
from oracles import ascending_labelings

from treecast.errors import (
    BadEdge,
    HasCycle,
    NotAscending,
    NotConnected,
    TooLarge,
    UnknownVertex,
)
from treecast.network import RootedTree, line_tree, parse_tree, star_tree


def brute_force_labelings(tree):
    """Filter all permutations by the ascending property."""
    out = []
    for perm in itertools.permutations(tree.vertices):
        if perm[0] != tree.root:
            continue
        pos = {v: k for k, v in enumerate(perm)}
        if all(pos[tree.parent(v)] < pos[v] for v in tree.vertices if v != tree.root):
            out.append(perm)
    return sorted(out)


def test_structure_maps_on_a_small_tree():
    t = RootedTree.from_edges("r", [("r", "a"), ("r", "b"), ("b", "c")])
    assert t.vertices == ("a", "b", "c", "r")
    assert t.parent("r") is None
    assert t.parent("c") == "b"
    assert t.children("r") == ("a", "b")
    assert t.children("a") == ()
    assert t.subtree("b") == ("b", "c")
    assert t.subtree("r") == ("a", "b", "c", "r")
    assert t.edges() == (("r", "a"), ("r", "b"), ("b", "c"))
    assert not t.children("a") and t.children("b")


def test_construction_rejects_malformed_inputs():
    with pytest.raises(BadEdge):
        RootedTree.from_edges("a", [("a", "a")])
    with pytest.raises(BadEdge):
        RootedTree.from_edges("a", [("a", "b"), ("b", "a")])
    with pytest.raises(HasCycle):
        RootedTree.from_edges("a", [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(NotConnected):
        # two components, edge count fudged by a parallel pair elsewhere
        RootedTree.from_edges("a", [("a", "b"), ("c", "d"), ("d", "e"), ("e", "c")])
    with pytest.raises(UnknownVertex):
        RootedTree.from_edges("z", [("a", "b")])
    with pytest.raises(UnknownVertex):
        line_tree(3).parent("nope")


def test_single_vertex_tree():
    t = RootedTree.from_edges("solo", [])
    assert t.size == 1
    assert t.edges() == ()
    assert ascending_labelings(t) == [("solo",)]
    assert t.count_ascending_labelings() == 1
    assert t.count_merged_sets() == 1


def test_ascending_validation():
    t = line_tree(3)
    assert t.check_ascending(["v1", "v2", "v3"]) == ("v1", "v2", "v3")
    with pytest.raises(NotAscending):
        t.check_ascending(["v2", "v1", "v3"])
    with pytest.raises(NotAscending):
        t.check_ascending(["v1", "v3", "v2"])
    with pytest.raises(NotAscending):
        t.check_ascending(["v1", "v2"])
    s = star_tree(4)
    # any leaf order works on a star
    assert s.check_ascending(["v1", "v4", "v2", "v3"])


def test_labeling_enumeration_matches_brute_force_and_hook_count():
    trees = [
        line_tree(4),
        star_tree(5),
        RootedTree.from_edges("r", [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d")]),
    ]
    for t in trees:
        got = ascending_labelings(t)
        want = brute_force_labelings(t)
        assert got == want
        assert len(got) == t.count_ascending_labelings()


def test_hook_count_closed_forms():
    assert line_tree(6).count_ascending_labelings() == 1
    assert star_tree(5).count_ascending_labelings() == math.factorial(4)


def test_enumeration_limit():
    t = star_tree(10)  # 9! = 362880 labelings
    with pytest.raises(TooLarge):
        ascending_labelings(t, limit=1000)


def brute_force_merged_sets(tree):
    """Subsets of the non-root vertices holding every child of each member."""
    rest = [v for v in tree.vertices if v != tree.root]
    return [
        subset
        for n in range(len(rest) + 1)
        for subset in map(set, itertools.combinations(rest, n))
        if all(subset.issuperset(tree.children(v)) for v in subset)
    ]


@pytest.mark.parametrize(
    "tree",
    [
        line_tree(1),
        line_tree(2),
        line_tree(5),
        star_tree(3),
        star_tree(6),
        parse_tree("v1-v2,v1-v3,v3-v4,v3-v5"),
        RootedTree.from_edges("r", [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("d", "e")]),
    ],
    ids=lambda t: ",".join(f"{p}-{c}" for p, c in t.edges()) or t.root,
)
def test_merged_set_count_matches_brute_force(tree):
    assert tree.count_merged_sets() == len(brute_force_merged_sets(tree))


def test_merged_set_closed_forms():
    assert line_tree(6).count_merged_sets() == 6
    assert star_tree(11).count_merged_sets() == 2**10


def test_default_labeling_is_ascending_bfs():
    t = RootedTree.from_edges("r", [("r", "b"), ("r", "a"), ("b", "z"), ("a", "y")])
    lab = t.default_labeling()
    assert lab == ("r", "a", "b", "y", "z")
    t.check_ascending(lab)


def test_parse_tree_shorthands_and_edge_lists():
    t = parse_tree("line:5")
    assert t.size == 5
    assert t.parent("v3") == "v2"
    s = parse_tree("star:4")
    assert s.children("v1") == ("v2", "v3", "v4")
    e = parse_tree("alpha-beta, beta-gamma")
    assert e.root == "alpha"
    assert e.parent("gamma") == "beta"
    with pytest.raises(BadEdge):
        parse_tree("line:x")
    with pytest.raises(BadEdge):
        parse_tree("just_one_name")
