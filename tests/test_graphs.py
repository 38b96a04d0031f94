"""Stable-graph enumeration: the library's skeletons and the decorated
lists built from them in tests/oracles.py.  The genus-2 list is checked
vertex by vertex against a hand enumeration; structural invariants are
swept over larger (g, N); the skeleton-based lists are compared graph by
graph, in order, with a direct index-aware enumeration kept here as an
oracle; and the orbit-stabilizer identity ties every decorated list to its
skeletons.  The skeletons, which the library generates by one-edge
degenerations, equal the fillings enumerator of tests/oracles.py tuple for
tuple; relabeling and contraction keep them within the list.  The evaluation-side cross-check that certifies these lists
(graph sum == operator-exponential oracle) lives in test_genus.py."""

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from genuslift import graphs as graphs_module
from genuslift.graphs import skeletons
from oracles import StableGraph, enumerate_graphs


def signature(graph):
    return (graph.vertices, graph.adjacency, graph.aut, graph.b1)


# -- direct enumeration oracle -----------------------------------------------------
#
# Every edge multiset over every vertex-pair slot, once per sorted index
# decoration, deduplicated by a minimum over all vertex permutations.  It
# shares no code with the skeleton construction; exponential in the number
# of slots, so it stops at genus 3.


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _connected(adj, n):
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if adj[v][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _canonical_key(verts, adj, n):
    return min(
        (
            tuple(verts[p] for p in perm),
            tuple(adj[perm[a]][perm[b]] for a in range(n) for b in range(n)),
        )
        for perm in permutations(range(n))
    )


def _vertex_aut(verts, adj, n):
    return sum(
        1
        for perm in permutations(range(n))
        if all(verts[perm[a]] == verts[a] for a in range(n))
        and all(adj[perm[a]][perm[b]] == adj[a][b] for a in range(n) for b in range(n))
    )


def _nondecreasing_tuples(nv, g, n_indices):
    symbols = [(gv, i) for gv in range(g + 1) for i in range(n_indices)]

    def rec(prefix, start, budget):
        if len(prefix) == nv:
            yield tuple(prefix)
            return
        for s in range(start, len(symbols)):
            if symbols[s][0] <= budget:
                yield from rec(prefix + [symbols[s]], s, budget - symbols[s][0])

    yield from rec([], 0, g)


def direct_enumeration(g, n_indices):
    found = {}
    for nv in range(1, 2 * g - 1):
        slots = [(v, w) for v in range(nv) for w in range(v, nv)]
        for decorations in _nondecreasing_tuples(nv, g, n_indices):
            gs = [d[0] for d in decorations]
            edges = g - sum(gs) + nv - 1
            if edges < 0 or (nv > 1 and edges < nv - 1):
                continue
            if sum(max(0, 3 - 2 * gv) for gv in gs) > 2 * edges:
                continue
            for comp in _compositions(edges, len(slots)):
                adj = [[0] * nv for _ in range(nv)]
                for (v, w), m in zip(slots, comp):
                    adj[v][w] += m
                    if v != w:
                        adj[w][v] += m
                if not _connected(adj, nv):
                    continue
                if any(2 * gs[v] - 2 + sum(adj[v]) + adj[v][v] <= 0 for v in range(nv)):
                    continue
                key = _canonical_key(decorations, adj, nv)
                if key in found:
                    continue
                aut = _vertex_aut(decorations, adj, nv)
                for v in range(nv):
                    aut *= 2 ** adj[v][v] * factorial(adj[v][v])
                    for w in range(v + 1, nv):
                        aut *= factorial(adj[v][w])
                found[key] = StableGraph(
                    genus=g,
                    vertices=tuple(decorations),
                    adjacency=tuple(tuple(row) for row in adj),
                    aut=aut,
                    b1=edges - nv + 1,
                )
    return [found[k] for k in sorted(found, key=lambda k: (len(k[0]),) + k)]


@pytest.fixture(scope="module")
def graphs():
    return enumerate_graphs(2, 1)


class TestGenusTwoSingleIndex:
    def test_exactly_seven(self, graphs):
        assert len(graphs) == 7

    def test_hand_list(self, graphs):
        got = {signature(g) for g in graphs}
        want = {
            # one vertex: bare genus 2; genus 1 with a loop; genus 0 with two loops
            (((2, 0),), ((0,),), 1, 0),
            (((1, 0),), ((1,),), 2, 1),
            (((0, 0),), ((2,),), 8, 2),
            # two vertices: g1-g1 bridge, g1-g0 with loop, dumbbell, theta
            (((1, 0), (1, 0)), ((0, 1), (1, 0)), 2, 0),
            (((0, 0), (1, 0)), ((1, 1), (1, 0)), 2, 1),
            (((0, 0), (0, 0)), ((1, 1), (1, 1)), 8, 2),
            (((0, 0), (0, 0)), ((0, 3), (3, 0)), 12, 2),
        }
        assert got == want

    def test_psi_caps(self, graphs):
        by_kind = {signature(g): g for g in graphs}
        theta = by_kind[(((0, 0), (0, 0)), ((0, 3), (3, 0)), 12, 2)]
        assert theta.psi_cap(0) == 0 and theta.psi_cap(1) == 0
        bare = by_kind[(((2, 0),), ((0,),), 1, 0)]
        assert bare.psi_cap(0) == 3
        oneloop = by_kind[(((1, 0),), ((1,),), 2, 1)]
        assert oneloop.valence(0) == 2
        assert oneloop.psi_cap(0) == 2


class TestStructuralInvariants:
    @pytest.mark.parametrize("g, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)])
    def test_sweep(self, g, n):
        graphs = enumerate_graphs(g, n)
        assert len(graphs) == len({signature(gr) for gr in graphs})
        for gr in graphs:
            assert sum(gv for gv, _ in gr.vertices) + gr.b1 == g
            assert gr.b1 == gr.num_edges() - gr.num_vertices() + 1
            # hbar bookkeeping and per-vertex stability
            assert sum(gv - 1 for gv, _ in gr.vertices) + gr.num_edges() == g - 1
            for v in range(gr.num_vertices()):
                gv = gr.vertices[v][0]
                val = gr.valence(v)
                assert 2 * gv - 2 + val > 0
                if gv == 0:
                    assert val >= 3

    def test_counts_regression(self):
        # pinned sizes; correctness of the lists is certified by the Wick
        # equivalence in test_genus.py
        assert len(enumerate_graphs(2, 2)) == 19
        assert len(enumerate_graphs(2, 3)) == 36
        assert len(enumerate_graphs(3, 1)) == 42
        assert len(enumerate_graphs(3, 2)) == 271
        assert len(enumerate_graphs(3, 3)) == 942
        assert len(enumerate_graphs(4, 1)) == 379

    def test_deterministic_order(self):
        a = enumerate_graphs(2, 2)
        b = enumerate_graphs(2, 2)
        assert [signature(g) for g in a] == [signature(g) for g in b]

    def test_label_variants_kept_distinct(self):
        thetas = [
            g
            for g in enumerate_graphs(2, 2)
            if g.num_vertices() == 2 and g.adjacency[0][1] == 3
        ]
        labels = {tuple(i for _, i in g.vertices) for g in thetas}
        assert labels == {(0, 0), (0, 1), (1, 1)}
        assert all(g.aut == (12 if g.vertices[0] == g.vertices[1] else 6) for g in thetas)

    def test_errors(self):
        memo = oracles._decorated.cache_info().currsize
        with pytest.raises(ValueError):
            enumerate_graphs(1, 1)
        with pytest.raises(ValueError):
            enumerate_graphs(2, 0)
        with pytest.raises(ValueError):
            skeletons(1)
        # rejected before the memo is consulted, so nothing is stored
        assert oracles._decorated.cache_info().currsize == memo

    def test_accessors(self):
        dumbbell = StableGraph(
            genus=2,
            vertices=((0, 0), (0, 0)),
            adjacency=((1, 1), (1, 1)),
            aut=8,
            b1=2,
        )
        assert dumbbell.valence(0) == 3
        assert dumbbell.num_edges() == 3
        assert dumbbell.edge_list() == [(0, 0, 1), (0, 1, 1), (1, 1, 1)]
        assert "Aut" in dumbbell.describe()


class TestSkeletons:
    def test_counts(self):
        # stable graphs of genus 2, 3, 4 with no legs
        assert [len(skeletons(g)) for g in (2, 3, 4)] == [7, 42, 379]

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_single_index_lists_match(self, g):
        # with one index every skeleton is one decorated graph
        sks = skeletons(g)
        decorated = enumerate_graphs(g, 1)
        assert sorted(sk.aut for sk in sks) == sorted(gr.aut for gr in decorated)
        for sk in sks:
            n = len(sk.genera)
            assert all(
                sk.genera[p[v]] == sk.genera[v]
                and all(sk.adjacency[p[v]][p[w]] == sk.adjacency[v][w] for w in range(n))
                for p in sk.automorphisms
                for v in range(n)
            )

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_descriptions_are_distinct(self, g):
        # the graph-sum breakdown is keyed by them
        sks = skeletons(g)
        assert len({sk.describe() for sk in sks}) == len(sks)
        for sk in sks:
            n = len(sk.genera)
            assert sum(m for _, _, m in sk.edge_list()) - n + 1 + sum(sk.genera) == g
            assert all(sk.psi_cap(v) >= 0 for v in range(n))

    @pytest.mark.parametrize(
        "g, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)]
    )
    def test_orbit_stabilizer_identity(self, g, n):
        decorated = sum(Fraction(1, gr.aut) for gr in enumerate_graphs(g, n))
        undecorated = sum(Fraction(n ** len(sk.genera), sk.aut) for sk in skeletons(g))
        assert decorated == undecorated


class TestDirectEnumerationOracle:
    @pytest.mark.parametrize("g, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_same_graphs_same_order(self, g, n):
        want = direct_enumeration(g, n)
        got = enumerate_graphs(g, n)
        assert [signature(gr) for gr in got] == [signature(gr) for gr in want]
        assert [gr.describe() for gr in got] == [gr.describe() for gr in want]


class TestMemoSafety:
    def test_returned_list_is_fresh(self):
        before = [signature(gr) for gr in enumerate_graphs(3, 2)]
        first = enumerate_graphs(3, 2)
        first.clear()
        second = enumerate_graphs(3, 2)
        second.append(second[0])
        second.reverse()
        assert [signature(gr) for gr in enumerate_graphs(3, 2)] == before

    def test_graphs_are_frozen(self):
        graph = enumerate_graphs(2, 1)[0]
        with pytest.raises(AttributeError):
            graph.aut = 1
        with pytest.raises(AttributeError):
            skeletons(2)[0].genera = (0,)


# -- generation by degeneration --------------------------------------------------


def canonical(genera, adj):
    """The skeleton of the graph (genera, adj), put in canonical form by
    the library's generator."""
    level = {}
    graphs_module._add(level, genera, adj)
    (sk,) = level.values()
    return sk


@cache
def skeleton_set(g):
    return frozenset(skeletons(g))


def contract(sk, v, w):
    """(genera, adjacency) of ``sk`` with one edge v-w contracted: a loop
    raises g_v by one; an edge merges w into v, whose other joining edges
    become loops."""
    n = len(sk.genera)
    genera = list(sk.genera)
    adj = [list(row) for row in sk.adjacency]
    if v == w:
        genera[v] += 1
        adj[v][v] -= 1
        return genera, adj
    genera[v] += genera[w]
    adj[v][v] += adj[w][w] + adj[v][w] - 1
    for x in range(n):
        if x not in (v, w):
            adj[v][x] = adj[x][v] = adj[v][x] + adj[w][x]
    keep = [x for x in range(n) if x != w]
    return [genera[x] for x in keep], [[adj[a][b] for b in keep] for a in keep]


@st.composite
def relabelings(draw):
    """A skeleton of genus 2..4 and its genera and adjacency under a random
    vertex permutation."""
    sk = draw(st.sampled_from(skeletons(draw(st.sampled_from([2, 3, 4])))))
    n = len(sk.genera)
    p = draw(st.permutations(range(n)))
    return sk, [sk.genera[p[v]] for v in range(n)], [
        [sk.adjacency[p[v]][p[w]] for w in range(n)] for v in range(n)
    ]


@st.composite
def contractions(draw):
    """A genus, a skeleton of it with an edge, and one of its edges."""
    g = draw(st.sampled_from([2, 3, 4, 5]))
    sk = draw(st.sampled_from([sk for sk in skeletons(g) if sk.edge_list()]))
    v, w, _ = draw(st.sampled_from(sk.edge_list()))
    return g, sk, v, w


@st.composite
def coloured_graphs(draw):
    """A multigraph on up to 6 vertices with loops, and vertex colours."""
    n = draw(st.integers(1, 6))
    adj = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in range(v, n):
            adj[v][w] = adj[w][v] = draw(st.integers(0, 2))
    return adj, draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))


class TestDegenerationGenerator:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_same_tuple_as_the_fillings_enumerator(self, g):
        got, want = skeletons(g), oracles.skeletons_by_fillings(g)
        assert [sk.genera for sk in got] == [sk.genera for sk in want]
        assert [sk.adjacency for sk in got] == [sk.adjacency for sk in want]
        assert [sk.automorphisms for sk in got] == [sk.automorphisms for sk in want]
        assert [sk.edge_aut for sk in got] == [sk.edge_aut for sk in want]
        assert got == want

    def test_genus_five_finishes(self):
        sks = skeletons(5)
        assert len({sk.describe() for sk in sks}) == len(sks)
        for sk in sks:
            n = len(sk.genera)
            assert sum(m for _, _, m in sk.edge_list()) - n + 1 + sum(sk.genera) == 5
            assert all(sk.psi_cap(v) >= 0 for v in range(n))
            assert all(
                sk.adjacency[p[v]][p[w]] == sk.adjacency[v][w]
                for p in sk.automorphisms
                for v in range(n)
                for w in range(n)
            )
        assert [len(sk.genera) for sk in sks] == sorted(len(sk.genera) for sk in sks)

    @settings(max_examples=200, deadline=None, database=None)
    @given(relabelings())
    def test_relabeling_gives_the_same_skeleton(self, case):
        sk, genera, adj = case
        assert canonical(genera, adj) == sk

    @settings(max_examples=200, deadline=None, database=None)
    @given(contractions())
    def test_contracting_an_edge_stays_in_the_list(self, case):
        # the fact the generator rests on: every skeleton with an edge is a
        # degeneration of one with an edge fewer
        g, sk, v, w = case
        assert canonical(*contract(sk, v, w)) in skeleton_set(g)

    @settings(max_examples=200, deadline=None, database=None)
    @given(coloured_graphs())
    def test_least_form_search_matches_every_order(self, case):
        adj, colors = case
        cells = graphs_module._cells(colors)
        form, orders = graphs_module._least_form(adj, cells)
        assert form == oracles.least_form_by_orders(adj, cells)
        assert sorted(orders) == [
            order
            for order in sorted(oracles._orders(cells))
            if tuple(adj[a][b] for a in order for b in order) == form
        ]
