"""Stable-graph skeletons indexing the genus expansion.

A stable graph carries a genus g_v >= 0 on every vertex plus an unordered
edge multiset that may include loops and parallel edges.  Stability is the
single rule 2 g_v - 2 + valence(v) > 0 (loops count twice), which forces
genus-0 vertices to have valence >= 3 and genus-1 vertices valence >= 1.
The total genus is sum(g_v) + b1.

*Skeletons* (``skeletons(g)``) are these graphs without canonical indices,
one per isomorphism class, memoized for the life of the process and built
on first use.  They are generated by one-edge degenerations, starting from
the single vertex of genus g: a degeneration either adds a loop at a vertex
of positive genus, lowering its genus by one, or splits a vertex into two
joined by a new edge, sharing its genus, its loops (a shared loop becomes
one more joining edge) and its edges to each neighbour between the two
parts.  This reaches every skeleton because stable graphs are closed under
contraction: contracting any edge of a genus-g stable graph gives a
genus-g stable graph with one edge fewer (a loop at v gives g_v + 1; an
edge v-w merges v and w into a vertex of genus g_v + g_w, whose other
joining edges become loops), and a degeneration undoes exactly one such
contraction.  So the graphs with e + 1 edges are the degenerations of those
with e edges, found level by level; degenerating one vertex per
automorphism orbit suffices.  Each result is put in a canonical form that
only permutes vertices of equal colour after colour refinement of
(genus, valence, loops), which removes duplicates.  There are 7, 42, 379
and 4,555 skeletons of genus 2, 3, 4 and 5.

The graph sum puts a canonical index from {0..N-1} on every vertex.  Its
terms are indexed by the isomorphism classes of such decorated graphs, each
weighted by 1 / |Aut|, with

    |Aut| = |Stab_V(labeling)| * prod_v 2^{loops_v} loops_v! * prod_{v<w} m_vw!

matching the 1/2, 1/m! weights of the Wick expansion.  Two labelings of one
skeleton give isomorphic graphs exactly when a vertex automorphism of the
skeleton carries one to the other, so by orbit-stabilizer the sum over the
decorated graphs of one skeleton equals the sum over all N^|V| labelings
divided by |Aut(skeleton)| = |automorphisms| * ``edge_aut``.  That is how
:func:`genus.graph_sum` evaluates it; no decorated graph is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import groupby, product
from math import factorial
from typing import Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class Skeleton:
    """An undecorated stable graph: vertex genera and edges, no indices."""

    genera: Tuple[int, ...]
    adjacency: Tuple[Tuple[int, ...], ...]
    automorphisms: Tuple[Tuple[int, ...], ...]  # vertex maps v -> p[v]
    edge_aut: int  # prod 2^loops loops! * prod m!

    @property
    def aut(self) -> int:
        return len(self.automorphisms) * self.edge_aut

    def edge_list(self) -> List[Tuple[int, int, int]]:
        """(v, w, multiplicity) with v <= w and multiplicity >= 1."""
        n = len(self.genera)
        return [
            (v, w, self.adjacency[v][w])
            for v in range(n)
            for w in range(v, n)
            if self.adjacency[v][w]
        ]

    def psi_cap(self, v: int) -> int:
        """Largest total psi-power the vertex correlator can absorb."""
        row = self.adjacency[v]
        return 3 * self.genera[v] - 3 + sum(row) + row[v]

    def describe(self) -> str:
        """Vertex genera, edges and |Aut|; distinct for distinct skeletons.
        Built once per skeleton, which lives as long as the process."""
        return self._description

    @cached_property
    def _description(self) -> str:
        verts = " ".join(f"g{g}" for g in self.genera)
        edges = " ".join(
            (f"{v}-{w}" if v != w else f"loop{v}") + (f"x{m}" if m > 1 else "")
            for v, w, m in self.edge_list()
        )
        return f"[{verts}] {edges or 'no edges'} |Aut|={self.aut}"


def skeletons(g: int) -> Tuple[Skeleton, ...]:
    """The undecorated stable graphs of genus g, one per isomorphism class,
    by vertex count and then canonical form."""
    if g < 2:
        raise ValueError("the graph expansion starts at genus 2")
    return _skeletons(g)


# -- skeletons ---------------------------------------------------------------------


def _cells(colors: Sequence) -> List[List[int]]:
    """Vertices grouped by colour, groups in ascending colour order."""
    order = sorted(range(len(colors)), key=colors.__getitem__)
    return [list(cell) for _, cell in groupby(order, key=colors.__getitem__)]


def _refined_colors(colors, adj, n: int) -> List[int]:
    """Colour refinement: split colour classes by the multiset of
    (neighbour colour, multiplicity) until stable.  Colours are ranks of
    isomorphism-invariant signatures, so isomorphic graphs get matching
    colours."""
    ranks = {c: r for r, c in enumerate(sorted(set(colors)))}
    current = [ranks[c] for c in colors]
    while True:
        sig = [
            (current[v], tuple(sorted(
                (current[w], adj[v][w]) for w in range(n) if w != v and adj[v][w]
            )))
            for v in range(n)
        ]
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        refined = [ranks[s] for s in sig]
        if len(ranks) == len(set(current)):
            return refined
        current = refined


def _least_form(adj, cells) -> Tuple[Tuple[int, ...], List[Tuple[int, ...]]]:
    """Row-major least adjacency over the vertex orders that keep cells,
    flattened, and every order that gives it.

    The orders are searched row by row.  Once the vertices of the first d
    positions are chosen, the rows before d are fixed whichever way the
    rest is ordered, provided every cell holds vertices that agree on their
    multiplicity to each chosen vertex; so the cells split by that
    multiplicity as each vertex is chosen.  Row d is then least when
    position d holds a vertex x of the cell that starts there and every
    split cell lists its vertices by ascending multiplicity to x.  Only the
    choices that give the least row go on to the next position."""
    n = sum(map(len, cells))
    if len(cells) == n:
        order = tuple(cell[0] for cell in cells)
        return tuple([adj[a][b] for a in order for b in order]), [order]
    form: List[int] = []
    # (chosen vertices, cells of the others in position order)
    nodes = [((), [list(cell) for cell in cells])]
    for _ in range(n):
        best, kept = None, []
        for chosen, rest in nodes:
            head = rest[0]
            for x in head:
                ax = adj[x]
                split = []
                for cell in ([y for y in head if y != x], *rest[1:]):
                    if len(cell) > 1:
                        cell = sorted(cell, key=ax.__getitem__)
                        split += (list(part) for _, part in groupby(cell, key=ax.__getitem__))
                    elif cell:
                        split.append(cell)
                row = [ax[y] for y in chosen]
                row.append(ax[x])
                row += (ax[y] for cell in split for y in cell)
                if best is None or row < best:
                    best, kept = row, []
                if row == best:
                    kept.append((chosen + (x,), split))
        form += best
        nodes = kept
    return tuple(form), [chosen for chosen, _ in nodes]


def _rows(form, n: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(form[a * n:(a + 1) * n] for a in range(n))


def _edge_aut(adj, n: int) -> int:
    aut = 1
    for v in range(n):
        aut *= 2 ** adj[v][v] * factorial(adj[v][v])
        for w in range(v + 1, n):
            aut *= factorial(adj[v][w])
    return aut


@cache
def _skeletons(g: int) -> Tuple[Skeleton, ...]:
    # one level per edge count: every skeleton with e + 1 edges is a
    # degeneration of one with e edges
    found: dict = {}
    level: dict = {}
    _add(level, [g], [[0]])
    while level:
        found.update(level)
        following: dict = {}
        for sk in level.values():
            for genera, adj in _degenerations(sk):
                _add(following, genera, adj)
        level = following
    return tuple(found[k] for k in sorted(found, key=lambda k: (len(k[0]), k)))


def _add(level: dict, genera: Sequence[int], adj) -> None:
    """Put the graph (genera, adj) into ``level`` under its canonical key,
    unless an isomorphic one is there: its vertex genera and adjacency in
    the least order that keeps the refined colours of (genus, valence,
    loops) in place."""
    n = len(genera)
    colors = _refined_colors(
        [(genera[v], sum(adj[v]) + adj[v][v], adj[v][v]) for v in range(n)], adj, n
    )
    cells = _cells(colors)
    form, orders = _least_form(adj, cells)
    key = (tuple(genera[v] for v in sum(cells, [])), form)
    if key not in level:
        level[key] = _skeleton(key, orders)


def _skeleton(key, orders) -> Skeleton:
    """The skeleton in canonical vertex order from its key (genera, form)
    and the vertex orders that give the form.  Any two such orders differ
    by an automorphism of the canonical graph, and every cell-preserving
    automorphism arises so."""
    genera, form = key
    n = len(genera)
    adj = _rows(form, n)
    position = {v: a for a, v in enumerate(orders[0])}
    autos = tuple(sorted(tuple(position[v] for v in order) for order in orders))
    return Skeleton(genera=genera, adjacency=adj, automorphisms=autos, edge_aut=_edge_aut(adj, n))


def _degenerations(sk: Skeleton) -> Iterator[Tuple[List[int], List[List[int]]]]:
    """Every graph that contracts to ``sk`` along one edge, each
    isomorphism class at least once, as (genera, adjacency) in fresh lists.

    At one vertex v of each automorphism orbit: a new loop where g_v > 0,
    which lowers g_v by one; and every split of v into v and a new last
    vertex, joined by a new edge, with the genus, the loops and the edges
    to each neighbour shared between the two.  A loop shared between them
    becomes one more edge joining them.  A split that leaves either part
    unstable is skipped, and so is one of each mirror pair of an
    equal-genus split."""
    genera, adj = sk.genera, sk.adjacency
    n = len(genera)
    for v in sorted({min(p[v] for p in sk.automorphisms) for v in range(n)}):
        g_v, row = genera[v], adj[v]
        if g_v:
            looped = [list(r) for r in adj]
            looped[v][v] += 1
            lower = list(genera)
            lower[v] -= 1
            yield lower, looped
        loops = row[v]
        others = [w for w in range(n) if w != v and row[w]]
        out = sum(row) - loops
        for g1 in range(g_v // 2 + 1):
            g2 = g_v - g1
            for l1 in range(loops + 1):
                for l2 in range(loops - l1 + 1):
                    # the rest of v's loops join the two parts
                    bridge = 1 + loops - l1 - l2
                    for share in product(*(range(row[w] + 1) for w in others)):
                        kept = sum(share)
                        # 2 g - 2 + valence > 0 on both parts
                        if 2 * g1 + kept + 2 * l1 + bridge <= 2:
                            continue
                        if 2 * g2 + out - kept + 2 * l2 + bridge <= 2:
                            continue
                        rest = tuple(row[w] - m for w, m in zip(others, share))
                        if g1 == g2 and (l1, share) > (l2, rest):
                            continue
                        split = [list(r) + [0] for r in adj]
                        split.append([0] * (n + 1))
                        split[v][v], split[n][n] = l1, l2
                        split[v][n] = split[n][v] = bridge
                        for w, m, m2 in zip(others, share, rest):
                            split[v][w] = split[w][v] = m
                            split[n][w] = split[w][n] = m2
                        parts = list(genera)
                        parts[v] = g1
                        parts.append(g2)
                        yield parts, split
