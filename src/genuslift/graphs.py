"""Stable-graph skeletons indexing the genus expansion.

A stable graph carries a genus g_v >= 0 on every vertex plus an unordered
edge multiset that may include loops and parallel edges.  Stability is the
single rule 2 g_v - 2 + valence(v) > 0 (loops count twice), which forces
genus-0 vertices to have valence >= 3 and genus-1 vertices valence >= 1.
The total genus is sum(g_v) + b1.

*Skeletons* (``skeletons(g)``) are these graphs without canonical indices,
one per isomorphism class, memoized for the life of the process and built
on first use.  Summing 2 g_v - 2 + valence(v) over vertices gives 2g - 2,
so a genus-g skeleton has at most 2g - 2 vertices, and its vertex types
(g_v, valence) are the ways of splitting 2g - 2 into per-vertex excesses
>= 1.  For each sorted type sequence the adjacency matrices with exactly
those valences are filled row by row, the connected ones kept, and
duplicates removed by a canonical form that only permutes vertices of equal
(genus, valence, loops) after colour refinement.  There are 7, 42 and 379
skeletons of genus 2, 3 and 4.

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
from functools import cache
from itertools import combinations_with_replacement, groupby, permutations, product
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
        """Vertex genera, edges and |Aut|; distinct for distinct skeletons."""
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


def _vertex_types(g: int, nv: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Sorted (genus, valence) sequences whose excesses 2 g_v - 2 + val_v
    are >= 1 and add up to 2g - 2."""
    types = sorted(
        (gv, e + 2 - 2 * gv)
        for e in range(1, 2 * g - 1)
        for gv in range(e // 2 + 2)
        if e + 2 - 2 * gv >= (1 if nv > 1 else 0)
    )
    return [
        seq
        for seq in combinations_with_replacement(types, nv)
        if sum(2 * gv - 2 + val for gv, val in seq) == 2 * g - 2
    ]


def _bounded(total: int, caps: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Tuples with entries 0 <= x_k <= caps[k] that add up to total."""
    if not caps:
        if total == 0:
            yield ()
        return
    rest = sum(caps[1:])
    for first in range(max(0, total - rest), min(total, caps[0]) + 1):
        for tail in _bounded(total - first, caps[1:]):
            yield (first,) + tail


def _fillings(valences: Sequence[int]) -> Iterator[List[List[int]]]:
    """Symmetric multiplicity matrices with the given valences (a loop
    counts twice); every yielded matrix is the same live object."""
    n = len(valences)
    rem = list(valences)
    adj = [[0] * n for _ in range(n)]

    def row(v):
        if v == n:
            yield adj
            return
        for loops in range(rem[v] // 2 + 1):
            left = rem[v] - 2 * loops
            adj[v][v] = loops
            for part in _bounded(left, rem[v + 1:]):
                for w, m in enumerate(part, v + 1):
                    adj[v][w] = adj[w][v] = m
                    rem[w] -= m
                yield from row(v + 1)
                for w, m in enumerate(part, v + 1):
                    rem[w] += m

    yield from row(0)


def _connected(adj, n: int) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if adj[v][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _cells(colors: Sequence) -> List[List[int]]:
    """Vertices grouped by colour, groups in ascending colour order."""
    order = sorted(range(len(colors)), key=colors.__getitem__)
    return [list(cell) for _, cell in groupby(order, key=colors.__getitem__)]


def _orders(cells) -> Iterator[Tuple[int, ...]]:
    """Every vertex order that keeps the cells in place."""
    for parts in product(*(permutations(c) for c in cells)):
        yield sum(parts, ())


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


def _least_form(adj, cells):
    """Row-major least adjacency over the vertex orders that keep cells,
    flattened."""
    return min(
        tuple([adj[a][b] for a in order for b in order]) for order in _orders(cells)
    )


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
    found = {}
    for nv in range(1, 2 * g - 1):
        for types in _vertex_types(g, nv):
            genera = [gv for gv, _ in types]
            for adj in _fillings([val for _, val in types]):
                if not _connected(adj, nv):
                    continue
                colors = _refined_colors(
                    [(genera[v], types[v][1], adj[v][v]) for v in range(nv)], adj, nv
                )
                cells = _cells(colors)
                key = (tuple(genera[v] for v in sum(cells, [])), _least_form(adj, cells))
                if key not in found:
                    found[key] = _skeleton(*key, sorted(colors))
    return tuple(found[k] for k in sorted(found, key=lambda k: (len(k[0]), k)))


def _skeleton(genera: Tuple[int, ...], form: Tuple[int, ...], colors) -> Skeleton:
    """The skeleton in canonical vertex order.  ``colors`` are its refined
    vertex colours in that order: ascending, so every cell is a run of
    consecutive vertices, and every automorphism maps each cell to itself."""
    n = len(genera)
    adj = _rows(form, n)
    autos = tuple(
        p
        for p in _orders(_cells(colors))
        if all(adj[p[a]][p[b]] == adj[a][b] for a in range(n) for b in range(a, n))
    )
    return Skeleton(genera=genera, adjacency=adj, automorphisms=autos, edge_aut=_edge_aut(adj, n))
