"""Higher-genus potentials as stable-graph sums over edge/tail data.

F^g at a semisimple point is assembled from the canonical-frame data of the
point: every connected stable decorated graph contributes

    1/|Aut| * prod_edges  V^{i_v i_w}_{k l} sqrt(Delta_{i_v}) sqrt(Delta_{i_w})
            * prod_vertices  vertex_correlator(g_v, ks_v, T^{i_v}, Delta_{i_v})

summed over half-edge psi-powers (k, l).  The per-vertex power budget
3 g_v - 3 + valence bounds every sum, so the whole expression is a finite
rational combination of the V/T/Delta tables.

No decorated graph is built.  By orbit-stabilizer the decorated graphs of
one skeleton (``graphs.skeletons``) add up to the sum over all N^|V|
labelings of its vertices, divided by |Aut(skeleton)|.  Which products and
sums that takes depends on the genus and N alone, so
:func:`graph_sum_program` records it once per (g, N) as one
:class:`Program` for all skeletons of genus g, and :func:`skeleton_values`
reads each skeleton's sum from its own output.  Each skeleton is walked
along its memoized :func:`walk_plan`, which places the vertices by one
sort key: ascending psi cap, then number of edges, then vertex number.  A vertex is multiplied in once its last
half-edge has a power, and the sum over the remaining edges is one register
per edge reached and (index, sorted powers) of every still-open vertex; a
closed vertex drops out of that key, so labelings and power assignments
that differ only at closed vertices share one suffix sum.  The walk runs
over a single index; labeling it by N indices gives
the skeleton's terms in the walk's order, and as they are labeled each
product of two registers (left to right) and each sum of terms (in order)
enters the program once: a skeleton reads a product or sum that another
skeleton, or another state of its own, formed already.  Only structure
leaves a term out: the psi budgets, and a vertex whose
``IntersectionTable.tail_terms`` are empty.

``wick_oracle`` evaluates the same quantity without enumerating graphs: it
truncates each vertex generating function log tau(hbar Delta_i; Q^i) around
Q = T, exponentiates, applies the exponential of the propagator

    P = (hbar/2) sum V^{ij}_{kl} sqrt(Delta_i Delta_j) d/dq^i_k d/dq^j_l,

sets q = 0 and reads the hbar^{g-1} coefficient of the logarithm.

The oracle grades by deg(hbar) = 2, deg(q) = 1.  A stable vertex term has
degree d = 2(g_v - 1) + m >= 1 (a genus-0 vertex carries hbar^{-1} q^{>=3}),
and only degrees up to 2g - 2 reach F^g.  So log tau is collected into one
homogeneous part L_d per degree and per canonical index i, which holds the
terms of the vertices of index i only (a vertex without edges too), and
exp(L) = prod_i exp(L^(i)).  Each factor is built degree by degree from
E_0 = 1, d E_d = sum_j j L_j E_{d-j}, so the truncation holds by
construction, and the factors multiply degree by degree: the slots of
index i precede those of index i + 1, so a product of monomials joins
their slot tuples without sorting, and the last product forms only the
even degrees.  P is neutral for the grading, so at q = 0 it sends a term
c hbar^a q^M of E_d to c hbar^{d/2} <M>, the moment of a centred Gaussian
vector whose covariance holds the propagator weights (Isserlis's theorem,
:func:`gaussian_moment`); odd degrees give nothing.

Which monomials and contractions that forms depends on g and N alone, so
:func:`wick_program` runs the expansion once per (g, N) on stand-ins for
the vertex correlators and propagator weights and records it as a
:class:`Program`, whose outputs are the moments of :func:`wick_moments`.

A :class:`Program` is straight-line code on numbered registers: the
products, divisions by constants and sums of its route's numeric run, in
the same order and association.  :func:`replay` runs either route's
program on the edge weights and vertex correlators of the data at hand.
A weight or correlator that vanishes on the data enters as an exact 0, so
every output is what the numeric run would form on the data, bit for bit.

Both routes need V to joint order 3g - 4 and T to order 3g - 2, and both
refuse shorter data with a ValueError.

The oracle shares with the graph sum the input tables and what the data
derives from them: the memo of ``vertex_correlator`` (``data.vertices``)
and the edge weights V^{ij}_{kl} sqrt(Delta_i) sqrt(Delta_j)
(``data.edge_weights``), the same products either side would form, and
:func:`replay`, which runs whatever program it is given.  Graphs, the
expansion and the recording of each are the route's own, which makes the
two mutual oracles; agreement is exact on rational synthetic data.

Both run on the numbers their data holds and convert nothing.  The
pipeline's edge/tail data hold *kernel scalars* (``scalars``):
``rmatrix.edge_tail_data`` and ``descendent.bold_quantities`` compute R, V
and T on the frame's values converted once, so the kernels
(:func:`skeleton_values`, ``EdgeTailData.edge_weights``,
``vertex_correlator``, :func:`wick_moments`) multiply Gaussian fixed-point
numbers on Python ints in place of mpmath ``mpc``.  :func:`replay` runs
kernel data on its integer *lanes* (``scalars.to_lanes``): two lists of
the scaled real and imaginary parts, on which each product is floored as
a kernel product is (``scalars.lane_products``) and each sum adds ints
exactly, so every register holds the parts the kernel scalars' operators
would form, bit for bit, and only the outputs become kernel scalars
again.  Other data, rational or mpmath, replay by their own operators.
The data's type picks the loop.  The skeleton values and the
oracle's moments go back once with ``from_kernel``, at the precision the
data carries, and the final sum and the oracle's logarithm run at that
precision.  Rational data stays exact throughout; mpmath data
runs at the caller's working precision.  A :class:`GenusReport` keeps its
data, and with it the vertex correlators and edge weights the sum formed,
so ``wick_oracle(report.data, g)`` reads them again.

Genus 1 is exposed as the one-form

    dF^1 = sum_i [ V^{ii}_{00}/2 du^i + dDelta_i/(48 Delta_i) ]

pulled back to flat coordinates, plus a finite-difference closedness
residual.  It reads R_1 and the frame's values at the point, no jets
(:func:`genus1_differential`).

:func:`frame_and_R` is where every pipeline that needs an R-matrix at a
point (the genus potential, the genus-1 one-forms, the descendent bold data
and the CLI's R commands) builds its canonical frame, of order 0 in the
conformal normalization and with jets otherwise.  Their R comes from the
one solver ``rmatrix.compute_R`` in one form, its matrices R_0 .. R_order
of kernel scalars at the point, and that is all the edge and tail data
read.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, count, cycle, islice, repeat
from math import factorial
from operator import add, and_, floordiv, lshift, mul, or_, rshift, truediv
from typing import List, NamedTuple, Optional, Sequence, Tuple

import mpmath

from . import rmatrix
from .frame import CanonicalFrame, canonical_frame
from .frobenius import FrobeniusModel
from .graphs import Skeleton, skeletons
from .intersection import _DEFAULT_TABLE, _ascending_tuples, vertex_correlator
from .rmatrix import EdgeTailData, RSeries, edge_tail_data, twist_R
from .scalars import FloatContext, GaussianFixed, _context_of, from_kernel, lane_products, to_lanes
from .series import Caps, TruncatedSeries


class WalkPlan(NamedTuple):
    """The order in which :func:`_record` walks a skeleton's edges.

    ``edges`` lists (v, w) once per parallel edge; ``opens[e]`` are the
    vertices that edge e reaches first, whose index the walk chooses there;
    ``closes[e]`` are the vertices whose last half-edge is edge e and
    ``still_open[e]`` those with a half-edge at or before e and one after
    it.  ``caps`` are the psi caps."""

    edges: Tuple[Tuple[int, int], ...]
    opens: Tuple[Tuple[int, ...], ...]
    closes: Tuple[Tuple[int, ...], ...]
    still_open: Tuple[Tuple[int, ...], ...]
    caps: Tuple[int, ...]


def _plan(sk: Skeleton, order: Sequence[int]) -> WalkPlan:
    """The walk that places the vertices in ``order``: each vertex brings
    its edges to the vertices placed before it, then its loops; (v, w) once
    per parallel edge."""
    adj = sk.adjacency
    edges: List[Tuple[int, int]] = []
    for pos, x in enumerate(order):
        for y in order[:pos]:
            edges.extend([(y, x)] * adj[y][x])
        edges.extend([(x, x)] * adj[x][x])
    first, last = {}, {}
    for e, (v, w) in enumerate(edges):
        for x in (v, w):
            first.setdefault(x, e)
            last[x] = e
    return WalkPlan(
        edges=tuple(edges),
        opens=tuple(
            tuple(x for x in sorted({v, w}) if first[x] == e) for e, (v, w) in enumerate(edges)
        ),
        closes=tuple(
            tuple(x for x in sorted({v, w}) if last[x] == e) for e, (v, w) in enumerate(edges)
        ),
        still_open=tuple(
            tuple(x for x in sorted(last) if first[x] <= e < last[x]) for e in range(len(edges))
        ),
        caps=tuple(sk.psi_cap(v) for v in range(len(sk.genera))),
    )


@cache
def walk_plan(sk: Skeleton) -> WalkPlan:
    """The :class:`WalkPlan` of ``sk``, built once per skeleton: the order
    in which :func:`_record` walks the skeleton's sum, and so the order of
    the products and sums every replay forms.

    The vertices are placed by one sort key, ascending psi cap, then number
    of edges (a loop once), then vertex number; no order is searched.  A
    still-open vertex multiplies the states of every edge it stays open
    across by its power choices, so the vertices with the largest caps and
    the most edges are opened last, where few edges remain."""
    n = len(sk.genera)
    return _plan(sk, sorted(range(n), key=lambda v: (sk.psi_cap(v), sum(sk.adjacency[v]), v)))


class Program(NamedTuple):
    """Straight-line code on numbered registers, recorded once per genus
    and N by :func:`graph_sum_program` or :func:`wick_program` and run by
    :func:`replay`.

    The registers start with the ints of ``constants``; then the edge
    weights of the slots ``weights`` lists, (i, j, k, l) for
    V^{ij}_{kl} sqrt(Delta_i Delta_j); then the vertex correlators of the
    slots ``vertices`` lists, (g_v, i, sorted edge powers).  Each entry
    (op, left, right, counts) of ``steps`` appends registers: op is a
    product or a division by a constant register, and it forms
    op(left[t], right[t]) for every t, or op is None and it reads left[t]
    as it is.  Without ``counts`` each of these is a register; with them,
    each count c appends the sum of the next c, left to right.  A step
    reads only registers written before it.  ``outputs`` holds the
    register of each output, or None where the output vanishes for all
    data (or the program leaves it out): one per skeleton of ``graphs.skeletons(g)`` for the graph sum,
    the Z_b of :func:`wick_moments` at b - 1 for the Wick oracle."""

    constants: Tuple[int, ...]
    weights: Tuple[Tuple[int, int, int, int], ...]
    vertices: Tuple[Tuple[int, int, Tuple[int, ...]], ...]
    steps: Tuple[Tuple[object, array, Optional[array], Optional[array]], ...]
    outputs: Tuple[Optional[int], ...]


# the low half of a pair of registers a * 2^32 + b
_LOW = (1 << 32) - 1


def _record(sk: Skeleton, weights: dict, vertices: dict, live: list) -> List[list]:
    """The sum of ``sk`` over a single index, by walking its edges in the
    order of :func:`walk_plan`: per edge the states the walk reaches there,
    each as (term count, flat operands).  A term holds the number of its
    weight slot (k, l), of each vertex slot (g_v, sorted edge powers) the
    edge closes (in ``closes`` order) and of a state of the next edge,
    each numbered from 0 within its kind.  ``weights`` numbers the weight
    slots, ``vertices`` maps a vertex slot to its place in ``live`` or to
    None where it vanishes for all data; all three may hold the slots of
    other walks already, and every slot this walk meets is added.

    A vertex is multiplied in once its last half-edge has a power.  The
    sum over the later edges depends only on the edge reached and the
    sorted powers of every still-open vertex; each such state is recorded
    once, so power assignments that differ only at closed vertices share
    it.  A term is left out only where it vanishes for all data: a psi
    power beyond a vertex's budget, a vertex whose
    :meth:`IntersectionTable.tail_terms` are empty, or a state with no term
    left.  The slots added are those of the terms kept and every vertex
    the walk reaches that does not vanish for all data."""
    plan = walk_plan(sk)
    genera = sk.genera
    edges, closes, still_open = plan.edges, plan.closes, plan.still_open
    n_edges = len(edges)
    ks_at: List[List[int]] = [[] for _ in genera]
    budget = list(plan.caps)

    def vertex_slot(x):
        # the number of vertex x at its powers so far; None where it
        # vanishes for all data (the tail terms depend on the key alone)
        key = (genera[x], tuple(sorted(ks_at[x])))
        if key not in vertices:
            vertices[key] = None
            if _DEFAULT_TABLE.tail_terms(*key):
                vertices[key] = len(live)
                live.append(key)
        return vertices[key]

    levels: List[list] = [[] for _ in range(max(n_edges, 1))]
    # states[e] numbers the states of edge e by the powers of the vertices
    # still open
    states: List[dict] = [{} for _ in range(n_edges + 1)]

    def rest(e):
        # record the state reached at edge e: its number in levels[e], or
        # None when no term survives
        v, w = edges[e]
        loop = v == w
        later = still_open[e] if e + 1 < n_edges else ()
        memo = states[e + 1]
        # a vertex other than a loop's is complete once its power is set:
        # v at k, w at l
        closing = closes[e]
        close_v = not loop and v in closing
        close_w = w in closing
        keep_v = not loop and v in later
        keep_w = w in later
        fixed = tuple(tuple(sorted(ks_at[x])) for x in later if x != v and x != w)
        ks_v, ks_w = ks_at[v], ks_at[w]
        ops: list = []
        count = 0
        slot_v = part_v = None
        for k in range(budget[v] + 1):
            budget[v] -= k
            ks_v.append(k)
            if close_v:
                slot_v = vertex_slot(v)
            elif keep_v:
                part_v = tuple(sorted(ks_v))
            # a vanishing v leaves no term for any l
            top = -1 if close_v and slot_v is None else budget[w]
            for l in range(top + 1):
                ks_w.append(l)
                slot_w = part_w = sub = None
                if close_w:
                    slot_w = vertex_slot(w)
                elif keep_w:
                    part_w = tuple(sorted(ks_w))
                dead = close_w and slot_w is None
                if later and not dead:
                    key = (fixed, part_v, part_w)
                    if key in memo:
                        sub = memo[key]
                    else:
                        budget[w] -= l
                        sub = memo[key] = rest(e + 1)
                        budget[w] += l
                    dead = sub is None
                ks_w.pop()
                if dead:
                    continue
                count += 1
                ops.append(weights.setdefault((k, l), len(weights)))
                ops += [slot_w if x == w else slot_v for x in closing]
                if later:
                    ops.append(sub)
            ks_v.pop()
            budget[v] += k
        if not count:
            return None
        levels[e].append((count, ops))
        return len(levels[e]) - 1

    if n_edges:
        rest(0)
        # rest refers to itself: dropping the name frees it and its memo
        # now, not at the next cyclic collection
        del rest
    else:
        # a connected skeleton without edges is a single vertex: one term,
        # the vertex alone
        slot = vertex_slot(0)
        if slot is not None:
            levels[0].append((1, [slot]))
    return levels


@cache
def graph_sum_program(g: int, n: int, edges: bool = True) -> Program:
    """The :class:`Program` of the skeletons of genus ``g`` over ``n``
    indices; with ``edges`` false, of the skeleton without edges alone.

    Which terms a labeling contributes does not depend on its indices, so
    each skeleton's walk (:func:`_record`) runs over a single index, and the
    program over ``n`` indices labels it (:func:`_label_level`).  A state of
    edge e is a recorded state together with the indices of the vertices
    placed before e and still open.  Its terms are, for each choice of
    indices of the vertices edge e reaches first (in ``itertools.product``
    order), the recorded terms with those indices filled in: the walk's
    order, so every sum adds the same terms in the same order.

    The walks are labeled together, one height at a time (the last edge of
    every walk first), and each product and sum enters the program as it is
    labeled.  A product of two registers, left to right, or a sum of term
    registers in order that the program already holds is read from its
    register, not formed again, and a sum of one term is that term.  So
    each skeleton's value comes from the products and sums of its own walk,
    in the walk's order, and the skeletons share every one they have in
    common.  The products of a height are entered by their place in the
    term, the sums after them, so each step reads earlier steps only."""
    weights: dict = {}
    vertices: dict = {}
    shapes: list = []
    walks: list = []
    for sk in skeletons(g):
        plan = walk_plan(sk)
        recorded = _record(sk, weights, vertices, shapes) if edges or not plan.edges else None
        # a level without states leaves none at any level: the sum
        # vanishes for all data
        walks.append((plan, recorded) if recorded and recorded[0] else None)
    numbering = (n, len(weights), n * n * len(weights), len(shapes))
    size = numbering[2] + n * len(shapes)
    steps: list = []
    # the products of inputs alone, kept for every height; a product or a
    # sum that reads a state (or such a product) recurs only at the height
    # that reads that state, so those go to tables kept for one height
    products: dict = {}
    # per skeleton, the registers of the states of the edge labeled last
    below: list = [None] * len(walks)
    outputs: list = [None] * len(walks)
    for height in count():
        # the longest terms first: the terms with a q-th product are a
        # prefix of the height's terms
        batch = sorted(
            (
                (*_label_level(*walk, len(walk[1]) - 1 - height, numbering, below[s]), s)
                for s, walk in enumerate(walks)
                if walk is not None and height < len(walk[1])
            ),
            key=lambda level: -level[0],
        )
        if not batch:
            break
        # a term is the product of its operands, left to right; above the
        # last edges its last operand is a state
        terms = list(chain.from_iterable(ops[::arity] for arity, _, ops, _ in batch))
        with_state: dict = {}
        for q in range(1, batch[0][0]):
            right = chain.from_iterable(ops[q::arity] for arity, _, ops, _ in batch if arity > q)
            # the pair (a, b) as the one int a * 2^32 + b
            pairs = list(map(or_, map(lshift, terms, repeat(32)), right))
            # the q-th product reads the state in terms of arity q + 1
            cut = len(pairs) if not height else sum(
                len(ops) // arity for arity, _, ops, _ in batch if arity > q + 1
            )
            inputs_only, last = pairs[:cut], pairs[cut:]
            fresh = _enter(products, inputs_only, size)
            fresh += _enter(with_state, last, size + len(fresh))
            if fresh:
                size += len(fresh)
                steps.append((
                    mul,
                    array("I", map(rshift, fresh, repeat(32))),
                    array("I", map(and_, fresh, repeat(_LOW))),
                    None,
                ))
            terms[:len(pairs)] = chain(
                map(products.__getitem__, inputs_only), map(with_state.__getitem__, last)
            )
        ends = list(accumulate(chain.from_iterable(counts for _, counts, _, _ in batch)))
        groups = list(map(tuple, map(terms.__getitem__, map(slice, [0] + ends, ends))))
        sums: dict = {}
        fresh = _enter(sums, [grp for grp in groups if len(grp) > 1], size)
        if fresh:
            size += len(fresh)
            steps.append((
                None, array("I", chain.from_iterable(fresh)), None, array("I", map(len, fresh))
            ))
        regs = iter([sums[grp] if len(grp) > 1 else grp[0] for grp in groups])
        for _, counts, _, s in batch:
            below[s] = list(islice(regs, len(counts)))
            if height == len(walks[s][1]) - 1:
                # the first edge has one state: the skeleton's sum
                outputs[s] = below[s][0]
    return Program(
        constants=(),
        weights=tuple((i, j, k, l) for i in range(n) for j in range(n) for k, l in weights),
        vertices=tuple((g_v, i, ks) for i in range(n) for g_v, ks in shapes),
        steps=tuple(steps),
        outputs=tuple(outputs),
    )


def _enter(table: dict, keys: list, size: int) -> list:
    """Number the distinct ``keys`` missing from ``table`` from ``size`` on
    and return them in the order numbered."""
    fresh = list(set(keys).difference(table))
    table.update(zip(fresh, count(size)))
    return fresh


def _label_level(plan: WalkPlan, recorded: List[list], e: int, numbering, below):
    """Edge e of a walk recorded by :func:`_record` on ``plan``, labeled by
    ``n`` indices, as (arity, counts, flat operands) in the numbering of
    :func:`graph_sum_program`.

    ``numbering`` is (n, number of (k, l) slots, number of weight
    registers, number of (g_v, powers) slots), and ``below`` the registers
    of the states of edge e + 1 in the order they were labeled.  Weight
    (i, j, k, l) and vertex (g_v, i, ks) are numbered affinely in their
    indices, and so is every state operand before ``below`` maps it: its
    recorded number times the labelings of the vertices open after e, plus
    their rank."""
    n, n_kl, n_weights, n_shapes = numbering
    states = recorded[e]
    n_edges = len(plan.edges)
    if n_edges:
        (v, w), closing = plan.edges[e], plan.closes[e]
        before = plan.still_open[e - 1] if e else ()
        placed = before + plan.opens[e]
    else:
        # the one vertex of an edge-free skeleton
        closing, before, placed = (0,), (), (0,)
    # per operand position, the offset of each choice of indices
    offsets = []
    if n_edges:
        coefs = {v: n * n_kl}
        coefs[w] = coefs.get(w, 0) + n_kl
        offsets.append(_offsets(n, placed, 0, coefs))
    for x in closing:
        offsets.append(_offsets(n, placed, n_weights, {x: n_shapes}))
    stride = 1
    if n_edges and e + 1 < n_edges:
        after = plan.still_open[e]
        stride = n ** len(after)
        rank = {x: n ** p for p, x in enumerate(reversed(after))}
        offsets.append(_offsets(n, placed, 0, rank))
    arity = len(offsets)
    choices = list(zip(*offsets))
    ops: list = []
    for _, state in states:
        if stride != 1:
            state = state[:]
            state[arity - 1::arity] = [stride * r for r in state[arity - 1::arity]]
        # every operand of every term, offset by one choice at a time
        for offset in choices:
            ops += map(add, state, cycle(offset))
    if n_edges and e + 1 < n_edges:
        ops[arity - 1::arity] = map(below.__getitem__, ops[arity - 1::arity])
    fan = n ** (len(placed) - len(before))
    copies = n ** len(before)
    return arity, [c * fan for c, _ in states for _ in range(copies)], ops


def _offsets(n: int, placed: Sequence[int], const: int, coefs: dict) -> List[int]:
    """const + sum_x coefs[x] * i_x for every choice of indices i_x < n of
    the vertices ``placed``, in ``itertools.product`` order."""
    values = [const]
    for x in placed:
        coef = coefs.get(x, 0)
        values = [y + coef * i for y in values for i in range(n)]
    return values


def replay(program: Program, data: EdgeTailData) -> list:
    """The outputs of ``program`` on the numbers ``data`` holds, the int 0
    for an output None.

    The registers load the program's constants, the edge weights of
    ``data.edge_weights`` and the vertex correlators of the memo
    ``data.vertices``, which is extended here to every slot the program
    reads; a vanishing correlator enters as the exact 0 of the data's kind.
    Kernel data run on the lanes of their registers (``scalars.to_lanes``):
    each product is floored as a kernel product
    (``scalars.lane_products``), a division by a constant floors each part
    by the int, as ``GaussianFixed`` does, and each sum adds ints exactly,
    so every output is the kernel scalar the operators would form, bit for
    bit (a vanishing one a kernel 0).  Other data run by their own
    operators, every product left by right and every sum left to right."""
    # a zero of the data's own kind: an int 0 would divide into a float
    zero = Fraction(0) * data.delta[0]
    registers = list(program.constants)
    registers += map(data.edge_weights.__getitem__, program.weights)
    for key in program.vertices:
        val = _cached_vertex(key, data)
        registers.append(zero if val is None else val)
    kind = data.delta[0].__class__
    if not issubclass(kind, GaussianFixed):
        read = registers.__getitem__
        for op, left, right, counts in program.steps:
            values = map(read, left) if op is None else map(op, map(read, left), map(read, right))
            if counts is None:
                registers += values
            else:
                registers += [sum(islice(values, c - 1), next(values)) for c in counts]
        return [0 if out is None else registers[out] for out in program.outputs]
    re, im = to_lanes(registers, kind)
    # both lanes take their full length at once: grown step by step, two
    # lists of 677k registers at (5, 2) raised a cold op's peak RSS
    end = len(re)
    size = end + sum(len(left) if c is None else len(c) for _, left, _, c in program.steps)
    re += [0] * (size - end)
    im += [0] * (size - end)
    shift = kind.shift
    for op, left, right, counts in program.steps:
        if op is mul:
            parts = lane_products(re, im, left, right, shift)
        elif op is truediv:
            # the divisors are constant registers, read as the ints they are
            divisors = list(map(program.constants.__getitem__, right))
            parts = [list(map(floordiv, map(lane.__getitem__, left), divisors)) for lane in (re, im)]
        else:
            parts = [map(re.__getitem__, left), map(im.__getitem__, left)]
        if counts is not None:
            parts = [[sum(islice(terms, c)) for c in counts] for terms in map(iter, parts)]
        start, end = end, end + len(parts[0])
        re[start:end], im[start:end] = parts
    return [0 if out is None else kind(re[out], im[out]) for out in program.outputs]


def _require_orders(data: EdgeTailData, g: int) -> None:
    """Raise ValueError unless ``data`` knows V to joint order 3g - 4 and T
    to order 3g - 2, the most an edge or a vertex of genus g reads: a loop
    at a vertex of genus g - 1, and the one vertex of genus g."""
    if data.v_cutoff < 3 * g - 4:
        raise ValueError(f"edge coefficients known to order {data.v_cutoff}, need {3 * g - 4}")
    if data.t_cutoff < 3 * g - 2:
        raise ValueError(f"tail coefficients known to order {data.t_cutoff}, need {3 * g - 2}")


def _cached_vertex(key, data: EdgeTailData):
    """The vertex correlator of slot ``key`` = (g_v, i_v, sorted edge
    powers) on ``data`` from its memo ``data.vertices``, None where it
    vanishes; a missing slot is computed and added."""
    memo = data.vertices
    if key not in memo:
        g_v, i, ks = key
        val = vertex_correlator(g_v, ks, data.t[i], data.delta[i])
        memo[key] = None if val == 0 else val
    return memo[key]


@dataclass
class GenusReport:
    """Graph-sum result with its per-skeleton breakdown.

    ``contributions`` pairs every skeleton of genus ``genus`` with the sum
    of its decorated graphs; :meth:`contribution_map` keys them by
    :meth:`Skeleton.describe`.  ``value`` and ``contributions`` are at
    working precision (or exact).  ``data`` is the edge/tail data the sum
    ran on, with the vertex correlators and edge weights the sum formed on
    it, which :func:`wick_oracle` on ``data`` reads.  ``frame`` is the
    canonical frame of the data's point, where the pipeline built one."""

    genus: int
    value: object
    contributions: List[Tuple[Skeleton, object]]
    data: EdgeTailData
    frame: Optional[CanonicalFrame] = None

    def contribution_map(self):
        return {sk.describe(): v for sk, v in self.contributions}


def genus_potential(
    model: FrobeniusModel,
    point,
    g: int,
    ctx: FloatContext,
    order: Optional[int] = None,
    mode: Optional[str] = None,
    gauge=None,
    permutation=None,
    sign_flips=None,
) -> GenusReport:
    """F^g(point) by the stable-graph sum.

    ``order`` is the z-order of the R-matrix.  The default 3g - 3 is exactly
    sufficient: tails reach T_{3g-2} (one R order less), and any edge budget
    tops out at k + l = 3g - 4 once a single edge exists.  ``gauge`` applies
    a diagonal twist to R before the edge/tail extraction: it moves the
    unitarity-normalized R of ``mode="constants"`` within its gauge freedom,
    while the conformal normalization already fixes R.
    ``permutation`` and ``sign_flips`` select the frame labeling and
    square-root branches; the value of F^g does not depend on them.
    The frame and R come from :func:`frame_and_R`.
    """
    if g < 2:
        raise ValueError("the graph sum starts at genus 2; genus 1 is a one-form")
    if order is None:
        order = 3 * g - 3
    frame, r = frame_and_R(
        model, point, ctx, order, mode=mode, gauge=gauge,
        permutation=permutation, sign_flips=sign_flips,
    )
    return graph_sum(edge_tail_data(r), g, frame=frame)


def frame_and_R(
    model: FrobeniusModel,
    point,
    ctx: FloatContext,
    order: int,
    mode: Optional[str] = None,
    gauge=None,
    permutation=None,
    sign_flips=None,
) -> Tuple[CanonicalFrame, RSeries]:
    """The canonical frame at ``point`` and R_1 .. R_order on it, from
    ``rmatrix.compute_R`` in the normalization ``mode``.

    Models with Euler data in the conformal (or unset) normalization get an
    order-0 frame, which is all homogeneity reads; the rest get frame jets
    of order ``order`` for the jet recursion.  A ``gauge`` then twists R by
    :func:`twist_R`.  Either way R comes back as its matrices of kernel
    scalars at the point."""
    jets = model.euler is None or mode == "constants"
    frame = canonical_frame(
        model,
        point,
        ctx,
        order=order if jets else 0,
        permutation=permutation,
        sign_flips=sign_flips,
    )
    r = rmatrix.compute_R(frame, order, mode)
    if gauge is not None:
        r = twist_R(r, gauge)
    return frame, r


def graph_sum(data: EdgeTailData, g: int, frame=None) -> GenusReport:
    """F^g from edge/tail data: every skeleton of genus g summed over all
    labelings by ``data.dimension`` indices (:func:`skeleton_values`), on
    the vertex correlators and edge weights ``data`` keeps; ``frame`` is
    only passed through to the report.  The vertex correlators read the one
    process intersection table.

    The sum runs on the numbers ``data`` holds, and the report keeps them.
    Kernel scalars run at their own precision, on integer lanes, rational
    data stays exact, and mpmath data runs at the caller's working
    precision, as in ``vertex_correlator``."""
    ctx = _context_of(data.delta[0])
    with ctx.guard():
        contributions = [(sk, from_kernel(val)) for sk, val in skeleton_values(data, g)]
        # the reported value is the sum of the reported contributions
        total = ctx.num(0)
        for _, val in contributions:
            total = total + val
    return GenusReport(genus=g, value=total, contributions=contributions, data=data, frame=frame)


def skeleton_values(data: EdgeTailData, g: int) -> List[Tuple[Skeleton, object]]:
    """Every skeleton of genus g with its contribution on ``data``: the sum
    over every labeling of its vertices by the ``data.dimension`` canonical
    indices and every half-edge power assignment, divided by
    |Aut(skeleton)|, in the numbers ``data`` holds.

    By orbit-stabilizer this is the sum of the decorated graphs with this
    skeleton, each over its own |Aut|.  The sums are the outputs of
    :func:`graph_sum_program` run by :func:`replay` on the numbers of
    ``data``: the program fixes which products and sums to form, and only
    the weights and vertex correlators it reads depend on the data, so on
    kernel data each value is the kernel scalar the operators would form,
    bit for bit.  Where every edge weight vanishes, only the skeleton
    without edges is replayed and every other contributes 0."""
    _require_orders(data, g)
    # every term of a skeleton with edges has a weight: where all vanish,
    # so does its sum, whatever the vertices (the point model's bold data
    # has no V at all)
    program = graph_sum_program(g, data.dimension, any(data.edge_weights.values()))
    return [
        (sk, total / sk.aut if total else total)
        for sk, total in zip(skeletons(g), replay(program, data))
    ]


# -- operator-exponential oracle ---------------------------------------------------


def gaussian_moment(mono: Tuple[int, ...], cov: dict, memo: dict):
    """<q_{s_1} ... q_{s_n}> of a centred Gaussian vector q with covariance
    ``cov``, for ``mono`` = (s_1, ..., s_n) a sorted tuple of slots.

    ``cov[u]`` maps v >= u to C_uv = C_vu, with zeros left out.  Isserlis's
    theorem pairs the lowest slot u with each other factor,

        <q_u M'> = sum_v C_uv d<M'>/dq_v,

    so only v >= u is ever read, and a monomial of odd degree has moment 0.
    ``memo`` keeps every moment of positive even degree computed so far,
    keyed by its monomial."""
    if len(mono) % 2:
        return 0
    if not mono:
        return 1
    if mono in memo:
        return memo[mono]
    u, rest = mono[0], mono[1:]
    row = cov.get(u, {})
    total = 0
    for pos, v in enumerate(rest):
        if pos and rest[pos - 1] == v:
            continue
        c = row.get(v)
        if c is None:
            continue
        sub = gaussian_moment(rest[:pos] + rest[pos + 1:], cov, memo)
        if sub:
            total = total + rest.count(v) * c * sub
    memo[mono] = total
    return total


def _log_tau_layers(vertex, n: int, g: int) -> List[List[dict]]:
    """The vertex generating functions log tau(hbar Delta_i; Q^i) around
    Q = T, truncated at weighted degree 2g - 2 and split by degree: one
    list of layers per canonical index i < ``n``.

    Entry d of index i maps a sorted tuple of slots i(3g - 3) + k, one per
    factor q^i_k, to the coefficient of hbar^{(d - m)/2} times their
    product, with m the length of the tuple; the coefficient includes 1/c!
    for a factor repeated c times.  A vertex without edges has the empty
    tuple in its own index's layers.  ``vertex`` maps a slot (g_v, i,
    sorted edge powers) to its correlator, or to None where the vertex
    vanishes and its term is left out."""
    kq = 3 * g - 4  # largest psi-power any vertex can absorb
    top = 2 * g - 2
    per_index: List[List[dict]] = []
    for i in range(n):
        layers: List[dict] = [{} for _ in range(top + 1)]
        for g_v in range(g + 1):
            for m in range(top - 2 * (g_v - 1) + 1):
                d = 2 * (g_v - 1) + m
                # stable vertices are exactly those of positive degree
                if d < 1:
                    continue
                layer = layers[d]
                for s in range(3 * g_v - 3 + m + 1):
                    for ks in _ascending_tuples(m, s, 0):
                        if ks and ks[-1] > kq:
                            continue
                        coeff = vertex((g_v, i, ks))
                        if coeff is None:
                            continue
                        denom = 1
                        for k in set(ks):
                            denom *= factorial(ks.count(k))
                        if denom != 1:
                            coeff = coeff / denom
                        layer[tuple(i * (kq + 1) + k for k in ks)] = coeff
        per_index.append(layers)
    return per_index


def _graded_exp(layers: List[dict]) -> List[dict]:
    """exp of the series whose degree-d part is ``layers[d]`` (``layers[0]``
    empty), degree by degree: E_0 = 1 and d E_d = sum_j j L_j E_{d-j}.
    Keys are sorted slot tuples as in :func:`_log_tau_layers`; a product
    of monomials merges their tuples."""
    out = [{(): 1}]
    for d in range(1, len(layers)):
        acc: dict = {}
        for j in range(1, d + 1):
            lower = out[d - j]
            for m1, c1 in layers[j].items():
                c1 = j * c1
                for m2, c2 in lower.items():
                    mono = tuple(sorted(m1 + m2))
                    term = c1 * c2
                    acc[mono] = acc[mono] + term if mono in acc else term
        out.append({mono: c / d for mono, c in acc.items() if c})
    return out


def _exp_by_index(per_index: List[List[dict]]) -> dict:
    """exp of the sum of the layers of every index (``per_index`` as
    :func:`_log_tau_layers` returns it) at the even degrees 2b > 0, keyed
    by 2b: the product over the indices of :func:`_graded_exp` of each.

    The slots of index i all precede those of index i + 1, so a product of
    monomials of different indices is the concatenation of their tuples,
    already sorted.  Two splits of one degree can reach the same tuple with
    their hbar powers split differently, so terms on one tuple add up.
    Only the last product is cut to the even degrees."""
    top = len(per_index[0]) - 1
    acc = _graded_exp(per_index[0])
    for pos in range(1, len(per_index)):
        factor = _graded_exp(per_index[pos])
        last = pos == len(per_index) - 1
        parts: List[dict] = [{} for _ in range(top + 1)]
        for d in range(2, top + 1, 2) if last else range(top + 1):
            part: dict = {}
            for j in range(d + 1):
                right = factor[j]
                for m1, c1 in acc[d - j].items():
                    for m2, c2 in right.items():
                        mono = m1 + m2
                        term = c1 * c2
                        part[mono] = part[mono] + term if mono in part else term
            parts[d] = {mono: c for mono, c in part.items() if c}
        acc = parts
    return {d: acc[d] for d in range(2, top + 1, 2)}


def wick_oracle(data: EdgeTailData, g: int):
    """F^g from the same edge/tail data by expanding the operator exponential
    directly; graph-free, hence an independent check of the graph sum.

    It reads the vertex correlators and edge weights ``data`` keeps, as the
    graph sum does: correlators missing from the memo ``data.vertices`` are
    computed on the process intersection table and added.  The moments
    replay the expansion :func:`wick_program` recorded, and they and the
    logarithm run on the numbers ``data`` holds, at the precision
    :func:`graph_sum` states."""
    if g < 2:
        raise ValueError("the expansion is normalized for genus >= 2")
    _require_orders(data, g)
    ctx = _context_of(data.delta[0])
    with ctx.guard():
        connected = {(0,): 1}
        for b, z in wick_moments(data, g).items():
            connected[(b,)] = from_kernel(z)
        logged = TruncatedSeries(Caps.total(("h",), g - 1), connected).log(ctx)
        return logged.scalar_coeff((g - 1,))


def wick_moments(data: EdgeTailData, g: int) -> dict:
    """The coefficients Z_b of hbar^b, 1 <= b < g, of exp(P) exp(log tau)
    at q = 0, in the numbers ``data`` holds; vanishing ones are left out.
    F^g is the hbar^{g-1} coefficient of log(1 + sum_b Z_b hbar^b).

    The moments are the outputs of the :func:`wick_program` of g and
    ``data.dimension`` run by :func:`replay` on the vertex correlators of
    the memo ``data.vertices`` and the propagator weights of
    ``data.edge_weights``."""
    program = wick_program(g, data.dimension)
    return {b: z for b, z in enumerate(replay(program, data), 1) if z}


@cache
def wick_program(g: int, n: int) -> Program:
    """The :class:`Program` of genus ``g`` over ``n`` indices: the
    expansion of exp(P) exp(log tau) at q = 0, run once on stand-ins for
    the numbers of the data.

    :func:`_log_tau_layers`, :func:`_exp_by_index` and
    :func:`gaussian_moment` run as they do on numbers, on a register
    (:class:`_Number`) for every vertex slot whose
    ``IntersectionTable.tail_terms`` are not empty and for every propagator
    weight V^{ij}_{kl} with k + l <= 3g - 4.  A longer V cutoff would add
    weights no term reads: a pairing of two slots is an edge of a stable
    graph of genus at most g, and the psi powers of an edge are bounded by
    the budgets of its two vertices, 3g - 4 in all, so a moment that pairs
    slots beyond that has no matching of the rest.  Which terms they form
    depends on these alone, so the program forms, for any data, the
    products and divisions of their numeric run in the same order and
    association, and its sums add the same terms in the same order; a
    weight or correlator that vanishes on the data enters as an exact 0.
    A sum or product that no output reads is not recorded, and the steps
    group the rest by height, then kind (:meth:`_Tape.program`)."""
    kq = 3 * g - 4
    tape = _Tape()
    vertices: list = []

    def vertex(key):
        # a slot without tail terms vanishes for all data
        if not _DEFAULT_TABLE.tail_terms(key[0], key[2]):
            return None
        vertices.append(key)
        return tape.input()

    powers = _exp_by_index(_log_tau_layers(vertex, n, g))

    # propagator weights C_uv = V^{ij}_{kl} sqrt(Delta_i Delta_j) for
    # u = slot (i, k) <= v = slot (j, l); slot (i, k) is i(kq + 1) + k,
    # as in the monomials of _log_tau_layers
    slots = [(i, k) for i in range(n) for k in range(kq + 1)]
    weights: list = []
    cov: dict = {}
    for u, (i, k) in enumerate(slots):
        for v in range(u, len(slots)):
            j, l = slots[v]
            if k + l <= kq:
                weights.append((i, j, k, l))
                cov.setdefault(u, {})[v] = tape.input()

    # exp(P) hbar^a q^M at q = 0 is hbar^{a + m/2} <M>, and a degree-2b
    # term has a + m/2 = b
    memo: dict = {}
    outputs = []
    for b in range(1, g):
        z = 0
        for mono, coef in powers[2 * b].items():
            moment = gaussian_moment(mono, cov, memo)
            if moment:
                z = z + coef * moment
        outputs.append(tape.register(z) if z else None)
    return tape.program(vertices, weights, outputs)


# step kinds of a _Tape: a product of two registers, a sum of such
# products, a division by a constant
_PRODUCT, _DOT, _DIV = range(3)

_new = object.__new__


class _Number:
    """A number of the expansion :func:`wick_program` records.

    A :class:`_Register` is a register of its tape.  A :class:`_Product`
    of two registers and a :class:`_Sum` of such products are recorded
    when first read, so one that nothing reads is never recorded.  A
    product or a division by an int other than 1 reads a constant
    register; a product by the int 1 or a division by 1 is the number
    itself, and so is its sum with the int 0 a running sum starts from.
    Every such number is true."""

    __slots__ = ()

    def __mul__(self, other):
        tape = self.tape
        a = self.reg if self.__class__ is _Register else tape.register(self)
        if other.__class__ is int:
            if other == 1:
                return self
            b = tape.constants[other]
        else:
            b = other.reg if other.__class__ is _Register else tape.register(other)
        node = _new(_Product)
        node.tape, node.a, node.b = tape, a, b
        return node

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other == 1:
            return self
        tape = self.tape
        a = self.reg if self.__class__ is _Register else tape.register(self)
        return tape.record(_DIV, a, tape.constants[other])

    def __add__(self, other):
        if other.__class__ is int:
            return self
        tape = self.tape
        if other.__class__ is _Product:
            a, b = other.a, other.b
        else:
            a, b = tape.register(other), tape.constants[1]
        cls = self.__class__
        if cls is _Sum and self.reg is None:
            terms, n = self.terms, self.n
            if len(terms) != n:
                # another sum extends this list already
                terms = terms[:n]
        elif cls is _Product:
            terms, n = [self.a, self.b], 2
        else:
            terms, n = [tape.register(self), tape.constants[1]], 2
        terms.append(a)
        terms.append(b)
        node = _new(_Sum)
        node.tape, node.terms, node.n, node.reg = tape, terms, n + 2, None
        return node

    __radd__ = __add__


class _Register(_Number):
    __slots__ = ("tape", "reg")


class _Product(_Number):
    __slots__ = ("tape", "a", "b")


class _Sum(_Number):
    """The sum of the products of the registers ``terms[2t]`` and
    ``terms[2t + 1]`` for 2t < ``n``, left to right; ``reg`` is its
    register once recorded.  A longer sum may share the list, so it is
    read to ``n`` only."""

    __slots__ = ("tape", "terms", "n", "reg")


class _Constants(dict):
    """Registers by value, each made by ``make`` on first use."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, value):
        reg = self[value] = self.make()
        return reg


class _Tape:
    """The registers :func:`wick_program` records, numbered in the order
    formed, and the steps that form them.  ``height`` holds per register
    one more than the height of its highest operand (0 for an input or a
    constant), and ``steps`` maps (height, kind) to the registers of that
    height and kind with their operands: for a sum of products the term
    counts and the factors of every term.  A product read alone is
    recorded once per pair of registers."""

    def __init__(self):
        self.height: list = []
        self.inputs: list = []
        self.steps: dict = {}
        self.products: dict = {}
        self.constants = _Constants(self._fresh)

    def _fresh(self) -> int:
        self.height.append(0)
        return len(self.height) - 1

    def input(self) -> _Register:
        """A new register for an input of the data."""
        node = _new(_Register)
        node.tape, node.reg = self, self._fresh()
        self.inputs.append(node.reg)
        return node

    def _step(self, height: int, kind: int) -> list:
        key = (height, kind)
        step = self.steps.get(key)
        if step is None:
            step = self.steps[key] = [[], [], [], []]
        return step

    def record(self, kind: int, a: int, b: int) -> _Register:
        """Record the product or division ``kind`` of registers a and b."""
        height = self.height
        top = height[a] if height[a] > height[b] else height[b]
        regs, left, right, _ = self._step(top + 1, kind)
        node = _new(_Register)
        node.tape, node.reg = self, len(height)
        regs.append(node.reg)
        left.append(a)
        right.append(b)
        height.append(top + 1)
        return node

    def register(self, node: _Number) -> int:
        """The register of ``node``, recorded now if it is not yet."""
        if node.__class__ is _Register:
            return node.reg
        if node.__class__ is _Product:
            key = (node.a, node.b)
            reg = self.products.get(key)
            if reg is None:
                reg = self.products[key] = self.record(_PRODUCT, node.a, node.b).reg
            return reg
        if node.reg is None:
            height = self.height
            terms = node.terms[:node.n]
            top = 1 + max(map(height.__getitem__, terms))
            regs, left, right, counts = self._step(top, _DOT)
            node.reg = len(height)
            regs.append(node.reg)
            left += terms[::2]
            right += terms[1::2]
            counts.append(len(terms) // 2)
            height.append(top)
            node.terms = None
        return node.reg

    def program(self, vertices: list, weights: list, outputs: list) -> Program:
        """The recording as a :class:`Program` that reads the vertex and
        weight slots ``vertices`` and ``weights`` (whose inputs were made
        in that order) and returns the registers of ``outputs``, None
        kept.  The registers are numbered again: the constants, the
        weights, the vertices, then those of the steps by height and
        kind."""
        constants = self.constants
        steps = sorted(self.steps.items())
        split = len(vertices)
        order = list(chain(
            constants.values(), self.inputs[split:], self.inputs[:split],
            *(step[0] for _, step in steps),
        ))
        number = [0] * len(order)
        deque(map(number.__setitem__, order, count()), 0)
        renumber = number.__getitem__
        return Program(
            constants=tuple(constants),
            weights=tuple(weights),
            vertices=tuple(vertices),
            steps=tuple(
                (
                    truediv if kind == _DIV else mul,
                    array("I", map(renumber, left)),
                    array("I", map(renumber, right)),
                    array("I", counts) if kind == _DOT else None,
                )
                for (_, kind), (_, left, right, counts) in steps
            ),
            outputs=tuple(None if reg is None else number[reg] for reg in outputs),
        )


# -- genus 1 ------------------------------------------------------------------------


def genus1_differential(frame: CanonicalFrame, data: EdgeTailData) -> list:
    """Components of dF^1 along the flat coordinates dt^alpha, from values
    at the point alone: with (R_1)_ij = V^{ji}_{00} from ``data``, du from
    ``frame.du`` and sqrt(Delta) from ``frame.kernel`` (the frame's, also on
    bold data),

        dF^1 = sum_i [ (R_1)_ii du^i / 2 + d log Delta_i / 48 ],
        d log Delta_i = -2 sum_{j != i} (R_1)_ij sqrt(Delta_i)/sqrt(Delta_j) (du^j - du^i).

    The second line holds because the flatness equation at z^1 gives the
    rotation coefficients (W_a)_ij = (R_1)_ij (d_a u^j - d_a u^i), and the
    metric is Egoroff.  Kernel values go to working precision before they
    mix."""
    ctx = frame.ctx
    n = frame.dimension
    with ctx.guard():
        du = [[ctx.num(x.constant_term()) for x in row] for row in frame.du]
        root = [ctx.num(x) for x in frame.kernel.sqrt_delta]
        r1 = [[ctx.num(data.v_entry(j, i, 0, 0)) for j in range(n)] for i in range(n)]
        comps = []
        for a in range(n):
            acc = ctx.num(0)
            for i in range(n):
                acc = acc + r1[i][i] * du[i][a] / 2
                for j in range(n):
                    if j != i:
                        acc = acc - r1[i][j] * root[i] / root[j] * (du[j][a] - du[i][a]) / 24
            comps.append(acc)
        return comps


def genus1_one_form(model: FrobeniusModel, point, ctx: FloatContext) -> list:
    """dF^1 at a point, on the frame and R_1 of :func:`frame_and_R`."""
    frame, r = frame_and_R(model, point, ctx, 1)
    return genus1_differential(frame, edge_tail_data(r))


_STENCIL = ((1, Fraction(45)), (-1, Fraction(-45)), (2, Fraction(-9)),
            (-2, Fraction(9)), (3, Fraction(1)), (-3, Fraction(-1)))


def genus1_closedness_residual(
    model: FrobeniusModel,
    point,
    ctx: FloatContext,
    step: Fraction = Fraction(1, 10 ** 6),
) -> object:
    """Max |d_a (dF^1)_b - d_b (dF^1)_a| by sixth-order central differences.

    Exact rational displacement points keep the frame inputs exact; the
    stencil error is O(step^6)."""
    if step == 0:
        raise ValueError(f"finite-difference step must be nonzero, not {step}")
    n = model.dimension
    point = tuple(point)
    forms = {}

    def form(pt):
        if pt not in forms:
            forms[pt] = genus1_one_form(model, pt, ctx)
        return forms[pt]

    with ctx.guard():
        worst = ctx.num(0)
        denom = 60 * step
        for a in range(n):
            for b in range(a + 1, n):
                curl = ctx.num(0)
                for shift, coeff in _STENCIL:
                    pa = list(point)
                    pa[a] = pa[a] + shift * step
                    da = form(tuple(pa))[b]
                    pb = list(point)
                    pb[b] = pb[b] + shift * step
                    db = form(tuple(pb))[a]
                    curl = curl + ctx.num(coeff) * (da - db)
                worst = max(worst, mpmath.fabs(curl / ctx.num(denom)))
        return worst
