"""Lattice gauge fields on trivalent graphs.

A connection assigns one unimodular 2x2 matrix per unoriented edge,
stored at the edge id dart; the reversed orientation is the exact
adjugate inverse.  Dart d is read as the oriented edge leaving
vertex_of[d].  Spin networks contract one invariant tensor per vertex
against a kernel omega . rho(a) per edge; the pairing makes gauge
invariance an identity, not a tolerance.  Since omega is antidiagonal,
the kernel is rho with its rows reversed and signed.  Each graph gets one
program, built once whatever its labels: a greedy pairwise contraction
order whose every step lays its pair out as matrices and calls np.matmul,
with the sizes read from the operands.  A network binds its graph's
program to its labels, its vertex tensors and its edge kernels' plan.
Colorings come from the weights search.  A batch of connections goes
through in row blocks, each block one array pass for all edge kernels and
a run of the program.  The result differs from np.einsum's by rounding
alone, within 2 gamma_n times the network on absolute values.

Monte Carlo probes draw Haar samples from seeded per-chunk streams and
reduce in chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .su2reps import AdmissibilityError, _batch_plan, _check_int, _rep_batch, wigner_3j
from .weights import _labelings

_CHUNK = 16384
_BLOCK = 2048
MAX_GAUGE_COLORINGS = 2000
_EINSUM_INDICES = 52  # numpy's einsum takes sublist indices 0..51


def _as_matrix(m, what):
    arr = np.array(m, dtype=complex)  # a copy: the caller's array stays writable
    if arr.shape != (2, 2):
        raise ValueError(f"{what} must be a 2x2 matrix")
    det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
    if not abs(det - 1) <= 1e-10:  # a NaN determinant fails too
        raise ValueError(f"{what} must be unimodular, det = {det:.6g}")
    arr.setflags(write=False)
    return arr


def _inv2(m):
    # adjugate of a det-1 matrix, exact
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def haar_su2(rng):
    """One Haar-random SU(2) element (normalized 4-Gaussian quaternion)."""
    q = rng.standard_normal(4)
    q /= math.sqrt(q @ q)
    a, b = q[0] + 1j * q[1], q[2] + 1j * q[3]
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def _haar_batch(rng, m):
    q = rng.standard_normal((m, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b = q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]
    return np.stack([a, b, -b.conj(), a.conj()], axis=1).reshape(m, 2, 2)


@dataclass(frozen=True, eq=False)
class Connection:
    """Unimodular matrix per unoriented edge, as one read-only (E, 2, 2)
    array in edge-id order; matrices holds its views, `matrix` orients them."""

    graph: object
    matrices: dict
    array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eids = self.graph.edge_ids()
        if sorted(self.matrices) != eids:
            raise ValueError("connection must assign exactly the edge ids")
        array = np.stack([_as_matrix(self.matrices[e], f"edge {e} matrix") for e in eids])
        array.setflags(write=False)
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "matrices", dict(zip(eids, array)))

    def matrix(self, dart):
        """Holonomy of the oriented edge leaving vertex_of[dart]."""
        partner = self.graph.involution[dart]
        if partner == dart:
            raise ValueError(f"dart {dart} is a parabolic leg")
        e = min(dart, partner)
        a = self.matrices[e]
        return a if dart == e else _inv2(a)


def random_connection(graph, rng):
    return Connection(graph, {e: haar_su2(rng) for e in graph.edge_ids()})


@dataclass(frozen=True, eq=False)
class GaugeTransform:
    """Group element per vertex, acting edgewise by a -> g(src) a g(tgt)^-1."""

    graph: object
    elements: dict

    def __post_init__(self):
        if sorted(self.elements) != list(range(self.graph.n_vertices)):
            raise ValueError("gauge transform must cover every vertex")
        els = {v: _as_matrix(m, f"vertex {v} element") for v, m in self.elements.items()}
        object.__setattr__(self, "elements", els)


def random_transform(graph, rng):
    return GaugeTransform(graph, {v: haar_su2(rng) for v in range(graph.n_vertices)})


def gauge_act(conn, gt):
    if conn.graph != gt.graph:
        raise ValueError("connection and transform live on different graphs")
    graph = conn.graph
    out = {}
    for e in graph.edge_ids():
        src = gt.elements[graph.vertex_of[e]]
        tgt = gt.elements[graph.vertex_of[graph.involution[e]]]
        out[e] = src @ conn.matrices[e] @ _inv2(tgt)
    return Connection(graph, out)


def holonomy(conn, path):
    """Ordered product of edge matrices along a composable dart sequence."""
    graph = conn.graph
    cur = np.eye(2, dtype=complex)
    end = None
    for d in path:
        if not 0 <= d < graph.n_darts:
            raise ValueError(f"path uses unknown dart {d}")
        if end is not None and graph.vertex_of[d] != end:
            raise ValueError(f"path is not composable at dart {d}")
        cur = cur @ conn.matrix(d)
        end = graph.vertex_of[graph.involution[d]]
    return cur


# -- spin networks ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpinNetworkFunction:
    """Edge coloring by twice-spins plus one invariant tensor per vertex."""

    graph: object
    coloring: dict
    vertex_tensors: tuple

    @cached_property
    def _program(self):
        """(edge labels, steps, vertex tensors, kernel plan) of the network:
        its graph's steps, its tensors cast to complex once, as the kernels
        are, and its own plan, so no sweep over networks rebuilds one."""
        graph = self.graph
        steps, _ = _program(_subscripts(graph), graph.n_vertices, graph.n_darts)
        tensors = tuple(t.astype(complex) for t in self.vertex_tensors)
        labels = tuple(self.coloring[d] for d, _ in graph.edges())
        return labels, steps, tensors, _batch_plan(labels, True)


def _subscripts(graph):
    # one index per dart; the edge kernels and the output add the batch axis
    stars = tuple(tuple(graph.star(v)) for v in range(graph.n_vertices))
    return stars + tuple((graph.n_darts, d, p) for d, p in graph.edges()) + ((graph.n_darts,),)


def spin_network(graph, coloring):
    if graph.parabolic_darts():
        raise ValueError("spin networks need closed graphs, no parabolic legs")
    if not graph.is_trivalent():
        raise ValueError("spin networks are defined on trivalent graphs")
    eids = graph.edge_ids()
    if sorted(coloring) != eids:
        raise ValueError("coloring must assign exactly the edge ids")
    for n in coloring.values():
        _check_int(n, "edge color")
    tensors = []
    for v in range(graph.n_vertices):
        labels = tuple(coloring[graph.edge_of(d)] for d in graph.star(v))
        try:
            tensors.append(wigner_3j(*labels))
        except AdmissibilityError:
            raise AdmissibilityError(
                f"vertex {v} carries no invariant for labels {labels}"
            ) from None
    return SpinNetworkFunction(graph, dict(coloring), tuple(tensors))


def admissible_colorings(graph, cap):
    """Every edge coloring by twice-spins 0..cap admissible at each vertex.

    Colorings come in itertools.product order over the edge ids, listed by
    the weights search with a vertex sum bound, 3 cap, that never binds.
    A search that passes MAX_GAUGE_COLORINGS colorings is refused.
    """
    _check_int(cap, "cap")
    if graph.parabolic_darts() or not graph.is_trivalent():
        raise ValueError("colorings are defined on closed trivalent graphs")
    found = _labelings(graph, cap, 3 * cap, {}, MAX_GAUGE_COLORINGS)
    if len(found) > MAX_GAUGE_COLORINGS:
        raise ValueError(f"admissible colorings stop at {MAX_GAUGE_COLORINGS}, cap {cap} gives more")
    eids = graph.edge_ids()
    return [dict(zip(eids, combo)) for combo in found]


def _values_batch(snf, batch):
    """Evaluate the network on a (N, E, 2, 2) batch of connections.

    Rows go through in near-equal blocks of at most _BLOCK // E, so only
    one block's kernels and intermediates are live.  Each block makes one
    array pass for every edge's kernel omega . rho, then runs the graph's
    program on the vertex tensors and the kernels.
    """
    labels, steps, tensors, plan = snf._program
    n_blocks = -(-len(batch) // max(1, _BLOCK // len(labels)))
    values = []
    for block in np.array_split(batch, n_blocks) if n_blocks > 1 else [batch]:
        values.append(_run(steps, [*tensors, *_rep_batch(plan, block)]))
    return np.concatenate(values) if len(values) > 1 else values[0]


def _contraction_path(subscripts, bax=None):
    """Greedy pairwise contraction order for interleaved einsum operands.

    subscripts holds each operand's index tuple and, last, the output's.
    The search sees every index at size 3 and the batch axis bax at size 1,
    so one search serves every coloring of a graph.  Intermediates are not
    capped in size, as numpy's default caps would end some paths in one
    step over many operands; so every step is a pair.  Indices run from 0,
    and numpy's einsum takes at most _EINSUM_INDICES of them.
    """
    top = max(ix for sub in subscripts for ix in sub)
    if top >= _EINSUM_INDICES:
        raise ValueError(f"einsum contractions stop at {_EINSUM_INDICES} indices, got {top + 1}")
    args = []
    for sub in subscripts[:-1]:
        args += [np.empty(tuple(1 if ix == bax else 3 for ix in sub)), list(sub)]
    return np.einsum_path(*args, list(subscripts[-1]), optimize=("greedy", 2**62))[0][1:]


@lru_cache(maxsize=512)
def _program(subscripts, n_consts, bax=None):
    """(steps, term): a contraction's program on its path, free of sizes,
    so one serves every coloring of a graph.

    subscripts holds each operand's index tuple and, last, the output's;
    every other index lies on exactly two operands.  The first n_consts
    operands are the same on every call; the rest carry the batch axis bax.
    Each step transposes a pair to (batch, kept, summed) and (batch,
    summed, kept) and multiplies them as stacked matrices, a varying side
    on the left.  A step is (id a, id b, perm a or None, perm b or None,
    and the numbers of batch, kept-a and summed indices), ids counting the
    operands, then each step's result.  term is the index order of the
    last result.
    """
    *terms, out = subscripts
    slots = [(term, i, i >= n_consts) for i, term in enumerate(terms)]
    steps = []
    for pair in _contraction_path(subscripts, bax):
        picked = [slots.pop(p) for p in sorted(pair, reverse=True)]
        (ta, a, varies), (tb, b, _) = sorted(picked, key=lambda slot: not slot[2])
        keep = set(out).union(*(term for term, _, _ in slots))
        batch = [ix for ix in ta if ix in tb and ix in keep]
        summed = [ix for ix in ta if ix in tb and ix not in keep]
        kept_a = [ix for ix in ta if ix not in tb]
        kept_b = [ix for ix in tb if ix not in ta]
        orders = (ta, batch + kept_a + summed), (tb, batch + summed + kept_b)
        perms = [tuple(map(t.index, o)) if o != list(t) else None for t, o in orders]
        steps.append((a, b, *perms, len(batch), len(kept_a), len(summed)))
        slots.append((tuple(batch + kept_a + kept_b), len(terms) + len(steps) - 1, varies))
    return tuple(steps), slots[0][0]


def _run(steps, ops):
    """The last result of steps run on ops, a list of the operands in order.

    Every size comes from the operands' shapes; each operand is read once
    and freed.
    """
    for i, j, perm_a, perm_b, n_batch, n_kept, n_summed in steps:
        a = ops[i] if perm_a is None else ops[i].transpose(perm_a)
        b = ops[j] if perm_b is None else ops[j].transpose(perm_b)
        ops[i] = ops[j] = None
        head, kept_a, kept_b = a.shape[:n_batch], a.shape[n_batch : n_batch + n_kept], b.shape[n_batch + n_summed :]
        batch, summed = math.prod(head), math.prod(b.shape[n_batch : n_batch + n_summed])
        a, b = a.reshape(batch, math.prod(kept_a), summed), b.reshape(batch, summed, math.prod(kept_b))
        ops.append(np.matmul(a, b).reshape(head + kept_a + kept_b))
    return ops[-1]


def spin_network_value(snf, conn):
    """Contract the network tensors against the connection; gauge invariant."""
    if snf.graph != conn.graph:
        raise ValueError("network and connection live on different graphs")
    return complex(_values_batch(snf, conn.array[None])[0])


def _orbit_batch(conn, transforms):
    """(1 + N, E, 2, 2) stack: the connection, then its move by each transform."""
    return np.stack([conn.array] + [gauge_act(conn, gt).array for gt in transforms])


def orbit_spread(conn, colorings, transforms):
    """Largest |f(g.conn) - f(conn)| over the colorings' networks f and the
    transforms g; the orbit is stacked once, one batched evaluation per f."""
    batch = _orbit_batch(conn, transforms)
    worst = 0.0
    for coloring in colorings:
        values = _values_batch(spin_network(conn.graph, coloring), batch)
        worst = max(worst, float(np.abs(values[1:] - values[0]).max(initial=0.0)))
    return worst


# -- Monte Carlo probes --------------------------------------------------------


def _chunks(samples, seed):
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    seqs = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [_CHUNK] * (n_chunks - 1) + [samples - _CHUNK * (n_chunks - 1)]
    return list(zip(seqs, sizes))


@dataclass(frozen=True)
class ProbeReport:
    """Max pointwise gap between two network functions over Haar samples."""

    max_difference: float
    at_sample: int
    separated: bool
    samples: int


def distinguishability_probe(snf1, snf2, sample_count=1000, seed=0):
    """Probabilistic separation witness: max |f1 - f2| over random connections."""
    if snf1.graph != snf2.graph:
        raise ValueError("probe needs both networks on the same graph")
    _check_int(sample_count, "sample count", 1)
    n_edges = len(snf1.graph.edge_ids())
    best, where = 0.0, 0
    offset = 0
    for seq, m in _chunks(sample_count, seed):
        rng = np.random.default_rng(seq)
        batch = _haar_batch(rng, m * n_edges).reshape(m, n_edges, 2, 2)
        diff = np.abs(_values_batch(snf1, batch) - _values_batch(snf2, batch))
        k = int(np.argmax(diff))
        if diff[k] > best:
            best, where = float(diff[k]), offset + k
        offset += m
    return ProbeReport(best, where, best > 1e-6, sample_count)


@dataclass(frozen=True)
class PeterWeylReport:
    """Monte Carlo Gram matrix of network functions under Haar measure."""

    colorings: tuple
    gram: np.ndarray
    stderr: np.ndarray
    samples: int


def peter_weyl_probe(graph, colorings, samples=100_000, seed=0):
    """Estimate the L2 inner products of network functions by Haar sampling.

    Distinct colorings are orthogonal (matrix coefficient orthogonality),
    so off-diagonal entries must vanish within a few standard errors.
    """
    _check_int(samples, "sample count", 1)
    if not colorings:
        raise ValueError("peter_weyl_probe needs at least one coloring")
    snfs = [spin_network(graph, c) for c in colorings]
    n_edges = len(graph.edge_ids())
    n = len(snfs)
    gram_sum = np.zeros((n, n), dtype=complex)
    sq_sum = np.zeros((n, n))
    for seq, m in _chunks(samples, seed):
        rng = np.random.default_rng(seq)
        batch = _haar_batch(rng, m * n_edges).reshape(m, n_edges, 2, 2)
        f = np.stack([_values_batch(s, batch) for s in snfs])
        p = (f * f.conj()).real
        gram_sum += f @ f.conj().T
        sq_sum += p @ p.T
    gram = gram_sum / samples
    var = np.maximum(sq_sum / samples - np.abs(gram) ** 2, 0.0)
    stderr = np.sqrt(var / samples)
    return PeterWeylReport(tuple(dict(c) for c in colorings), gram, stderr, samples)
