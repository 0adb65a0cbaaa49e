"""Lattice gauge fields on trivalent graphs.

A connection assigns one unimodular 2x2 matrix per unoriented edge,
stored at the edge id dart; the reversed orientation is the exact
adjugate inverse.  Dart d is read as the oriented edge leaving
vertex_of[d].  Spin networks contract one invariant tensor per vertex
against a kernel omega . rho(a) per edge; the pairing makes gauge
invariance an identity, not a tolerance.

Monte Carlo probes draw Haar samples from seeded per-chunk streams and
reduce in chunk order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .su2reps import AdmissibilityError, admissible_triple, omega, rep_matrix, wigner_3j

_CHUNK = 16384


def _as_matrix(m, what):
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"{what} must be a 2x2 matrix")
    det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
    if abs(det - 1) > 1e-10:
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
    out = np.empty((m, 2, 2), dtype=complex)
    out[:, 0, 0] = a
    out[:, 0, 1] = b
    out[:, 1, 0] = -b.conj()
    out[:, 1, 1] = a.conj()
    return out


@dataclass(frozen=True, eq=False)
class Connection:
    """Unimodular matrix per unoriented edge; orientation via `matrix`."""

    graph: object
    matrices: dict

    def __post_init__(self):
        eids = self.graph.edge_ids()
        if sorted(self.matrices) != eids:
            raise ValueError("connection must assign exactly the edge ids")
        mats = {e: _as_matrix(self.matrices[e], f"edge {e} matrix") for e in eids}
        object.__setattr__(self, "matrices", mats)

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


def spin_network(graph, coloring):
    if graph.parabolic_darts():
        raise ValueError("spin networks need closed graphs, no parabolic legs")
    if not graph.is_trivalent():
        raise ValueError("spin networks are defined on trivalent graphs")
    eids = graph.edge_ids()
    if sorted(coloring) != eids:
        raise ValueError("coloring must assign exactly the edge ids")
    for e, n in coloring.items():
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"edge {e} color must be a nonnegative twice-spin")
    tensors = []
    for v in range(graph.n_vertices):
        labels = tuple(coloring[graph.edge_of(d)] for d in graph.star(v))
        try:
            tensors.append(wigner_3j(*labels).tensor)
        except AdmissibilityError:
            raise AdmissibilityError(
                f"vertex {v} carries no invariant for labels {labels}"
            ) from None
    return SpinNetworkFunction(graph, dict(coloring), tuple(tensors))


def admissible_colorings(graph, cap):
    """Every edge coloring by twice-spins 0..cap admissible at each vertex."""
    eids = graph.edge_ids()
    stars = [
        tuple(graph.edge_of(d) for d in graph.star(v)) for v in range(graph.n_vertices)
    ]
    out = []
    for combo in itertools.product(range(cap + 1), repeat=len(eids)):
        coloring = dict(zip(eids, combo))
        if all(admissible_triple(*(coloring[e] for e in st)) for st in stars):
            out.append(coloring)
    return out


def _values_batch(snf, batch):
    """Evaluate the network on a (N, E, 2, 2) batch of connections."""
    graph = snf.graph
    bax = graph.n_darts  # einsum axis label for the batch dimension
    operands = []
    for v in range(graph.n_vertices):
        operands += [snf.vertex_tensors[v], list(graph.star(v))]
    for k, (d, p) in enumerate(graph.edges()):
        n = snf.coloring[d]
        rep = rep_matrix(n, batch[:, k])
        kernel = np.einsum("ij,bjk->bik", omega(n).astype(complex), rep)
        operands += [kernel, [bax, d, p]]
    subscripts = tuple(tuple(sub) for sub in operands[1::2]) + ((bax,),)
    # search as for a batch of one: greedy caps intermediates at the largest
    # operand, so a wide batch would force a one-shot contraction
    shapes = [t.shape for t in operands[::2]]
    shapes[graph.n_vertices:] = [(1,) + s[1:] for s in shapes[graph.n_vertices:]]
    path = _contraction_path(subscripts, tuple(shapes))
    return np.einsum(*operands, [bax], optimize=path)


@lru_cache(maxsize=None)
def _contraction_path(subscripts, shapes):
    """Greedy einsum path, the one optimize=True finds, for interleaved operands.

    subscripts holds each operand's index list and, last, the output's.  The
    search reads only the shapes, so zero-stride stand-in operands do.
    """
    args = []
    for sub, shape in zip(subscripts, shapes):
        args += [np.broadcast_to(0.0, shape), list(sub)]
    return np.einsum_path(*args, list(subscripts[-1]), optimize="greedy")[0]


def spin_network_value(snf, conn):
    """Contract the network tensors against the connection; gauge invariant."""
    if snf.graph != conn.graph:
        raise ValueError("network and connection live on different graphs")
    batch = np.stack([conn.matrices[e] for e in snf.graph.edge_ids()])[None]
    return complex(_values_batch(snf, batch)[0])


def _orbit_batch(conn, transforms):
    """(1 + N, E, 2, 2) stack: the connection, then its move by each transform."""
    eids = conn.graph.edge_ids()
    moved = [conn] + [gauge_act(conn, gt) for gt in transforms]
    return np.stack([[c.matrices[e] for e in eids] for c in moved])


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
