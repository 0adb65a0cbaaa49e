"""Lattice gauge fields on trivalent graphs.

A connection assigns one unimodular 2x2 matrix per unoriented edge,
stored at the edge id dart; the reversed orientation is the exact
adjugate inverse.  Dart d is read as the oriented edge leaving
vertex_of[d].  Spin networks contract one invariant tensor per vertex
against a kernel omega . rho(a) per edge; the pairing makes gauge
invariance an identity, not a tolerance.  Since omega is antidiagonal,
the kernel is rho with its rows reversed and signed.  Each network is
contracted along numpy's greedy einsum path, compiled once per operand
shapes into the steps np.einsum takes on it: single-operand einsums,
reshapes and matmuls.  A network runs its vertex-only steps once, on first
use.  A batch of connections then goes through in row blocks, each block
one array pass for all edge kernels and a replay of the remaining steps,
with np.einsum's bits and none of its per-call parsing.

Monte Carlo probes draw Haar samples from seeded per-chunk streams and
reduce in chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .su2reps import AdmissibilityError, _check_int, _rep_batch, admissible_triple, wigner_3j

_CHUNK = 16384
_BLOCK = 2048
MAX_GAUGE_COLORINGS = 2000
# the letter that numpy's einsum gives sublist index i, so a subscript string
# sums as the interleaved form did (string.ascii_letters orders them otherwise
# from index 26 on)
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _as_matrix(m, what):
    arr = np.asarray(m, dtype=complex)
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

    @cached_property
    def _plan(self):
        """(edge labels, index lists, operand shapes at one row, programs).

        programs maps a row class to the network's program, built on first
        use by `_program`.
        """
        graph = self.graph
        bax = graph.n_darts  # einsum index of the batch axis
        if bax >= len(_LETTERS):
            raise ValueError(f"spin networks stop at {len(_LETTERS) - 1} darts, got {bax}")
        edges = graph.edges()
        labels = tuple(self.coloring[d] for d, _ in edges)
        subscripts = tuple(tuple(graph.star(v)) for v in range(graph.n_vertices))
        subscripts += tuple((bax, d, p) for d, p in edges) + ((bax,),)
        shapes = tuple(t.shape for t in self.vertex_tensors) + tuple((1, n + 1, n + 1) for n in labels)
        return labels, subscripts, shapes, {}

    def _program(self, rows):
        """(constants, steps) for a block of rows; see _contraction_steps.

        One-row blocks have their own, as einsum drops a batch axis of size
        1.  Wider blocks share one from the largest index size up, where the
        batch axis, which has the last letter, sorts last; below it, einsum
        sorts the batch axis among the others, so each row count has its
        own.  The vertex-only steps run here, once per program.
        """
        labels, subscripts, shapes, programs = self._plan
        rows = min(rows, max(2, max(labels) + 1))
        if rows not in programs:
            fold, steps = _contraction_steps(subscripts, shapes, rows)
            consts = list(self.vertex_tensors)
            for ids, step in fold:
                consts.append(step(*[consts[i] for i in ids]))
            programs[rows] = consts, steps
        return programs[rows]


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

    Colorings come in itertools.product order over the edge ids.  Each
    vertex is tested as soon as its last edge is colored, and a search
    that passes MAX_GAUGE_COLORINGS colorings is refused.
    """
    if graph.parabolic_darts() or not graph.is_trivalent():
        raise ValueError("colorings are defined on closed trivalent graphs")
    eids = graph.edge_ids()
    place = {e: i for i, e in enumerate(eids)}
    ready = [[] for _ in eids]  # the stars whose last edge is eids[i]
    for v in range(graph.n_vertices):
        star = tuple(place[graph.edge_of(d)] for d in graph.star(v))
        ready[max(star)].append(star)
    out, combo, n = [], [], 0  # n: the next color to try at len(combo)
    while True:
        if len(combo) == len(eids):
            if len(out) == MAX_GAUGE_COLORINGS:
                raise ValueError(f"admissible colorings stop at {MAX_GAUGE_COLORINGS}, cap {cap} gives more")
            out.append(dict(zip(eids, combo)))
            n = cap + 1
        if n > cap:
            if not combo:
                return out
            n = combo.pop() + 1
            continue
        combo.append(n)
        if all(admissible_triple(*(combo[i] for i in star)) for star in ready[len(combo) - 1]):
            n = 0
        else:
            n = combo.pop() + 1


def _values_batch(snf, batch):
    """Evaluate the network on a (N, E, 2, 2) batch of connections.

    Rows go through in near-equal blocks of at most _BLOCK // E, so only
    one block's kernels and intermediates are live; a wide batch never
    leaves a one-row block, which numpy would sum in another order.  Each
    block makes one array pass for every edge's kernel omega . rho, then
    replays the network's program: the matmul steps that np.einsum takes
    on the cached path, with the same bits and without its per-call
    parsing.  Kernels are C-contiguous, because those steps sum in the
    order of their operands' strides.
    """
    labels = snf._plan[0]
    n_blocks = -(-len(batch) // max(1, _BLOCK // len(labels)))
    values = []
    for block in np.array_split(batch, n_blocks) if n_blocks > 1 else [batch]:
        consts, steps = snf._program(len(block))
        ops = [*consts, *_rep_batch(labels, block, paired=True)]
        for ids, step in steps:
            args = [ops[i] for i in ids]
            for i in ids:  # each operand is read once; free it as einsum does
                ops[i] = None
            ops.append(step(*args))
        values.append(ops[-1])
    return np.concatenate(values) if len(values) > 1 else values[0]


@lru_cache(maxsize=MAX_GAUGE_COLORINGS)
def _contraction_path(subscripts, shapes):
    """Greedy einsum path, the one optimize=True finds, for interleaved operands.

    subscripts holds each operand's index list and, last, the output's.  The
    search reads only the shapes, so uninitialised stand-in operands do.  The
    cache is bounded, but holds a path for every coloring that one call of
    admissible_colorings can return.
    """
    args = []
    for sub, shape in zip(subscripts, shapes):
        args += [np.empty(shape), list(sub)]
    return np.einsum_path(*args, list(subscripts[-1]), optimize="greedy")[0]


@lru_cache(maxsize=2 * MAX_GAUGE_COLORINGS)
def _contraction_steps(subscripts, shapes, rows):
    """The steps np.einsum takes on the cached greedy path, as (fold, steps).

    subscripts and shapes are as for _contraction_path; the output is one
    batch axis, of size 1 in shapes, and rows is the block's row count.
    Operands without the batch axis are constants.  Each list holds
    (operand ids, callable) pairs, and each callable returns a new operand.
    fold runs on the constants alone and appends to them: every step, or
    operand preparation, that reads only constants.  steps runs per block
    on the constants followed by the batch operands, appending, and its
    last result is the output.

    np.einsum orders an intermediate's indices by size, then letter, and
    so does this replay, the batch axis at size rows.  Past one row, the
    batch axis reshapes as -1, so the list serves any block whose axes sort
    alike.
    """
    # search as for a batch of one: greedy caps intermediates at the largest
    # operand, so a wide batch would force a one-shot contraction
    path = _contraction_path(subscripts, shapes)
    *terms, batch = ["".join(_LETTERS[i] for i in sub) for sub in subscripts]
    size = {ix: n for term, shape in zip(terms, shapes) for ix, n in zip(term, shape)}
    size[batch] = 1 if rows == 1 else -1  # as reshapes take it
    order = {ix: (n, ix) for ix, n in size.items()}
    order[batch] = (rows, batch)
    # einsum's operand list, as (term, id): constants count up from 0 and
    # batch operands down from -1
    slots, n_const, n_var = [], 0, 0
    for term in terms:
        if batch in term:
            n_var -= 1
            slots.append((term, n_var))
        else:
            slots.append((term, n_const))
            n_const += 1
    fold, steps = [], []
    for positions in path[1:]:
        picked = [slots.pop(p) for p in sorted(positions, reverse=True)]
        inputs = [term for term, _ in picked]
        refs = [i for _, i in picked]
        keep = set(batch).union(*(term for term, _ in slots))
        result = "".join(sorted(set("".join(inputs)) & keep, key=order.__getitem__))
        eq = ",".join(inputs) + "->" + result
        const = min(refs) >= 0
        if len(picked) != 2:
            step = partial(np.einsum, eq)
        else:
            preps, core = _pair_rule(eq, *(tuple(map(size.__getitem__, term)) for term in inputs))
            preps = list(preps)
            k = refs.index(max(refs))  # the constant side, if one
            if not const and refs[k] >= 0 and preps[k] != (None, None):
                fold.append(((refs[k],), partial(_prep, *preps[k])))
                refs[k], preps[k] = n_const, (None, None)
                n_const += 1
            step = partial(_pair, *preps, *core)
        if const:
            fold.append((tuple(refs), step))
            slots.append((result, n_const))
            n_const += 1
        else:
            steps.append((refs, step))
            n_var -= 1
            slots.append((result, n_var))
    steps = [(tuple(i if i >= 0 else n_const + ~i for i in refs), step) for refs, step in steps]
    return fold, steps


@lru_cache(maxsize=2**12)
def _pair_rule(eq, shape_a, shape_b):
    """numpy 2.4's split of the two-operand einsum eq into matmul steps.

    A size of -1 stands for a batch axis of several rows; an index has one
    size in both operands, so nothing broadcasts.  Returns ((prep a,
    prep b), core) for _pair, a prep being (single-operand subscripts or
    None, shape or None).  Indices of size 1 drop out of the matmul and
    come back in its reshape.
    """
    inputs, out = eq.split("->")
    a_term, b_term = inputs.split(",")
    size = dict(zip(a_term, shape_a))
    size.update(zip(b_term, shape_b))
    left = "".join([ix for ix in a_term if size[ix] != 1])
    right = "".join([ix for ix in b_term if size[ix] != 1])
    bat = "".join([ix for ix in left if ix in right and ix in out])
    con = "".join([ix for ix in left if ix in right and ix not in out])
    a_keep = "".join([ix for ix in left if ix not in right and ix in out])
    b_keep = "".join([ix for ix in right if ix not in left and ix in out])
    if not con:
        # nothing summed: transpose both to out's order and multiply
        preps = []
        for term in (a_term, b_term):
            want = "".join([ix for ix in out if ix in term])
            shape = tuple([size[ix] if ix in term else 1 for ix in out])
            preps.append((f"{term}->{want}" if want != term else None, shape))
        return tuple(preps), (True, None, None)
    groups = [(a_keep, con), (con, b_keep), (a_keep, b_keep)]
    if bat:
        groups = [(bat, *g) for g in groups]
    preps = []
    for term, parts in zip((a_term, b_term), groups):
        want = "".join(parts)
        shape = None
        if any(len(g) != 1 for g in parts):
            shape = tuple([_fused([size[ix] for ix in g]) for g in parts])
        preps.append((f"{term}->{want}" if want != term else None, shape))
    singles = "".join([ix for ix in out if size[ix] == 1])
    shape_ab = None
    if any(len(g) != 1 for g in groups[2]) or singles:
        shape_ab = (1,) * len(singles) + tuple([size[ix] for ix in "".join(groups[2])])
    made = singles + bat + a_keep + b_keep
    perm = tuple([made.index(ix) for ix in out]) if made != out else None
    return tuple(preps), (False, shape_ab, perm)


def _fused(sizes):
    # the size of axes reshaped into one; a batch axis of several rows is -1
    return -1 if -1 in sizes else math.prod(sizes)


def _prep(eq, shape, x):
    if eq is not None:
        x = np.einsum(eq, x)
    return x if shape is None else x.reshape(shape)


def _pair(prep_a, prep_b, multiply, shape_ab, perm, a, b):
    """One two-operand step: prepare each side, then matmul or multiply."""
    a, b = _prep(*prep_a, a), _prep(*prep_b, b)
    if multiply:
        return np.multiply(a, b)
    ab = np.matmul(a, b)
    if shape_ab is not None:
        ab = ab.reshape(shape_ab)
    return ab if perm is None else ab.transpose(perm)


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
