"""Level-k duality data: fusing matrices, twists, braiding, S matrices.

The fusing coefficients are quantum 6j symbols at q = e^{i*pi/(k+2)} in the
unitary normalization, with the sign gauge fixed by the pentagon identity.
On top of them sit the braid matrices B = F^-1 D F, the diagonal twist
operators on block spaces of labeled graphs, the torus S matrix, the
switching operators of the holed torus, and genus-1 Heegaard invariants
with their anomaly phase classes.

The Racah sum has two evaluations that do the same floating-point
operations in the same order.  Single entries and single blocks -- q6j,
fusion_matrix, braiding and the switching data -- call the scalar kernel
entry by entry and cache each entry; the slide data behind the switching
blocks is cached per (k, n1, n2), as the blocks are.  Level-wide
computations -- six_j_table and the symmetry, pentagon, orthogonality,
braid-inverse, braid-phase and Yang-Baxter relations of residual_report --
read a per-level table instead: every admissible (j1, j2, j3, j4, i, j) as
a small-int array, with its values computed by an array evaluation of the
Racah sum over blocks of keys, built once per level.  six_j_table serves
its entries from these arrays, without a per-entry copy.  The relations are
array operations on the table that keep the scalar loops' order of
rounding, so both ways give the same bits; tests pin the table against q6j
entry by entry.  Admissibility at one level is a cached boolean cube over
(a, b, c), which the table, the relations and the switching blocks' loop
labels all read.

Per level, a process keeps the table, the cube, the switching blocks and
their slide data, S and the twist diagonal T (read-only arrays behind
s_torus, heegaard_invariant, genus_chain_operator and the report), and the
ten values of residual_report, so only the first report of a level pays
for the pentagon and the block relations.  The dense lookup that the
relations index (91 MB at k = 14) is built for each report and dropped.

All labels are twice-spin integers in 0..k.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .graphs import chain_graph
from .su2reps import _check_int, _check_label, admissible_triple, casimir, check_labels, check_level
from .weights import InvariantViolation, _weight_edge_ids, enumerate_weights


def _triple_ok(k, a, b, c):
    return admissible_triple(a, b, c) and a + b + c <= 2 * k


@lru_cache(maxsize=None)
def _channels(k, a, b):
    return tuple(c for c in range(k + 1) if _triple_ok(k, a, b, c))


def _source_channels(k, j1, j2, j3, j4):
    return tuple(i for i in _channels(k, j1, j2) if _triple_ok(k, j3, j4, i))


def _target_channels(k, j1, j2, j3, j4):
    return tuple(j for j in _channels(k, j2, j3) if _triple_ok(k, j4, j1, j))


# ---------------------------------------------------------------------------
# quantum integers and the Racah sum
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _qint(k, n):
    return math.sin(n * math.pi / (k + 2)) / math.sin(math.pi / (k + 2))


@lru_cache(maxsize=None)
def _qfact(k, n):
    if n <= 1:
        return 1.0
    return _qfact(k, n - 1) * _qint(k, n)


def _delta(k, a, b, c):
    # every factorial argument stays <= k+1 for a level-admissible triple,
    # so the denominator never reaches the vanishing [k+2]
    return math.sqrt(
        _qfact(k, (-a + b + c) // 2)
        * _qfact(k, (a - b + c) // 2)
        * _qfact(k, (a + b - c) // 2)
        / _qfact(k, (a + b + c) // 2 + 1)
    )


def _racah(k, a, b, e, c, d, f):
    lows = ((a + b + e) // 2, (e + c + d) // 2, (b + c + f) // 2, (a + f + d) // 2)
    highs = ((a + b + c + d) // 2, (a + e + c + f) // 2, (b + e + d + f) // 2)
    prefactor = (
        _delta(k, a, b, e) * _delta(k, e, c, d) * _delta(k, b, c, f) * _delta(k, a, f, d)
    )
    total = 0.0
    for z in range(max(lows), min(highs) + 1):
        # truncation is automatic: [z+1]! carries a vanishing quantum integer
        # once z exceeds k+1, while the denominator arguments stay below k+2
        term = (-1) ** z * _qfact(k, z + 1)
        for t in lows:
            term /= _qfact(k, z - t)
        for q in highs:
            term /= _qfact(k, q - z)
        total += term
    return prefactor * total


def _q6j_array(k, keys):
    """_q6j for every row of an (n, 6) array of admissible labels.

    Every step repeats the scalar kernel's floating-point operations in its
    order, on factorials and quantum integers from the cached scalar
    _qfact and _qint, so each value has the scalar kernel's bits.
    """
    # int16 label sums stay exact up to 4k <= 32767, that is k <= 8191
    j1, j2, j3, j4, i, j = keys.T.astype(np.int16, order="C")
    fact = np.array([_qfact(k, n) for n in range(2 * k + 2)])
    qint = np.array([_qint(k, n) for n in range(k + 2)])

    def delta(a, b, c):
        return np.sqrt(
            fact[(-a + b + c) // 2]
            * fact[(a - b + c) // 2]
            * fact[(a + b - c) // 2]
            / fact[(a + b + c) // 2 + 1]
        )

    # _racah's (a, b, e, c, d, f) are (j1, j2, i, j3, j4, j)
    lows = ((j1 + j2 + i) // 2, (i + j3 + j4) // 2, (j2 + j3 + j) // 2, (j1 + j + j4) // 2)
    highs = ((j1 + j2 + j3 + j4) // 2, (j1 + i + j3 + j) // 2, (j2 + i + j4 + j) // 2)
    prefactor = delta(j1, j2, i) * delta(i, j3, j4) * delta(j2, j3, j) * delta(j1, j, j4)
    first, last = np.maximum.reduce(lows), np.minimum.reduce(highs)
    span = last - first
    total = np.zeros(len(keys))
    # step every row through its own range at once: offset d is z = first + d,
    # so each row still adds its terms in ascending z, starting from 0.0
    for d in range(int(span.max()) + 1):
        # a row whose range ends before d evaluates its last term, which
        # stays finite, and the where drops it
        z = first + np.minimum(d, span)
        term = fact[z + 1]
        term = np.where(z % 2, -term, term)
        for t in lows:
            term = term / fact[z - t]
        for q in highs:
            term = term / fact[q - z]
        total = np.where(d <= span, total + term, total)
    sign = np.where((j1 + j2 + j3 + j4) // 2 % 2, -1.0, 1.0)
    return sign * np.sqrt(qint[i + 1] * qint[j + 1]) * (prefactor * total)


@lru_cache(maxsize=None)
def _q6j(k, j1, j2, j3, j4, i, j):
    if not (_triple_ok(k, j1, j2, i) and _triple_ok(k, j3, j4, i)):
        return 0.0
    if not (_triple_ok(k, j2, j3, j) and _triple_ok(k, j4, j1, j)):
        return 0.0
    # the sign gauge is the one singled out by the pentagon identity
    sign = (-1.0) ** ((j1 + j2 + j3 + j4) // 2)
    return sign * math.sqrt(_qint(k, i + 1) * _qint(k, j + 1)) * _racah(k, j1, j2, i, j3, j4, j)


def q6j(k, j1, j2, j3, j4, i, j):
    """Fusing coefficient F_ij(j2 j3; j1 j4) in the unitary normalization.

    The channel i couples (j1 j2) and (j3 j4), the channel j couples
    (j2 j3) and (j4 j1); inadmissible channels give 0 by contract, while
    out-of-range outer labels are errors.
    """
    check_level(k)
    check_labels(k, (j1, j2, j3, j4))
    _check_label(i)
    _check_label(j)
    return _q6j(k, j1, j2, j3, j4, i, j)


def fusion_matrix(k, j1, j2, j3, j4):
    """Square fusing block: rows over i-channels, columns over j-channels."""
    check_level(k)
    check_labels(k, (j1, j2, j3, j4))
    rows = _source_channels(k, j1, j2, j3, j4)
    cols = _target_channels(k, j1, j2, j3, j4)
    mat = np.array(
        [[_q6j(k, j1, j2, j3, j4, i, j) for j in cols] for i in rows], dtype=float
    ).reshape(len(rows), len(cols))
    return rows, cols, mat


class _TableEntries(Mapping):
    """Read-only map from (j1, j2, j3, j4, i, j) to its value in a level table.

    Backed by the table's (keys, values) arrays without a copy: a lookup
    finds the row-major position of its six labels among the flat positions
    of the keys, which ascend in table order.  Labels outside 0..k are
    absent, so no position aliases another key's.
    """

    def __init__(self, size, keys, values):
        self._size, self._keys, self._values = size, keys, values
        self._flat = _flat(size, *keys.T)

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return map(tuple, self._keys.tolist())

    def __getitem__(self, key):
        size = self._size
        if not (isinstance(key, tuple) and len(key) == 6 and all(n in range(size) for n in key)):
            raise KeyError(key)
        pos = 0
        for n in key:
            pos = pos * size + n
        row = int(self._flat.searchsorted(pos))
        if row == len(self._flat) or self._flat[row] != pos:
            raise KeyError(key)
        return float(self._values[row])

    # the views zip the keys with the value array in table order, where
    # Mapping's would look up each key on its own
    class _Items(ItemsView):
        def __iter__(self):
            return zip(self._mapping, self._mapping._values.tolist())

    class _Values(ValuesView):
        def __iter__(self):
            return iter(self._mapping._values.tolist())

    def items(self):
        return self._Items(self)

    def values(self):
        return self._Values(self)


@dataclass(frozen=True, eq=False)
class SixJTable:
    """Immutable map of all admissible fusing coefficients at one level.

    entries is a read-only view of the level's cached table arrays: its keys
    are int tuples in table order and its values floats with q6j's bits.
    """

    level: int
    entries: Mapping

    def coefficient(self, j1, j2, j3, j4, i, j):
        """q6j(level, j1, j2, j3, j4, i, j), read from the table."""
        check_labels(self.level, (j1, j2, j3, j4))
        _check_label(i)
        _check_label(j)
        # channels above the level are inadmissible, and absent from entries
        return self.entries.get((j1, j2, j3, j4, i, j), 0.0)


def six_j_table(k):
    """Tabulate every fusing coefficient with both channels admissible."""
    check_level(k)
    return SixJTable(k, _TableEntries(k + 1, *_level_table(k)))


@lru_cache(maxsize=None)
def _admissibility_cube(k):
    """Read-only boolean cube whose [a, b, c] entry is _triple_ok(k, a, b, c)."""
    a, b, c = np.indices((k + 1,) * 3)
    cube = ((a + b + c) % 2 == 0) & (abs(a - b) <= c) & (c <= a + b) & (a + b + c <= 2 * k)
    cube.setflags(write=False)
    return cube


@lru_cache(maxsize=None)
def _level_table(k):
    """Every admissible fusing coefficient of one level, packed in two arrays.

    keys holds the (j1, j2, j3, j4, i, j) labels in six_j_table order, which
    lays out each outer-label quad's block row by row; values holds the
    array evaluation of the Racah sum over the keys, a few thousand rows at
    a time, which gives the scalar kernel's bits for every entry.  Only
    level-wide computations read it: single entries stay on the scalar
    kernel, so one coefficient at a high level never builds a whole level.
    """
    cube = _admissibility_cube(k)
    # join the channels onto every outer-label quad in lexicographic order:
    # i couples (j1 j2) and (j3 j4), j couples (j2 j3) and (j4 j1)
    j1, j2, j3, j4 = np.indices((k + 1,) * 4).reshape(4, -1)
    r, i = np.nonzero(cube[j1, j2] & cube[j3, j4])
    s, j = np.nonzero((cube[j2, j3] & cube[j4, j1])[r])
    r, i = r[s], i[s]
    keys = np.column_stack([j1[r], j2[r], j3[r], j4[r], i, j]).astype(np.min_scalar_type(k))
    # blocks of rows keep the sum's temporaries small, so that they do not
    # grow the heap that later level-wide computations run in
    values = np.empty(len(keys))
    for s in range(0, len(keys), 4096):
        values[s : s + 4096] = _q6j_array(k, keys[s : s + 4096])
    keys.setflags(write=False)
    values.setflags(write=False)
    return keys, values


def _flat(size, *labels):
    """Row-major position of label tuples in an array with `size` slots per axis."""
    index = np.zeros(np.shape(labels[0]), dtype=np.intp)
    for n in labels:
        index = index * size + n
    return index


@dataclass(frozen=True, eq=False)
class _Lookup:
    """Indexes over one level's table, built for one level-wide computation.

    cube is _admissibility_cube(k); dense holds every coefficient at the
    row-major position of its six labels, zero where inadmissible; starts
    and dims give, per outer-label quad, the offset of its square block in
    the table and its size; phases holds braid_phase(k, a, b, c) at [a, b, c].
    """

    size: int
    cube: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    dense: np.ndarray
    starts: np.ndarray
    dims: np.ndarray
    phases: np.ndarray

    def blocks(self, quads, n):
        """Stacked (m, n, n) blocks of m quads, with their row and column channels."""
        first = self.starts[quads][:, None]
        f = self.values[first + np.arange(n * n)].reshape(-1, n, n)
        return f, self.keys[first + n * np.arange(n), 4], self.keys[first + np.arange(n), 5]

    def by_size(self, quads):
        """Groups of the quads with a nonempty block, one group per block size."""
        for n in range(1, int(self.dims[quads].max()) + 1):
            group = quads[self.dims[quads] == n]
            if group.size:
                yield n, group

    def outer(self, quads):
        return np.unravel_index(quads, (self.size,) * 4)


# the highest level whose level-wide reports run here: a first
# residual_report(14) takes about 3 s and a peak RSS of 166 MB in a fresh
# process on 2 vCPUs (a repeat call in the same process copies a dict), and
# at k = 16 the dense table of _lookup alone holds 17^6 floats (193 MB)
MAX_REPORT_LEVEL = 14


def _lookup(k):
    keys, values = _level_table(k)
    size = k + 1
    dense = np.zeros(size**6)
    dense[_flat(size, *keys.T)] = values
    counts = np.bincount(_flat(size, *keys.T[:4]), minlength=size**4)
    phases = [braid_phase(k, a, b, c) for a, b, c in product(range(size), repeat=3)]
    return _Lookup(
        size=size,
        cube=_admissibility_cube(k),
        keys=keys,
        values=values,
        dense=dense,
        starts=np.cumsum(counts) - counts,
        dims=np.sqrt(counts).astype(np.intp),
        phases=np.array(phases).reshape(size, size, size),
    )


# ---------------------------------------------------------------------------
# pentagon
# ---------------------------------------------------------------------------


def _pentagon_residual(look):
    size, cube, dense = look.size, look.cube, look.dense
    s1, s2, s3, s4, s5 = (size**p for p in range(1, 6))
    worst = 0.0
    for b, c in product(range(size), repeat=2):
        # join the loop labels one at a time: f in (a b), g in (f c), e in
        # (g d), l in (c d), m in (b l); row r of every array is one tuple.
        # Each label adds its row-major strides, as it joins, to the flat
        # positions of the LHS's F[fcde]_gl (x1) and F[able]_fm (x2) and of
        # the RHS's F[abcg]_fh (y1), F[ahde]_gm (y2) and F[bcdm]_hl (y3) at h = 0
        a, f = np.nonzero(cube[:, b])
        x1 = f * s5 + c * s4
        x2 = a * s5 + b * s4 + f * s1
        y1 = a * s5 + (b * s4 + c * s3) + f * s1
        y2 = a * s5
        r, g = np.nonzero(cube[f, c])
        x1, x2, y1, y2 = x1[r] + g * s1, x2[r], y1[r] + g * s2, y2[r] + g * s1
        r, d, e = np.nonzero(cube[g])
        de = d * s3 + e * s2
        x1, x2, y1, y2 = x1[r] + de, x2[r] + e * s2, y1[r], y2[r] + de
        y3 = d * s3 + (b * s5 + c * s4)
        r, l = np.nonzero(cube[c, d])
        x1, x2, y1, y2, y3 = x1[r] + l, x2[r] + l * s3, y1[r], y2[r], y3[r] + l
        r, m = np.nonzero(cube[b, l])
        x1, x2, y1, y2, y3 = x1[r], x2[r] + m, y1[r], y2[r] + m, y3[r] + m * s2
        lhs = dense[x1] * dense[x2]
        # the three coefficients of channel h sit at h times a fixed stride
        # past their h = 0 positions; the sum over h runs ascending from 0,
        # in the order sum() would
        rhs = 0.0
        for h in np.flatnonzero(cube[b, c]).tolist():
            rhs = rhs + dense[h:][y1] * dense[h * s4 :][y2] * dense[h * s1 :][y3]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------


def braid_phase(k, j2, j3, i, inverse=False):
    """Crossing eigenvalue on channel i of j2 (x) j3."""
    check_level(k)
    check_labels(k, (j2, j3, i))
    value = (-1.0) ** ((j2 + j3 - i) // 2) * cmath.exp(
        1j
        * math.pi
        * (i * (i + 2) - j2 * (j2 + 2) - j3 * (j3 + 2))
        / (4 * (k + 2))
    )
    return value.conjugate() if inverse else value


def braiding(k, j1, j2, j3, j4, inverse=False):
    """Braid matrix B± = F^-1 D± F on the channels of (j1 j2)/(j3 j4)."""
    check_level(k)
    check_labels(k, (j1, j2, j3, j4))
    rows, cols, f = fusion_matrix(k, j1, j2, j3, j4)
    if not rows:
        return rows, np.zeros((0, 0), dtype=complex)
    d = np.array([braid_phase(k, j2, j3, j, inverse) for j in cols])
    return rows, _braid_stack(f[None], d[None])[0]


# ---------------------------------------------------------------------------
# twists, the torus S matrix, and anomaly phase classes
# ---------------------------------------------------------------------------


def t_phase(k, n):
    """Twist e^{2*pi*i*(h_n - c/24)} of the label n at level k."""
    check_level(k)
    check_labels(k, (n,))
    exponent = casimir(n) / (k + 2) - Fraction(k, 8 * (k + 2))
    return cmath.exp(2j * math.pi * float(exponent))


@lru_cache(maxsize=None)
def _torus_data(k):
    """Read-only S matrix and twist diagonal T = (t_phase(k, n))_n of a checked level."""
    scale = math.sqrt(2.0 / (k + 2))
    s = np.array(
        [
            [scale * math.sin((a + 1) * (b + 1) * math.pi / (k + 2)) for b in range(k + 1)]
            for a in range(k + 1)
        ]
    )
    t = np.array([t_phase(k, n) for n in range(k + 1)])
    s.setflags(write=False)
    t.setflags(write=False)
    return s, t


def s_torus(k):
    """Real symmetric S matrix of the level-k torus block, S^2 = id."""
    check_level(k)
    return _torus_data(k)[0].copy()


def phase_unit(k):
    """Generator of the anomaly phase ambiguity at level k."""
    check_level(k)
    return cmath.exp(1j * math.pi * k / (4 * (k + 2)))


def _phase_lattice_angle(k):
    # the subgroup of U(1) generated by phase_unit(k) is cyclic; go through
    # the reduced fraction of the angle so 2*pi wraps stay inside the class
    return 2.0 * math.pi / Fraction(k, 8 * (k + 2)).denominator


def phase_class(z, k):
    """(magnitude, argument reduced modulo the anomaly lattice)."""
    check_level(k)
    z = complex(z)
    if z == 0:
        return 0.0, 0.0
    return abs(z), cmath.phase(z) % _phase_lattice_angle(k)


def same_phase_class(a, b, k, tol=1e-9):
    """Whether two values agree up to a power of the anomaly phase."""
    check_level(k)
    a, b = complex(a), complex(b)
    if abs(abs(a) - abs(b)) > tol:
        return False
    if abs(a) <= tol:
        return True
    angle = _phase_lattice_angle(k)
    delta = cmath.phase(a / b)
    return abs(delta - round(delta / angle) * angle) < tol


# ---------------------------------------------------------------------------
# block spaces and operators on them
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockSpace:
    """Span of the admissible level-k weights of a labeled graph."""

    graph: object
    level: int
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        index = {w.numerators: i for i, w in enumerate(self.basis)}
        object.__setattr__(self, "_index", index)

    @property
    def dim(self):
        return len(self.basis)

    def index_of(self, numerators):
        return self._index[tuple(numerators)]


def block_space(graph, k, boundary=None):
    """Block space on the weight basis; legs must be pinned via boundary."""
    return BlockSpace(graph, k, enumerate_weights(graph, k, boundary))


def _edge_positions(graph):
    return {e: i for i, e in enumerate(_weight_edge_ids(graph))}


def _edge_labels(space, e):
    """The weight of edge e on each basis vector."""
    graph = space.graph
    if not 0 <= e < graph.n_darts:
        raise ValueError("edge is not in the graph")
    pos = _edge_positions(graph)[graph.edge_of(e)]
    return [w.numerators[pos] for w in space.basis]


# ---------------------------------------------------------------------------
# genus-1 Heegaard invariants
# ---------------------------------------------------------------------------

def heegaard_invariant(word, k):
    """Vacuum-to-vacuum matrix element of the word on the torus block.

    The word is a whitespace-separated string over the torus mapping-class
    generators S, T and T-1, leftmost acting last.  Well defined on closed
    3-manifolds only up to the anomaly phase class; compare values through
    same_phase_class.
    """
    check_level(k)
    s, t = _torus_data(k)
    t = np.diag(t)
    matrices = {"S": s.astype(complex), "T": t, "T-1": t.conj()}
    rho = np.eye(k + 1, dtype=complex)
    for letter in word.split():
        if letter not in matrices:
            raise ValueError(f"unknown generator {letter!r}")
        rho = rho @ matrices[letter]
    return complex(rho[0, 0])


# ---------------------------------------------------------------------------
# switching operators of the holed torus
# ---------------------------------------------------------------------------


def _loop_labels(k, c):
    return tuple(np.flatnonzero(_admissibility_cube(k)[:, :, c].diagonal()).tolist())


# switching blocks and residuals reach this only for k <= 3, so the cache
# holds at most 16 (n1, n2) pairs per level; its arrays are shared, so read-only
@lru_cache(maxsize=None)
def _slide_data(k, n1, n2):
    """Pair basis of the twice-holed torus and its slide/relabel operators."""
    pairs = [
        (m, l)
        for m in range(k + 1)
        for l in range(k + 1)
        if _triple_ok(k, m, l, n1) and _triple_ok(k, m, l, n2)
    ]
    if not pairs:
        return None
    index = {pair: i for i, pair in enumerate(pairs)}
    chans = _channels(k, n1, n2)
    fused = [(j, m) for j in chans for m in _loop_labels(k, j)]
    dim = len(pairs)
    iso = np.zeros((dim, dim))
    for col, (m, l) in enumerate(pairs):
        for row, (j, mm) in enumerate(fused):
            if mm == m:
                iso[row, col] = _q6j(k, n1, m, m, n2, l, j)
    relabel = np.diag([t_phase(k, l) / t_phase(k, m) for m, l in pairs])
    slide = np.zeros((dim, dim), dtype=complex)
    for col, (m, l) in enumerate(pairs):
        src, bmat = braiding(k, l, n1, n2, l, inverse=True)
        for n in src:
            slide[index[(l, n)], col] = bmat[src.index(n), src.index(m)]
    inv = np.linalg.inv(iso)
    relabeled, slid = iso @ relabel @ inv, iso @ slide @ inv
    relabeled.setflags(write=False)
    slid.setflags(write=False)
    return chans, relabeled, slid


def _assemble_blocks(k, chans, top, top_block):
    dims = [len(_loop_labels(k, j)) for j in chans]
    total = sum(dims)
    out = np.zeros((total, total), dtype=complex)
    offset = 0
    for j, d in zip(chans, dims):
        block = top_block if j == top else _switching_block(k, j)
        out[offset : offset + d, offset : offset + d] = block
        offset += d
    return out


@lru_cache(maxsize=None)
def _switching_block(k, c):
    if c == 0:
        return s_torus(k).astype(complex)
    if k > 3:
        raise ValueError("holed switching blocks are solved only for k <= 3")
    # expose channel c by fusing two legs of half its weight; lower blocks
    # are already known, so the slide relation is linear in the new block
    n = c // 2
    chans, relabeled, slid = _slide_data(k, n, n)
    dim = len(_loop_labels(k, c))

    def residual(block):
        y = _assemble_blocks(k, chans, c, block)
        return (y @ relabeled - slid @ y).ravel()

    base = residual(np.zeros((dim, dim)))
    columns = []
    for a in range(dim):
        for b in range(dim):
            unit = np.zeros((dim, dim))
            unit[a, b] = 1.0
            columns.append(residual(unit) - base)
    system = np.array(columns).T
    solution, *_ = np.linalg.lstsq(system, -base, rcond=None)
    block = solution.reshape(dim, dim)
    worst = np.abs(residual(block)).max()
    if worst > 1e-8:
        raise InvariantViolation(
            f"switching block {c} at level {k} has slide residual {worst:.2e}"
        )
    return block


def switching_operator(k, j):
    """Unitary switch of the two filling circles on hole label j.

    j = 0 is the closed-torus S matrix; positive (even) hole labels are
    obtained by solving the slide relation, implemented for k <= 3.
    """
    check_level(k)
    if _check_int(j, "hole label") % 2 or j > k:
        raise ValueError("hole label must be an even integer in 0..k")
    return _switching_block(k, j).copy()


def _slide_residual(k, n1, n2):
    data = _slide_data(k, n1, n2)
    if data is None:
        return None
    chans, relabeled, slid = data
    y = _assemble_blocks(k, chans, -1, None)
    return np.abs(y @ relabeled - slid @ y).max()


def switching_residuals(k):
    """Residuals of the defining relations of every switching block."""
    check_level(k)
    report = {}
    for j in range(0, k + 1, 2):
        s = _switching_block(k, j)
        d = s.shape[0]
        report[("unitarity", j)] = np.abs(s @ s.conj().T - np.eye(d)).max()
        square = (-1.0) ** (j // 2) * cmath.exp(-1j * math.pi * j * (j + 2) / (4 * (k + 2)))
        report[("square", j)] = np.abs(s @ s - square * np.eye(d)).max()
        twist = np.diag(_torus_data(k)[1][list(_loop_labels(k, j))])
        report[("modular", j)] = np.abs(
            np.linalg.matrix_power(s @ twist, 3) - s @ s
        ).max()
    for n1 in range(k + 1):
        for n2 in range(k + 1):
            residual = _slide_residual(k, n1, n2)
            if residual is not None:
                report[("slide", n1, n2)] = residual
    return report


# ---------------------------------------------------------------------------
# experimental genus-g assembly on chain graphs
# ---------------------------------------------------------------------------


def _end_switch(space, loop_edge):
    graph, k = space.graph, space.level
    positions = _edge_positions(graph)
    loop_pos = positions[loop_edge]
    vertex = graph.vertex_of[loop_edge]
    bridge = next(
        graph.edge_of(d) for d in graph.star(vertex) if graph.edge_of(d) != loop_edge
    )
    bridge_pos = positions[bridge]
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for col, weight in enumerate(space.basis):
        nums = list(weight.numerators)
        labels = _loop_labels(k, nums[bridge_pos])
        block = _switching_block(k, nums[bridge_pos])
        col_in_block = labels.index(nums[loop_pos])
        for row_in_block, m in enumerate(labels):
            nums[loop_pos] = m
            mat[space.index_of(tuple(nums)), col] = block[row_in_block, col_in_block]
    return mat


def genus_chain_operator(space, ops):
    """Compose twist and end-circle switch generators on a chain-graph block.

    ops is a sequence of (kind, argument): ("T", edge), ("T-1", edge) or
    ("S", "first"/"last"); the first entry acts first.
    """
    graph = space.graph
    loops = [e for e in graph.edge_ids() if graph.is_loop(e)]
    if len(loops) != 2:
        raise ValueError("chain assembly needs exactly the two end circles")
    ends = {"first": loops[0], "last": loops[1]}
    twists = _torus_data(space.level)[1]
    rho = np.eye(space.dim, dtype=complex)
    for kind, arg in ops:
        # a twist is diagonal, so it scales the rows of rho
        if kind == "T":
            rho = twists[_edge_labels(space, arg)][:, None] * rho
        elif kind == "T-1":
            rho = twists.conj()[_edge_labels(space, arg)][:, None] * rho
        elif kind == "S":
            if arg not in ends:
                raise ValueError("switch must act on 'first' or 'last'")
            rho = _end_switch(space, ends[arg]) @ rho
        else:
            raise ValueError(f"unknown generator {kind!r}")
    return rho


def genus_chain_invariant(k, g, ops):
    """Vacuum expectation of a generator word on the genus-g chain block."""
    check_level(k)
    space = block_space(chain_graph(g), k)
    rho = genus_chain_operator(space, ops)
    vacuum = space.index_of((0,) * len(space.basis[0].numerators))
    return complex(rho[vacuum, vacuum])


# ---------------------------------------------------------------------------
# consistency report
# ---------------------------------------------------------------------------


def _symmetry_residual(look):
    # the admissible set is closed under (j1 j2) <-> (j3 j4)
    j1, j2, j3, j4, i, j = look.keys.T
    swapped = look.dense[_flat(look.size, j3, j4, j1, j2, i, j)]
    return float(np.abs(look.values - swapped).max())


def _braid_stack(f, phases):
    """B = F^-1 D F for stacked blocks F and their column phases D."""
    return np.linalg.inv(f) @ (phases[:, :, None] * f)


def _block_residuals(look):
    """Orthogonality, braid-inverse, braid-phase and Yang-Baxter maxima.

    One pass over the blocks, one group per block size: each group reads
    its stacked fusing blocks F once and forms B = F^-1 D F once.  The
    braid-phase relation is faithful only for k <= 3 and reads None above.
    """
    size, k = look.size, look.size - 1
    if k <= 3:
        # the crossing phase at [j1, j4, i, j], each entry the scalar expression
        crossing = np.array(
            [
                (-1.0) ** ((j1 + j4 - i - j) // 2)
                * cmath.exp(
                    -1j
                    * math.pi
                    * (i * (i + 2) + j * (j + 2) - j1 * (j1 + 2) - j4 * (j4 + 2))
                    / (4 * (k + 2))
                )
                for j1, j4, i, j in product(range(size), repeat=4)
            ]
        ).reshape((size,) * 4)
    orth = inverse = yang_baxter = 0.0
    relation = 0.0 if k <= 3 else None
    for n, quads in look.by_size(np.arange(size**4)):
        f, rows, cols = look.blocks(quads, n)
        j1, j2, j3, j4 = look.outer(quads)
        f2, _, _ = look.blocks(_flat(size, j2, j3, j4, j1), n)
        orth = max(orth, float(np.abs(f @ f2 - np.eye(n)).max()))
        d = look.phases[j2[:, None], j3[:, None], cols]
        b = _braid_stack(f, d)
        inverse = max(inverse, float(np.abs(b @ _braid_stack(f, d.conj()) - np.eye(n)).max()))
        # on j1 = j2 = j3, b is B23 and B12 is diagonal in the row channels
        tri = (j1 == j2) & (j2 == j3)
        if tri.any():
            b23 = b[tri]
            leg = j1[tri][:, None]
            b12 = np.zeros_like(b23)
            b12[:, np.arange(n), np.arange(n)] = look.phases[leg, leg, rows[tri]]
            yb = np.abs(b12 @ b23 @ b12 - b23 @ b12 @ b23)
            yang_baxter = max(yang_baxter, float(yb.max()))
        if relation is not None:
            # B_ij against F_ij(j2 j1 j3 j4), for j among the source channels
            # and the target channels of the crossed block
            j1, j2, j3, j4 = (x[:, None, None] for x in (j1, j2, j3, j4))
            i, j = rows[:, :, None], rows[:, None, :]
            crossed = look.dense[_flat(size, j2, j1, j3, j4, i, j)]
            dev = b - crossing[j1, j4, i, j] * crossed
            keep = np.broadcast_to(look.cube[j1, j3, j] & look.cube[j4, j2, j], dev.shape)
            # np.abs of a complex array can round differently from the scalar
            # abs of the loop; hypot rounds as it does
            relation = max(relation, float(np.hypot(dev.real, dev.imag)[keep].max()))
    return orth, inverse, relation, yang_baxter


def residual_report(k):
    """Residuals of every implemented consistency relation at level k.

    Checks outside their solved range (the entrywise braid relation and the
    holed switching blocks above k = 3) report None instead of a number.
    Each call returns a new dict; a level's values are computed once per
    process.
    """
    check_level(k)
    if k > MAX_REPORT_LEVEL:
        raise ValueError(f"level-wide reports stop at level {MAX_REPORT_LEVEL}, got level {k}")
    return dict(_report(k))


# every input of the report is a per-level cache of read-only arrays, so a
# recomputation would give the same bits; the refusals above are never cached
@lru_cache(maxsize=MAX_REPORT_LEVEL)
def _report(k):
    s, t = _torus_data(k)
    t = np.diag(t)
    # the dense table of the lookup (91 MB at k = 14) is dropped on return
    look = _lookup(k)
    orth, inverse, relation, yang_baxter = _block_residuals(look)
    report = {
        "orthogonality": orth,
        "symmetry": _symmetry_residual(look),
        "pentagon": _pentagon_residual(look),
        "yang_baxter": yang_baxter,
        "braid_inverse": inverse,
        "braid_phase_relation": relation,
        "s_unitarity": float(np.abs(s @ s - np.eye(k + 1)).max()),
        "modular_relation": float(
            np.abs(np.linalg.matrix_power(s @ t, 3) - s @ s).max()
        ),
        "t_unimodularity": float(np.abs(np.abs(np.diag(t)) - 1.0).max()),
        "switching": max(switching_residuals(k).values()) if k <= 3 else None,
    }
    return tuple(report.items())
