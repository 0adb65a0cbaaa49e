"""Theta series with characteristics and the coherent state transforms.

The abelian half works with Fourier series on R^g/Z^g relative to a period
matrix Omega: the level-k theta series with characteristic, coset delta
distributions, and the time-t transform that damps the coefficient at n by
exp(t i pi n.Omega.n), turning distributions into holomorphic sums.

The nonabelian half replaces the torus by SU(2)^g up to simultaneous
conjugation.  Functions are finite sums of matrix blocks traced against
product irreps, and the Omega-weighted invariant Laplacian acts on each block
by an explicit matrix.  A colored trivalent graph reduces to one block; its
theta value is that block flowed for time 1/k and traced at a Schottky point.

Residues, Fourier indices and irrep labels are integers (numpy ints pass);
a float or a bool is refused, never truncated.
"""

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .gauge import spin_network
from .graphs import chord_edges, genus
from .su2reps import AdmissibilityError, _check_label, casimir, check_level, omega, rep_matrix

_MAX_RADIUS = 60


# -- period matrices and characteristics ---------------------------------------


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """Complex symmetric matrix with positive definite imaginary part."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("period matrix must be square and nonempty")
        if np.abs(m - m.T).max() > 1e-12:
            raise ValueError("period matrix must be symmetric")
        try:
            np.linalg.cholesky(m.imag)
        except np.linalg.LinAlgError:
            raise ValueError("imaginary part must be positive definite") from None
        object.__setattr__(self, "matrix", m)

    @property
    def genus(self):
        return self.matrix.shape[0]


def _period(om):
    return om if isinstance(om, PeriodMatrix) else PeriodMatrix(om)


def _indices(vec, what):
    """Integer entries, numpy ints included; floats and bools are refused."""
    vec = tuple(vec)
    if any(isinstance(v, bool) or not hasattr(v, "__index__") for v in vec):
        raise ValueError(f"{what} must be integers")
    return tuple(operator.index(v) for v in vec)


def _labels(labels, g):
    """One twice-spin int label per handle of a genus-g block."""
    labels = tuple(labels)
    for n in labels:
        _check_label(n)
    if len(labels) != g:
        raise ValueError(f"need {g} labels, one per handle, got {len(labels)}")
    return labels


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Residue vector in (Z/kZ)^g at level k, entries kept in [0, k)."""

    level: int
    vector: tuple

    def __post_init__(self):
        check_level(self.level)
        vec = _indices(self.vector, "characteristic entries")
        if not vec:
            raise ValueError("characteristic needs at least one entry")
        if any(v < 0 or v >= self.level for v in vec):
            raise ValueError("characteristic entries must lie in [0, level)")
        object.__setattr__(self, "vector", vec)

    @property
    def genus(self):
        return len(self.vector)


# -- theta series ---------------------------------------------------------------


def _sup_shell(g, s):
    """Lattice points of sup norm exactly s."""
    if s == 0:
        yield (0,) * g
        return
    for pt in itertools.product(range(-s, s + 1), repeat=g):
        if max(abs(c) for c in pt) == s:
            yield pt


def _theta_scan(char, om, z, tol, radius):
    pm = _period(om)
    if pm.genus != char.genus:
        raise ValueError("characteristic and period matrix genus differ")
    zv = np.asarray(z, dtype=complex).reshape(-1)
    if zv.shape != (pm.genus,):
        raise ValueError("argument vector has the wrong length")
    k = char.level
    l = np.asarray(char.vector, dtype=float)
    # the summand peaks near n = -(Im Omega)^{-1} Im z; only start testing
    # the tail once the shells have cleared the peak
    drift = np.linalg.solve(pm.matrix.imag, zv.imag)
    s_min = int(np.ceil(np.abs(drift).max())) + 1
    total = 0j
    small = 0
    cap = _MAX_RADIUS if radius is None else radius
    for s in range(cap + 1):
        mag = 0.0
        for n in _sup_shell(pm.genus, s):
            m = l + k * np.asarray(n, dtype=float)
            quad = m @ pm.matrix @ m / k
            term = cmath.exp(1j * math.pi * quad + 2j * math.pi * (m @ zv))
            total += term
            mag += abs(term)
        if radius is None and s >= s_min:
            small = small + 1 if mag < tol / 20 else 0
            if small >= 2:
                return total, s
    if radius is None:
        raise ValueError(
            f"theta series not converged within lattice radius {_MAX_RADIUS}"
        )
    return total, radius


def theta_char(char, om, z, tol=1e-12, radius=None):
    """Level-k theta series sum over l + k Z^g, truncated below tol.

    Each summand is exp(i pi m.(Omega/k).m + 2 pi i m.z) with m = l + k n.
    The lattice radius adapts to tol unless `radius` pins it.
    """
    value, _ = _theta_scan(char, om, z, tol, radius)
    return value


def truncation_radius(char, om, z, tol=1e-12):
    """Sup-norm radius at which the adaptive theta sum stops."""
    _, r = _theta_scan(char, om, z, tol, None)
    return r


# -- Fourier series on the torus --------------------------------------------------


@dataclass(frozen=True, eq=False)
class FourierSeries:
    """Fourier coefficients on R^g/Z^g.

    Finite series carry an explicit coefficient dict.  Coset distributions
    (unit coefficients on l + k Z^g) carry `coset=(l, k)` with coefficients
    None.
    """

    genus: int
    coefficients: dict | None
    coset: tuple | None = None

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be at least 1")
        if (self.coefficients is None) == (self.coset is None):
            raise ValueError("exactly one of coefficients and coset is required")
        if self.coefficients is not None:
            coeffs = {}
            for n, a in self.coefficients.items():
                key = _indices(n, "coefficient indices")
                if len(key) != self.genus:
                    raise ValueError("coefficient index has the wrong length")
                coeffs[key] = complex(a)
            object.__setattr__(self, "coefficients", coeffs)
        else:
            l, k = self.coset
            check_level(k)
            l = _indices(l, "coset residues")
            if len(l) != self.genus or any(v < 0 or v >= k for v in l):
                raise ValueError("coset needs residues in [0, k)")
            object.__setattr__(self, "coset", (l, k))


def delta_distribution(l, k):
    """Unit Fourier coefficients on the coset l + k Z^g."""
    return FourierSeries(len(tuple(l)), None, coset=(tuple(l), k))


def evaluate_series(series, z):
    """Pointwise sum of a finite series, coefficients times exp(2 pi i n.z)."""
    if series.coefficients is None:
        raise ValueError("only finite series evaluate pointwise")
    zv = np.asarray(z, dtype=complex).reshape(-1)
    if zv.shape != (series.genus,):
        raise ValueError("argument vector has the wrong length")
    total = 0j
    for n, a in series.coefficients.items():
        total += a * cmath.exp(2j * math.pi * (np.asarray(n, float) @ zv))
    return total


def abelian_cst(series, om, t):
    """Time-t transform: the coefficient at n picks up exp(t i pi n.Omega.n).

    Coset distributions come out as finite series, materialized out to where
    the damped coefficients stop mattering.
    """
    pm = _period(om)
    if pm.genus != series.genus:
        raise ValueError("series and period matrix genus differ")
    if t < 0:
        raise ValueError("transform time must be nonnegative")
    if t == 0:
        return series
    if series.coefficients is not None:
        damped = {
            n: a * cmath.exp(1j * math.pi * t * (np.asarray(n, float) @ pm.matrix @ n))
            for n, a in series.coefficients.items()
        }
        return FourierSeries(series.genus, damped)
    l, k = series.coset
    lv = np.asarray(l, dtype=float)
    im = pm.matrix.imag
    coeffs = {}
    small = 0
    for s in range(_MAX_RADIUS + 1):
        largest = 0.0
        for n in _sup_shell(series.genus, s):
            m = lv + k * np.asarray(n, dtype=float)
            coeffs[tuple(int(v) for v in m)] = cmath.exp(
                1j * math.pi * t * (m @ pm.matrix @ m)
            )
            # decay against a unit strip of imaginary displacement, so the
            # result still evaluates accurately at moderately complex points;
            # a positive exponent never falls below the cutoff, so capping it
            # at 0 keeps exp from overflowing on nearly real period matrices
            weight = math.exp(
                min(0.0, -math.pi * t * (m @ im @ m) + 2 * math.pi * np.abs(m).sum())
            )
            largest = max(largest, weight)
        small = small + 1 if largest < 1e-15 else 0
        if small >= 2:
            return FourierSeries(series.genus, coeffs)
    raise ValueError(
        f"damped coset series not converged within lattice radius {_MAX_RADIUS}"
    )


# -- the invariant Laplacian on block series ---------------------------------------


def _su2_generators(n):
    """Anti-hermitian su(2) basis on the (n+1)-dimensional irrep.

    Built from the ladder operators in the orthonormal basis; the basis is
    orthogonal for the Killing pairing and sum_mu X_mu^2 = -casimir(n).
    """
    dim = n + 1
    e = np.zeros((dim, dim))
    f = np.zeros((dim, dim))
    h = np.zeros((dim, dim))
    for m in range(dim):
        h[m, m] = n - 2 * m
        if m >= 1:
            e[m - 1, m] = math.sqrt(m * (n - m + 1))
        if m + 1 < dim:
            f[m + 1, m] = math.sqrt((n - m) * (m + 1))
    return (-0.5j * (e + f), -0.5 * (e - f) + 0j, -0.5j * h)


def _lifted_generators(labels):
    dims = [n + 1 for n in labels]
    lifted = []
    for a, n in enumerate(labels):
        row = []
        for x in _su2_generators(n):
            m = np.eye(1, dtype=complex)
            for i, d in enumerate(dims):
                m = np.kron(m, x if i == a else np.eye(d))
            row.append(m)
        lifted.append(row)
    return lifted


def su2_laplacian_block(labels, om):
    """Matrix of the Omega-weighted invariant Laplacian on one block.

    Vector fields act on a block by left multiplication of the lifted
    generators, so -(i/2 pi) sum_ab Omega_ab sum_mu X_mu^(a) X_mu^(b) is an
    explicit matrix; a diagonal Omega gives the scalar -laplacian_eigenvalue.
    """
    pm = _period(om)
    labels = _labels(labels, pm.genus)
    total = int(np.prod([n + 1 for n in labels]))
    lifted = _lifted_generators(labels)
    out = np.zeros((total, total), dtype=complex)
    for a in range(pm.genus):
        for b in range(pm.genus):
            w = -1j * pm.matrix[a, b] / (2 * math.pi)
            if w == 0:
                continue
            for mu in range(3):
                out += w * (lifted[a][mu] @ lifted[b][mu])
    return out


def laplacian_eigenvalue(labels, om):
    """Heat eigenvalue of a block for diagonal Omega.

    Equals sum_a (-i Omega_aa / 2 pi) casimir(n_a); off-diagonal period
    matrices mix the block and have no single eigenvalue.
    """
    pm = _period(om)
    labels = _labels(labels, pm.genus)
    off = pm.matrix - np.diag(np.diag(pm.matrix))
    if np.abs(off).max() > 1e-14:
        raise ValueError("eigenvalue only defined for diagonal period matrices")
    return sum(
        -1j * pm.matrix[a, a] / (2 * math.pi) * float(casimir(n))
        for a, n in enumerate(labels)
    )


# -- block series on SU(2)^g --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PWSeries:
    """Finitely many matrix blocks indexed by product-irrep labels."""

    genus: int
    blocks: dict

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be at least 1")
        blocks = {}
        for labels, b in self.blocks.items():
            key = _labels(labels, self.genus)
            m = np.asarray(b, dtype=complex)
            dim = int(np.prod([n + 1 for n in key]))
            if m.shape != (dim, dim):
                raise ValueError(
                    f"block {key} must be {dim} x {dim}, got {m.shape}"
                )
            blocks[key] = m
        object.__setattr__(self, "blocks", blocks)


@dataclass(frozen=True, eq=False)
class SchottkyPoint:
    """One unimodular matrix per handle, taken up to overall conjugation."""

    matrices: tuple

    def __post_init__(self):
        mats = []
        for m in self.matrices:
            a = np.asarray(m, dtype=complex)
            if a.shape != (2, 2):
                raise ValueError("handle matrices must be 2 x 2")
            det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            if abs(det - 1) > 1e-9:
                raise ValueError("handle matrices must have determinant one")
            mats.append(a)
        if not mats:
            raise ValueError("need at least one handle matrix")
        object.__setattr__(self, "matrices", tuple(mats))


def _point_matrices(point, genus):
    mats = point.matrices if isinstance(point, SchottkyPoint) else tuple(
        np.asarray(m, dtype=complex) for m in point
    )
    if len(mats) != genus:
        raise ValueError("point has the wrong number of handle matrices")
    return mats


def pw_evaluate(series, point):
    """Sum over blocks of tr(rho_labels(point) . block)."""
    mats = _point_matrices(point, series.genus)
    total = 0j
    for labels, block in series.blocks.items():
        rep = np.eye(1, dtype=complex)
        for n, w in zip(labels, mats):
            rep = np.kron(rep, rep_matrix(n, w))
        total += np.trace(rep @ block)
    return complex(total)


def nonabelian_cst(series, om, t):
    """Flow a block series for time t: each block is hit by exp(t/2 Laplacian)."""
    pm = _period(om)
    if pm.genus != series.genus:
        raise ValueError("series and period matrix genus differ")
    if t < 0:
        raise ValueError("transform time must be nonnegative")
    if t == 0:
        return series
    blocks = {
        labels: expm(su2_laplacian_block(labels, pm) * (t / 2)) @ b
        for labels, b in series.blocks.items()
    }
    return PWSeries(series.genus, blocks)


# -- graph functions as single blocks ------------------------------------------------


def spin_network_blocks(graph, coloring):
    """Reduce a colored graph function to one product-irrep block.

    Collapsing a spanning tree leaves one SU(2) variable per chord, and the
    holonomy function of those variables is tr(rho_labels(w) . block) with
    labels the chord colors.  Returns (labels, block).
    """
    snf = spin_network(graph, coloring)
    chords = chord_edges(graph)
    labels = tuple(int(coloring[e]) for e in chords)
    aux = {e: graph.n_darts + i for i, e in enumerate(chords)}
    operands = []
    for v in range(graph.n_vertices):
        operands += [snf.vertex_tensors[v], list(graph.star(v))]
    for d, p in graph.edges():
        kernel = omega(coloring[d]).astype(complex)
        # tree edges carry the identity holonomy; on a chord the irrep of the
        # free variable is peeled off, leaving its row index open
        operands += [kernel, [d, aux[d]] if d in aux else [d, p]]
    out = [graph.involution[e] for e in chords] + [aux[e] for e in chords]
    tensor = np.einsum(*operands, out, optimize=True)
    dim = int(np.prod([n + 1 for n in labels]))
    return labels, tensor.reshape(dim, dim)


def nonabelian_theta(graph, coloring, k, om, point):
    """Level-k theta value of a colored graph at a conjugation orbit.

    The graph function reduces to a single block via `spin_network_blocks`;
    the value is that block flowed for time 1/k and traced against the
    point.  A diagonal Omega flows by the scalar `laplacian_eigenvalue`, any
    other by `nonabelian_cst`.
    """
    pm = _period(om)
    g = genus(graph)
    if g != pm.genus:
        raise ValueError("graph genus and period matrix genus differ")
    check_level(k)
    labels, block = spin_network_blocks(graph, coloring)
    for v in range(graph.n_vertices):
        colors = [coloring[graph.edge_of(d)] for d in graph.star(v)]
        if sum(colors) > 2 * k:
            raise AdmissibilityError(f"vertex {v} colors exceed level {k}: {colors}")
    if np.abs(pm.matrix - np.diag(np.diag(pm.matrix))).max() <= 1e-14:
        damped = cmath.exp(-laplacian_eigenvalue(labels, pm) / (2 * k)) * block
        return pw_evaluate(PWSeries(g, {labels: damped}), point)
    return pw_evaluate(nonabelian_cst(PWSeries(g, {labels: block}), pm, 1 / k), point)
