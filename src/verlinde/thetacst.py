"""Theta series with characteristics and the coherent state transforms.

The abelian half works with Fourier series on R^g/Z^g relative to a period
matrix Omega: the level-k theta series with characteristic, coset delta
distributions, and the time-t transform that damps the coefficient at n by
exp(t i pi n.Omega.n), turning coset distributions into finite series.

The nonabelian half replaces the torus by SU(2)^g up to simultaneous
conjugation.  A colored trivalent graph reduces to one matrix block traced
against a product irrep, and the Omega-weighted invariant Laplacian acts on
that block by an explicit matrix.  The graph's theta value is the block
flowed for time 1/k and traced at a Schottky point.

The lattice sums run one sup-norm shell at a time.  `_shell` walks only
the shell's surface, and a shell that fits in one run of rows is built once
per process and kept read-only.  Each shell's quadratic and linear forms
are computed as arrays whose stacked (N, 1, g) rows make the BLAS call that
the one-row product makes, so every term has the bits it has when computed
alone.  The terms are then formed by mapping Python's own complex operators
and cmath.exp over the rows, never by a NumPy complex ufunc, whose loops may
fuse multiply-adds, and summed one after another in lattice order with
functools.reduce, as a one-term-at-a-time loop sums them (sum() compensates
float sums from Python 3.12 on).

Residues are integers (numpy ints pass), and irrep labels are Python
ints; a float or a bool is refused, never truncated.
"""

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .gauge import _program, _run, spin_network
from .graphs import chord_edges, genus
from .su2reps import AdmissibilityError, _check_label, casimir, check_level, omega, rep_matrix

_MAX_RADIUS = 60
# rows per array block of lattice points or coefficients: a block's arrays
# and .tolist() lists stay near 100 kB, and its NumPy calls cost little
# beside the cmath loop over its rows
_BLOCK_ROWS = 1 << 10
_OUT_OF_RANGE = "theta value lies outside the float range at this point"
# the factors of 1j * math.pi * x and 2j * math.pi * x, which Python groups
# as (1j * math.pi) * x
_I_PI = 1j * math.pi
_TWO_I_PI = 2j * math.pi


# -- period matrices and characteristics ---------------------------------------


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """Complex symmetric matrix with positive definite imaginary part."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("period matrix must be square and nonempty")
        if not np.isfinite(m).all():
            raise ValueError("period matrix entries must be finite")
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


def _point(z, g):
    """Finite length-g argument with each Re z_i reduced by fmod, which is
    exact and keeps |Re z_i| < 1; both series are 1-periodic in Re z_i, and
    unreduced a large Re z costs the phases exp(2 pi i m.z) every digit."""
    zv = np.array(z, dtype=complex).reshape(-1)
    if zv.shape != (g,):
        raise ValueError("argument vector has the wrong length")
    if not np.isfinite(zv).all():
        raise ValueError("argument vector entries must be finite")
    zv.real = np.fmod(zv.real, 1.0)
    return zv


def _shell(g, s):
    """Lattice points of sup norm exactly s as float rows, in the order of
    itertools.product over [-s, s]^g, in runs of at most _BLOCK_ROWS rows.

    Only the surface is walked, slab by slab over the first coordinate: the
    full (g-1)-cube where |c_0| = s and the (g-1)-shell elsewhere, so no
    interior point is visited.  A shell of at most _BLOCK_ROWS points comes
    as one read-only array, built once per (g, s, run size) and kept in a
    bounded cache; that covers every shell a well-conditioned Omega reaches
    at g <= 3.  A larger shell is made run by run, so no array outgrows one
    run whatever s and g.
    """
    cap = _BLOCK_ROWS
    if _shell_size(g, s) <= cap:
        yield _small_shell(g, s, cap)
    else:
        yield from _walk(g, s, cap)


def _shell_size(g, s):
    return (2 * s + 1) ** g - (2 * s - 1) ** g if s else 1


# at the default run size the shells that fit one run are every s at g <= 2,
# s <= 6 at g = 3, s <= 2 at g = 4, s <= 1 at g = 5 and 6 and s = 0 beyond:
# 136 up to g = 6, about 0.35 MB in all
@functools.lru_cache(maxsize=256)
def _small_shell(g, s, cap):
    rows = np.concatenate(list(_walk(g, s, cap)))
    rows.flags.writeable = False
    return rows


def _walk(g, s, cap):
    """The shell's runs of at most cap rows, slab by slab over c_0."""
    if s == 0:
        yield np.zeros((1, g))
        return
    for run in _cube(g - 1, s, cap):
        yield _stack([-s], run)
    if g > 1:
        if _shell_size(g - 1, s) <= cap:
            # one cached (g-1)-shell serves every inner slab, several to a run
            rows = _small_shell(g - 1, s, cap)
            per = cap // len(rows)
            for c in range(1 - s, s, per):
                yield _stack(range(c, min(c + per, s)), rows)
        else:
            for c in range(1 - s, s):
                for run in _walk(g - 1, s, cap):
                    yield _stack([c], run)
    for run in _cube(g - 1, s, cap):
        yield _stack([s], run)


def _cube(j, s, cap):
    """The cube [-s, s]^j as float rows in product order, cap rows a run."""
    width = 2 * s + 1
    powers = width ** np.arange(j - 1, -1, -1)
    for start in range(0, width**j, cap):
        flat = np.arange(start, min(start + cap, width**j))
        yield (flat[:, None] // powers % width - s).astype(float)


def _stack(firsts, rows):
    """rows after each first coordinate in turn, as float rows."""
    firsts = np.asarray(firsts, dtype=float)
    return np.column_stack((np.repeat(firsts, len(rows)), np.tile(rows, (len(firsts), 1))))


def _quad(m, mat):
    """m_i . mat . m_i for each row m_i, as `m_i @ mat @ m_i` computes it.

    The stacked (N, 1, g) operands make one BLAS call per row, the call the
    one-row product makes, so the bits are the same; a single (N, g) @ (g, g)
    product or einsum rounds differently on some BLAS builds.
    """
    return np.matmul(np.matmul(m[:, None, :], mat), m[:, :, None])[:, 0, 0]


def theta_char(char, om, z, tol=1e-12):
    """Level-k theta series sum over l + k Z^g, truncated below tol.

    Each summand is exp(i pi m.(Omega/k).m + 2 pi i m.z) with m = l + k n.
    The lattice radius adapts to tol, which must be finite and positive.
    Each sup-norm shell of n is evaluated as arrays (see `_quad`), then
    summed term by term in lattice order, so the bits are those of the
    one-term-at-a-time sum.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be finite and positive")
    pm = _period(om)
    if pm.genus != char.genus:
        raise ValueError("characteristic and period matrix genus differ")
    zv = _point(z, pm.genus)
    k = char.level
    l = np.asarray(char.vector, dtype=float)
    # the summand peaks near n = -(Im Omega)^{-1} Im z; only start testing
    # the tail once the shells have cleared the peak
    drift = np.linalg.solve(pm.matrix.imag, zv.imag)
    s_min = int(np.ceil(np.abs(drift).max())) + 1
    total = 0j
    small = 0
    for s in range(_MAX_RADIUS + 1):
        mag = 0.0
        for pts in _shell(pm.genus, s):
            m = l + k * pts
            quads = map(operator.mul, itertools.repeat(_I_PI), (_quad(m, pm.matrix) / k).tolist())
            phases = map(operator.mul, itertools.repeat(_TWO_I_PI),
                         np.matmul(m[:, None, :], zv)[:, 0].tolist())
            try:
                terms = list(map(cmath.exp, map(operator.add, quads, phases)))
            except OverflowError:
                raise ValueError(_OUT_OF_RANGE) from None
            total = functools.reduce(operator.add, terms, total)
            mag = functools.reduce(operator.add, map(abs, terms), mag)
        if s >= s_min:
            small = small + 1 if mag < tol / 20 else 0
            if small >= 2:
                # each term can fit in a float while their sum does not
                if not cmath.isfinite(total):
                    raise ValueError(_OUT_OF_RANGE)
                return total
    raise ValueError(f"theta series not converged within lattice radius {_MAX_RADIUS}")


# -- Fourier series on the torus --------------------------------------------------


@dataclass(frozen=True, eq=False)
class FourierSeries:
    """Finite Fourier series on R^g/Z^g, as `abelian_cst` returns it: a dict
    from index tuples of Python ints to complex coefficients.  A coset
    distribution is its `ThetaCharacteristic` (see `delta_distribution`)."""

    genus: int
    coefficients: dict


def delta_distribution(l, k):
    """Unit Fourier coefficients on the coset l + k Z^g, named by its
    characteristic l at level k."""
    return ThetaCharacteristic(k, tuple(l))


def evaluate_series(series, z):
    """Pointwise sum of a finite series, coefficients times exp(2 pi i n.z).

    The n.z come from stacked products over blocks of _BLOCK_ROWS indices,
    one BLAS call per index as `n @ z` makes it; the sum then runs in
    coefficient order.
    """
    if not isinstance(series, FourierSeries):
        raise ValueError("only finite series evaluate pointwise")
    g = series.genus
    coefficients = series.coefficients
    if any(map(g.__ne__, map(len, coefficients))):
        raise ValueError(f"series indices must have {g} entries")
    zv = _point(z, g)
    total = 0j
    entries = itertools.chain.from_iterable(coefficients)
    values = iter(coefficients.values())
    for start in range(0, len(coefficients), _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, len(coefficients) - start)
        idx = np.fromiter(entries, float, count=rows * g).reshape(rows, g)
        phases = map(operator.mul, itertools.repeat(_TWO_I_PI),
                     np.matmul(idx[:, None, :], zv)[:, 0].tolist())
        terms = map(operator.mul, itertools.islice(values, rows), map(cmath.exp, phases))
        total = functools.reduce(operator.add, terms, total)
    return total


def abelian_cst(char, om, t):
    """Time-t transform of a coset distribution, given as its
    `ThetaCharacteristic`: the coefficient at m in l + k Z^g picks up
    exp(t i pi m.Omega.m), and t must be finite and positive.

    The result is a finite series, materialized out to where the damped
    coefficients stop mattering on the strip |Im z_i| <= 1; off that strip
    the finite series does not approximate the transform.  Each shell's
    quadratic forms are arrays with the bits of the one-term form (see
    `_quad`), and the coefficients are stored in lattice order.
    """
    if not isinstance(char, ThetaCharacteristic):
        raise ValueError("the transform takes a coset distribution (see delta_distribution)")
    pm = _period(om)
    if pm.genus != char.genus:
        raise ValueError("characteristic and period matrix genus differ")
    if not (math.isfinite(t) and t > 0):
        raise ValueError("transform time must be finite and positive")
    k = char.level
    lv = np.asarray(char.vector, dtype=float)
    im = pm.matrix.imag
    scale = _I_PI * t  # 1j * math.pi * t * quad groups as ((1j * math.pi) * t) * quad
    coeffs = {}
    small = 0
    for s in range(_MAX_RADIUS + 1):
        largest = 0.0
        for pts in _shell(char.genus, s):
            m = lv + k * pts
            phases = map(operator.mul, itertools.repeat(scale), _quad(m, pm.matrix).tolist())
            coeffs.update(zip(map(tuple, m.astype(int).tolist()), map(cmath.exp, phases)))
            # decay against a unit strip of imaginary displacement, so the
            # result still evaluates accurately at moderately complex points;
            # a positive exponent never falls below the cutoff, so capping it
            # at 0 keeps exp from overflowing on nearly real period matrices.
            # exp is monotone, so the block's largest exponent gives its
            # largest weight; the entries of m are integers, so each row's
            # |m| sum is exact
            exponent = (-math.pi * t) * _quad(m, im) + (2 * math.pi) * np.abs(m).sum(axis=1)
            largest = max(largest, math.exp(min(0.0, exponent.max())))
        small = small + 1 if largest < 1e-15 else 0
        if small >= 2:
            return FourierSeries(char.genus, coeffs)
    raise ValueError(
        f"damped coset series not converged within lattice radius {_MAX_RADIUS}"
    )


def transform_residual(om, k, points, rng):
    """Largest |evaluate_series - theta_char| over every characteristic in
    (Z/k)^g, each transformed once at time 1/k, at `points` random z.

    Each z has Re z_i uniform in [-1, 1) and Im z_i in [-0.2, 0.2), drawn
    from `rng` real parts first; every characteristic is compared at each z.
    """
    check_level(k)
    pm = _period(om)
    chars = [delta_distribution(ch, k) for ch in itertools.product(range(k), repeat=pm.genus)]
    transformed = [(char, abelian_cst(char, pm, 1.0 / k)) for char in chars]
    worst = 0.0
    for _ in range(points):
        z = rng.uniform(-1.0, 1.0, size=pm.genus) + 1j * rng.uniform(-0.2, 0.2, size=pm.genus)
        for char, series in transformed:
            worst = max(worst, abs(evaluate_series(series, z) - theta_char(char, pm, z)))
    return worst


# -- the invariant Laplacian on one block ---------------------------------------------


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
    explicit matrix; a diagonal Omega gives a scalar (see nonabelian_cst).
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


# -- one block on SU(2)^g ---------------------------------------------------------


def pw_evaluate(labels, block, point):
    """tr(rho_labels(point) . block), with one unimodular matrix per handle."""
    if len(point) != len(labels):
        raise ValueError("point has the wrong number of handle matrices")
    rep = np.eye(1, dtype=complex)
    for n, w in zip(labels, point):
        rep = np.kron(rep, rep_matrix(n, w))
    return complex(np.trace(rep @ block))


def nonabelian_cst(labels, block, om, k):
    """Level-k transform of one block: exp(t/2 Laplacian) . block at t = 1/k.

    A diagonal Omega acts by the scalar -lam with lam the heat eigenvalue
    sum_a (-i Omega_aa / 2 pi) casimir(n_a); any other mixes the block and
    is exponentiated as the matrix su2_laplacian_block.
    """
    pm = _period(om)
    check_level(k)
    if np.abs(pm.matrix - np.diag(np.diag(pm.matrix))).max() <= 1e-14:
        lam = sum(
            -1j * pm.matrix[a, a] / (2 * math.pi) * float(casimir(n))
            for a, n in enumerate(_labels(labels, pm.genus))
        )
        return cmath.exp(-lam / (2 * k)) * block
    from scipy.linalg import expm  # imported here: at module level it doubles the cli import time

    t = 1 / k
    return expm(su2_laplacian_block(labels, pm) * (t / 2)) @ block


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
    # tree edges carry the identity holonomy; on a chord the irrep of the
    # free variable is peeled off, leaving its row index open
    edges = graph.edges()
    subscripts = tuple(tuple(graph.star(v)) for v in range(graph.n_vertices))
    subscripts += tuple((d, aux[d]) if d in aux else (d, p) for d, p in edges)
    out = tuple(graph.involution[e] for e in chords) + tuple(aux[e] for e in chords)
    kernels = [omega(coloring[d]).astype(complex) for d, _ in edges]
    steps, term = _program(subscripts + (out,), len(subscripts))  # no operand varies
    tensor = _run(steps, [*snf.vertex_tensors, *kernels]).transpose([term.index(ix) for ix in out])
    dim = int(np.prod([n + 1 for n in labels]))
    return labels, tensor.reshape(dim, dim)


def nonabelian_theta(graph, coloring, k, om, point):
    """Level-k theta value of a colored graph at a conjugation orbit.

    The graph function reduces to a single block via `spin_network_blocks`;
    the value is that block flowed by `nonabelian_cst` and traced against
    the point, one SU(2) or SL(2, C) matrix per chord.
    """
    pm = _period(om)
    if genus(graph) != pm.genus:
        raise ValueError("graph genus and period matrix genus differ")
    check_level(k)
    labels, block = spin_network_blocks(graph, coloring)
    for v in range(graph.n_vertices):
        colors = [coloring[graph.edge_of(d)] for d in graph.star(v)]
        if sum(colors) > 2 * k:
            raise AdmissibilityError(f"vertex {v} colors exceed level {k}: {colors}")
    return pw_evaluate(labels, nonabelian_cst(labels, block, pm, k), point)
