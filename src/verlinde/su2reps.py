"""Finite-dimensional SU(2)/SL(2,C) representations and 3j intertwiners.

Irreps are modeled on degree-n homogeneous polynomials in two variables
(monomial basis x^(n-m) y^m), so matrix entries are polynomials in the
group element and continue to SL(2,C) without branch choices.  The
orthonormalized basis u_m = sqrt(C(n,m)) x^(n-m) y^m makes the action
unitary on SU(2).  rep_matrix returns that matrix for one group element
or an (N, 2, 2) batch of them, and character traces it.  Both run the
symmetric power's terms as a few array calls from a plan cached per tuple
of labels, so one element gives its one-row batch bit for bit.  One such
pass builds the matrices of several labels at once, or the kernels
omega . rho of a spin network's edges, with the pairing folded into the
plan.  Invariant 3j tensors are written down, not solved for: each is the
bracket product [12]^a [23]^b [31]^c of classical invariant theory,
[ij] = x_i y_j - x_j y_i.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, sqrt

import numpy as np


class AdmissibilityError(ValueError):
    """The label triple admits no invariant tensor."""


def _check_int(x, what, low=0):
    """x if it is an int, not a bool, and at least low; floats are never truncated."""
    if isinstance(x, bool) or not isinstance(x, int) or x < low:
        bound = {0: "a nonnegative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
        raise ValueError(f"{what} must be {bound}")
    return x


def _check_label(n):
    _check_int(n, "twice-spin label")


def check_level(k):
    """The level k of SU(2)_k: a positive int, and not a bool."""
    _check_int(k, "level", 1)


def check_labels(k, labels):
    """Level-k labels: twice-spin ints in 0..k, and not bools."""
    for n in labels:
        if _check_int(n, "twice-spin label") > k:
            raise ValueError(f"labels must lie in 0..{k}")


@lru_cache(maxsize=None)
def _label_terms(n):
    """The symmetric power's terms for label n as arrays, entries in row-major order.

    Column j of the monomial matrix expands (a x + c y)^(n-j) (b x + d y)^j,
    the image of x^(n-j) y^j under substitution by rows of g.  Term r of
    entry e = (n+1) i + j is comb(n-j, s) a^(n-j-s) c^s times
    comb(j, i-s) b^(j-i+s) d^(i-s), with s = max(0, i-j) + r ascending.
    Each entry has its orthonormal scale, its place e in the matrix and
    omega[n-i, i], the one nonzero of row n-i of the pairing.
    """
    terms = [
        (i * (n + 1) + j, r, comb(n - j, s), n - j - s, s, comb(j, i - s), j - i + s, i - s)
        for i in range(n + 1)
        for j in range(n + 1)
        for r, s in enumerate(range(max(0, i - j), min(i, n - j) + 1))
    ]
    scale = [sqrt(comb(n, j) / comb(n, i)) for i in range(n + 1) for j in range(n + 1)]
    sign = np.repeat(omega(n)[::-1].diagonal(), n + 1)
    return tuple(np.array(col) for col in zip(*terms)) + (np.array(scale), np.arange((n + 1) ** 2), sign)


@lru_cache(maxsize=256)
def _batch_plan(labels, paired):
    """Index tables that run the symmetric powers of a tuple of labels as arrays.

    Matrix k has label n = labels[k] and reads (a, b, c, d) from columns
    4k..4k+3 of its row; power p of column q is row 4Ep + q of a stacked
    table, E = len(labels).  Entries of all matrices run by falling term
    count, so each rank's terms, rows ends[r-1]:ends[r], fall on a prefix
    of them, and every entry sums its terms in _label_terms' order.  For N
    rows, matrix k fills N*lo:N*hi of a flat buffer, blocks[k] = (lo, hi,
    n+1), one row after another, so an entry of row r sits at N*start +
    r*size + spots.  A spin network keeps its plan as well, so a sweep over
    more networks than the cache holds rebuilds none on its second pass.
    """
    tables = [_label_terms(n) for n in labels]
    sizes = np.array([(n + 1) ** 2 for n in labels])
    lows = np.cumsum(sizes) - sizes
    entry, rank, cl, pa, pc, cr, pb, pd, scale, spots, sign = (np.concatenate(col) for col in zip(*tables))
    if paired:
        # omega . rho as a signed row reversal: entry (i, j) goes to row n-i
        # times omega[n-i, i]; both exact
        side = np.repeat(np.array(labels) + 1, sizes)  # n+1 of each entry
        spots = spots + (side - 1 - 2 * (spots // side)) * side
        scale = sign * scale
    matrix = np.repeat(np.arange(len(labels)), [len(t[0]) for t in tables])  # of each term
    entry = entry + lows[matrix]
    order = np.argsort(-np.bincount(entry), kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    terms = np.lexsort((place[entry], rank))
    width, col = 4 * len(labels), 4 * matrix[terms]
    owner = np.repeat(np.arange(len(labels)), sizes)[order]  # of each entry
    blocks = [(int(lo), int(lo + m), n + 1) for lo, m, n in zip(lows, sizes, labels)]
    return (
        cl[terms].astype(complex)[:, None], width * pa[terms] + col, width * pc[terms] + col + 2,
        cr[terms].astype(complex)[:, None], width * pb[terms] + col + 1, width * pd[terms] + col + 3,
        np.cumsum(np.bincount(rank)), scale[order].astype(complex)[:, None], spots[order][:, None],
        lows[owner][:, None], sizes[owner][:, None], blocks,
    )


def _rep_batch(plan, g):
    """Irrep matrices of labels[k] at g[:, k], for an (N, E, 2, 2) batch g
    ((N, 2, 2) for one label), plan = _batch_plan(labels, paired).

    One array pass builds every matrix, as E C-contiguous (N, n+1, n+1)
    views of one buffer.  numpy's array arithmetic rounds alike at any
    length or stride, so a matrix has the same bits in any batch.  With
    paired, matrix k is the kernel omega . rho; adding zero turns -0 into
    +0, as an einsum against omega did.
    """
    cl, pa, pc, cr, pb, pd, ends, scale, spots, start, size, blocks = plan
    n_rows = len(g)
    x = g.reshape(n_rows, -1).T
    powers = np.concatenate([x**p for p in range(max(m for _, _, m in blocks))])
    prods = cl * powers[pa] * powers[pc] * (cr * powers[pb] * powers[pd])
    acc = 0 + prods[: ends[0]]
    for lo, hi in zip(ends, ends[1:]):
        acc[: hi - lo] += prods[lo:hi]
    acc *= scale
    acc += 0
    where = size * np.arange(n_rows) + (n_rows * start + spots)
    out = np.empty(n_rows * blocks[-1][1], dtype=complex)
    out[where] = acc
    return [out[n_rows * lo : n_rows * hi].reshape(n_rows, m, m) for lo, hi, m in blocks]


def rep_matrix(n, g):
    """Irrep matrix in the orthonormal basis; unitary on SU(2).

    g is one unimodular 2x2 matrix, or an (N, 2, 2) batch whose
    determinants the caller has already checked.  Both come from the
    one-label case of _rep_batch: one element is the row of its one-row
    batch, and a batch a C-contiguous (N, n+1, n+1) array.
    """
    _check_label(n)
    g = np.asarray(g, dtype=complex)
    if g.ndim == 3 and g.shape[1:] == (2, 2):
        return _rep_batch(_batch_plan((n,), False), g)[0]
    if g.shape != (2, 2):
        raise ValueError("group elements are 2x2 matrices")
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if not abs(det - 1) <= 1e-12:  # a NaN determinant fails too
        raise ValueError(f"matrix must be unimodular, det = {det}")
    return _rep_batch(_batch_plan((n,), False), g[None])[0][0]


def character(n, g):
    """Trace of the irrep matrix (basis independent)."""
    return complex(np.trace(rep_matrix(n, g)))


def casimir(n):
    """Casimir eigenvalue j(j+1) with j = n/2, exact."""
    _check_label(n)
    j = Fraction(n, 2)
    return j * (j + 1)


def omega(n):
    """Invariant bilinear pairing on V_n in the orthonormal basis.

    Antidiagonal signs (-1)^i; symplectic for odd n, symmetric for even.
    """
    _check_label(n)
    w = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        w[i, n - i] = (-1) ** i
    return w


def admissible_triple(n1, n2, n3):
    """Parity and triangle conditions for an invariant in the triple product."""
    for n in (n1, n2, n3):
        _check_label(n)
    if (n1 + n2 + n3) % 2:
        return False
    return abs(n1 - n2) <= n3 <= n1 + n2


@lru_cache(maxsize=None)
def wigner_3j(n1, n2, n3):
    """Invariant 3j array, unit norm, first nonzero component positive.

    Exact construction: with a, b, c the numbers of (1,2), (2,3) and (3,1)
    strands, the invariant is the bracket product [12]^a [23]^b [31]^c,
    [ij] = x_i y_j - x_j y_i, whose monomial coefficients are integers by the
    binomial theorem; it is rescaled into the orthonormal basis and
    normalized.  The cache hands every caller the same array, so it is
    read-only.
    """
    labels = (n1, n2, n3)
    if not admissible_triple(*labels):
        raise AdmissibilityError(f"no invariant tensor for labels {labels}")
    a, b, c = (n1 + n2 - n3) // 2, (n2 + n3 - n1) // 2, (n3 + n1 - n2) // 2
    coeff = {}
    for s, t, u in itertools.product(range(a + 1), range(b + 1), range(c + 1)):
        # y-degrees on the three slots of this term of the expansion
        idx = (s + c - u, a - s + t, b - t + u)
        term = (-1) ** (s + t + u) * comb(a, s) * comb(b, t) * comb(c, u)
        coeff[idx] = coeff.get(idx, 0) + term
    # the lexicographically last nonzero coefficient is scaled to 1: that fixes
    # the overall sign before the floats are taken, and with it the sign of
    # the zero entries after the phase flip below
    last = coeff[max(idx for idx, x in coeff.items() if x)]
    tensor = np.zeros((n1 + 1, n2 + 1, n3 + 1))
    for idx, x in coeff.items():
        scale = sqrt(comb(n1, idx[0]) * comb(n2, idx[1]) * comb(n3, idx[2]))
        tensor[idx] = float(Fraction(x, last)) / scale
    tensor /= np.linalg.norm(tensor)
    flat = tensor.reshape(-1)
    first = flat[np.flatnonzero(np.abs(flat) > 1e-14)[0]]
    if first < 0:
        tensor = -tensor
    tensor.setflags(write=False)
    return tensor
