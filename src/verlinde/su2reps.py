"""Finite-dimensional SU(2)/SL(2,C) representations and 3j intertwiners.

Irreps are modeled on degree-n homogeneous polynomials in two variables
(monomial basis x^(n-m) y^m), so matrix entries are exact polynomials in
the group element and continue to SL(2,C) without branch choices.  The
orthonormalized basis u_m = sqrt(C(n,m)) x^(n-m) y^m makes the action
unitary on SU(2); rep_matrix returns that version, for one group element
or an (N, 2, 2) batch of them, and rep_matrix_exact the plain monomial
one.  Both expand the same symmetric-power core.  Invariant 3j tensors are
cut out exactly as the kernel of the raising operator on the zero-weight
subspace.
"""

from __future__ import annotations

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


def _entries(g):
    if isinstance(g, np.ndarray):
        if g.shape != (2, 2):
            raise ValueError("group elements are 2x2 matrices")
        return g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    (a, b), (c, d) = g
    return a, b, c, d


def _check_det(a, b, c, d):
    det = a * d - b * c
    if isinstance(det, (int, Fraction)):
        if det != 1:
            raise ValueError(f"matrix must be unimodular, det = {det}")
    elif abs(det - 1) > 1e-12:
        raise ValueError(f"matrix must be unimodular, det = {det}")


def _binomial_power(u, v, p):
    # coefficients of (u*x + v*y)^p in y-degree order
    return [comb(p, s) * u ** (p - s) * v**s for s in range(p + 1)]


def _sym_power(n, a, b, c, d):
    # rep_matrix_exact's matrix; a, b, c, d may be ints, Fractions, complex
    # scalars or numpy arrays
    cols = []
    for j in range(n + 1):
        left = _binomial_power(a, c, n - j)
        right = _binomial_power(b, d, j)
        out = [0] * (n + 1)
        for s, ls in enumerate(left):
            for t, rt in enumerate(right):
                out[s + t] += ls * rt
        cols.append(out)
    return [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]


def rep_matrix_exact(n, g):
    """Symmetric-power matrix in the monomial basis; exact in g's entries.

    Column j holds the expansion of (a x + c y)^(n-j) (b x + d y)^j, the
    image of x^(n-j) y^j under substitution by rows of g.
    """
    _check_label(n)
    a, b, c, d = _entries(g)
    _check_det(a, b, c, d)
    return _sym_power(n, a, b, c, d)


def rep_matrix(n, g):
    """Irrep matrix in the orthonormal basis; unitary on SU(2).

    g is one 2x2 matrix, or an (N, 2, 2) batch whose determinants the
    caller has already checked; a batch gives an (N, n+1, n+1) array.
    """
    _check_label(n)
    g = np.asarray(g, dtype=complex)
    if g.ndim == 3 and g.shape[1:] == (2, 2):
        a, b, c, d = g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1]
    else:
        a, b, c, d = _entries(g)
        _check_det(a, b, c, d)
    raw = _sym_power(n, a, b, c, d)
    out = np.empty(g.shape[:-2] + (n + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        for j in range(n + 1):
            out[..., i, j] = raw[i][j] * sqrt(comb(n, j) / comb(n, i))
    return out


def character(n, g):
    """Trace of the irrep matrix (basis independent)."""
    raw = rep_matrix_exact(n, np.asarray(g, dtype=complex))
    return complex(sum(raw[i][i] for i in range(n + 1)))


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


def _null_space(rows, width):
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = -mat[rr][fc]
        basis.append(v)
    return basis


@lru_cache(maxsize=None)
def wigner_3j(n1, n2, n3):
    """Invariant 3j array, unit norm, first nonzero component positive.

    Exact construction: the invariant is the kernel of the total raising
    operator restricted to zero total weight (E x^(n-m) y^m has integer
    coefficients, so the kernel is solved over the rationals), then
    rescaled into the orthonormal basis and normalized.  The cache hands
    every caller the same array, so it is read-only.
    """
    labels = (n1, n2, n3)
    if not admissible_triple(*labels):
        raise AdmissibilityError(f"no invariant tensor for labels {labels}")

    def weight(idx):
        return sum(n - 2 * i for n, i in zip(labels, idx))

    all_idx = [
        (i1, i2, i3)
        for i1 in range(n1 + 1)
        for i2 in range(n2 + 1)
        for i3 in range(n3 + 1)
    ]
    zero = [idx for idx in all_idx if weight(idx) == 0]
    col = {idx: p for p, idx in enumerate(zero)}
    rows = []
    for tgt in (idx for idx in all_idx if weight(idx) == 2):
        row = [0] * len(zero)
        for slot in range(3):
            src = list(tgt)
            src[slot] += 1
            src = tuple(src)
            if src in col:
                row[col[src]] += tgt[slot] + 1
        if any(row):
            rows.append(row)
    basis = _null_space(rows, len(zero)) if zero else []
    if len(basis) != 1:
        raise AdmissibilityError(
            f"invariant multiplicity {len(basis)} for labels {labels}"
        )
    vec = basis[0]
    tensor = np.zeros((n1 + 1, n2 + 1, n3 + 1))
    for idx, p in col.items():
        scale = sqrt(comb(n1, idx[0]) * comb(n2, idx[1]) * comb(n3, idx[2]))
        tensor[idx] = float(vec[p]) / scale
    tensor /= np.linalg.norm(tensor)
    flat = tensor.reshape(-1)
    first = flat[np.flatnonzero(np.abs(flat) > 1e-14)[0]]
    if first < 0:
        tensor = -tensor
    tensor.setflags(write=False)
    return tensor
