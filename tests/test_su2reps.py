"""Tests for SU(2)/SL(2,C) irreps, characters, and 3j intertwiners.

Wigner tensors are cross-checked against sympy.physics.wigner up to a
global sign, which is the only freedom left by unit normalization.
"""

import ast
import cmath
import itertools
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from verlinde.su2reps import (
    AdmissibilityError,
    _check_int,
    admissible_triple,
    casimir,
    character,
    omega,
    rep_matrix,
    wigner_3j,
)


def random_su2(rng):
    a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / norm, b / norm
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def random_sl2c(rng):
    while True:
        m = np.array(
            [
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
                for _ in range(2)
            ]
        )
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) > 0.1:
            return m / cmath.sqrt(det)


# ---------------------------------------------------------------------------
# representation matrices
# ---------------------------------------------------------------------------


def test_defining_rep_is_identity_map():
    rng = random.Random(0)
    g = random_su2(rng)
    assert np.allclose(rep_matrix(1, g), g)
    # integer entries, so every product and scale is exact in floats
    assert rep_matrix(1, [[2, 3], [1, 2]]).tolist() == [[2, 3], [1, 2]]


def test_rep_diagonal_example():
    t = 1.7
    g = np.diag([t, 1 / t])
    got = rep_matrix(2, g)
    assert np.allclose(got, np.diag([t**2, 1.0, t**-2]))


def test_rep_exact_integer_matrix():
    # det [[2,3],[1,2]] = 1; the symmetric square in the monomial basis has
    # integer entries, exact in floats, so only the orthonormal scale rounds
    a, b, c, d = 2, 3, 1, 2
    monomial = [
        [a * a, a * b, b * b],
        [2 * a * c, a * d + b * c, 2 * b * d],
        [c * c, c * d, d * d],
    ]
    expected = [
        [x * math.sqrt(math.comb(2, j) / math.comb(2, i)) for j, x in enumerate(row)]
        for i, row in enumerate(monomial)
    ]
    assert rep_matrix(2, [[a, b], [c, d]]).tolist() == expected


def _monomial_matrix(n, g):
    # column j: y-coefficients of (a + c y)^(n-j) (b + d y)^j, by convolution
    (a, b), (c, d) = g
    cols = []
    for j in range(n + 1):
        col = np.ones(1, dtype=complex)
        for factor in [(a, c)] * (n - j) + [(b, d)] * j:
            col = np.convolve(col, factor)
        cols.append(col)
    return np.array(cols).T


def test_orthonormal_scaling_of_exact_matrix():
    rng = random.Random(1)
    g = random_sl2c(rng)
    for n in range(6):
        monomial = _monomial_matrix(n, g)
        unitary = rep_matrix(n, g)
        for i in range(n + 1):
            for j in range(n + 1):
                scale = math.sqrt(math.comb(n, j) / math.comb(n, i))
                assert abs(unitary[i, j] - monomial[i, j] * scale) < 1e-10


def test_rep_homomorphism():
    rng = random.Random(2)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            g, h = random_su2(rng), random_su2(rng)
            lhs = rep_matrix(n, g @ h)
            rhs = rep_matrix(n, g) @ rep_matrix(n, h)
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_rep_unitary_on_su2():
    rng = random.Random(3)
    for n in (1, 2, 4, 6):
        for _ in range(10):
            rho = rep_matrix(n, random_su2(rng))
            assert np.linalg.norm(rho @ rho.conj().T - np.eye(n + 1)) < 1e-10


def test_rep_identity():
    for n in range(5):
        assert np.allclose(rep_matrix(n, np.eye(2)), np.eye(n + 1))


def test_rep_rejects_non_unimodular():
    with pytest.raises(ValueError, match="unimodular"):
        rep_matrix(2, np.diag([2.0, 1.0]))
    with pytest.raises(ValueError, match="unimodular"):
        rep_matrix(2, [[2, 0], [0, 1]])
    # a NaN determinant compares false against any tolerance
    nan = np.array([[math.nan, 0], [0, 1]])
    with pytest.raises(ValueError, match="unimodular"):
        rep_matrix(2, nan)
    with pytest.raises(ValueError, match="unimodular"):
        character(2, nan)


# Frozen copies of the two irrep routes that rep_matrix replaced: the
# batched evaluator of the spin-network code and the scalar version that
# expanded the symmetric power entry by entry.  rep_matrix reproduces the
# batched one bit for bit, so spin-network values keep their last digits,
# and the scalar one within rounding: numpy's scalar complex products round
# differently from its array ones.


def _oracle_rep_batch(n, mats):
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    out = np.zeros((len(mats), n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        left = [math.comb(n - j, s) * a ** (n - j - s) * c**s for s in range(n - j + 1)]
        right = [math.comb(j, t) * b ** (j - t) * d**t for t in range(j + 1)]
        for s, ls in enumerate(left):
            for t, rt in enumerate(right):
                out[:, s + t, j] += ls * rt
    for i in range(n + 1):
        for j in range(n + 1):
            out[:, i, j] *= math.sqrt(math.comb(n, j) / math.comb(n, i))
    return out


def _oracle_rep_scalar(n, g):
    g = np.asarray(g, dtype=complex)
    a, b, c, d = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    cols = []
    for j in range(n + 1):
        left = [math.comb(n - j, s) * a ** (n - j - s) * c**s for s in range(n - j + 1)]
        right = [math.comb(j, t) * b ** (j - t) * d**t for t in range(j + 1)]
        col = [0] * (n + 1)
        for s, ls in enumerate(left):
            for t, rt in enumerate(right):
                col[s + t] += ls * rt
        cols.append(col)
    out = np.empty((n + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        for j in range(n + 1):
            out[i, j] = cols[j][i] * math.sqrt(math.comb(n, j) / math.comb(n, i))
    return out


def _oracle_samples():
    rng = random.Random(11)
    return np.stack([random_su2(rng) for _ in range(48)] + [random_sl2c(rng) for _ in range(16)])


@pytest.mark.parametrize("n", range(9))
def test_rep_matrix_batch_matches_batched_oracle_bitwise(n):
    mats = _oracle_samples()
    got = rep_matrix(n, mats)
    assert got.shape == (len(mats), n + 1, n + 1)
    assert got.tobytes() == _oracle_rep_batch(n, mats).tobytes()


def _gamma(k):
    # gamma_k = k u / (1 - k u) with u = sqrt(5) 2^-53, the bound on the
    # relative error in modulus of one complex product (and of one sum)
    u = math.sqrt(5) * 2.0**-53
    return k * u / (1 - k * u)


@pytest.mark.parametrize("n", range(9))
def test_rep_matrix_single_matches_scalar_oracle_bitwise(n):
    # Both routes build the same terms.  A term is a product of two binomials
    # and four powers of total degree n, at most n products for the powers
    # (each by repeated multiplication or squaring) and five to combine
    # them; an entry sums at most n+1 terms and is scaled once.  So each
    # route lies within gamma_(2n+6) of the exact matrix, relative to the
    # same expansion on |a|, |b|, |c|, |d| (no cancellation, so computed
    # within gamma_(2n+6) itself), and the two within twice that.
    k = 2 * n + 6
    for g in _oracle_samples():
        got = rep_matrix(n, g)
        assert got.shape == (n + 1, n + 1)
        size = _oracle_rep_scalar(n, np.abs(g)).real
        bound = 2 * _gamma(k) / (1 - _gamma(k)) * size
        assert (np.abs(got - _oracle_rep_scalar(n, g)) <= bound).all()


@pytest.mark.parametrize("n", range(9))
def test_rep_matrix_single_is_its_one_row_batch_bitwise(n):
    for g in _oracle_samples():
        assert rep_matrix(n, g).tobytes() == rep_matrix(n, g[None])[0].tobytes()


def test_rep_matrix_batch_rows_match_single_matrices():
    # numpy's array arithmetic rounds alike at any length, so a row of a
    # 64-row batch has the bits of the matrix of its element alone
    mats = _oracle_samples()
    for n in (1, 4, 8):
        batch = rep_matrix(n, mats)
        for g, rho in zip(mats, batch):
            assert rho.tobytes() == rep_matrix(n, g).tobytes()


def test_rep_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        rep_matrix(2, np.eye(3))
    with pytest.raises(ValueError):
        rep_matrix(2, np.zeros((4, 3, 3)))


# ---------------------------------------------------------------------------
# characters and Casimir
# ---------------------------------------------------------------------------


def test_character_identity():
    for n in range(6):
        assert character(n, np.eye(2)) == pytest.approx(n + 1)


def test_character_rotation():
    for theta in (0.3, 1.2, 2.9):
        g = np.diag([cmath.exp(1j * theta), cmath.exp(-1j * theta)])
        assert character(1, g) == pytest.approx(2 * math.cos(theta))
        # Weyl character: sin((n+1)theta)/sin(theta)
        expected = math.sin(4 * theta) / math.sin(theta)
        assert character(3, g) == pytest.approx(expected)


def test_casimir_values():
    assert casimir(2) == 2
    assert casimir(1) == Fraction(3, 4)
    assert casimir(0) == 0
    for n in range(8):
        j = Fraction(n, 2)
        assert casimir(n) == j * (j + 1)


# ---------------------------------------------------------------------------
# invariant pairing
# ---------------------------------------------------------------------------


def test_omega_shape():
    w = omega(2)
    assert np.allclose(w, [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    w1 = omega(1)
    assert np.allclose(w1, [[0, 1], [-1, 0]])


def test_omega_invariance():
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        w = omega(n)
        for _ in range(10):
            rho = rep_matrix(n, random_sl2c(rng))
            assert np.linalg.norm(rho.T @ w @ rho - w) < 1e-9


# ---------------------------------------------------------------------------
# Wigner 3j tensors
# ---------------------------------------------------------------------------


def test_admissibility_predicate():
    assert admissible_triple(1, 1, 0)
    assert admissible_triple(2, 1, 1)
    assert not admissible_triple(1, 1, 1)  # parity
    assert not admissible_triple(4, 1, 1)  # triangle


def test_wigner_scalar():
    t = wigner_3j(0, 0, 0)
    assert t.shape == (1, 1, 1)
    assert t[0, 0, 0] == pytest.approx(1.0)


def test_wigner_epsilon():
    t = wigner_3j(1, 1, 0)
    r = 1 / math.sqrt(2)
    assert t[0, 1, 0] == pytest.approx(r)
    assert t[1, 0, 0] == pytest.approx(-r)
    assert abs(t[0, 0, 0]) < 1e-14 and abs(t[1, 1, 0]) < 1e-14


def test_wigner_inadmissible():
    with pytest.raises(AdmissibilityError):
        wigner_3j(1, 1, 1)
    with pytest.raises(AdmissibilityError):
        wigner_3j(4, 1, 1)


# every ordering: the bracket product treats the three slots asymmetrically
ORDERED_TRIPLES = [t for t in itertools.product(range(7), repeat=3) if admissible_triple(*t)]


def test_wigner_unit_norm_and_phase():
    for triple in ORDERED_TRIPLES:
        t = wigner_3j(*triple)
        assert np.linalg.norm(t) == pytest.approx(1.0)
        flat = t.reshape(-1)
        first = flat[np.flatnonzero(np.abs(flat) > 1e-12)[0]]
        assert first.real > 0 and abs(first.imag) < 1e-14


def test_wigner_equivariance():
    rng = random.Random(5)
    triples = [
        (n1, n2, n3)
        for n1, n2, n3 in itertools.combinations_with_replacement(range(7), 3)
        if admissible_triple(n1, n2, n3)
    ]
    for triple in triples:
        t = wigner_3j(*triple)
        vec = t.reshape(-1)
        for _ in range(10):
            g = random_su2(rng)
            mats = [rep_matrix(n, g) for n in triple]
            big = np.kron(np.kron(mats[0], mats[1]), mats[2])
            assert np.linalg.norm(big @ vec - vec) < 1e-10


def test_wigner_equivariance_deep_samples():
    rng = random.Random(6)
    t = wigner_3j(2, 3, 3).reshape(-1)
    for _ in range(100):
        g = random_su2(rng)
        mats = [rep_matrix(n, g) for n in (2, 3, 3)]
        big = np.kron(np.kron(mats[0], mats[1]), mats[2])
        assert np.linalg.norm(big @ t - t) < 1e-10


def test_wigner_matches_sympy_up_to_sign():
    from sympy import Rational
    from sympy.physics.wigner import wigner_3j as sym3j

    assert len(ORDERED_TRIPLES) == 106
    for n1, n2, n3 in ORDERED_TRIPLES:
        mine = wigner_3j(n1, n2, n3)
        ref = np.zeros_like(mine)
        for i1 in range(n1 + 1):
            for i2 in range(n2 + 1):
                for i3 in range(n3 + 1):
                    m1 = Rational(n1, 2) - i1
                    m2 = Rational(n2, 2) - i2
                    m3 = Rational(n3, 2) - i3
                    val = sym3j(
                        Rational(n1, 2), Rational(n2, 2), Rational(n3, 2), m1, m2, m3
                    )
                    ref[i1, i2, i3] = float(val)
        ref /= np.linalg.norm(ref)
        delta = min(np.linalg.norm(mine - ref), np.linalg.norm(mine + ref))
        assert delta < 1e-10


def test_wigner_cached():
    assert wigner_3j(2, 2, 2) is wigner_3j(2, 2, 2)


def test_wigner_cached_array_is_read_only():
    # every spin network shares the cached array, so a write must fail
    t = wigner_3j(2, 1, 1)
    assert not t.flags.writeable
    with pytest.raises(ValueError):
        t[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# the integer-argument rule
# ---------------------------------------------------------------------------


def test_check_int_rule():
    assert _check_int(0, "count") == 0
    assert _check_int(3, "genus", 2) == 3
    for bad, low in ((True, 0), (False, 0), (1.0, 0), (2.5, 1), (-1, 0), (0, 1), (1, 2), ("3", 0)):
        with pytest.raises(ValueError):
            _check_int(bad, "x", low)
    with pytest.raises(ValueError, match="level must be a positive integer"):
        _check_int(0, "level", 1)
    with pytest.raises(ValueError, match="genus must be an integer >= 2"):
        _check_int(1, "genus", 2)


# (module, function) pairs allowed their own bool test, with the reason
BOOL_TEST_EXCEPTIONS = {
    ("thetacst", "_indices"): "characteristic residues accept numpy ints, "
    "which are not Python ints, so _check_int would refuse them",
}


def _bool_tests(tree):
    """Names of the enclosing top-level functions of each isinstance(..., bool)."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id != "isinstance" or len(node.args) != 2:
                continue
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(t, ast.Name) and t.id == "bool" for t in kinds):
                found.append(getattr(top, "name", "<module>"))
    return found


def test_integer_rule_is_written_once():
    # every int-not-bool argument check goes through su2reps._check_int
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "verlinde"
    stray = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "su2reps":
            continue
        for name in _bool_tests(ast.parse(path.read_text())):
            if (path.stem, name) not in BOOL_TEST_EXCEPTIONS:
                stray.append(f"{path.stem}.{name}")
    assert not stray, "hand-written bool checks, use su2reps._check_int: " + ", ".join(stray)
