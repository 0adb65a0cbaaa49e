"""Reference values for the benchmark, written from the mathematics.

Nothing here imports `verlinde`: every reference is computed by code of
its own, so a defect in a shared helper cannot hide in both the program
and its check.  The references are evaluated only after the timed region
of a pass has ended.
"""

from __future__ import annotations

import itertools
import math
from math import comb

import numpy as np


def _mp():
    # imported on first use so that it stays out of the timed set-up
    import mpmath

    return mpmath


# Connected cubic multigraphs with loops by genus (OEIS A005967).
CLASS_COUNTS = {2: 2, 3: 5, 4: 17}


# -- fusion rules and Verlinde numbers ---------------------------------------


def fusion_channels(k, a, b):
    """Level-k fusion channels of a (x) b, descending twice-spins."""
    top = min(a + b, 2 * k - a - b)
    return list(range(top, abs(a - b) - 1, -2))


def verlinde_number(g, k):
    """tr H^(g-1) with H = sum_a N_a^2, in exact Python integers."""
    n = k + 1
    mats = []
    for a in range(n):
        m = [[0] * n for _ in range(n)]
        for b in range(n):
            for c in fusion_channels(k, a, b):
                m[b][c] = 1
        mats.append(m)
    h = [[0] * n for _ in range(n)]
    for m in mats:
        for i in range(n):
            for j in range(n):
                h[i][j] += sum(m[i][x] * m[x][j] for x in range(n))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(g - 1):
        power = [
            [sum(power[i][x] * h[x][j] for x in range(n)) for j in range(n)]
            for i in range(n)
        ]
    value = sum(power[i][i] for i in range(n))
    if g == 2:
        closed = (k + 2) * ((k + 2) ** 2 - 1) // 6
        if value != closed:
            raise AssertionError(f"oracle disagrees with the genus-2 closed form at k={k}")
    return value


def fusion_table_csv(k):
    """Expected stdout of `verlinde fusion table --level k` (CSV)."""
    lines = ["a,b,channels"]
    for a in range(k + 1):
        for b in range(a, k + 1):
            lines.append(f"{a},{b}," + " ".join(map(str, fusion_channels(k, a, b))))
    return "\n".join(lines) + "\n"


def fusion_table_json(k):
    """Expected stdout of `verlinde fusion table --level k --format json`."""
    rows = ",".join(
        f"[{a},{b},[{','.join(map(str, fusion_channels(k, a, b)))}]]"
        for a in range(k + 1)
        for b in range(a, k + 1)
    )
    return f'{{"level":{k},"rows":[{rows}]}}\n'


# -- graphs given as (involution, vertex_of) ---------------------------------


def stars(involution, vertex_of):
    out = {}
    for d, v in enumerate(vertex_of):
        out.setdefault(v, []).append(d)
    return [out[v] for v in sorted(out)]


def _adjacency(involution, vertex_of):
    n = max(vertex_of) + 1
    adj = [[0] * n for _ in range(n)]
    for d, p in enumerate(involution):
        if p > d:
            u, v = vertex_of[d], vertex_of[p]
            adj[u][v] += 1
            if u != v:
                adj[v][u] += 1
    return adj


def isomorphic(a, b):
    """Multigraph isomorphism by backtracking over vertex bijections."""
    x, y = _adjacency(*a), _adjacency(*b)
    n = len(x)
    if n != len(y):
        return False
    profile = lambda adj, v: (adj[v][v], tuple(sorted(adj[v])))
    px = [profile(x, v) for v in range(n)]
    py = [profile(y, v) for v in range(n)]
    if sorted(px) != sorted(py):
        return False
    image = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            return True
        for w in range(n):
            if used[w] or px[v] != py[w]:
                continue
            if all(x[v][u] == y[w][image[u]] for u in range(v)) and x[v][v] == y[w][w]:
                image[v], used[w] = w, True
                if extend(v + 1):
                    return True
                used[w] = False
        image[v] = -1
        return False

    return extend(0)


def generator_edges(source):
    """Edge list of a named graph: theta, dumbbell, chain-G, multitheta-G."""
    if source == "theta":
        return 2, [(0, 1)] * 3
    if source == "dumbbell":
        return 2, [(0, 0), (1, 1), (0, 1)]
    name, g = source.split("-")
    g = int(g)
    n = 2 * g - 2
    if name == "multitheta":
        # a cycle of g-1 doubled edges
        return n, [e for i in range(g - 1) for e in [(2 * i, 2 * i + 1)] * 2 + [(2 * i + 1, (2 * i + 2) % n)]]
    # g circles in a row: two end loops, g-2 doubled edges, g-1 bridges
    edges = [(0, 0), (n - 1, n - 1)]
    edges += [e for a in range(1, n - 2, 2) for e in [(a, a + 1)] * 2]
    edges += [(a, a + 1) for a in range(0, n - 1, 2)]
    return n, edges


def eulerian_number(n_vertices, edges):
    """Fewest non-backtracking closed paths that cover each oriented edge once.

    At every trivalent vertex the arrival-to-departure map is one of the
    two cyclic orders of its darts; try all 2^V choices.
    """
    vertex_of = [v for edge in edges for v in edge]
    star = [[d for d, v in enumerate(vertex_of) if v == w] for w in range(n_vertices)]
    cyc = [[dict(zip(s, s[1:] + s[:1])), dict(zip(s[1:] + s[:1], s))] for s in star]
    best = None
    for choice in itertools.product((0, 1), repeat=n_vertices):
        succ = [cyc[vertex_of[d ^ 1]][choice[vertex_of[d ^ 1]]][d ^ 1] for d in range(len(vertex_of))]
        seen, cycles = set(), 0
        for d in range(len(succ)):
            if d not in seen:
                cycles += 1
                while d not in seen:
                    seen.add(d)
                    d = succ[d]
        best = cycles if best is None else min(best, cycles)
    return best


def canonical_form_graph(form):
    """(involution, vertex_of) decoded from a one-component canonical form."""
    if len(form) != 1:
        raise AssertionError("expected a connected graph")
    inv, vert = form[0]
    return tuple(inv), tuple(vert)


def flows_ok(involution, vertex_of, k, flows, chords):
    """Every flow obeys Kirchhoff mod k; chord coordinates are a bijection."""
    for flow in flows:
        for star in stars(involution, vertex_of):
            total = 0
            for d in star:
                e = min(d, involution[d])
                total += flow[e] if d == e else -flow[e]
            if total % k:
                return False
    coords = {tuple(f[e] for e in chords) for f in flows}
    return len(coords) == len(flows) == k ** len(chords)


# -- quantum 6j symbols --------------------------------------------------------


def _mp_qint(k, n):
    mpmath = _mp()
    return mpmath.sin(n * mpmath.pi / (k + 2)) / mpmath.sin(mpmath.pi / (k + 2))


def _mp_qfact(k, n):
    mpmath = _mp()
    out = mpmath.mpf(1)
    for i in range(2, n + 1):
        out *= _mp_qint(k, i)
    return out


def admissible(k, a, b, c):
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b and a + b + c <= 2 * k


def _mp_delta(k, a, b, c):
    mpmath = _mp()
    return mpmath.sqrt(
        _mp_qfact(k, (-a + b + c) // 2)
        * _mp_qfact(k, (a - b + c) // 2)
        * _mp_qfact(k, (a + b - c) // 2)
        / _mp_qfact(k, (a + b + c) // 2 + 1)
    )


def q6j(k, j1, j2, j3, j4, i, j, dps=40):
    """Unitary fusing coefficient by the q-Racah sum in mpmath.

    Triangles (j1 j2 i), (j3 j4 i), (j2 j3 j), (j4 j1 j); sign
    (-1)^((j1+j2+j3+j4)/2); zero when a triangle is not level-admissible.
    """
    if not (admissible(k, j1, j2, i) and admissible(k, j3, j4, i)):
        return 0.0
    if not (admissible(k, j2, j3, j) and admissible(k, j4, j1, j)):
        return 0.0
    mpmath = _mp()
    with mpmath.workdps(dps):
        lows = ((j1 + j2 + i) // 2, (i + j3 + j4) // 2, (j2 + j3 + j) // 2, (j1 + j + j4) // 2)
        highs = ((j1 + j2 + j3 + j4) // 2, (j1 + i + j3 + j) // 2, (j2 + i + j4 + j) // 2)
        total = mpmath.mpf(0)
        for z in range(max(lows), min(highs) + 1):
            term = _mp_qfact(k, z + 1)
            for t in lows:
                term /= _mp_qfact(k, z - t)
            for q in highs:
                term /= _mp_qfact(k, q - z)
            total += term if z % 2 == 0 else -term
        racah = (
            _mp_delta(k, j1, j2, i)
            * _mp_delta(k, i, j3, j4)
            * _mp_delta(k, j2, j3, j)
            * _mp_delta(k, j1, j, j4)
            * total
        )
        sign = -1 if ((j1 + j2 + j3 + j4) // 2) % 2 else 1
        return float(sign * mpmath.sqrt(_mp_qint(k, i + 1) * _mp_qint(k, j + 1)) * racah)


def six_j_count(k):
    """Number of (j1..j4, i, j) with both channels admissible at level k."""
    labels = range(k + 1)
    total = 0
    for j1, j2, j3, j4 in itertools.product(labels, repeat=4):
        rows = sum(1 for i in labels if admissible(k, j1, j2, i) and admissible(k, j3, j4, i))
        cols = sum(1 for j in labels if admissible(k, j2, j3, j) and admissible(k, j4, j1, j))
        total += rows * cols
    return total


# -- the level-k torus representation ----------------------------------------


def _torus_st(k):
    mpmath = _mp()
    s = mpmath.matrix(k + 1, k + 1)
    t = mpmath.matrix(k + 1, k + 1)
    scale = mpmath.sqrt(mpmath.mpf(2) / (k + 2))
    for a in range(k + 1):
        for b in range(k + 1):
            s[a, b] = scale * mpmath.sin((a + 1) * (b + 1) * mpmath.pi / (k + 2))
        h = mpmath.mpf(a * (a + 2)) / (4 * (k + 2)) - mpmath.mpf(k) / (8 * (k + 2))
        t[a, a] = mpmath.exp(2j * mpmath.pi * h)
    return s, t


def torus_word(k, letters, dps=30):
    """Vacuum entry of the product of S, T, T-1 letters, left to right."""
    mpmath = _mp()
    with mpmath.workdps(dps):
        s, t = _torus_st(k)
        tinv = mpmath.matrix(k + 1, k + 1)
        for a in range(k + 1):
            tinv[a, a] = mpmath.conj(t[a, a])
        mats = {"S": s, "T": t, "T-1": tinv}
        rho = mpmath.eye(k + 1)
        for letter in letters:
            rho = rho * mats[letter]
        return complex(rho[0, 0])


def twist_phase(k, n):
    mpmath = _mp()
    h = mpmath.mpf(n * (n + 2)) / (4 * (k + 2)) - mpmath.mpf(k) / (8 * (k + 2))
    return complex(mpmath.exp(2j * mpmath.pi * h))


def chain_word(k, ops, first_loop, last_loop):
    """Vacuum entry of a chain-graph word that starts from the vacuum.

    All bridge labels stay 0, so the two end circles evolve as independent
    torus blocks and every other twist contributes the vacuum phase.
    """
    ends = {first_loop: [], last_loop: []}
    phase = 1 + 0j
    for kind, arg in ops:  # first entry acts first
        if kind == "S":
            ends[first_loop if arg == "first" else last_loop].append("S")
        elif arg in ends:
            ends[arg].append(kind)
        else:
            phase *= twist_phase(k, 0) if kind == "T" else twist_phase(k, 0).conjugate()
    value = phase
    for word in ends.values():
        value *= torus_word(k, list(reversed(word)))
    return value


def phase_class(z, k):
    """(|z|, arg z mod 2 pi / den(k / (8 (k + 2))))."""
    angle = 2 * math.pi / ((8 * (k + 2)) // math.gcd(k, 8 * (k + 2)))
    return abs(z), math.atan2(z.imag, z.real) % angle, angle


# -- theta series ------------------------------------------------------------


def theta_series(k, char, omega, z):
    """Direct level-k theta sum over a fixed sup-norm box.

    Returns (value, scale) with scale the sum of the term magnitudes.  The
    box radius is fixed per genus; the outermost shell must be negligible.
    """
    g = len(char)
    radius = {1: 12, 2: 9, 3: 7}[g]
    grid = np.array(list(itertools.product(range(-radius, radius + 1), repeat=g)), float)
    m = np.asarray(char, float) + k * grid
    om = np.asarray(omega, complex)
    zv = np.asarray(z, complex)
    quad = np.einsum("ni,ij,nj->n", m, om, m) / k
    terms = np.exp(1j * np.pi * quad + 2j * np.pi * (m @ zv))
    mags = np.abs(terms)
    scale = math.fsum(mags)
    edge = np.abs(grid).max(axis=1) == radius
    if math.fsum(mags[edge]) > 1e-20 * scale:
        raise AssertionError("theta reference box too small")
    value = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return value, scale


def cst_coefficient(m, omega, t):
    """Coefficient exp(i pi t m.Omega.m) of the damped coset series."""
    m = np.asarray(m, float)
    return complex(np.exp(1j * np.pi * t * (m @ np.asarray(omega, complex) @ m)))


# -- SU(2) spin networks -------------------------------------------------------


def irrep(n, g):
    """Symmetric-power irrep of g in the basis sqrt(C(n,i)) x^(n-i) y^i.

    Column j expands (a x + c y)^(n-j) (b x + d y)^j.
    """
    (a, b), (c, d) = np.asarray(g, complex)
    out = np.zeros((n + 1, n + 1), complex)
    for j in range(n + 1):
        left = np.array([comb(n - j, s) * a ** (n - j - s) * c**s for s in range(n - j + 1)])
        right = np.array([comb(j, s) * b ** (j - s) * d**s for s in range(j + 1)])
        out[:, j] = np.convolve(left, right)
    norm = np.sqrt([comb(n, i) for i in range(n + 1)])
    return out * norm[None, :] / norm[:, None]


def pairing(n):
    """Invariant bilinear form: antidiagonal signs (-1)^i."""
    w = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        w[i, n - i] = (-1) ** i
    return w


def _bracket_power(p):
    # (x_u y_v - y_u x_v)^p as {(y-degree in u, y-degree in v): coefficient}
    return {(s, p - s): comb(p, s) * (-1) ** s for s in range(p + 1)}


def invariant_tensor(n1, n2, n3):
    """Unit-norm invariant of V_n1 (x) V_n2 (x) V_n3 from Cayley brackets.

    The product (12)^c3 (23)^c1 (31)^c2 of 2x2 determinants of the three
    variable pairs is invariant; sign fixed by a positive first entry.
    """
    c1, c2, c3 = (n2 + n3 - n1) // 2, (n1 + n3 - n2) // 2, (n1 + n2 - n3) // 2
    t = np.zeros((n1 + 1, n2 + 1, n3 + 1))
    for (a1, a2), x in _bracket_power(c3).items():  # slots 1, 2
        for (b2, b3), y in _bracket_power(c1).items():  # slots 2, 3
            for (e3, e1), w in _bracket_power(c2).items():  # slots 3, 1
                t[a1 + e1, a2 + b2, b3 + e3] += x * y * w
    for axis, n in enumerate((n1, n2, n3)):
        shape = [1, 1, 1]
        shape[axis] = n + 1
        t = t / np.sqrt([comb(n, i) for i in range(n + 1)]).reshape(shape)
    t /= np.linalg.norm(t)
    flat = t.reshape(-1)
    if flat[np.flatnonzero(np.abs(flat) > 1e-14)[0]] < 0:
        t = -t
    return t


def network_value(involution, vertex_of, coloring, matrices):
    """Contract vertex invariants with pairing . irrep(matrix) per edge."""
    operands = []
    for star in stars(involution, vertex_of):
        labels = [coloring[min(d, involution[d])] for d in star]
        operands += [invariant_tensor(*labels), list(star)]
    for d, p in enumerate(involution):
        if p > d:
            n = coloring[d]
            operands += [pairing(n) @ irrep(n, matrices[d]), [d, p]]
    return complex(np.einsum(*operands, [], optimize=True))


def admissible_colorings(involution, vertex_of, cap):
    edges = [d for d, p in enumerate(involution) if p > d]
    out = []
    for combo in itertools.product(range(cap + 1), repeat=len(edges)):
        col = dict(zip(edges, combo))
        ok = True
        for star in stars(involution, vertex_of):
            a, b, c = (col[min(d, involution[d])] for d in star)
            if (a + b + c) % 2 or not abs(a - b) <= c <= a + b:
                ok = False
                break
        if ok:
            out.append(col)
    return out


def haar_su2(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def adjugate(m):
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


# References this small are zeros of the mathematics (the high-precision
# sums leave ~1e-30 behind); a float route cannot hit them relatively.
ZERO = 1e-13


def rel_err(value, ref, floor=0.0):
    """|value - ref| / max(|ref|, floor), absolute when the reference is zero.

    `floor` is 0 for a plain relative error; callers that pass one name it.
    """
    ref = complex(ref)
    denom = max(abs(ref), floor)
    return abs(complex(value) - ref) / (denom if denom > ZERO else 1.0)


def digits(err):
    """-log10 of a relative error, capped at 16."""
    return 16.0 if err <= 1e-16 else min(16.0, -math.log10(err))
