"""Tests for level-k duality data and block-space operators.

Frozen scalar oracles (the k=1 and k=2 fusing entries, braid eigenvalues,
twist phases, lens-space matrix elements) were computed from the Racah sum
and the closed-form S/T matrices in an independent throwaway script before
the module was written; the consistency relations (orthogonality, pentagon,
Yang-Baxter, the entrywise braid/fusing phase relation) then pin the
normalization far beyond the spot values.
"""

import cmath
import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde import modular
from verlinde.fusion import fuse, verlinde
from verlinde.graphs import TrivalentGraph, chain_graph, dumbbell_graph, theta_graph
from verlinde.modular import (
    BlockSpace,
    block_space,
    braid_phase,
    braiding,
    fusion_matrix,
    genus_chain_invariant,
    genus_chain_operator,
    heegaard_invariant,
    phase_unit,
    q6j,
    residual_report,
    s_torus,
    same_phase_class,
    six_j_table,
    switching_operator,
    switching_residuals,
    t_phase,
)

RT2 = math.sqrt(2.0)


def source_channels(k, j1, j2, j3, j4):
    # ascending, matching the row order of fusion_matrix and braiding
    return sorted(i for i in fuse(k, j1, j2) if i in fuse(k, j3, j4))


def target_channels(k, j1, j2, j3, j4):
    return sorted(j for j in fuse(k, j2, j3) if j in fuse(k, j4, j1))


# ---------------------------------------------------------------------------
# quantum 6j coefficients
# ---------------------------------------------------------------------------


def test_q6j_trivial_labels():
    assert q6j(1, 0, 0, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)
    for k in (1, 2, 3):
        assert q6j(k, 0, 0, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)


def test_q6j_level1_entries():
    # the only nontrivial level-1 block is the all-ones one: a single sign
    assert q6j(1, 1, 1, 1, 1, 0, 0) == pytest.approx(-1.0, abs=1e-12)
    assert q6j(1, 1, 0, 0, 1, 1, 0) == pytest.approx(1.0, abs=1e-12)
    assert q6j(1, 0, 1, 1, 0, 1, 0) == pytest.approx(1.0, abs=1e-12)


def test_q6j_level2_block():
    rows, cols, f = fusion_matrix(2, 1, 1, 1, 1)
    assert rows == (0, 2) and cols == (0, 2)
    expected = np.array([[-1.0, 1.0], [1.0, 1.0]]) / RT2
    assert np.abs(f - expected).max() < 1e-12


def test_q6j_inadmissible_channels_are_zero():
    # odd-parity or out-of-range channels give 0, not an error
    assert q6j(2, 1, 1, 1, 1, 1, 0) == 0.0
    assert q6j(2, 1, 1, 1, 1, 0, 1) == 0.0
    assert q6j(1, 1, 1, 1, 1, 2, 0) == 0.0
    assert q6j(3, 2, 2, 2, 2, 0, 6) == 0.0


def test_q6j_label_range_errors():
    with pytest.raises(ValueError):
        q6j(2, 3, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        q6j(1, 0, 0, 0, -1, 0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: braid_phase(2, np.int64(1), 1, 0),
        lambda: braid_phase(2, 1, 1, 1.5),
        lambda: braid_phase(2, 1, 1, 7),
        lambda: t_phase(2, np.int64(1)),
        lambda: fusion_matrix(2, np.int64(1), 1, 1, 1),
        lambda: q6j(2, np.int64(1), 1, 1, 1, 0, 0),
        lambda: q6j(2, 1, 1, 1, 1, np.int64(0), 0),
        lambda: six_j_table(2).coefficient(1.0, 1, 1, 1, 0, 0),
        lambda: six_j_table(2).coefficient(True, 0, 0, 0, 0, 0),
        lambda: six_j_table(2).coefficient(99, 0, 0, 0, 0, 0),
        lambda: six_j_table(2).coefficient(1, 1, 1, 1, 0.0, 0),
    ],
    ids=[
        "braid_phase", "braid-channel-float", "braid-channel-range", "t_phase",
        "fusion_matrix", "q6j-label", "q6j-channel", "table-label-float",
        "table-label-bool", "table-label-range", "table-channel-float",
    ],
)
def test_one_label_rule(call):
    # labels and channels are Python ints everywhere, and braid channels lie
    # in 0..k like the labels they couple
    with pytest.raises(ValueError):
        call()


def test_fusion_matrix_unitary():
    for k in (1, 2, 3):
        for j1, j2, j3, j4 in itertools.product(range(k + 1), repeat=4):
            rows, cols, f = fusion_matrix(k, j1, j2, j3, j4)
            if not rows:
                continue
            assert len(rows) == len(cols)
            assert np.abs(f @ f.T - np.eye(len(rows))).max() < 1e-10


def orthogonality_deviation(k):
    worst = 0.0
    for j1, j2, j3, j4 in itertools.product(range(k + 1), repeat=4):
        rows, cols, f1 = fusion_matrix(k, j1, j2, j3, j4)
        if not rows:
            continue
        rows2, cols2, f2 = fusion_matrix(k, j2, j3, j4, j1)
        assert rows2 == cols and cols2 == rows
        worst = max(worst, np.abs(f1 @ f2 - np.eye(len(rows))).max())
    return worst


def symmetry_deviation(k):
    worst = 0.0
    for labels in itertools.product(range(k + 1), repeat=6):
        j1, j2, j3, j4, i, j = labels
        worst = max(worst, abs(q6j(k, j1, j2, j3, j4, i, j) - q6j(k, j3, j4, j1, j2, i, j)))
    return worst


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_orthogonality(k):
    assert orthogonality_deviation(k) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symmetry(k):
    assert symmetry_deviation(k) < 1e-10


@pytest.mark.slow
@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_orthogonality_and_symmetry_desk_scale(k):
    assert orthogonality_deviation(k) < 1e-9
    rng = random.Random(k)
    for _ in range(400):
        j1, j2, j3, j4, i, j = (rng.randrange(k + 1) for _ in range(6))
        assert abs(q6j(k, j1, j2, j3, j4, i, j) - q6j(k, j3, j4, j1, j2, i, j)) < 1e-9


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_orthogonality_random_rows(data):
    k = data.draw(st.integers(1, 6))
    j1, j2, j3, j4 = (data.draw(st.integers(0, k)) for _ in range(4))
    rows = source_channels(k, j1, j2, j3, j4)
    if not rows:
        return
    cols = target_channels(k, j1, j2, j3, j4)
    for i, m in itertools.product(rows, repeat=2):
        acc = sum(
            q6j(k, j1, j2, j3, j4, i, j) * q6j(k, j2, j3, j4, j1, j, m) for j in cols
        )
        assert abs(acc - (1.0 if i == m else 0.0)) < 1e-9


def test_six_j_table_matches_pointwise():
    table = six_j_table(2)
    assert table.level == 2
    assert table.coefficient(1, 1, 1, 1, 0, 0) == pytest.approx(-1 / RT2, abs=1e-12)
    # inadmissible channels fall back to the zero contract, as in q6j
    assert table.coefficient(1, 1, 1, 1, 1, 0) == 0.0
    assert table.coefficient(1, 1, 1, 1, 0, 7) == q6j(2, 1, 1, 1, 1, 0, 7) == 0.0
    # (1, 1, 1, 1, 1, 3) has the row-major position of (1, 1, 1, 1, 2, 0), whose
    # coefficient is 1/sqrt(2); a channel above the level must not alias it
    assert table.coefficient(1, 1, 1, 1, 2, 0) == pytest.approx(1 / RT2, abs=1e-12)
    assert table.coefficient(1, 1, 1, 1, 1, 3) == q6j(2, 1, 1, 1, 1, 1, 3) == 0.0
    for key, val in table.entries.items():
        assert val == pytest.approx(q6j(2, *key), abs=1e-14)
        j1, j2, j3, j4, i, j = key
        assert i in source_channels(2, j1, j2, j3, j4)
        assert j in target_channels(2, j1, j2, j3, j4)


@pytest.mark.parametrize("k", range(1, 13))
def test_six_j_table_bits_match_scalar(k):
    table = six_j_table(k)
    admissible = [
        (j1, j2, j3, j4, i, j)
        for j1, j2, j3, j4 in itertools.product(range(k + 1), repeat=4)
        for i in source_channels(k, j1, j2, j3, j4)
        for j in target_channels(k, j1, j2, j3, j4)
    ]
    assert list(table.entries) == admissible
    for key, val in table.entries.items():
        assert type(val) is float
        assert val.hex() == q6j(k, *key).hex()


# sha256 of the key bytes and then the value bytes of _level_table(k), as
# the whole-span Racah sum gave them, above the levels checked entry by entry
PINNED_TABLES = {
    13: "4517207357807cd58c02a7eaa57ede9fe1ac9736ff63503488a84c27203c17eb",
    14: "8c3b51aba50e56847f5f956930081ef89ad45ad8571dc0c106fff8f82240d4d2",
}


@pytest.mark.parametrize("k", sorted(PINNED_TABLES))
def test_level_table_bits_above_scalar_range(k):
    keys, values = modular._level_table(k)
    assert hashlib.sha256(keys.tobytes() + values.tobytes()).hexdigest() == PINNED_TABLES[k]


def test_q6j_array_rows_of_mixed_range_match_scalar():
    # rows whose Racah ranges z = first..last differ widely, evaluated as one
    # block in either order of range length and one row at a time: each row
    # sums over its own range, so no neighbour may move one of its bits
    k = 12
    keys = modular._level_table(k)[0]
    j1, j2, j3, j4, i, j = keys.T.astype(int)
    first = np.maximum.reduce(
        [(j1 + j2 + i) // 2, (i + j3 + j4) // 2, (j2 + j3 + j) // 2, (j1 + j + j4) // 2]
    )
    last = np.minimum.reduce(
        [(j1 + j2 + j3 + j4) // 2, (j1 + i + j3 + j) // 2, (j2 + i + j4 + j) // 2]
    )
    # the first row of each (last - first, first) pair, sorted by the pair
    _, rows = np.unique(np.column_stack([last - first, first]), axis=0, return_index=True)
    assert np.unique(last[rows] - first[rows]).size == 5 and np.ptp(first[rows]) == k
    block = keys[rows]
    want = [modular._q6j(k, *map(int, key)).hex() for key in block]
    assert [v.hex() for v in modular._q6j_array(k, block)] == want
    assert [v.hex() for v in modular._q6j_array(k, block[::-1])] == want[::-1]
    for key, hexed in zip(block, want):
        assert modular._q6j_array(k, key[None])[0].hex() == hexed


def _pair_loop_keys(k):
    # the key builder as first written: one argwhere per (j1, j2) pair
    cube = modular._admissibility_cube(k)
    parts = []
    for j1, j2 in itertools.product(range(k + 1), repeat=2):
        src = cube[j1, j2][None, None, :] & cube
        tgt = cube[j2][:, None, :] & cube[:, j1][None, :, :]
        tail = np.argwhere(src[:, :, :, None] & tgt[:, :, None, :])
        parts.append(np.column_stack([np.full((len(tail), 2), (j1, j2)), tail]))
    return np.concatenate(parts).astype(np.min_scalar_type(k))


@pytest.mark.parametrize("k", range(1, 15))
def test_level_table_keys_match_pair_loop(k):
    keys = modular._level_table(k)[0]
    want = _pair_loop_keys(k)
    assert keys.dtype == want.dtype and keys.shape == want.shape
    assert keys.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_six_j_table_keys_are_int_tuples_in_table_order(k):
    keys = modular._level_table(k)[0]
    entries = six_j_table(k).entries
    assert list(entries) == [tuple(int(n) for n in row) for row in keys]
    assert all(type(key) is tuple and all(type(n) is int for n in key) for key in entries)


def test_six_j_table_is_immutable():
    table = six_j_table(1)
    with pytest.raises(TypeError):
        table.entries[(0, 0, 0, 0, 0, 0)] = 2.0


def test_six_j_table_reads_the_level_arrays():
    # entries copies nothing per entry: it holds the cached arrays themselves
    keys, values = modular._level_table(3)
    entries = six_j_table(3).entries
    assert entries._keys is keys and entries._values is values
    assert len(entries) == len(values)
    for key, val in zip(entries, values.tolist()):
        assert entries[key].hex() == val.hex()
    for absent in [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 4), (4, 0, 0, 0, 0, 0), (0,) * 5, "key"]:
        assert absent not in entries
        with pytest.raises(KeyError):
            entries[absent]


@pytest.mark.parametrize("k", [1, 3, 12])
def test_six_j_table_views_match_lookups(k):
    # items() and values() read the value array once; each pair and value
    # has the bits of the per-key lookup, in table order
    entries = six_j_table(k).entries
    items, values = entries.items(), entries.values()
    assert len(items) == len(values) == len(entries)
    want = [(key, entries[key]) for key in entries]
    got = list(items)
    assert [key for key, _ in got] == [key for key, _ in want]
    assert [val.hex() for _, val in got] == [val.hex() for _, val in want]
    assert [val.hex() for val in values] == [val.hex() for _, val in want]
    assert all(type(val) is float for val in values)
    assert want[-1] in items and (want[-1][0], want[-1][1] + 1.0) not in items


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_six_j_table_coefficient_matches_q6j_on_every_channel(k):
    table = six_j_table(k)
    channels = range(2 * k + 3)
    for labels in itertools.product(range(k + 1), repeat=4):
        for i, j in itertools.product(channels, repeat=2):
            assert table.coefficient(*labels, i, j).hex() == q6j(k, *labels, i, j).hex()


@pytest.mark.parametrize("k", range(1, 15))
def test_admissibility_cube_matches_triple_ok(k):
    cube = modular._admissibility_cube(k)
    assert cube is modular._admissibility_cube(k) and not cube.flags.writeable
    assert cube.dtype == bool and cube.shape == (k + 1,) * 3
    for abc in itertools.product(range(k + 1), repeat=3):
        assert cube[abc] == modular._triple_ok(k, *abc)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_loop_labels_read_the_cube(k):
    for c in range(k + 1):
        want = tuple(m for m in range(k + 1) if modular._triple_ok(k, m, m, c))
        got = modular._loop_labels(k, c)
        assert got == want and all(type(m) is int for m in got)


# ---------------------------------------------------------------------------
# pentagon
# ---------------------------------------------------------------------------


def pentagon_deviation(k):
    # the entry-by-entry loop, with each sum over h taken in ascending order
    def ch(a, b):
        return sorted(fuse(k, a, b))

    worst = 0.0
    for a, b, c, d in itertools.product(range(k + 1), repeat=4):
        for f, l in itertools.product(ch(a, b), ch(c, d)):
            for g in ch(f, c):
                for e, m in itertools.product(ch(g, d), ch(b, l)):
                    lhs = q6j(k, f, c, d, e, g, l) * q6j(k, a, b, l, e, f, m)
                    rhs = sum(
                        q6j(k, a, b, c, g, f, h) * q6j(k, a, h, d, e, g, m) * q6j(k, b, c, d, m, h, l)
                        for h in ch(b, c)
                    )
                    worst = max(worst, abs(lhs - rhs))
    return worst


def _pentagon_ab_loop(k, dense):
    # the array pentagon as first written: one join per (a, b), its RHS
    # terms expanded over h and summed by bincount
    size = k + 1
    flat = modular._flat
    cube = modular._admissibility_cube(k)
    worst = 0.0
    for a, b in itertools.product(range(size), repeat=2):
        f = np.flatnonzero(cube[a, b])
        r, c, g = np.nonzero(cube[f])
        f = f[r]
        r, d, e = np.nonzero(cube[g])
        f, c, g = f[r], c[r], g[r]
        r, l = np.nonzero(cube[c, d])
        f, c, g, d, e = f[r], c[r], g[r], d[r], e[r]
        r, m = np.nonzero(cube[b, l])
        f, c, g, d, e, l = f[r], c[r], g[r], d[r], e[r], l[r]
        lhs = dense[flat(size, f, c, d, e, g, l)] * dense[flat(size, a, b, l, e, f, m)]
        r, h = np.nonzero(cube[b, c])
        c, d, e, f, g, l, m = c[r], d[r], e[r], f[r], g[r], l[r], m[r]
        terms = (
            dense[flat(size, a, b, c, g, f, h)]
            * dense[flat(size, a, h, d, e, g, m)]
            * dense[flat(size, b, c, d, m, h, l)]
        )
        rhs = np.bincount(r, weights=terms, minlength=len(lhs))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


@pytest.mark.parametrize("k", range(1, 10))
def test_pentagon_matches_ab_loop(k):
    look = modular._lookup(k)
    assert modular._pentagon_residual(look).hex() == _pentagon_ab_loop(k, look.dense).hex()


# float.hex of the pentagon residual above the PINNED_REPORTS range, as the
# (a, b) loop gave it for k = 9..11 and the (b, c) join with Horner-built
# flat indices for k = 12
PINNED_PENTAGON = {
    9: "0x1.5c00000000000p-47",
    10: "0x1.0800000000000p-48",
    11: "0x1.6c80000000000p-47",
    12: "0x1.c000000000000p-48",
}


@pytest.mark.parametrize("k", sorted(PINNED_PENTAGON))
def test_pentagon_bits_above_report_pins(k):
    assert modular._pentagon_residual(modular._lookup(k)).hex() == PINNED_PENTAGON[k]


def test_pentagon_traced_peak():
    # the joins for one (b, c) hold no copy of their rows per h channel:
    # 7.5 MiB at k = 10, where the (a, b) loop's expanded RHS took 21.5 MiB
    look = modular._lookup(10)
    tracemalloc.start()
    try:
        modular._pentagon_residual(look)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("k", [1, 2])
def test_pentagon_small_levels(k):
    assert residual_report(k)["pentagon"] < 1e-10


def test_pentagon_level3():
    assert residual_report(3)["pentagon"] < 1e-9


@pytest.mark.slow
def test_pentagon_desk_scale():
    for k in (6, 7, 8):
        assert modular._pentagon_residual(modular._lookup(k)) < 1e-9


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------


def test_braiding_level1_eigenvalue():
    channels, b = braiding(1, 1, 1, 1, 1)
    assert channels == (0,)
    assert b[0, 0] == pytest.approx(1j, abs=1e-12)


def test_braiding_level2_block():
    channels, b = braiding(2, 1, 1, 1, 1)
    assert channels == (0, 2)
    expected = np.array(
        [
            [0.27059805 + 0.65328148j, 0.65328148 - 0.27059805j],
            [0.65328148 - 0.27059805j, 0.27059805 + 0.65328148j],
        ]
    )
    assert np.abs(b - expected).max() < 1e-7


def test_braiding_eigenvalues_are_twist_ratios():
    # B is F^{-1} D F, so its spectrum must be the d-phases of the fused legs
    for k in (2, 3):
        for j1, j4 in itertools.product(range(k + 1), repeat=2):
            channels, b = braiding(k, j1, 2, 2, j4)
            if not channels:
                continue
            target = target_channels(k, j1, 2, 2, j4)
            key = lambda z: (round(z.real, 8), round(z.imag, 8))
            expected = sorted(
                (
                    (-1.0) ** ((4 - j) // 2)
                    * cmath.exp(1j * math.pi * (j * (j + 2) - 16) / (4 * (k + 2)))
                    for j in target
                ),
                key=key,
            )
            got = sorted(np.linalg.eigvals(b), key=key)
            assert np.abs(np.array(got) - np.array(expected)).max() < 1e-9


def test_braiding_inverse():
    for k in (1, 2, 3, 4):
        for j1, j2, j3, j4 in itertools.product(range(k + 1), repeat=4):
            channels, b = braiding(k, j1, j2, j3, j4)
            if not channels:
                continue
            _, binv = braiding(k, j1, j2, j3, j4, inverse=True)
            assert np.abs(b @ binv - np.eye(len(channels))).max() < 1e-10


def yang_baxter_deviation(k):
    worst = 0.0
    for j in range(k + 1):
        for j4 in range(k + 1):
            channels = source_channels(k, j, j, j, j4)
            if not channels:
                continue
            _, b23 = braiding(k, j, j, j, j4)
            d12 = np.diag(
                [
                    (-1.0) ** ((2 * j - i) // 2)
                    * cmath.exp(1j * math.pi * (i * (i + 2) - 2 * j * (j + 2)) / (4 * (k + 2)))
                    for i in channels
                ]
            )
            lhs = d12 @ b23 @ d12
            rhs = b23 @ d12 @ b23
            worst = max(worst, np.abs(lhs - rhs).max())
    return worst


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_yang_baxter(k):
    assert yang_baxter_deviation(k) < 1e-9


@pytest.mark.slow
@pytest.mark.parametrize("k", [5, 6])
def test_yang_baxter_desk_scale(k):
    assert yang_baxter_deviation(k) < 1e-9


def braiding_relation_loop(k):
    # the braid_phase_relation residual as first written: a braid block and a
    # crossed fusing block per quad, through the public calls, entry by entry
    worst = 0.0
    for j1, j2, j3, j4 in itertools.product(range(k + 1), repeat=4):
        src, b = braiding(k, j1, j2, j3, j4)
        if not src:
            continue
        rows, cols, crossed = fusion_matrix(k, j2, j1, j3, j4)
        for j in (c for c in cols if c in src):
            for i in src:
                phase = (-1.0) ** ((j1 + j4 - i - j) // 2) * cmath.exp(
                    -1j
                    * math.pi
                    * (i * (i + 2) + j * (j + 2) - j1 * (j1 + 2) - j4 * (j4 + 2))
                    / (4 * (k + 2))
                )
                dev = abs(
                    b[src.index(i), src.index(j)]
                    - phase * crossed[rows.index(i), cols.index(j)]
                )
                worst = max(worst, dev)
    return worst


@pytest.mark.parametrize("k", [1, 2, 3])
def test_braiding_phase_relation(k):
    residual = residual_report(k)["braid_phase_relation"]
    assert residual < 1e-9
    assert residual.hex() == braiding_relation_loop(k).hex()


def test_braiding_phase_relation_out_of_range():
    assert residual_report(4)["braid_phase_relation"] is None


# ---------------------------------------------------------------------------
# twists and the torus S matrix
# ---------------------------------------------------------------------------


def test_t_phase_values():
    assert t_phase(1, 1) == pytest.approx(cmath.exp(2j * math.pi * 5 / 24), abs=1e-12)
    assert t_phase(1, 0) == pytest.approx(cmath.exp(-1j * math.pi / 12), abs=1e-12)
    assert t_phase(2, 1) == pytest.approx(cmath.exp(1j * math.pi / 4), abs=1e-12)
    for k in range(1, 7):
        assert t_phase(k, 0) == pytest.approx(cmath.exp(-2j * math.pi * k / (8 * (k + 2))), abs=1e-12)
        for n in range(k + 1):
            assert abs(t_phase(k, n)) == pytest.approx(1.0, abs=1e-12)


def test_s_torus_level1():
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / RT2
    assert np.abs(s_torus(1) - expected).max() < 1e-12


@pytest.mark.parametrize("k", range(1, 7))
def test_s_torus_properties(k):
    s = s_torus(k)
    assert s.shape == (k + 1, k + 1)
    assert np.abs(s - s.T).max() < 1e-12
    assert np.abs(s.imag).max() == 0.0
    assert np.abs(s @ s - np.eye(k + 1)).max() < 1e-12
    assert s[0, 0] == pytest.approx(math.sqrt(2.0 / (k + 2)) * math.sin(math.pi / (k + 2)), abs=1e-12)
    assert (s[0] > 0).all()


@pytest.mark.parametrize("k", range(1, 7))
def test_modular_relation(k):
    # (ST)^3 = S^2 exactly, thanks to the central-charge factor in T
    s = s_torus(k)
    t = np.diag([t_phase(k, n) for n in range(k + 1)])
    st3 = np.linalg.matrix_power(s @ t, 3)
    assert np.abs(st3 - s @ s).max() < 1e-12


# ---------------------------------------------------------------------------
# phase classes
# ---------------------------------------------------------------------------


def test_phase_unit_value():
    assert phase_unit(1) == pytest.approx(cmath.exp(1j * math.pi / 12), abs=1e-14)
    assert phase_unit(2) == pytest.approx(cmath.exp(1j * math.pi / 8), abs=1e-14)


def test_same_phase_class():
    z = 0.3 - 0.4j
    for k in (1, 2, 3):
        for m in (-5, -1, 0, 1, 3, 8):
            assert same_phase_class(z, z * phase_unit(k) ** m, k)
    assert not same_phase_class(z, 1.1 * z, 1)
    assert not same_phase_class(z, z * cmath.exp(0.01j), 1)
    assert same_phase_class(0.0, 0.0, 2)
    assert not same_phase_class(z, 0.0, 2)


# ---------------------------------------------------------------------------
# block spaces and the diagonal twist operator
# ---------------------------------------------------------------------------


def test_block_space_dimensions_match_verlinde():
    for k in (1, 2, 3):
        assert block_space(theta_graph(), k).dim == verlinde(2, k)
        assert block_space(dumbbell_graph(), k).dim == verlinde(2, k)
    for k in (1, 2):
        assert block_space(chain_graph(3), k).dim == verlinde(3, k)


def test_block_space_boundary_labels():
    # one-holed torus: a loop with a pinned leg
    graph = TrivalentGraph.from_edges(1, [(0, 0)], parabolic=(0,))
    leg = graph.parabolic_darts()[0]
    space = block_space(graph, 3, boundary={leg: Fraction(2, 6)})
    assert space.dim == 2
    assert [w.numerators for w in space.basis] == [(1, 2), (2, 2)]
    with pytest.raises(ValueError):
        block_space(graph, 3)


def t_operator(space, e):
    # the diagonal twist by the weight of edge e, as a matrix;
    # genus_chain_operator applies the same twists as row scalings
    return np.diag([t_phase(space.level, n) for n in modular._edge_labels(space, e)])


def test_t_operator_diagonal_phases():
    space = block_space(theta_graph(), 1)
    numerators = [w.numerators for w in space.basis]
    assert numerators == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    op = t_operator(space, 0)
    assert op.shape == (4, 4)
    assert np.abs(op - np.diag(np.diag(op))).max() == 0.0
    for idx, nums in enumerate(numerators):
        assert op[idx, idx] == pytest.approx(t_phase(1, nums[0]), abs=1e-12)
    assert np.abs(np.abs(np.diag(op)) - 1.0).max() < 1e-12
    # darts address the same edge
    assert np.abs(t_operator(space, 1) - op).max() == 0.0


def test_t_operators_commute():
    space = block_space(dumbbell_graph(), 2)
    t0 = t_operator(space, 0)
    t4 = t_operator(space, 4)
    assert np.abs(t0 @ t4 - t4 @ t0).max() < 1e-12


# ---------------------------------------------------------------------------
# genus-1 Heegaard invariants
# ---------------------------------------------------------------------------


def test_heegaard_word_parsing():
    with pytest.raises(ValueError, match="unknown generator 'X'"):
        heegaard_invariant("S X", 2)
    # letters are split on any whitespace
    for k in (1, 2, 3):
        assert heegaard_invariant("  S\tT  T-1\nS ", k) == heegaard_invariant("S T T-1 S", k)


def test_heegaard_identity_and_s():
    for k in (1, 2, 3, 4):
        assert heegaard_invariant("", k) == pytest.approx(1.0, abs=1e-12)
        expected = math.sqrt(2.0 / (k + 2)) * math.sin(math.pi / (k + 2))
        assert heegaard_invariant("S", k) == pytest.approx(expected, abs=1e-12)


def test_heegaard_lens_space_values():
    # S T^2 S matrix elements frozen from the closed-form S and T
    assert abs(heegaard_invariant("S T T S", 1)) < 1e-12
    assert heegaard_invariant("S T T S", 2) == pytest.approx(
        0.3535533905932739 + 0.14644660940672619j, abs=1e-12
    )


def test_heegaard_word_inverse_pairs():
    for k in (1, 2):
        assert heegaard_invariant("T T-1", k) == pytest.approx(1.0, abs=1e-12)
        assert heegaard_invariant("S S S S", k) == pytest.approx(1.0, abs=1e-12)


def test_heegaard_t_conjugation_invariance():
    rng = random.Random(7)
    for k in (1, 2, 3):
        for _ in range(25):
            letters = [rng.choice(["S", "T", "T-1"]) for _ in range(rng.randrange(9))]
            base = heegaard_invariant(" ".join(letters), k)
            value = heegaard_invariant(" ".join(["T"] + letters + ["T-1"]), k)
            assert abs(value - base) < 1e-10
            assert same_phase_class(value, base, k)


# ---------------------------------------------------------------------------
# switching operators
# ---------------------------------------------------------------------------


def test_switching_closed_torus_is_s():
    for k in (1, 2, 3):
        assert np.abs(switching_operator(k, 0) - s_torus(k)).max() < 1e-12


def test_switching_level2_scalar():
    s = switching_operator(2, 2)
    assert s.shape == (1, 1)
    assert s[0, 0] == pytest.approx(cmath.exp(-3j * math.pi / 4), abs=1e-9)


@pytest.mark.parametrize(("k", "j"), [(1, 0), (2, 0), (2, 2), (3, 0), (3, 2)])
def test_switching_defining_conditions(k, j):
    s = switching_operator(k, j)
    dim = s.shape[0]
    assert np.abs(s @ s.conj().T - np.eye(dim)).max() < 1e-9
    # squares to the conjugation phase on the hole label (spin j/2)
    square_phase = (-1.0) ** (j // 2) * cmath.exp(-1j * math.pi * j * (j + 2) / (4 * (k + 2)))
    assert np.abs(s @ s - square_phase * np.eye(dim)).max() < 1e-9
    # (S T)^3 = S^2 blockwise, with the twist of the loop label
    loop = [m for m in range(k + 1) if 2 * m + j <= 2 * k and (2 * m + j) % 2 == 0 and j <= 2 * m]
    t = np.diag([t_phase(k, m) for m in loop])
    st3 = np.linalg.matrix_power(s @ t, 3)
    assert np.abs(st3 - s @ s).max() < 1e-9


def test_switching_residuals_small_levels():
    for k in (1, 2, 3):
        report = switching_residuals(k)
        assert max(report.values()) < 1e-9
        assert ("slide", 1, 1) in report


def slide_data_uncached(k, n1, n2):
    # modular._slide_data as first written, built afresh on every call
    pairs = [
        (m, l)
        for m in range(k + 1)
        for l in range(k + 1)
        if modular._triple_ok(k, m, l, n1) and modular._triple_ok(k, m, l, n2)
    ]
    if not pairs:
        return None
    index = {pair: i for i, pair in enumerate(pairs)}
    chans = modular._channels(k, n1, n2)
    fused = [(j, m) for j in chans for m in modular._loop_labels(k, j)]
    dim = len(pairs)
    iso = np.zeros((dim, dim))
    for col, (m, l) in enumerate(pairs):
        for row, (j, mm) in enumerate(fused):
            if mm == m:
                iso[row, col] = q6j(k, n1, m, m, n2, l, j)
    relabel = np.diag([t_phase(k, l) / t_phase(k, m) for m, l in pairs])
    slide = np.zeros((dim, dim), dtype=complex)
    for col, (m, l) in enumerate(pairs):
        src, bmat = braiding(k, l, n1, n2, l, inverse=True)
        for n in src:
            slide[index[(l, n)], col] = bmat[src.index(n), src.index(m)]
    inv = np.linalg.inv(iso)
    return chans, iso @ relabel @ inv, iso @ slide @ inv


def switching_residuals_loop(k):
    # switching_residuals as first written, on the uncached slide data
    report = {}
    for j in range(0, k + 1, 2):
        s = switching_operator(k, j)
        d = s.shape[0]
        report[("unitarity", j)] = np.abs(s @ s.conj().T - np.eye(d)).max()
        square = (-1.0) ** (j // 2) * cmath.exp(-1j * math.pi * j * (j + 2) / (4 * (k + 2)))
        report[("square", j)] = np.abs(s @ s - square * np.eye(d)).max()
        twist = np.diag([t_phase(k, m) for m in modular._loop_labels(k, j)])
        report[("modular", j)] = np.abs(np.linalg.matrix_power(s @ twist, 3) - s @ s).max()
    for n1, n2 in itertools.product(range(k + 1), repeat=2):
        data = slide_data_uncached(k, n1, n2)
        if data is not None:
            chans, relabeled, slid = data
            y = modular._assemble_blocks(k, chans, -1, None)
            report[("slide", n1, n2)] = np.abs(y @ relabeled - slid @ y).max()
    return report


@pytest.mark.parametrize("k", [1, 2, 3])
def test_switching_residuals_bits_match_loop(k):
    got, want = switching_residuals(k), switching_residuals_loop(k)
    assert list(got) == list(want)
    assert [float(v).hex() for v in got.values()] == [float(v).hex() for v in want.values()]


def test_slide_data_is_shared_read_only():
    chans, relabeled, slid = modular._slide_data(2, 1, 1)
    assert modular._slide_data(2, 1, 1)[1] is relabeled
    for cached in (relabeled, slid):
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0
    # the switching operator stays the caller's own copy
    s = switching_operator(2, 2)
    s[0, 0] = 0.0
    assert switching_operator(2, 2)[0, 0] != 0.0


def test_switching_out_of_range():
    with pytest.raises(ValueError):
        switching_operator(4, 2)
    with pytest.raises(ValueError):
        switching_operator(2, 1)
    with pytest.raises(ValueError):
        switching_operator(2, 4)
    with pytest.raises(ValueError):
        switching_residuals(4)


# ---------------------------------------------------------------------------
# experimental genus-g chain assembly
# ---------------------------------------------------------------------------


def test_genus_chain_operator_unitary():
    for k in (1, 2):
        space = block_space(chain_graph(2), k)
        ops = [("T", 0), ("S", "first"), ("T", 4), ("S", "last"), ("T-1", 2)]
        rho = genus_chain_operator(space, ops)
        assert rho.shape == (space.dim, space.dim)
        assert np.abs(rho @ rho.conj().T - np.eye(space.dim)).max() < 1e-9


def test_genus_chain_identity_invariant():
    for g in (2, 3):
        for k in (1, 2):
            assert genus_chain_invariant(k, g, []) == pytest.approx(1.0, abs=1e-12)


def test_genus_chain_twist_conjugation_invariance():
    rng = random.Random(11)
    for k in (1, 2):
        space = block_space(chain_graph(2), k)
        edges = sorted({space.graph.edge_of(d) for d in range(space.graph.n_darts)})
        for _ in range(10):
            ops = []
            for _ in range(rng.randrange(1, 6)):
                kind = rng.choice(["T", "T-1", "S", "S"])
                ops.append((kind, rng.choice(["first", "last"]) if kind == "S" else rng.choice(edges)))
            base = genus_chain_invariant(k, 2, ops)
            for e in edges:
                conj = [("T", e)] + ops + [("T-1", e)]
                assert abs(genus_chain_invariant(k, 2, conj) - base) < 1e-9


def test_genus_chain_bad_tokens():
    space = block_space(chain_graph(2), 1)
    with pytest.raises(ValueError):
        genus_chain_operator(space, [("S", "middle")])
    with pytest.raises(ValueError):
        genus_chain_operator(space, [("Q", 0)])


# ---------------------------------------------------------------------------
# residual report
# ---------------------------------------------------------------------------


def test_residual_report_contents():
    report = residual_report(2)
    for key in (
        "orthogonality",
        "symmetry",
        "pentagon",
        "yang_baxter",
        "braid_inverse",
        "braid_phase_relation",
        "s_unitarity",
        "modular_relation",
        "switching",
    ):
        assert key in report
        assert report[key] < 1e-9


REPORT_KEYS = (
    "orthogonality",
    "symmetry",
    "pentagon",
    "yang_baxter",
    "braid_inverse",
    "braid_phase_relation",
    "s_unitarity",
    "modular_relation",
    "t_unimodularity",
    "switching",
)

# float.hex of every residual, in REPORT_KEYS order, as the entry-by-entry
# loops printed them with numpy's bundled OpenBLAS on x86-64; the batched
# relations must keep every bit
PINNED_REPORTS = {
    1: (
        "0x1.0000000000000p-51",
        "0x0.0p+0",
        "0x1.0000000000000p-52",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.245ac8b84abd6p-52",
        "0x1.0000000000000p-53",
        "0x1.385443fc9034cp-52",
        "0x1.0000000000000p-53",
        "0x1.385443fc9034cp-52",
    ),
    2: (
        "0x1.0000000000000p-50",
        "0x0.0p+0",
        "0x1.8000000000000p-51",
        "0x1.1e3779b97f4a8p-53",
        "0x1.0000000000000p-52",
        "0x1.752e50db3a3a2p-51",
        "0x1.0000000000000p-52",
        "0x1.f6fe551566938p-52",
        "0x0.0p+0",
        "0x1.f6fe551566938p-52",
    ),
    3: (
        "0x1.8000000000000p-51",
        "0x1.0000000000000p-52",
        "0x1.8000000000000p-51",
        "0x1.1e3779b97f4a8p-53",
        "0x1.05abaff80d98bp-52",
        "0x1.eeed642ed96f9p-52",
        "0x1.0000000000000p-52",
        "0x1.1d967672cdaa8p-51",
        "0x0.0p+0",
        "0x1.40049718ba130p-51",
    ),
    4: (
        "0x1.0000000000000p-50",
        "0x1.0000000000000p-52",
        "0x1.0000000000000p-50",
        "0x1.c48c6001f0ac0p-52",
        "0x1.8036a92e18b9cp-52",
        None,
        "0x1.0000000000000p-51",
        "0x1.184f34e8b2066p-50",
        "0x1.0000000000000p-53",
        None,
    ),
    5: (
        "0x1.4000000000000p-50",
        "0x1.0000000000000p-52",
        "0x1.8000000000000p-50",
        "0x1.4e16fdacff937p-51",
        "0x1.4000174e7f6abp-51",
        None,
        "0x1.8000000000000p-51",
        "0x1.76b7a32252258p-50",
        "0x1.0000000000000p-53",
        None,
    ),
    6: (
        "0x1.2000000000000p-49",
        "0x1.8000000000000p-52",
        "0x1.4000000000000p-49",
        "0x1.f9f6e4990f227p-51",
        "0x1.0000005543b48p-51",
        None,
        "0x1.3dcde01aa15e2p-51",
        "0x1.19637927fe1dbp-50",
        "0x0.0p+0",
        None,
    ),
    7: (
        "0x1.2000000000000p-49",
        "0x1.0000000000000p-51",
        "0x1.2400000000000p-49",
        "0x1.9f136df6e620ap-50",
        "0x1.80ab5e59e98f8p-51",
        None,
        "0x1.e696287bad140p-51",
        "0x1.4000000000000p-49",
        "0x0.0p+0",
        None,
    ),
    8: (
        "0x1.a000000000000p-50",
        "0x1.8000000000000p-52",
        "0x1.3c00000000000p-49",
        "0x1.ad9266b897a3ep-49",
        "0x1.404f9e2e1ed54p-51",
        None,
        "0x1.7d03472d306f6p-51",
        "0x1.94c084650a365p-50",
        "0x1.0000000000000p-52",
        None,
    ),
}


@pytest.mark.parametrize("k", range(1, 9))
def test_residual_report_bits(k):
    report = residual_report(k)
    assert tuple(report) == REPORT_KEYS
    assert tuple(None if v is None else float(v).hex() for v in report.values()) == PINNED_REPORTS[k]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_residual_report_equals_scalar_loops(k):
    report = residual_report(k)
    assert report["orthogonality"] == orthogonality_deviation(k)
    assert report["symmetry"] == symmetry_deviation(k)
    assert report["pentagon"] == pentagon_deviation(k)
    if k <= 3:
        assert report["braid_phase_relation"].hex() == braiding_relation_loop(k).hex()
        assert report["switching"].hex() == max(switching_residuals_loop(k).values()).hex()


def test_residual_report_skips_out_of_range_checks():
    report = residual_report(4)
    assert report["braid_phase_relation"] is None
    assert report["switching"] is None
    assert report["pentagon"] < 1e-9
