"""Half-edge trivalent graphs: moves, ribbon data, faces, canonical forms.

A graph is stored as a dart involution plus a dart-to-vertex map.  Darts
(half-edges) are integers 0..n-1; an internal edge is an involution orbit of
size two, a parabolic leg is a fixed point.  Loops and parallel edges are
first-class, so every operation works at the dart level.  An edge is named by
its smallest dart.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .su2reps import _check_int


@dataclass(frozen=True)
class TrivalentGraph:
    """Immutable half-edge graph.

    ``involution[d] == d`` marks a parabolic leg.  Vertices are labeled by
    consecutive integers.  Intermediate results of moves may carry a single
    4-valent vertex; everything else expects valence 3.
    """

    involution: tuple
    vertex_of: tuple

    def __post_init__(self):
        object.__setattr__(self, "involution", tuple(self.involution))
        object.__setattr__(self, "vertex_of", tuple(self.vertex_of))
        n = len(self.involution)
        if len(self.vertex_of) != n:
            raise ValueError("involution and vertex map disagree on dart count")
        for d, p in enumerate(self.involution):
            if not 0 <= p < n:
                raise ValueError(f"dart {d} pairs with out-of-range dart {p}")
            if self.involution[p] != d:
                raise ValueError("edge pairing is not an involution")
        if any(v < 0 for v in self.vertex_of):
            raise ValueError("negative vertex index")

    # -- basic queries -----------------------------------------------------

    @property
    def n_darts(self):
        return len(self.involution)

    @property
    def n_vertices(self):
        return max(self.vertex_of) + 1 if self.vertex_of else 0

    def star(self, v):
        """Darts at vertex v, ascending."""
        cache = self.__dict__.get("_stars")
        if cache is None:
            cache = [[] for _ in range(self.n_vertices)]
            for d, w in enumerate(self.vertex_of):
                cache[w].append(d)
            cache = tuple(tuple(s) for s in cache)
            object.__setattr__(self, "_stars", cache)
        return cache[v]

    def edges(self):
        """Internal edges as (dart, partner) pairs with dart < partner."""
        return [
            (d, self.involution[d])
            for d in range(self.n_darts)
            if self.involution[d] > d
        ]

    def edge_ids(self):
        return [d for d, _ in self.edges()]

    def parabolic_darts(self):
        return [d for d in range(self.n_darts) if self.involution[d] == d]

    def edge_of(self, d):
        return min(d, self.involution[d])

    def is_loop(self, e):
        p = self.involution[e]
        return p != e and self.vertex_of[p] == self.vertex_of[e]

    def is_trivalent(self):
        counts = [0] * self.n_vertices
        for v in self.vertex_of:
            counts[v] += 1
        return all(c == 3 for c in counts)

    def is_connected(self):
        return len(_components(self)) <= 1

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n_vertices, edges, parabolic=()):
        """Build from a list of (u, v) pairs; loops are (v, v).

        Edge i receives darts 2i (at u) and 2i+1 (at v); parabolic legs get
        one dart each, appended after all internal darts.
        """
        inv, vert = [], []
        for u, v in edges:
            d = len(inv)
            inv += [d + 1, d]
            vert += [u, v]
        for u in parabolic:
            inv.append(len(inv))
            vert.append(u)
        used = max(vert) + 1 if vert else 0
        if used != n_vertices:
            raise ValueError("vertex count must match the labels used")
        return cls(tuple(inv), tuple(vert))


def theta_graph():
    """Two vertices joined by three parallel edges."""
    return TrivalentGraph.from_edges(2, [(0, 1), (0, 1), (0, 1)])


def dumbbell_graph():
    """Two loop vertices joined by a bridge."""
    return TrivalentGraph.from_edges(2, [(0, 0), (1, 1), (0, 1)])


def multi_theta(g):
    """Cycle of g-1 doubled-edge cells; genus g with 2g-2 vertices."""
    if g < 2:
        raise ValueError("multi-theta graphs need genus >= 2")
    n = 2 * g - 2
    edges = []
    for i in range(g - 1):
        a, b = 2 * i, 2 * i + 1
        edges += [(a, b), (a, b), (b, (b + 1) % n)]
    return TrivalentGraph.from_edges(n, edges)


def chain_graph(g):
    """Chain of g circles joined by g-1 bridges; genus g (g=2: dumbbell)."""
    if g < 2:
        raise ValueError("chain graphs need genus >= 2")
    n = 2 * g - 2
    edges = [(0, 0), (n - 1, n - 1)]
    for a in range(1, n - 2, 2):
        edges += [(a, a + 1), (a, a + 1)]
    for a in range(0, n - 1, 2):
        edges.append((a, a + 1))
    return TrivalentGraph.from_edges(n, edges)


# -- genus and components ----------------------------------------------------


def _walk_components(nodes, neighbours):
    """Connected components of ascending `nodes` under `neighbours`, each
    sorted, in the order of their least node."""
    seen = set()
    comps = []
    for v0 in nodes:
        if v0 in seen:
            continue
        comp = {v0}
        queue = [v0]
        while queue:
            for w in neighbours(queue.pop()):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def _components(graph):
    return _walk_components(
        range(graph.n_vertices),
        lambda v: [graph.vertex_of[graph.involution[d]] for d in graph.star(v)],
    )


def genus(graph):
    """First Betti number of the underlying 1-complex.

    For closed connected trivalent graphs this is the g with |V| = 2g-2 and
    |E| = 3g-3; parabolic legs never contribute.
    """
    return len(graph.edges()) - graph.n_vertices + len(_components(graph))


def spanning_tree(graph):
    """Breadth-first spanning tree from vertex 0 as (child, parent, edge)
    records, in the order the children are reached."""
    parent = {0: None}
    records = []
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for d in graph.star(v):
                p = graph.involution[d]
                u = graph.vertex_of[p]
                if p != d and u not in parent:
                    parent[u] = v
                    records.append((u, v, graph.edge_of(d)))
                    nxt.append(u)
        frontier = nxt
    if len(parent) != graph.n_vertices:
        raise ValueError("graph must be connected")
    return records


def chord_edges(graph):
    """Edges outside the breadth-first spanning tree, in edge id order."""
    tree = {e for _, _, e in spanning_tree(graph)}
    return tuple(e for e in graph.edge_ids() if e not in tree)


# -- canonical forms and isomorphism -----------------------------------------


def _vertex_encoding(graph, order):
    vmap = {}
    for d in order:
        vmap.setdefault(graph.vertex_of[d], len(vmap))
    return tuple(vmap[graph.vertex_of[d]] for d in order)


def _vertex_profile(graph, v):
    # cheap relabeling-invariant used to restrict canonical seeds
    neigh = {}
    loops = 0
    for d in graph.star(v):
        w = graph.vertex_of[graph.involution[d]]
        if w == v:
            loops += 1
        else:
            neigh[w] = neigh.get(w, 0) + 1
    return (loops, tuple(sorted(neigh.values())), len(graph.star(v)))


def _least_encoding(graph, seeds, bound=None):
    """Least (inv_t, vert_t) over the BFS relabelings from `seeds`, all in
    one component (see canonical_form); with a bound, the first encoding
    found strictly below it, or the bound itself if there is none.

    `graph` is a TrivalentGraph, or a partial matching on three-dart stars:
    a list whose entry d is dart d's partner, or -1 while d is unmatched,
    with dart d on star d // 3.  A partial matching needs a bound; the
    enumeration passes its identity labeling, -1 entries included.  While a
    branch ties the bound, its walk stops at the first step whose partner is
    unmatched, or whose bound entry is -1: the comparison is undecided
    there.  A branch that is already below the bound at a decided step
    records its decided prefix as the encoding found.  That relabeling
    is a BFS relabeling of every completion of the matching, with the
    same decided prefix, so the bound is the least labeling of no
    completion.  A walk that closes before labeling every dart has found a
    component that no completion joins to the rest.

    A BFS relabeling lists the darts star by star, so when every star of
    the graph has one size w its vert_t is (t // w for each t) whatever
    the relabeling, and is taken from that rule.  Stars of two sizes (a
    4-valent vertex left by contract_edge) need _vertex_encoding at every
    complete relabeling.

    Twin cut: a three-dart star entered at dart p, with other darts y1 < y2,
    is labeled in the order (p, y1, y2) alone when y1 and y2 form a loop,
    or when their partners z1 and z2 lie on one unlabeled star other than
    p's.  Then sigma = (y1 y2), or (y1 y2)(z1 z2), is an automorphism
    fixing every labeled dart, so it maps the subtree of (p, y2, y1) onto
    that of (p, y1, y2), encoding for encoding.  The explored subtree comes
    first, so neither the least encoding nor the first one found below a
    bound changes.  The seed star's orders (d0, y1, y2) and (d0, y2, y1)
    are cut by the same rule, before any dart is labeled.  In a partial
    matching the cut needs both partners matched.

    Root cut: the seed orders (roots) are searched one after another.  When
    a complete relabeling under a root encodes exactly the best, and the
    best came from an earlier root, mapping that relabeling onto this one
    is an automorphism (between components, an isomorphism).  It maps the
    earlier root's subtree onto this root's, so this root holds no
    encoding the search has not seen, and the rest of it is skipped.  The
    first root to tie a given bound stands for the earlier root.
    """
    if isinstance(graph, TrivalentGraph):
        involution, vertex_of = graph.involution, graph.vertex_of
        stars = [graph.star(v) for v in range(graph.n_vertices)]
        most = max(map(len, stars), default=0)
        if most > 4:
            raise ValueError(f"canonical forms need stars of at most 4 darts, got {most}")
        sizes = {len(star) for star in stars}
        if len(sizes) == 1:
            (w,) = sizes
            blocks = tuple(d // w for d in range(graph.n_darts))
        else:
            blocks = None
        entries = _entry_orders(stars, graph.n_darts)
    else:
        involution = graph
        vertex_of, stars, entries = _matching_layout(len(graph))
        blocks = vertex_of
    best = bound
    n_darts = len(involution)
    # new_id[d] is dart d's new label, -1 while unlabeled; the last slot,
    # -2, is read through an unmatched dart's partner -1
    order, new_id, inv_t = [], [-1] * n_darts + [-2], [0] * n_darts
    groups = [None] * n_darts

    def star_orders(p):
        # entries[p] with the dart whose being unlabeled licenses the twin
        # cut at p's star, or -1.  Built on first use.
        full, _ = entries[p]
        twin = -1
        if len(full) == 2:
            _, y1, y2 = full[0]
            z1, z2 = involution[y1], involution[y2]
            if z1 == y2:
                twin = y1
            elif min(z1, z2) >= 0 and vertex_of[z1] == vertex_of[z2] != vertex_of[p]:
                twin = z1
        groups[p] = entry = (twin, *entries[p])
        return entry

    def rec(t, tied):
        nonlocal best, best_root, skip_root
        # Walks steps t, t+1, ... while their partners are labeled, then
        # enters the star of the first unlabeled one.  tied: inv_t[:t]
        # equals the best's prefix.  Returns whether a new best was
        # recorded below, which ties every open frame again.
        n = len(order)
        while t < n:
            x = new_id[involution[order[t]]]
            if x < 0:
                if x < -1:
                    # an unmatched partner: undecided while tied
                    if tied:
                        return False
                    best = (tuple(inv_t[:t]), blocks[:t])
                    return True
                x = n
            if tied and best is not None:
                b = best[0][t]
                if x > b:
                    return False
                tied = x == b
            inv_t[t] = x
            if x == n:
                break
            t += 1
        else:
            vert_t = blocks[:n] if blocks is not None else _vertex_encoding(graph, order)
            if best is not None and tied and vert_t >= best[1]:
                if vert_t == best[1]:
                    if best_root is None:
                        best_root = root
                    skip_root = best_root != root
                return False
            best = (tuple(inv_t[:n]), vert_t)
            best_root = root
            return True
        found = False
        p = involution[order[t]]
        twin, full, first = groups[p] or star_orders(p)
        for group in first if twin >= 0 and new_id[twin] < 0 else full:
            for i, y in enumerate(group, n):
                new_id[y] = i
            order[n:] = group
            if rec(t + 1, tied):
                found = tied = True
                if bound is not None:
                    break
            elif skip_root:
                break
        for y in group:
            new_id[y] = -1
        del order[n:]
        return found

    best_root = None
    root = 0
    for seed in seeds:
        # a dartless vertex has the one empty order
        perms = []
        for d0 in stars[seed]:
            twin, full, first = groups[d0] or star_orders(d0)
            perms += first if twin >= 0 else full
        for perm in perms or [()]:
            root += 1
            skip_root = False
            order[:] = perm
            for i, d in enumerate(perm):
                new_id[d] = i
            if rec(0, True) and bound is not None:
                return best
            for d in perm:
                new_id[d] = -1
    return best


def _entry_orders(stars, n_darts):
    # for each dart p, the orders in which its star is labeled when entered
    # at p: p, then the rest of the star in every order; and the first
    # order alone, for when the twin cut applies
    entries = [None] * n_darts
    for star in stars:
        for p in star:
            full = [(p,) + tail for tail in itertools.permutations([y for y in star if y != p])]
            entries[p] = (full, full[:1])
    return entries


@functools.lru_cache(maxsize=None)
def _matching_layout(n_darts):
    # vertex_of, stars and entry orders of three-dart stars in blocks
    stars = [(d, d + 1, d + 2) for d in range(0, n_darts, 3)]
    return tuple(d // 3 for d in range(n_darts)), stars, _entry_orders(stars, n_darts)


# the search recurses once per vertex of a component, and Python stops at
# 1,000 frames: this leaves room for the callers' frames, pytest's included
MAX_CANONICAL_VERTICES = 800


def canonical_form(graph):
    """Relabeling-invariant encoding; equal iff graphs are isomorphic.

    Each component is encoded by its least (inv_t, vert_t) over the BFS
    relabelings: the seed is a vertex of least _vertex_profile with its
    star in some order, and each newly reached vertex gets its entering
    dart, then its other darts in some order.  inv_t[t] is the new label
    of the partner of dart t and vert_t[t] the new label of its vertex.
    The components' encodings are returned sorted.

    inv_t[t] is fixed when BFS step t runs, so the search cuts a branch as
    soon as its inv_t prefix exceeds the best found so far, and compares
    vert_t only at complete relabelings.  It also skips a branch that is
    the automorphic twin of one it explores (the twin cut of
    _least_encoding): a three-dart star with other darts y1 < y2 that form
    a loop, or whose partners lie on one unlabeled star other than its
    own, is labeled in the order y1, y2 alone.  Swapping y1 with y2 (and
    their partners) is then an automorphism fixing every labeled dart, so
    the skipped branch holds the same encodings, and the least encoding is
    the one an exhaustive scan finds.  For the same reason it leaves a seed
    order as soon as one of its relabelings encodes exactly the best found
    under an earlier seed order (the root cut).  When every star has one
    size w (any trivalent graph, legs or not), vert_t is t // w for every
    relabeling and is not computed.  A star of more than 4 darts, or a
    component of more than MAX_CANONICAL_VERTICES vertices, is a ValueError.
    """
    comps = _components(graph)
    most = max(map(len, comps), default=0)
    if most > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical forms stop at {MAX_CANONICAL_VERTICES} vertices a component, got {most}")
    out = []
    for comp in comps:
        profiles = {v: _vertex_profile(graph, v) for v in comp}
        seed_class = min(profiles.values())
        out.append(_least_encoding(graph, [v for v in comp if profiles[v] == seed_class]))
    return tuple(sorted(out))


def is_isomorphic(a, b):
    return canonical_form(a) == canonical_form(b)


# -- enumeration --------------------------------------------------------------


def enumerate_trivalent(g):
    """Isomorphism-class representatives of closed connected trivalent graphs.

    Exhausts perfect matchings on the 3(2g-2) darts of 2g-2 stars with a
    symmetry cut (untouched stars are interchangeable, as are the unpaired
    darts within a star) and keeps each class's least labeling, sorted by
    canonical form.  A prefix that some BFS relabeling already encodes
    below the identity labeling is cut, since no least labeling completes
    it (orderly generation; see _trivalent_classes).  The class list is
    computed once per genus and cached for the life of the process; each
    call returns a fresh list of the same (immutable) graphs.
    """
    return [graph for _, graph in _checked_classes(g)]


def enumerate_forms(g):
    """The canonical forms of the genus-g classes, in enumerate_trivalent's
    order; the enumeration has computed them already."""
    return [form for form, _ in _checked_classes(g)]


def _checked_classes(g):
    if not 2 <= _check_int(g, "genus") <= 6:
        raise ValueError("supported genus range is 2..6")
    return _trivalent_classes(g)


@functools.lru_cache(maxsize=None)
def _trivalent_classes(g):
    """The genus-g classes as (canonical form, least labeling) pairs, sorted,
    by a DFS over matchings in lexicographic order of the involution.

    Each class keeps its least labeling, the one a first-found dedup keeps:
    the cuts below never drop it.  That least labeling is a BFS one: each
    newly reached star takes the next free block, entering dart first.  Its
    vert_t, t // 3, is every BFS relabeling's here, so only inv_t decides.

    Prefix cut (R. C. Read, "Every one a winner", 1978; B. D. McKay,
    "Isomorph-free exhaustive generation", 1998): after pairing dart d, for
    d below half the darts, the prefix is dropped when _least_encoding finds
    a BFS relabeling of the partial matching below the identity at a
    decided step.  That relabeling is one of every completion too, so no
    leaf below the prefix is a least labeling.  Deeper prefixes are not
    tested: at genus 4 and 5, testing down to two thirds of the darts cost
    more than the leaves it saved.  A leaf is tested for connectivity on
    the involution list, then for being least, and only a kept leaf becomes
    a TrivalentGraph.
    """
    n = 2 * g - 2
    n_darts = 3 * n
    blocks = _matching_layout(n_darts)[0]
    inv = [-1] * n_darts
    found = {}

    def rec(d):
        while d < n_darts and inv[d] != -1:
            d += 1
        if d == n_darts:
            own = (tuple(inv), blocks)
            if _matching_connected(inv) and _least_encoding(inv, range(n), own) is own:
                graph = TrivalentGraph(*own)
                key = canonical_form(graph)
                if key in found:
                    raise RuntimeError(f"class {key} has two least labelings")
                found[key] = graph
            return
        cands = []
        untouched_taken = False
        for w in range(n):
            un = [x for x in (3 * w, 3 * w + 1, 3 * w + 2) if inv[x] == -1 and x != d]
            if not un:
                continue
            if len(un) == 3:
                if not untouched_taken:
                    cands.append(un[0])
                    untouched_taken = True
            else:
                cands.append(un[0])
        for p in cands:
            inv[d], inv[p] = p, d
            bound = (tuple(inv), blocks)
            if 2 * d >= n_darts or _least_encoding(inv, range(n), bound) is bound:
                rec(d + 1)
            inv[d] = inv[p] = -1

    rec(0)
    return tuple(sorted(found.items()))


def _matching_connected(inv):
    # a perfect matching on three-dart stars (dart d on star d // 3)
    stars = range(len(inv) // 3)
    return len(_walk_components(stars, lambda v: [x // 3 for x in inv[3 * v : 3 * v + 3]])) == 1


# -- moves --------------------------------------------------------------------


def contract_edge(graph, e):
    """Contract a non-loop edge, merging its endpoints (4-valent result).

    Returns the contracted graph and the map from each kept dart to its
    new label.
    """
    d0 = e
    d1 = graph.involution[e]
    if d1 == d0:
        raise ValueError("cannot contract a parabolic leg")
    u, w = graph.vertex_of[d0], graph.vertex_of[d1]
    if u == w:
        raise ValueError("cannot contract a loop")
    keep = [d for d in range(graph.n_darts) if d not in (d0, d1)]
    dart_map = {d: i for i, d in enumerate(keep)}
    lo, hi = min(u, w), max(u, w)

    def vmap(v):
        if v == hi:
            v = lo
        return v - 1 if v > hi else v

    out = TrivalentGraph(
        tuple(dart_map[graph.involution[d]] for d in keep),
        tuple(vmap(graph.vertex_of[d]) for d in keep),
    )
    return out, dart_map


def expand_vertex(graph, v, partition):
    """Split a 4-valent vertex along a 2+2 partition, inserting a new edge."""
    star = graph.star(v)
    if len(star) != 4:
        raise ValueError("expansion needs a 4-valent vertex")
    try:
        a, b = (tuple(p) for p in partition)
    except ValueError:
        raise ValueError("partition must be two pairs") from None
    if len(a) != 2 or len(b) != 2 or sorted(a + b) != sorted(star):
        raise ValueError("partition must split the star into two pairs")
    new_v = graph.n_vertices
    n = graph.n_darts
    inv = list(graph.involution) + [n + 1, n]
    vert = list(graph.vertex_of)
    for d in b:
        vert[d] = new_v
    vert += [v, new_v]
    return TrivalentGraph(tuple(inv), tuple(vert))


def elementary_transformations(graph, e):
    """The two graphs of the elementary move at a non-loop edge.

    The edge is contracted and the merged vertex expanded along the two
    partitions that pair each end's darts across; a loop raises ValueError,
    as in contract_edge.
    """
    contracted, dmap = contract_edge(graph, e)
    d1 = graph.involution[e]
    a, b = (dmap[d] for d in graph.star(graph.vertex_of[e]) if d != e)
    c, dd = (dmap[d] for d in graph.star(graph.vertex_of[d1]) if d != d1)
    merged = contracted.vertex_of[a]
    return tuple(
        expand_vertex(contracted, merged, part) for part in (((a, c), (b, dd)), ((a, dd), (b, c)))
    )


def move_graph_components(g):
    """Connected components of the elementary-move graph on genus-g classes.

    The enumeration keeps each class's canonical form, so only the moved
    graphs are canonicalized here.
    """
    classes = _checked_classes(g)
    reps = [graph for _, graph in classes]
    keys = {form: i for i, (form, _) in enumerate(classes)}
    adj = {i: set() for i in range(len(reps))}
    for i, graph in enumerate(reps):
        for e in graph.edge_ids():
            if graph.is_loop(e):
                continue
            for out in elementary_transformations(graph, e):
                j = keys[canonical_form(out)]
                adj[i].add(j)
                adj[j].add(i)
    return [[reps[i] for i in comp] for comp in _walk_components(range(len(reps)), adj.get)]


# -- Eulerian systems ----------------------------------------------------------


def _orbits(perm):
    """Cycles of a permutation of darts, each listed from its first dart.

    perm is a flat successor list (perm[d] follows dart d, darts read in
    order 0..n-1) or a dict over some darts (read in its key order)."""
    seen = set()
    orbits = []
    for start in perm.keys() if isinstance(perm, dict) else range(len(perm)):
        if start in seen:
            continue
        orbit = []
        d = start
        while d not in seen:
            seen.add(d)
            orbit.append(d)
            d = perm[d]
        orbits.append(orbit)
    return orbits


# the largest graph eulerian_invariant searches: its 2^(V-1) rotation systems
# take about 0.19 s at 16 vertices and grow about 4.5x per genus
MAX_EULERIAN_VERTICES = 16


def eulerian_invariant(graph):
    """Minimal number of closed irreducible paths covering every oriented edge once.

    A system induces, at each vertex, a fixed-point-free bijection of the star
    (arrival flag to departure dart; a fixed point would be a backtrack), and
    conversely.  With 3-stars that leaves two choices per vertex, so the
    search is exact; graphs above MAX_EULERIAN_VERTICES are refused.

    Reversing every rotation reverses every face, so vertex 0 keeps its first
    choice and the other 2^(V-1) systems are walked in Gray-code order: each
    step flips one vertex, rewriting the successors of its three arriving
    darts in one flat successor list.
    """
    if graph.parabolic_darts():
        raise ValueError("Eulerian systems are defined for closed graphs")
    if not graph.is_connected():
        raise ValueError("connected graphs only")
    if graph.n_vertices > MAX_EULERIAN_VERTICES:
        raise ValueError(
            f"Eulerian systems stop at {MAX_EULERIAN_VERTICES} vertices, got {graph.n_vertices}"
        )
    inv = graph.involution
    succ = [0] * graph.n_darts
    turns = []
    for v in range(graph.n_vertices):
        s = graph.star(v)
        if len(s) != 3:
            raise ValueError("Eulerian systems need a trivalent graph")
        a, b, c = s
        # (arriving dart, departure under rotation (a b c), under (a c b))
        turns.append(((inv[a], b, c), (inv[b], c, a), (inv[c], a, b)))
        for d, first, _ in turns[-1]:
            succ[d] = first
    best = len(_orbits(succ))
    for i in range(1, 2**graph.n_vertices // 2):
        # step i flips Gray-code bit j, the lowest set bit of i: vertex j + 1
        for d, first, second in turns[(i & -i).bit_length()]:
            succ[d] = second if succ[d] == first else first
        best = min(best, len(_orbits(succ)))
    return best


# -- ribbon structures and faces ---------------------------------------------


@dataclass
class RibbonStructure:
    """Cyclic order of the star at every vertex (tuple = rotation order)."""

    cyclic_order: dict

    def next_dart(self, v, d):
        cyc = self.cyclic_order[v]
        return cyc[(cyc.index(d) + 1) % len(cyc)]


def planar_theta_ribbon():
    return RibbonStructure({0: (0, 2, 4), 1: (1, 5, 3)})


def planar_dumbbell_ribbon():
    return RibbonStructure({0: (0, 1, 4), 1: (2, 3, 5)})


def trace_faces(graph, ribbon):
    """Face cycles of the ribbon graph and the genus of the glued surface."""
    if graph.parabolic_darts():
        raise ValueError("face tracing works on closed graphs")
    for v in range(graph.n_vertices):
        if tuple(sorted(ribbon.cyclic_order.get(v, ()))) != graph.star(v):
            raise ValueError("ribbon order must permute each star")

    nxt = {}
    for d in range(graph.n_darts):
        f = graph.involution[d]
        nxt[d] = ribbon.next_dart(graph.vertex_of[f], f)
    faces = [tuple(face) for face in _orbits(nxt)]
    chi = graph.n_vertices - len(graph.edges()) + len(faces)
    if chi % 2:
        raise ValueError("face tracing produced odd Euler characteristic")
    return faces, (2 - chi) // 2


# -- serialization ----------------------------------------------------------------


def graph_to_json(graph, canonical=False):
    """Serialize to the graph JSON format; loops appear as [v, v].

    With canonical=True the graph is rebuilt from its canonical form first,
    so equal outputs mean isomorphic graphs.
    """
    if canonical:
        graph = graph_from_form(canonical_form(graph))
    data = {
        "vertices": graph.n_vertices,
        "edges": [[graph.vertex_of[d0], graph.vertex_of[d1]] for d0, d1 in graph.edges()],
        "parabolic": [graph.vertex_of[d] for d in graph.parabolic_darts()],
    }
    return json.dumps(data, sort_keys=True)


def graph_from_form(form):
    """The graph that a canonical form encodes, its components in order."""
    invs, verts = [], []
    for inv_t, vert_t in form:
        doff = len(invs)
        voff = max(verts) + 1 if verts else 0
        invs += [d + doff for d in inv_t]
        verts += [v + voff for v in vert_t]
    return TrivalentGraph(tuple(invs), tuple(verts))


def graph_from_json(blob, with_ribbon=False):
    data = json.loads(blob)
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError("graph JSON needs 'vertices' and 'edges'")
    edges, legs = data["edges"], data.get("parabolic", [])
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ValueError("graph JSON 'edges' must be a list of vertex pairs")
    if not isinstance(legs, list) or not all(type(u) is int for u in itertools.chain(legs, *edges)):
        raise ValueError("graph JSON vertex labels must be integers")
    graph = TrivalentGraph.from_edges(data["vertices"], [tuple(e) for e in edges], legs)
    if not with_ribbon:
        return graph
    ribbon = data.get("ribbon")
    if not isinstance(ribbon, dict) or not all(
        isinstance(o, list) and all(type(i) is int for i in o) for o in ribbon.values()
    ):
        raise ValueError("graph JSON 'ribbon' must map each vertex to a list of edge ids")
    rib = {}
    for vs, order in ribbon.items():
        v = int(vs)
        used = set()
        darts = []
        for i in order:
            cand = [
                d
                for d in (2 * i, 2 * i + 1)
                if 0 <= d < len(graph.vertex_of) and graph.vertex_of[d] == v and d not in used
            ]
            if not cand:
                raise ValueError(f"ribbon at vertex {v} lists edge {i}, which has no free end there")
            darts.append(cand[0])
            used.add(cand[0])
        rib[v] = tuple(darts)
    return graph, RibbonStructure(rib)
