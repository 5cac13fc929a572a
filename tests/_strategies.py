"""Graph generators shared by the test modules: Hypothesis strategies, and a
twin blow-up, a seeded Barabási–Albert generator and a sparse G(n, p) for
the pinned graphs and the slow sweep."""

import math
import random

from hypothesis import strategies as st
from hypothesis.strategies import composite

from primeclique.encoding import Graph
from primeclique.graph_io import SplitMix64


@composite
def graphs(draw, min_n: int = 0, max_n: int = 10):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if not pairs:
        return Graph(n)
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph.from_edges(n, edges)


@composite
def twin_blowups(draw, min_base: int = 5, max_base: int = 20, max_n: int = 40):
    """``twin_blowup`` of a base of min_base to max_base vertices, with
    classes of 1 to 3 twins, true or false with equal odds."""
    base = draw(st.integers(min_value=min_base, max_value=max_base))
    p = draw(st.sampled_from([0.3, 0.5, 0.7]))
    rng = draw(st.randoms(use_true_random=False))
    return twin_blowup(rng, base, p, max_n)


def twin_blowup(
    rng: random.Random,
    base: int,
    p: float,
    max_n: int,
    max_class: int = 3,
    true_share: float = 0.5,
) -> Graph:
    """A G(base, p) with each vertex blown up into a class of 1 to max_class
    twins, all drawn from rng.

    A class is true twins (pairwise adjacent, one closed neighbourhood) with
    probability true_share, else false twins (pairwise non-adjacent, one
    open neighbourhood), and two classes are joined completely when their
    base vertices are adjacent. The vertex ids are then shuffled. A class is
    smaller than max_class only by the draw or where that keeps the graph
    within max_n vertices.
    """
    classes = []
    n = 0
    for i in range(base):
        size = rng.randint(1, min(max_class, max_n - n - (base - 1 - i)))
        classes.append((range(n + 1, n + size + 1), rng.random() < true_share))
        n += size
    edges = [
        (a, b) for members, true in classes if true for a in members for b in members if a < b
    ]
    for u in range(base):
        for v in range(u + 1, base):
            if rng.random() < p:
                edges.extend((a, b) for a in classes[u][0] for b in classes[v][0])
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[a - 1], label[b - 1]) for a, b in edges])


@composite
def cores_with_fringe(draw, min_core: int = 5, max_core: int = 30, max_fringe: int = 30):
    """A G(n, p) core of min_core to max_core vertices, then up to max_fringe
    more, each joined to 1 to 3 distinct earlier vertices. The vertex ids are
    then shuffled.

    A fringe vertex of degree 3 or less may be peeled before the paper's step
    runs, and a core vertex it joins then keeps its prime in its weight.
    """
    core = draw(st.integers(min_value=min_core, max_value=max_core))
    fringe = draw(st.integers(min_value=0, max_value=max_fringe))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    rng = draw(st.randoms(use_true_random=False))
    edges = [(u, v) for u in range(1, core + 1) for v in range(u + 1, core + 1) if rng.random() < p]
    for v in range(core + 1, core + fringe + 1):
        edges.extend((u, v) for u in rng.sample(range(1, v), rng.randint(1, 3)))
    n = core + fringe
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[a - 1], label[b - 1]) for a, b in edges])


def barabasi_albert(n: int, m: int, seed: int, hub: int = 0) -> Graph:
    """Preferential attachment (Barabási and Albert, Science 1999), seeded
    from SplitMix64 so the graph is the same on every platform.

    Vertices 1..m+1 form a clique; each later vertex joins m distinct earlier
    ones, each drawn with probability proportional to its degree. With
    ``hub``, one more vertex, n + 1, joins ``hub`` distinct vertices of 1..n
    drawn uniformly, a planted hub of degree ``hub``.
    """
    rng = SplitMix64(seed)
    edges = [(u, v) for u in range(1, m + 2) for v in range(u + 1, m + 2)]
    # Each vertex appears here once per edge end, so a uniform draw from the
    # list picks a vertex in proportion to its degree.
    ends = [v for edge in edges for v in edge]
    for v in range(m + 2, n + 1):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(ends[rng.next_u64() % len(ends)])
        for u in targets:
            edges.append((u, v))
            ends += (u, v)
    if not hub:
        return Graph.from_edges(n, edges)
    spokes: set[int] = set()
    while len(spokes) < hub:
        spokes.add(1 + rng.next_u64() % n)
    return Graph.from_edges(n + 1, edges + [(u, n + 1) for u in spokes])


def sparse_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) in time linear in its edges, seeded from SplitMix64.

    Batagelj and Brandes' skip (Phys. Rev. E 71, 2005): the gap to the next
    edge, in the order of pairs (u, v), u < v, by v then u, is geometric, so
    one draw per edge finds it. ``graph_io.gen_gnp`` draws once per pair,
    which at n = 2·10^4 takes minutes. The two give different graphs.
    Needs 0 < p < 1.
    """
    rng = SplitMix64(seed)
    log_q = math.log1p(-p)
    edges = []
    # 0-based: the pair (u, v) has u < v; u runs up to v - 1, then v moves on.
    v, u = 1, -1
    while v < n:
        r = (rng.next_u64() >> 11) / (1 << 53)
        u += 1 + int(math.log1p(-r) / log_q)
        while u >= v and v < n:
            u -= v
            v += 1
        if v < n:
            edges.append((u + 1, v + 1))
    return Graph(n, frozenset(edges))
