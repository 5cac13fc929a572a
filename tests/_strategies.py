"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st
from hypothesis.strategies import composite

from primeclique.encoding import Graph


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
    """A random base graph with each vertex blown up into a class of 1 to 3 twins.

    A class is true twins (pairwise adjacent, one closed neighbourhood) or
    false twins (pairwise non-adjacent, one open neighbourhood), and two
    classes are joined completely when their base vertices are adjacent.
    The vertex ids are then shuffled. A class is smaller than 3 only where
    that keeps the graph within max_n vertices.
    """
    base = draw(st.integers(min_value=min_base, max_value=max_base))
    p = draw(st.sampled_from([0.3, 0.5, 0.7]))
    rng = draw(st.randoms(use_true_random=False))
    classes = []
    n = 0
    for i in range(base):
        size = rng.randint(1, min(3, max_n - n - (base - 1 - i)))
        classes.append((range(n + 1, n + size + 1), rng.random() < 0.5))
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
