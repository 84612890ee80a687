import pickle

import numpy as np
import pytest

from domkl.graph import (
    Graph,
    connected_components,
    from_edge_list,
    generate_er,
    sample_connected_er,
)


def test_edges_are_canonicalized():
    g = Graph(num_nodes=4, edges=((2, 1), (3, 0), (0, 1)))
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert g.neighbors[0] == (1, 3)
    assert g.neighbors[1] == (0, 2)
    assert g.neighbors[2] == (1,)


def test_degree_counts_neighbors():
    g = Graph(num_nodes=4, edges=((0, 1), (0, 2), (0, 3)))
    assert g.degree(0) == 3
    assert g.degree(3) == 1


def test_bad_edges_rejected():
    with pytest.raises(ValueError):
        Graph(num_nodes=3, edges=((1, 1),))
    with pytest.raises(ValueError):
        Graph(num_nodes=3, edges=((0, 3),))
    with pytest.raises(ValueError):
        Graph(num_nodes=3, edges=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(num_nodes=0, edges=())


def test_closed_neighborhoods_are_padded_ascending_and_built_on_use():
    g = Graph(num_nodes=5, edges=((3, 1), (1, 0), (1, 4), (2, 4)))
    # Rejected sampler candidates never pay for the table.
    assert "closed_neighborhoods" not in vars(g)
    table, sizes = g.closed_neighborhoods
    assert table.tolist() == [[0, 1, 5, 5], [0, 1, 3, 4], [2, 4, 5, 5],
                              [1, 3, 5, 5], [1, 2, 4, 5]]
    assert sizes.tolist() == [2.0, 4.0, 2.0, 2.0, 3.0]
    assert table.dtype == np.intp and sizes.dtype == np.float64
    assert not table.flags.writeable and not sizes.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_pickled_graph_round_trips_with_read_only_tables():
    """A graph sent to or from a worker process comes back equal, with
    read-only tables equal to a fresh build's."""
    g = sample_connected_er(12, 0.3, seed=8)
    g.closed_neighborhoods
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back.neighbors == g.neighbors
    assert back.tree_neighbors == g.tree_neighbors
    fresh = Graph(g.num_nodes, g.edges)
    for got, want in zip(back.closed_neighborhoods, fresh.closed_neighborhoods):
        assert not got.flags.writeable
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_er_full_probability_gives_complete_graph():
    g1 = generate_er(6, 1.0, seed=4)
    assert len(g1.edges) == 15
    assert len(connected_components(g1)) == 1
    assert generate_er(2, 1.0, seed=0).edges == ((0, 1),)


def test_er_parameter_errors():
    with pytest.raises(ValueError):
        generate_er(6, 0.0, seed=4)
    with pytest.raises(ValueError):
        generate_er(6, 1.5, seed=4)
    with pytest.raises(ValueError):
        generate_er(1, 0.5, seed=4)


def test_er_mean_edge_count_tracks_binomial():
    counts = [len(generate_er(10, 0.25, seed=s).edges) for s in range(10_000)]
    assert abs(np.mean(counts) - 11.25) < 0.05 * 11.25


def test_er_is_deterministic_in_seed():
    a = generate_er(12, 0.3, seed=2)
    b = generate_er(12, 0.3, seed=2)
    c = generate_er(12, 0.3, seed=3)
    assert a.edges == b.edges
    assert a.edges != c.edges


def _components_by_union_find(num_nodes, edges):
    # independent oracle: path-compressed union-find
    parent = list(range(num_nodes))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k, l in edges:
        parent[find(k)] = find(l)
    groups = {}
    for i in range(num_nodes):
        groups.setdefault(find(i), []).append(i)
    return sorted(sorted(g) for g in groups.values())


def test_components_match_union_find_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 15))
        g = generate_er(n, float(rng.random()), seed=int(rng.integers(1 << 30)))
        got = sorted(sorted(c) for c in connected_components(g))
        assert got == _components_by_union_find(n, g.edges)


def test_forest_recognition():
    """A forest is its own spanning forest.  On a cyclic graph the
    search grows from the lowest id and visits children in ascending id
    order, so it keeps the edges by which it first reaches each node."""
    path = Graph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3)))
    assert path.tree_neighbors == path.neighbors
    two_trees = Graph(num_nodes=5, edges=((0, 1), (2, 3), (3, 4)))
    assert two_trees.tree_neighbors == two_trees.neighbors
    triangle = Graph(num_nodes=3, edges=((0, 1), (1, 2), (0, 2)))
    assert triangle.tree_neighbors == ((1, 2), (0,), (0,))
    # A 5-cycle with the chord 1-3: node 0 takes 1 and 4, then node 1
    # takes 2 and 3, so the edges 2-3 and 3-4 are left out.
    g = Graph(num_nodes=5, edges=((0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                  (1, 3)))
    assert g.tree_neighbors == ((1, 4), (0, 2, 3), (1,), (1,), (0,))


def test_spanning_forest_spans_every_component():
    """K - C edges, all of them graph edges, that connect each of the C
    components; on a forest, the tree neighbours are the neighbours."""
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 15))
        g = generate_er(n, float(rng.random()), seed=int(rng.integers(1 << 30)))
        tree = {(k, l) for k in range(n) for l in g.tree_neighbors[k] if k < l}
        assert all(k in g.tree_neighbors[l] for k, l in tree)
        assert tree <= set(g.edges)
        assert all(list(t) == sorted(t) for t in g.tree_neighbors)
        assert len(tree) == n - len(connected_components(g))
        assert (_components_by_union_find(n, sorted(tree))
                == _components_by_union_find(n, g.edges))
        forest = Graph(n, tuple(sorted(tree)))
        assert forest.tree_neighbors == forest.neighbors == g.tree_neighbors


def test_sampled_graphs_are_connected():
    for seed in range(25):
        g = sample_connected_er(6, 0.4, seed=seed)
        assert len(connected_components(g)) == 1


def test_sampler_retry_schedule_is_reproducible():
    """The sampler walks seeds seed+0, seed+1, ... and keeps the first hit."""
    seed, num_nodes, prob = 91, 8, 0.25
    expected = None
    for attempt in range(50):
        candidate = generate_er(num_nodes, prob, seed=seed + attempt)
        if len(connected_components(candidate)) == 1:
            expected = candidate
            break
    got = sample_connected_er(num_nodes, prob, seed=seed)
    assert expected is not None
    assert got.edges == expected.edges


def test_sampler_reports_attempts_on_failure():
    # at this probability a 10-node draw is essentially never connected
    with pytest.raises(RuntimeError) as info:
        sample_connected_er(10, 0.001, seed=0, max_attempts=7)
    assert (type(info.value), str(info.value)) == (
        RuntimeError, "no connected graph in 7 attempts "
        "(num_nodes=10, connection_prob=0.001)")


def test_edge_list_round_trip():
    g = sample_connected_er(7, 0.5, seed=5)
    text = "".join("%d %d\n" % edge for edge in g.edges)
    back = from_edge_list(text, num_nodes=7)
    assert back == g


def test_edge_list_errors_name_the_line():
    with pytest.raises(ValueError, match="line 2"):
        from_edge_list("0 1\n1 one\n", num_nodes=3)
    with pytest.raises(ValueError, match="line 1"):
        from_edge_list("0 1 2\n", num_nodes=3)
