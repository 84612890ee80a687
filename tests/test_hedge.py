import warnings

import numpy as np
import pytest

from domkl.graph import Graph, sample_connected_er
from domkl.hedge import (
    accumulate,
    combine_weights,
    mp_combine_weights,
    mp_update_messages,
)


def test_fresh_state_is_uniform():
    """Zero cumulative losses weigh every kernel exactly equally."""
    fresh = np.zeros(4)
    assert np.all(combine_weights(fresh, [fresh], 10.0) == 0.25)
    assert np.all(mp_combine_weights(-fresh / 10.0, []) == 0.25)


def test_log_w_is_scaled_negative_cumulative():
    """The relayed rule on -cumulative/eta is the product rule on the
    cumulative losses."""
    cumulative = accumulate(np.zeros(3), np.array([1.0, 2.0, 0.0]))
    log_w = -cumulative / 5.0
    assert np.allclose(log_w, [-0.2, -0.4, 0.0], atol=1e-15)
    assert (mp_combine_weights(log_w, []).tobytes()
            == combine_weights(cumulative, [], 5.0).tobytes())


def test_accumulate_adds_and_rejects_bad_losses():
    cumulative = accumulate(np.zeros(2), np.array([0.5, 1.5]))
    cumulative = accumulate(cumulative, np.array([0.25, 0.0]))
    assert np.allclose(cumulative, [0.75, 1.5])
    with pytest.raises(ValueError):
        accumulate(cumulative, np.array([1.0]))
    with pytest.raises(ValueError):
        accumulate(cumulative, np.array([-0.1, 0.0]))
    with pytest.raises(FloatingPointError):
        accumulate(cumulative, np.array([np.nan, 0.0]))
    with pytest.raises(FloatingPointError):
        accumulate(cumulative, np.array([0.0, np.inf]))
    with pytest.raises(FloatingPointError):
        accumulate(cumulative, np.array([-np.inf, 0.0]))


def test_accumulate_does_not_mutate_the_input_state():
    cumulative = np.zeros(2)
    losses = np.array([1.0, 1.0])
    assert accumulate(cumulative, losses).tolist() == [1.0, 1.0]
    assert not cumulative.any()
    assert losses.tolist() == [1.0, 1.0]


def test_softmax_shift_invariance_and_extremes():
    base = mp_combine_weights([1.0, 2.0, 3.0], [])
    shifted = mp_combine_weights([1001.0, 1002.0, 1003.0], [])
    assert np.allclose(base, shifted, atol=1e-15)
    huge = mp_combine_weights([1e6, 0.0, -1e6], [])
    assert huge[0] == pytest.approx(1.0)
    assert np.isfinite(huge).all()
    assert huge.sum() == pytest.approx(1.0)
    assert mp_combine_weights([-np.inf, 0.0, 0.0], []).tolist() == [0, 0.5, 0.5]
    # A non-finite top score stops with an error, not NaN weights: every
    # total overflows -1/eta_global at eta_global = 1e-320.
    with np.errstate(all="ignore"):
        for scores in ([-np.inf] * 3, [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]):
            with pytest.raises(FloatingPointError,
                               match="^non-finite kernel score$"):
                mp_combine_weights(scores, [])
        with pytest.raises(FloatingPointError,
                           match="^non-finite kernel score$"):
            combine_weights(np.array([1.0, 2.0]), [np.ones(2)], 1e-320)


def test_softmax_of_equal_scores_is_exactly_uniform():
    w = mp_combine_weights([7.5, 7.5, 7.5], [])
    assert np.all(w == 1.0 / 3.0)


def _reference_softmax(scores):
    shifted = scores - scores.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def test_weight_kernels_are_bitwise_the_reference_expressions():
    """The in-place kernels against the plain expressions, -0.0 included,
    and with every input left as it was."""
    rng = np.random.default_rng(19)
    eta = 10.0
    for count in range(4):
        own = rng.gamma(1.0, 10.0, size=17)
        own[::3] = -0.0
        neighbors = [rng.gamma(1.0, 10.0, size=17) for _ in range(count)]
        for nb in neighbors:
            nb[::4] = -0.0
        inputs = [own] + neighbors
        before = [a.copy() for a in inputs]

        assert (mp_combine_weights(own, []).tobytes()
                == _reference_softmax(own).tobytes())

        total = np.array(own)
        for nb in neighbors:
            total = total + nb
        want = _reference_softmax(-total / eta)
        assert combine_weights(own, neighbors, eta).tobytes() == want.tobytes()

        log_w = -own / eta
        total = np.array(log_w)
        for nb in neighbors:
            total = total + nb
        want = _reference_softmax(total)
        assert mp_combine_weights(log_w, neighbors).tobytes() == want.tobytes()

        for a, a0 in zip(inputs, before):
            assert a.tobytes() == a0.tobytes()


def test_combine_weights_hand_value():
    # own cumulative (0, eta ln 2) and no neighbors gives (2/3, 1/3)
    eta = 10.0
    own = np.array([0.0, eta * np.log(2.0)])
    weights = combine_weights(own, [], eta)
    assert np.allclose(weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_combine_weights_sums_neighbors():
    rng = np.random.default_rng(6)
    own = rng.gamma(1.0, 10.0, size=5)
    neighbors = [rng.gamma(1.0, 10.0, size=5) for _ in range(3)]
    got = combine_weights(own, neighbors, 10.0)
    want = _reference_softmax(-(own + sum(neighbors)) / 10.0)
    assert np.allclose(got, want, atol=1e-15)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)
    assert (got >= 0.0).all()


def test_single_kernel_weight_is_exactly_one():
    assert combine_weights(np.array([123.4]), [np.array([56.7])], 10.0)[0] == 1.0


def test_weights_concentrate_on_the_cheapest_kernel():
    rng = np.random.default_rng(8)
    cumulative = np.zeros(5)
    for _ in range(300):
        losses = rng.uniform(0.5, 1.0, size=5)
        losses[2] = rng.uniform(0.0, 0.1)
        cumulative = accumulate(cumulative, losses)
    weights = combine_weights(cumulative, [], 10.0)
    assert weights[2] > 0.99


def _oracle_message(history, graph, k, l, s, num_kernels):
    """Independent recursive unroll of the relay recurrence."""
    if s == 0:
        return np.zeros(num_kernels)
    total = np.array(history[s - 1][k], dtype=float)
    for i in graph.tree_neighbors[k]:
        if i != l:
            total = total + _oracle_message(history, graph, i, k, s - 1,
                                            num_kernels)
    return total


def test_relay_messages_are_delayed_log_weight_sums():
    """On a path, each hop adds one round of delay to the relayed terms;
    on a cyclic graph the same holds along its spanning tree."""
    graph = Graph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3)))
    rng = np.random.default_rng(13)
    messages = np.zeros((4, 4, 3))
    spare = np.zeros_like(messages)
    history = []
    for s in range(6):
        logs = rng.standard_normal((4, 3))
        history.append(logs)
        out = mp_update_messages(messages, graph, logs, spare)
        assert out is spare
        messages, spare = spare, messages
        for k in range(4):
            for l in range(4):
                want = (_oracle_message(history, graph, k, l, s + 1, 3)
                        if l in graph.neighbors[k] else np.zeros(3))
                assert np.allclose(messages[k, l], want, atol=1e-12)
    # spot check the closed form on the chain end: message 2 -> 3 stacks
    # the last three rounds of nodes 2, 1, 0 with delays 0, 1, 2
    closed = history[5][2] + history[4][1] + history[3][0]
    assert np.allclose(messages[2, 3], closed, atol=1e-12)
    for seed in range(5):
        _check_relayed_totals(sample_connected_er(9, 0.45, seed=seed), seed)


def _tree_distances(graph):
    """All-pairs hop counts in the spanning forest, by Floyd-Warshall."""
    n = graph.num_nodes
    dist = np.full((n, n), np.inf)
    for k, neighbors in enumerate(graph.tree_neighbors):
        dist[k, k] = 0.0
        dist[k, list(neighbors)] = 1.0
    for m in range(n):
        np.minimum(dist, dist[:, m, None] + dist[None, m, :], out=dist)
    return dist.astype(int)


def _check_relayed_totals(graph, seed):
    """On a cyclic graph, node k's relayed total after round s holds
    node j's log weight from round s - (d(j, k) - 1), for every j != k,
    where d is the distance in the graph's spanning tree."""
    num_nodes, num_kernels = graph.num_nodes, 3
    assert len(graph.edges) > num_nodes - 1
    dist = _tree_distances(graph)
    rng = np.random.default_rng(seed)
    messages = np.zeros((num_nodes, num_nodes, num_kernels))
    spare = np.zeros_like(messages)
    history = []
    for s in range(12):
        history.append(rng.standard_normal((num_nodes, num_kernels)))
        mp_update_messages(messages, graph, history[-1], spare)
        messages, spare = spare, messages
        for k in range(num_nodes):
            got = sum(messages[l, k] for l in graph.tree_neighbors[k])
            want = sum(history[s - dist[j, k] + 1][j]
                       for j in range(num_nodes)
                       if j != k and dist[j, k] - 1 <= s)
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_star_center_relays_every_leaf():
    graph = Graph(num_nodes=4, edges=((0, 1), (0, 2), (0, 3)))
    messages = np.zeros((4, 4, 2))
    spare = np.zeros_like(messages)
    logs = np.repeat(np.arange(4.0)[:, None], 2, axis=1)
    mp_update_messages(messages, graph, logs, spare)
    messages, spare = spare, messages
    mp_update_messages(messages, graph, logs, spare)
    messages, spare = spare, messages
    # center -> leaf 1 carries the center's weight plus leaves 2 and 3
    assert np.allclose(messages[0, 1], logs[0] + logs[2] + logs[3])
    # leaf -> center carries only the leaf itself
    assert np.allclose(messages[1, 0], logs[1])


def test_relay_refuses_arrays_of_another_shape():
    """A (K, 1) log weight would broadcast over every kernel; it, any
    messages or ``out`` not (K, K, P), and an ``out`` that overlaps the
    messages it reads are refused."""
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    messages = np.zeros((3, 3, 4))
    spare = np.zeros_like(messages)
    for bad_logs in (np.zeros((3, 1)), np.zeros((2, 4)), np.zeros(4)):
        with pytest.raises(ValueError, match=r"^need \(3, 3, 4\) messages"):
            mp_update_messages(messages, graph, bad_logs, spare)
    for bad_messages in (np.zeros((3, 3)), np.zeros((3, 2, 4)),
                         np.zeros((2, 2, 4))):
        with pytest.raises(ValueError, match=r"^need \(3, 3, \d\) messages"):
            mp_update_messages(bad_messages, graph, np.zeros((3, 4)), spare)
    for bad_out in (np.zeros((3, 3)), np.zeros((3, 3, 2)),
                    np.zeros((2, 2, 4))):
        with pytest.raises(ValueError, match=r"^need \(3, 3, 4\) messages"):
            mp_update_messages(messages, graph, np.zeros((3, 4)), bad_out)
    for overlapping in (messages, messages[...]):
        with pytest.raises(ValueError, match="must not overlap"):
            mp_update_messages(messages, graph, np.zeros((3, 4)), overlapping)
    assert not messages.any() and not spare.any()


def test_relay_writes_only_the_edge_rows_of_out():
    """Rows of ``out`` that are no edge keep what they held; the
    messages read are left as they were."""
    graph = Graph(num_nodes=4, edges=((0, 1), (1, 2), (1, 3)))
    rng = np.random.default_rng(8)
    messages = rng.standard_normal((4, 4, 2))
    before = messages.copy()
    out = np.full((4, 4, 2), 7.0)
    mp_update_messages(messages, graph, rng.standard_normal((4, 2)), out)
    assert messages.tobytes() == before.tobytes()
    edges = {(k, l) for k in range(4) for l in graph.neighbors[k]}
    for k in range(4):
        for l in range(4):
            assert ((out[k, l] == 7.0).all()) == ((k, l) not in edges)


def test_relay_on_a_triangle_writes_only_its_tree_edge_rows():
    """The spanning tree of a triangle drops the edge 1-2: its rows of
    ``out`` keep what they held, and each tree edge carries the sender's
    log weight plus what its other tree neighbour sent it."""
    triangle = Graph(num_nodes=3, edges=((0, 1), (1, 2), (0, 2)))
    rng = np.random.default_rng(4)
    messages = rng.standard_normal((3, 3, 2))
    logs = rng.standard_normal((3, 2))
    out = np.full((3, 3, 2), 7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mp_update_messages(messages, triangle, logs, out)
    assert (out[1, 2] == 7.0).all() and (out[2, 1] == 7.0).all()
    assert out[1, 0].tobytes() == logs[1].tobytes()
    assert out[2, 0].tobytes() == logs[2].tobytes()
    assert out[0, 1].tobytes() == (logs[0] + messages[2, 0]).tobytes()
    assert out[0, 2].tobytes() == (logs[0] + messages[1, 0]).tobytes()


def test_mp_combination_equals_product_rule_on_one_edge():
    """With a single edge the relay carries exactly the neighbor's losses."""
    graph = Graph(num_nodes=2, edges=((0, 1),))
    eta = 10.0
    rng = np.random.default_rng(21)
    cumulatives = [np.zeros(4) for _ in range(2)]
    messages = np.zeros((2, 2, 4))
    spare = np.zeros_like(messages)
    for _ in range(5):
        mp_update_messages(messages, graph, -np.stack(cumulatives) / eta,
                           spare)
        messages, spare = spare, messages
        for k in range(2):
            product = combine_weights(cumulatives[k], [cumulatives[1 - k]], eta)
            relayed = mp_combine_weights(
                -cumulatives[k] / eta, [messages[1 - k, k]]
            )
            assert np.allclose(product, relayed, atol=1e-12)
        cumulatives = [accumulate(c, rng.uniform(0.0, 2.0, size=4))
                       for c in cumulatives]
