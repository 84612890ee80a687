import numpy as np
import pytest

from domkl.graph import Graph
from domkl.hedge import (
    HedgeState,
    MessageBoard,
    accumulate,
    combine_weights,
    mp_combine_weights,
    mp_update_messages,
    softmax_from_scores,
)


def test_fresh_state_is_uniform():
    state = HedgeState.fresh(4)
    assert not state.cumulative_loss.any()
    assert state.eta_global == 10.0


def test_state_validation():
    with pytest.raises(ValueError):
        HedgeState.fresh(0)
    with pytest.raises(ValueError):
        HedgeState.fresh(3, eta_global=0.0)


def test_log_w_is_scaled_negative_cumulative():
    state = HedgeState.fresh(3, eta_global=5.0)
    state = accumulate(state, np.array([1.0, 2.0, 0.0]))
    assert np.allclose(state.log_w(), [-0.2, -0.4, 0.0], atol=1e-15)


def test_accumulate_adds_and_rejects_bad_losses():
    state = HedgeState.fresh(2)
    state = accumulate(state, np.array([0.5, 1.5]))
    state = accumulate(state, np.array([0.25, 0.0]))
    assert np.allclose(state.cumulative_loss, [0.75, 1.5])
    with pytest.raises(ValueError):
        accumulate(state, np.array([1.0]))
    with pytest.raises(ValueError):
        accumulate(state, np.array([-0.1, 0.0]))
    with pytest.raises(FloatingPointError):
        accumulate(state, np.array([np.nan, 0.0]))
    with pytest.raises(FloatingPointError):
        accumulate(state, np.array([0.0, np.inf]))
    with pytest.raises(FloatingPointError):
        accumulate(state, np.array([-np.inf, 0.0]))


def test_accumulate_does_not_mutate_the_input_state():
    state = HedgeState.fresh(2)
    accumulate(state, np.array([1.0, 1.0]))
    assert not state.cumulative_loss.any()


def test_softmax_shift_invariance_and_extremes():
    base = softmax_from_scores([1.0, 2.0, 3.0])
    shifted = softmax_from_scores([1001.0, 1002.0, 1003.0])
    assert np.allclose(base, shifted, atol=1e-15)
    huge = softmax_from_scores([1e6, 0.0, -1e6])
    assert huge[0] == pytest.approx(1.0)
    assert np.isfinite(huge).all()
    assert huge.sum() == pytest.approx(1.0)


def test_softmax_of_equal_scores_is_exactly_uniform():
    w = softmax_from_scores([7.5, 7.5, 7.5])
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

        assert (softmax_from_scores(own).tobytes()
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
    want = softmax_from_scores(-(own + sum(neighbors)) / 10.0)
    assert np.allclose(got, want, atol=1e-15)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)
    assert (got >= 0.0).all()


def test_single_kernel_weight_is_exactly_one():
    assert combine_weights(np.array([123.4]), [np.array([56.7])], 10.0)[0] == 1.0


def test_weights_concentrate_on_the_cheapest_kernel():
    rng = np.random.default_rng(8)
    state = HedgeState.fresh(5)
    for _ in range(300):
        losses = rng.uniform(0.5, 1.0, size=5)
        losses[2] = rng.uniform(0.0, 0.1)
        state = accumulate(state, losses)
    weights = combine_weights(state.cumulative_loss, [], state.eta_global)
    assert weights[2] > 0.99


def test_board_initial_messages_are_zero_both_directions():
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    board = MessageBoard.initial(graph, 4)
    assert set(board.messages) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    for value in board.messages.values():
        assert not value.any()


def _oracle_message(history, graph, k, l, s, num_kernels):
    """Independent recursive unroll of the relay recurrence."""
    if s == 0:
        return np.zeros(num_kernels)
    total = np.array(history[s - 1][k], dtype=float)
    for i in graph.neighbors[k]:
        if i != l:
            total = total + _oracle_message(history, graph, i, k, s - 1,
                                            num_kernels)
    return total


def test_relay_messages_are_delayed_log_weight_sums():
    """On a path, each hop adds one round of delay to the relayed terms."""
    graph = Graph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3)))
    rng = np.random.default_rng(13)
    board = MessageBoard.initial(graph, 3)
    history = []
    for s in range(6):
        logs = [rng.standard_normal(3) for _ in range(4)]
        history.append(logs)
        board = mp_update_messages(board, graph, logs)
        for (k, l), msg in board.messages.items():
            want = _oracle_message(history, graph, k, l, s + 1, 3)
            assert np.allclose(msg, want, atol=1e-12)
    # spot check the closed form on the chain end: message 2 -> 3 stacks
    # the last three rounds of nodes 2, 1, 0 with delays 0, 1, 2
    closed = history[5][2] + history[4][1] + history[3][0]
    assert np.allclose(board.messages[(2, 3)], closed, atol=1e-12)


def test_star_center_relays_every_leaf():
    graph = Graph(num_nodes=4, edges=((0, 1), (0, 2), (0, 3)))
    board = MessageBoard.initial(graph, 2)
    logs = [np.full(2, float(k)) for k in range(4)]
    board = mp_update_messages(board, graph, logs)
    board = mp_update_messages(board, graph, logs)
    # center -> leaf 1 carries the center's weight plus leaves 2 and 3
    assert np.allclose(board.messages[(0, 1)], logs[0] + logs[2] + logs[3])
    # leaf -> center carries only the leaf itself
    assert np.allclose(board.messages[(1, 0)], logs[1])


def test_cycle_gate_raises_then_warns_when_overridden():
    triangle = Graph(num_nodes=3, edges=((0, 1), (1, 2), (0, 2)))
    board = MessageBoard.initial(triangle, 2)
    logs = [np.zeros(2)] * 3
    with pytest.raises(ValueError):
        mp_update_messages(board, triangle, logs)
    with pytest.warns(RuntimeWarning):
        mp_update_messages(board, triangle, logs, allow_cycles=True)


def test_mp_combination_equals_product_rule_on_one_edge():
    """With a single edge the relay carries exactly the neighbor's losses."""
    graph = Graph(num_nodes=2, edges=((0, 1),))
    eta = 10.0
    rng = np.random.default_rng(21)
    states = [HedgeState.fresh(4, eta) for _ in range(2)]
    board = MessageBoard.initial(graph, 4)
    for _ in range(5):
        board = mp_update_messages(board, graph, [s.log_w() for s in states])
        for k in range(2):
            product = combine_weights(
                states[k].cumulative_loss,
                [states[1 - k].cumulative_loss], eta,
            )
            relayed = mp_combine_weights(
                states[k].log_w(), [board.messages[(1 - k, k)]]
            )
            assert np.allclose(product, relayed, atol=1e-12)
        states = [accumulate(s, rng.uniform(0.0, 2.0, size=4)) for s in states]
