import dataclasses

import numpy as np
import pytest

from domkl.admm import AdmmConfig
from domkl.errors import ProtocolError
from domkl.features import build_feature_map, build_maps, map_stack
from domkl.graph import Graph
from domkl.hedge import combine_weights, initial_messages, mp_update_messages
from domkl.learners import LearnerNode, RoundExchange, _combined_prediction, step


def _maps(num_kernels=3, input_dim=2, num_features=5, shared_seed=9):
    bandwidths = tuple(0.1 * (p + 1) for p in range(num_kernels))
    return build_maps(bandwidths, input_dim, num_features, shared_seed)


def _network(graph, maps, eta_global=10.0):
    nodes = [
        LearnerNode(k, maps, graph.neighbors[k], eta_global=eta_global)
        for k in range(graph.num_nodes)
    ]
    exchanges = {k: nodes[k].initial_exchange() for k in range(graph.num_nodes)}
    return nodes, exchanges


def test_exchange_never_carries_raw_samples():
    """A broadcast holds the sender, a (P, D) theta block and (P,) loss
    totals, and none of them holds the round's input or label."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes, exchanges = _network(graph, maps)
    x = np.array([0.123456789101112, -7.654321012131415])
    y = 3.141592653589793
    _, _, outgoing = step(nodes[0], [exchanges[1]], (x, y), AdmmConfig())
    assert isinstance(outgoing, RoundExchange)
    fields = [f.name for f in dataclasses.fields(RoundExchange)]
    assert fields == ["sender", "thetas", "cumulative_losses"]
    assert outgoing.sender == 0
    assert outgoing.thetas.shape == (3, nodes[0].dim)
    assert outgoing.cumulative_losses.shape == (3,)
    for forbidden in (x[0], x[1], y):
        assert not np.isin(forbidden, outgoing.thetas).any()
        assert not np.isin(forbidden, outgoing.cumulative_losses).any()


def test_node_rejects_mismatched_maps():
    a = build_feature_map(0.1, input_dim=2, num_features=4, seed=1)
    b = build_feature_map(0.2, input_dim=2, num_features=5, seed=2)
    with pytest.raises(ValueError):
        LearnerNode(0, (a, b), ())
    with pytest.raises(ValueError):
        LearnerNode(0, (), ())


def test_node_rejects_nonpositive_eta_global():
    maps = _maps()
    for eta_global in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="eta_global must be positive"):
            LearnerNode(0, maps, (), eta_global=eta_global)
    assert LearnerNode(0, maps, (), eta_global=1e-300).eta_global == 1e-300


def test_step_rejects_wrong_sender_set():
    maps = _maps()
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    nodes, exchanges = _network(graph, maps)
    sample = (np.zeros(2), 0.0)
    with pytest.raises(ProtocolError):
        step(nodes[0], [exchanges[2]], sample, AdmmConfig())
    with pytest.raises(ProtocolError):
        step(nodes[1], [exchanges[0]], sample, AdmmConfig())


def test_step_accepts_exchanges_in_any_order():
    maps = _maps()
    graph = Graph(num_nodes=3, edges=((0, 1), (0, 2)))
    sample = (np.array([0.3, -0.4]), 1.0)
    nodes_a, ex_a = _network(graph, maps)
    nodes_b, ex_b = _network(graph, maps)
    pred_a, _, _ = step(nodes_a[0], [ex_a[1], ex_a[2]], sample, AdmmConfig())
    pred_b, _, _ = step(nodes_b[0], [ex_b[2], ex_b[1]], sample, AdmmConfig())
    assert pred_a == pred_b
    assert np.array_equal(nodes_a[0].thetas, nodes_b[0].thetas)


def test_message_passing_variant_needs_messages():
    """Relayed messages come one per neighbor; a short or long list is
    refused before the node's state moves."""
    maps = _maps()
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    nodes, exchanges = _network(graph, maps)
    inbox = [exchanges[0], exchanges[2]]
    sample = (np.array([0.3, -0.4]), 1.0)
    step(nodes[1], inbox, sample, AdmmConfig(),
         incoming_messages=[np.zeros(3)] * 2)
    state = nodes[1].thetas.copy(), nodes[1].cumulative_loss.copy()
    assert state[0].any() and state[1].any()
    for count in (0, 1, 3):
        with pytest.raises(ProtocolError, match="expected 2 incoming"):
            step(nodes[1], inbox, sample, AdmmConfig(),
                 incoming_messages=[np.zeros(3)] * count)
        assert np.array_equal(nodes[1].thetas, state[0])
        assert np.array_equal(nodes[1].cumulative_loss, state[1])


@pytest.mark.parametrize("length", [1, 2])
def test_step_rejects_vectors_of_another_length(length):
    """On a 3-kernel node an exchange or a message of another length is
    refused, naming the node and the sender, before the state moves: a
    length-1 vector would broadcast over the kernels, a length-2 one fail
    inside numpy."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes, exchanges = _network(graph, maps)
    sample = (np.array([0.3, -0.4]), 1.0)
    step(nodes[0], [exchanges[1]], sample, AdmmConfig())
    state = nodes[0].thetas.copy(), nodes[0].cumulative_loss.copy()
    good = exchanges[1]
    bad_exchanges = [
        RoundExchange(1, good.thetas, np.full(length, 7.0)),
        RoundExchange(1, good.thetas[:length], good.cumulative_losses),
    ]
    named = "node 0 expected .* from node 1"
    for bad in bad_exchanges:
        with pytest.raises(ProtocolError, match=named):
            step(nodes[0], [bad], sample, AdmmConfig())
        with pytest.raises(ProtocolError, match=named):
            step(nodes[0], [bad], sample, AdmmConfig(),
                 incoming_messages=[np.zeros(3)])
    with pytest.raises(ProtocolError,
                       match="node 0 expected a message .* from node 1"):
        step(nodes[0], [good], sample, AdmmConfig(),
             incoming_messages=[np.full(length, -50.0)])
    assert np.array_equal(nodes[0].thetas, state[0])
    assert np.array_equal(nodes[0].cumulative_loss, state[1])


def test_first_round_prediction_is_zero_and_losses_accumulate():
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes, exchanges = _network(graph, maps)
    assert np.array_equal(nodes[0].round_weights, np.full(3, 1.0 / 3.0))
    assert not nodes[0].cumulative_loss.any()
    y = 2.0
    pred, kernel_losses, outgoing = step(
        nodes[0], [exchanges[1]], (np.array([0.5, 0.5]), y), AdmmConfig()
    )
    assert pred == 0.0
    assert np.allclose(kernel_losses, np.full(3, y * y), atol=1e-15)
    assert np.allclose(outgoing.cumulative_losses, kernel_losses)
    assert np.array_equal(nodes[0].cumulative_loss,
                          outgoing.cumulative_losses)


def test_outgoing_exchange_is_a_snapshot():
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes, exchanges = _network(graph, maps)
    _, _, outgoing = step(nodes[0], [exchanges[1]],
                          (np.array([0.1, 0.2]), 1.0), AdmmConfig())
    before = outgoing.thetas.copy()
    nodes[0].thetas += 100.0
    assert np.array_equal(outgoing.thetas, before)


def _run_network(graph, maps, features, labels, cfg, eta_global=10.0):
    """Step every node for every round, previous-round exchanges only."""
    num_nodes = graph.num_nodes
    rounds = labels.shape[0]
    nodes, exchanges = _network(graph, maps, eta_global)
    predictions = np.zeros((rounds, num_nodes))
    for t in range(rounds):
        fresh = {}
        for k in range(num_nodes):
            inbox = [exchanges[l] for l in graph.neighbors[k]]
            pred, _, fresh[k] = step(
                nodes[k], inbox, (features[t, k], labels[t, k]), cfg
            )
            predictions[t, k] = pred
        exchanges = fresh
    return predictions, nodes


def test_multi_kernel_dual_finalization_keeps_network_sum_zero():
    maps = _maps(num_kernels=4)
    graph = Graph(num_nodes=5, edges=((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    rng = np.random.default_rng(37)
    features = rng.standard_normal((40, 5, 2))
    labels = rng.standard_normal((40, 5))
    _, nodes = _run_network(graph, maps, features, labels, AdmmConfig())
    total = np.add.reduce([n.lams for n in nodes])
    assert np.abs(total).max() < 1e-9 * 40


def test_round_weights_match_product_rule_on_exchanged_losses():
    maps = _maps()
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    rng = np.random.default_rng(41)
    nodes, exchanges = _network(graph, maps)
    cfg = AdmmConfig()
    for t in range(4):
        # expectation computed from the previous round's broadcasts
        expected = {
            k: combine_weights(
                nodes[k].cumulative_loss,
                [exchanges[l].cumulative_losses for l in graph.neighbors[k]],
                10.0,
            )
            for k in range(3)
        }
        fresh = {}
        for k in range(3):
            inbox = [exchanges[l] for l in graph.neighbors[k]]
            sample = (rng.standard_normal(2), float(rng.standard_normal()))
            _, _, fresh[k] = step(nodes[k], inbox, sample, cfg)
            assert np.array_equal(nodes[k].round_weights, expected[k])
        exchanges = fresh


def test_replay_matches_step_prediction_bitwise():
    """A node predicts with its previous broadcast's parameters under
    the round's weights."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes, exchanges = _network(graph, maps)
    rng = np.random.default_rng(43)
    cfg = AdmmConfig()
    for t in range(5):
        fresh = {}
        xs = {}
        preds = {}
        for k in range(2):
            xs[k] = rng.standard_normal(2)
            inbox = [exchanges[1 - k]]
            preds[k], _, fresh[k] = step(nodes[k], inbox,
                                         (xs[k], float(rng.standard_normal())),
                                         cfg)
        for k in range(2):
            _, replayed = _combined_prediction(
                exchanges[k].thetas, nodes[k].round_weights,
                map_stack(nodes[k].feature_maps, xs[k]),
            )
            assert float(replayed) == preds[k]
        exchanges = fresh


def test_message_passing_on_one_edge_equals_product_weights():
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    cfg = AdmmConfig()
    rng = np.random.default_rng(47)
    samples = [
        [(rng.standard_normal(2), float(rng.standard_normal()))
         for _ in range(2)]
        for _ in range(6)
    ]
    nodes_p, ex_p = _network(graph, maps)
    nodes_m, ex_m = _network(graph, maps)
    messages = initial_messages(graph, 3)
    for t in range(6):
        messages = mp_update_messages(
            messages, graph,
            [-ex_m[k].cumulative_losses / 10.0 for k in range(2)],
        )
        fresh_p, fresh_m = {}, {}
        for k in range(2):
            _, _, fresh_p[k] = step(nodes_p[k], [ex_p[1 - k]],
                                    samples[t][k], cfg)
            _, _, fresh_m[k] = step(
                nodes_m[k], [ex_m[1 - k]], samples[t][k], cfg,
                incoming_messages=[messages[(1 - k, k)]],
            )
            assert np.allclose(nodes_m[k].round_weights,
                               nodes_p[k].round_weights, atol=1e-12)
        ex_p, ex_m = fresh_p, fresh_m
