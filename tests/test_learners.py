import copy

import numpy as np
import pytest

from domkl.admm import AdmmConfig
from domkl.errors import ProtocolError
from domkl.features import build_feature_map, build_maps, map_stack
from domkl.graph import Graph
from domkl.hedge import combine_weights, initial_messages, mp_update_messages
from domkl.learners import LearnerNode, _combined_prediction, step


def _maps(num_kernels=3, input_dim=2, num_features=5, shared_seed=9):
    bandwidths = tuple(0.1 * (p + 1) for p in range(num_kernels))
    return build_maps(bandwidths, input_dim, num_features, shared_seed)


def _network(graph, maps, eta_global=10.0):
    return [
        LearnerNode(k, maps, graph.neighbors[k], eta_global=eta_global)
        for k in range(graph.num_nodes)
    ]


def _broadcasts(nodes):
    """The network's (K, P, D) thetas and (K, P) loss totals as the nodes
    hold them now: what they broadcast to the next round."""
    return (np.stack([node.thetas for node in nodes]),
            np.stack([node.cumulative_loss for node in nodes]))


def test_exchange_never_carries_raw_samples():
    """A node's broadcast is its (P, D) theta block and (P,) loss totals,
    and neither holds the round's input or label."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes = _network(graph, maps)
    x = np.array([0.123456789101112, -7.654321012131415])
    y = 3.141592653589793
    assert len(step(nodes[0], *_broadcasts(nodes), (x, y), AdmmConfig())) == 2
    thetas, losses = _broadcasts(nodes)
    assert thetas.shape == (2, 3, nodes[0].dim)
    assert losses.shape == (2, 3)
    for forbidden in (x[0], x[1], y):
        assert not np.isin(forbidden, thetas).any()
        assert not np.isin(forbidden, losses).any()


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


def test_step_rejects_arrays_that_miss_a_neighbour():
    """Arrays without a row for every neighbour are refused, naming the
    node, before its state moves."""
    maps = _maps()
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    nodes = _network(graph, maps)
    thetas, losses = _broadcasts(nodes)
    sample = (np.array([0.3, -0.4]), 1.0)
    step(nodes[0], thetas[:2], losses[:2], sample, AdmmConfig())
    state = nodes[1].thetas.copy(), nodes[1].cumulative_loss.copy()
    named = r"^node 1 expected rows of shapes .* for nodes \(0, 2\), got "
    for short in ((thetas[:2], losses), (thetas, losses[:2])):
        with pytest.raises(ProtocolError, match=named):
            step(nodes[1], *short, sample, AdmmConfig())
    assert np.array_equal(nodes[1].thetas, state[0])
    assert np.array_equal(nodes[1].cumulative_loss, state[1])


def test_message_passing_variant_needs_messages():
    """Relayed messages come one per neighbor; a short or long list is
    refused before the node's state moves."""
    maps = _maps()
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    nodes = _network(graph, maps)
    broadcasts = _broadcasts(nodes)
    sample = (np.array([0.3, -0.4]), 1.0)
    step(nodes[1], *broadcasts, sample, AdmmConfig(),
         incoming_messages=[np.zeros(3)] * 2)
    state = nodes[1].thetas.copy(), nodes[1].cumulative_loss.copy()
    assert state[0].any() and state[1].any()
    for count in (0, 1, 3):
        with pytest.raises(ProtocolError, match="expected 2 incoming"):
            step(nodes[1], *broadcasts, sample, AdmmConfig(),
                 incoming_messages=[np.zeros(3)] * count)
        assert np.array_equal(nodes[1].thetas, state[0])
        assert np.array_equal(nodes[1].cumulative_loss, state[1])


@pytest.mark.parametrize("length", [1, 2])
def test_step_rejects_vectors_of_another_length(length):
    """On a 3-kernel node broadcast rows or a message of another length
    are refused, naming the node (and a message's sender), before the
    state moves: a length-1 vector would broadcast over the kernels, a
    length-2 one fail inside numpy."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes = _network(graph, maps)
    sample = (np.array([0.3, -0.4]), 1.0)
    step(nodes[0], *_broadcasts(nodes), sample, AdmmConfig())
    state = nodes[0].thetas.copy(), nodes[0].cumulative_loss.copy()
    thetas, losses = _broadcasts(nodes)
    bad_broadcasts = [
        (thetas, np.full((2, length), 7.0)),
        (thetas[:, :length], losses),
    ]
    named = r"^node 0 expected rows of shapes \(3, 10\) and \(3,\) for "
    for bad in bad_broadcasts:
        with pytest.raises(ProtocolError, match=named):
            step(nodes[0], *bad, sample, AdmmConfig())
        with pytest.raises(ProtocolError, match=named):
            step(nodes[0], *bad, sample, AdmmConfig(),
                 incoming_messages=[np.zeros(3)])
    with pytest.raises(ProtocolError,
                       match="node 0 expected a message .* from node 1"):
        step(nodes[0], thetas, losses, sample, AdmmConfig(),
             incoming_messages=[np.full(length, -50.0)])
    assert np.array_equal(nodes[0].thetas, state[0])
    assert np.array_equal(nodes[0].cumulative_loss, state[1])


@pytest.mark.parametrize("relay", [False, True])
def test_step_reads_only_its_neighbours_rows(relay):
    """Every row of the broadcasts but the neighbours' may hold anything:
    with NaN in all of them, the node's own row included, outputs and
    state are bitwise those of a clean call, and no floating-point error
    is raised."""
    maps = _maps()
    graph = Graph(num_nodes=5, edges=((0, 1), (1, 2), (1, 3), (3, 4)))
    nodes = _network(graph, maps)
    rng = np.random.default_rng(53)
    messages = initial_messages(graph, 3)
    for t in range(4):
        thetas, losses = _broadcasts(nodes)
        messages = mp_update_messages(messages, graph, -losses / 10.0)
        for k in range(5):
            sample = (rng.standard_normal(2), float(rng.standard_normal()))
            incoming = ([messages[(l, k)] for l in graph.neighbors[k]]
                        if relay else None)
            if t < 3:
                step(nodes[k], thetas, losses, sample, AdmmConfig(),
                     incoming_messages=incoming)
                continue
            outside = [l for l in range(5) if l not in graph.neighbors[k]]
            poisoned = thetas.copy(), losses.copy()
            for array in poisoned:
                array[outside] = np.nan
            runs = []
            for broadcasts in ((thetas, losses), poisoned):
                node = copy.deepcopy(nodes[k])
                with np.errstate(all="raise"):
                    out = step(node, *broadcasts, sample, AdmmConfig(),
                               incoming_messages=incoming)
                runs.append([np.float64(out[0]), out[1], node.thetas,
                             node.lams, node.cumulative_loss,
                             node.round_weights])
            clean, dirty = runs
            assert np.isfinite(clean[1]).all()
            for a, b in zip(clean, dirty):
                assert a.tobytes() == b.tobytes()


def test_first_round_prediction_is_zero_and_losses_accumulate():
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes = _network(graph, maps)
    assert np.array_equal(nodes[0].round_weights, np.full(3, 1.0 / 3.0))
    assert not nodes[0].cumulative_loss.any()
    y = 2.0
    pred, kernel_losses = step(
        nodes[0], *_broadcasts(nodes), (np.array([0.5, 0.5]), y), AdmmConfig()
    )
    assert pred == 0.0
    assert np.allclose(kernel_losses, np.full(3, y * y), atol=1e-15)
    assert np.allclose(nodes[0].cumulative_loss, kernel_losses)


def test_step_never_writes_the_broadcasts_it_reads():
    """A step leaves the arrays it reads as they were, and its node's new
    state shares no memory with them."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes = _network(graph, maps)
    rng = np.random.default_rng(59)
    for t in range(3):
        thetas, losses = _broadcasts(nodes)
        before = thetas.copy(), losses.copy()
        for k in range(2):
            step(nodes[k], thetas, losses,
                 (rng.standard_normal(2), float(rng.standard_normal())),
                 AdmmConfig())
        assert thetas.tobytes() == before[0].tobytes()
        assert losses.tobytes() == before[1].tobytes()
        for node in nodes:
            for state in (node.thetas, node.lams, node.cumulative_loss):
                assert not np.shares_memory(state, thetas)
                assert not np.shares_memory(state, losses)


def _run_network(graph, maps, features, labels, cfg, eta_global=10.0):
    """Step every node for every round, previous-round broadcasts only."""
    num_nodes = graph.num_nodes
    rounds = labels.shape[0]
    nodes = _network(graph, maps, eta_global)
    predictions = np.zeros((rounds, num_nodes))
    for t in range(rounds):
        broadcasts = _broadcasts(nodes)
        for k in range(num_nodes):
            predictions[t, k], _ = step(
                nodes[k], *broadcasts, (features[t, k], labels[t, k]), cfg
            )
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
    nodes = _network(graph, maps)
    cfg = AdmmConfig()
    for t in range(4):
        thetas, losses = _broadcasts(nodes)
        # expectation computed from the previous round's broadcasts
        expected = {
            k: combine_weights(
                nodes[k].cumulative_loss,
                [losses[l] for l in graph.neighbors[k]],
                10.0,
            )
            for k in range(3)
        }
        for k in range(3):
            sample = (rng.standard_normal(2), float(rng.standard_normal()))
            step(nodes[k], thetas, losses, sample, cfg)
            assert np.array_equal(nodes[k].round_weights, expected[k])


def test_replay_matches_step_prediction_bitwise():
    """A node predicts with its previous broadcast's parameters under
    the round's weights."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes = _network(graph, maps)
    rng = np.random.default_rng(43)
    cfg = AdmmConfig()
    for t in range(5):
        thetas, losses = _broadcasts(nodes)
        xs = {}
        preds = {}
        for k in range(2):
            xs[k] = rng.standard_normal(2)
            preds[k], _ = step(nodes[k], thetas, losses,
                               (xs[k], float(rng.standard_normal())), cfg)
        for k in range(2):
            _, replayed = _combined_prediction(
                thetas[k], nodes[k].round_weights,
                map_stack(nodes[k].feature_maps, xs[k]),
            )
            assert float(replayed) == preds[k]


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
    nodes_p = _network(graph, maps)
    nodes_m = _network(graph, maps)
    messages = initial_messages(graph, 3)
    for t in range(6):
        broadcasts_p, broadcasts_m = _broadcasts(nodes_p), _broadcasts(nodes_m)
        messages = mp_update_messages(messages, graph,
                                      -broadcasts_m[1] / 10.0)
        for k in range(2):
            step(nodes_p[k], *broadcasts_p, samples[t][k], cfg)
            step(nodes_m[k], *broadcasts_m, samples[t][k], cfg,
                 incoming_messages=[messages[(1 - k, k)]])
            assert np.allclose(nodes_m[k].round_weights,
                               nodes_p[k].round_weights, atol=1e-12)
