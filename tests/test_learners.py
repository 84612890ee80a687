import struct

import numpy as np
import pytest

from domkl.admm import AdmmConfig, run_single_kernel
from domkl.errors import ProtocolError
from domkl.features import (
    KernelDictionary, KernelSpec, build_feature_map, map_stack,
)
from domkl.graph import Graph
from domkl.hedge import MessageBoard, combine_weights, mp_update_messages
from domkl.learners import LearnerNode, RoundExchange, _combined_prediction, step


def _maps(num_kernels=3, input_dim=2, num_features=5, shared_seed=9):
    specs = tuple(KernelSpec(0.1 * (p + 1)) for p in range(num_kernels))
    return KernelDictionary(specs=specs, shared_seed=shared_seed).build_maps(
        input_dim, num_features
    )


def _network(graph, maps, eta_global=10.0):
    nodes = [
        LearnerNode(k, maps, graph.neighbors[k], eta_global=eta_global)
        for k in range(graph.num_nodes)
    ]
    exchanges = {k: nodes[k].initial_exchange() for k in range(graph.num_nodes)}
    return nodes, exchanges


def test_exchange_round_trips_through_bytes():
    rng = np.random.default_rng(3)
    original = RoundExchange(
        sender=7,
        thetas=rng.standard_normal((4, 6)),
        cumulative_losses=rng.gamma(1.0, 1.0, size=4),
    )
    back = RoundExchange.from_bytes(original.to_bytes())
    assert back.sender == 7
    assert np.array_equal(back.thetas, original.thetas)
    assert np.array_equal(back.cumulative_losses, original.cumulative_losses)


def test_exchange_wire_layout_is_the_documented_one():
    """Parse the blob by hand: int64 header triple, then float64 blocks."""
    thetas = np.array([[1.5, -2.5], [0.25, 4.0]])
    losses = np.array([9.0, 16.0])
    blob = RoundExchange(sender=3, thetas=thetas,
                         cumulative_losses=losses).to_bytes()
    sender, p, d = struct.unpack_from("<qqq", blob, 0)
    assert (sender, p, d) == (3, 2, 2)
    floats = struct.unpack_from("<6d", blob, 24)
    assert floats == (1.5, -2.5, 0.25, 4.0, 9.0, 16.0)
    assert len(blob) == 24 + 48


def test_exchange_never_carries_raw_samples():
    """The broadcast blob must not contain the round's input or label."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes, exchanges = _network(graph, maps)
    x = np.array([0.123456789101112, -7.654321012131415])
    y = 3.141592653589793
    _, _, outgoing = step(nodes[0], [exchanges[1]], (x, y), AdmmConfig())
    blob = outgoing.to_bytes()
    for forbidden in (x[0], x[1], y):
        assert struct.pack("<d", forbidden) not in blob


def test_node_rejects_mismatched_maps():
    a = build_feature_map(KernelSpec(0.1), input_dim=2, num_features=4, seed=1)
    b = build_feature_map(KernelSpec(0.2), input_dim=2, num_features=5, seed=2)
    with pytest.raises(ValueError):
        LearnerNode(0, (a, b), ())
    with pytest.raises(ValueError):
        LearnerNode(0, (), ())


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


def test_unknown_variant_is_rejected():
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes, exchanges = _network(graph, maps)
    with pytest.raises(ValueError):
        step(nodes[0], [exchanges[1]], (np.zeros(2), 0.0), AdmmConfig(),
             variant="gossip")


def test_message_passing_variant_needs_messages():
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes, exchanges = _network(graph, maps)
    with pytest.raises(ProtocolError):
        step(nodes[0], [exchanges[1]], (np.zeros(2), 0.0), AdmmConfig(),
             variant="message_passing")


def test_first_round_prediction_is_zero_and_losses_accumulate():
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    nodes, exchanges = _network(graph, maps)
    assert np.array_equal(nodes[0].round_weights, np.full(3, 1.0 / 3.0))
    y = 2.0
    pred, kernel_losses, outgoing = step(
        nodes[0], [exchanges[1]], (np.array([0.5, 0.5]), y), AdmmConfig()
    )
    assert pred == 0.0
    assert np.allclose(kernel_losses, np.full(3, y * y), atol=1e-15)
    assert np.allclose(outgoing.cumulative_losses, kernel_losses)
    assert np.array_equal(nodes[0].hedge.cumulative_loss,
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


def test_single_kernel_network_matches_reference_loop_bitwise():
    """P=1 stepping must reproduce the flat single-kernel recursion."""
    fmap = build_feature_map(KernelSpec(0.5), input_dim=2, num_features=6,
                             seed=11)
    graph = Graph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
    rng = np.random.default_rng(31)
    features = rng.standard_normal((30, 4, 2))
    labels = rng.standard_normal((30, 4))
    cfg = AdmmConfig(rho=100.0, eta_local=10.0)
    reference_preds, ref_thetas, ref_lams = run_single_kernel(
        graph, fmap, features, labels, cfg
    )
    predictions, nodes = _run_network(graph, (fmap,), features, labels, cfg)
    assert np.array_equal(predictions, reference_preds)
    final_thetas = np.stack([n.thetas[0] for n in nodes])
    assert np.array_equal(final_thetas, ref_thetas)


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
                nodes[k].hedge.cumulative_loss,
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
                nodes[k].round_thetas, nodes[k].round_weights,
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
    board = MessageBoard.initial(graph, 3)
    for t in range(6):
        board = mp_update_messages(
            board, graph,
            [-ex_m[k].cumulative_losses / 10.0 for k in range(2)],
        )
        fresh_p, fresh_m = {}, {}
        for k in range(2):
            _, _, fresh_p[k] = step(nodes_p[k], [ex_p[1 - k]],
                                    samples[t][k], cfg)
            _, _, fresh_m[k] = step(
                nodes_m[k], [ex_m[1 - k]], samples[t][k], cfg,
                variant="message_passing",
                incoming_messages=[board.messages[(1 - k, k)]],
            )
            assert np.allclose(nodes_m[k].round_weights,
                               nodes_p[k].round_weights, atol=1e-12)
        ex_p, ex_m = fresh_p, fresh_m
