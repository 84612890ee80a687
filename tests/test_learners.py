import copy

import numpy as np
import pytest

from domkl.features import build_feature_map, build_maps, map_stack
from domkl.graph import Graph
from domkl.hedge import combine_weights, mp_update_messages
from domkl.learners import NetworkState, _combined_prediction, step
from domkl.simulator import AdmmConfig


def _maps(num_kernels=3, input_dim=2, num_features=5, shared_seed=9):
    bandwidths = tuple(0.1 * (p + 1) for p in range(num_kernels))
    return build_maps(bandwidths, input_dim, num_features, shared_seed)


def _network(graph, maps, eta_global=10.0, relay=False):
    return NetworkState(graph, maps, eta_global, relay)


def _relay(net):
    """Advance the network's relayed messages by one round: into the
    spare buffer, which then swaps with the messages steps read."""
    mp_update_messages(net.messages, net.graph, -net.losses / net.eta_global,
                       net.next_messages)
    net.messages, net.next_messages = net.next_messages, net.messages


def test_exchange_never_carries_raw_samples():
    """A node's broadcast is its (P, D) theta block and (P,) loss totals,
    and neither holds the round's input or label."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    net = _network(graph, maps)
    x = np.array([0.123456789101112, -7.654321012131415])
    y = 3.141592653589793
    assert len(step(net, 0, (x, y), AdmmConfig())) == 3
    assert net.next_thetas.shape == (2, 3, 10)
    assert net.next_losses.shape == (2, 3)
    for forbidden in (x[0], x[1], y):
        assert not np.isin(forbidden, net.next_thetas[0]).any()
        assert not np.isin(forbidden, net.next_losses[0]).any()


def test_node_rejects_mismatched_maps():
    graph = Graph(num_nodes=2, edges=((0, 1),))
    a = build_feature_map(0.1, input_dim=2, num_features=4, seed=1)
    b = build_feature_map(0.2, input_dim=2, num_features=5, seed=2)
    with pytest.raises(ValueError):
        NetworkState(graph, (a, b), 10.0)
    with pytest.raises(ValueError):
        NetworkState(graph, (), 10.0)


def test_node_rejects_nonpositive_eta_global():
    graph = Graph(num_nodes=2, edges=((0, 1),))
    maps = _maps()
    for eta_global in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="eta_global must be positive"):
            NetworkState(graph, maps, eta_global)
    assert NetworkState(graph, maps, 1e-300).eta_global == 1e-300


@pytest.mark.parametrize("relay", [False, True])
def test_step_reads_only_its_neighbours_rows(relay):
    """Every row but the node's own and its neighbours' may hold anything:
    with NaN in the other rows of thetas, losses and duals, and in every
    message but its tree neighbours' to the node, outputs and the rows
    the step writes are bitwise those of a clean call, and no
    floating-point error is raised.  The edge 2-3 closes a cycle, so it
    carries parameters but no messages."""
    maps = _maps()
    graph = Graph(num_nodes=5, edges=((0, 1), (1, 2), (1, 3), (2, 3), (3, 4)))
    net = _network(graph, maps, relay=relay)
    rng = np.random.default_rng(53)
    for t in range(4):
        if relay:
            _relay(net)
        for k in range(5):
            sample = (rng.standard_normal(2), float(rng.standard_normal()))
            if t == 3:
                neighbors = list(graph.neighbors[k])
                outside = [l for l in range(5)
                           if l != k and l not in neighbors]
                poisoned = copy.deepcopy(net)
                for array in (poisoned.thetas, poisoned.losses,
                              poisoned.lams):
                    array[outside] = np.nan
                if relay:
                    senders = list(graph.tree_neighbors[k])
                    kept = poisoned.messages[senders, k].copy()
                    poisoned.messages[:] = np.nan
                    poisoned.messages[senders, k] = kept
                runs = []
                for state in (copy.deepcopy(net), poisoned):
                    with np.errstate(all="raise"):
                        out = step(state, k, sample, AdmmConfig())
                    runs.append([np.float64(out[0]), out[1], out[2],
                                 state.lams[k], state.next_thetas[k],
                                 state.next_losses[k]])
                clean, dirty = runs
                assert np.isfinite(clean[1]).all()
                for a, b in zip(clean, dirty):
                    assert a.tobytes() == b.tobytes()
            step(net, k, sample, AdmmConfig())
        net.end_round()


def test_relay_buffers_start_at_zero_and_apart():
    """With ``relay`` set the network owns two zeroed (K, K, P) message
    buffers that share no memory; without it, none."""
    maps = _maps()
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    net = NetworkState(graph, maps, 10.0, relay=True)
    for buffer in (net.messages, net.next_messages):
        assert buffer.shape == (3, 3, 3) and not buffer.any()
    assert not np.may_share_memory(net.messages, net.next_messages)
    product = NetworkState(graph, maps, 10.0)
    assert product.messages is None and product.next_messages is None


def test_first_round_prediction_is_zero_and_losses_accumulate():
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    net = _network(graph, maps)
    assert not net.losses.any()
    y = 2.0
    pred, kernel_losses, weights = step(
        net, 0, (np.array([0.5, 0.5]), y), AdmmConfig()
    )
    assert np.array_equal(weights, np.full(3, 1.0 / 3.0))
    assert pred == 0.0
    assert np.allclose(kernel_losses, np.full(3, y * y), atol=1e-15)
    assert np.allclose(net.next_losses[0], kernel_losses)


def test_step_never_writes_the_broadcasts_it_reads():
    """Under either hedge rule a step writes only row k of ``lams``,
    ``next_thetas`` and ``next_losses``, and leaves ``thetas``,
    ``losses`` and both message buffers bitwise as they were."""
    maps = _maps()
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    rng = np.random.default_rng(59)
    names = ("thetas", "losses", "messages", "next_messages", "lams",
             "next_thetas", "next_losses")
    for relay in (False, True):
        net = _network(graph, maps, relay=relay)
        for t in range(3):
            if relay:
                _relay(net)
            for k in range(3):
                before = {name: copy.deepcopy(getattr(net, name))
                          for name in names}
                step(net, k, (rng.standard_normal(2),
                              float(rng.standard_normal())), AdmmConfig())
                for name in names[:4]:
                    assert (np.asarray(getattr(net, name)).tobytes()
                            == np.asarray(before[name]).tobytes()), name
                others = [l for l in range(3) if l != k]
                for name in names[4:]:
                    assert (getattr(net, name)[others].tobytes()
                            == before[name][others].tobytes()), name
            net.end_round()


def _run_network(graph, maps, features, labels, cfg, eta_global=10.0):
    """Step every node for every round, previous-round broadcasts only."""
    num_nodes = graph.num_nodes
    rounds = labels.shape[0]
    net = _network(graph, maps, eta_global)
    predictions = np.zeros((rounds, num_nodes))
    for t in range(rounds):
        for k in range(num_nodes):
            predictions[t, k], _, _ = step(
                net, k, (features[t, k], labels[t, k]), cfg
            )
        net.end_round()
    return predictions, net


def test_multi_kernel_dual_finalization_keeps_network_sum_zero():
    maps = _maps(num_kernels=4)
    graph = Graph(num_nodes=5, edges=((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    rng = np.random.default_rng(37)
    features = rng.standard_normal((40, 5, 2))
    labels = rng.standard_normal((40, 5))
    _, net = _run_network(graph, maps, features, labels, AdmmConfig())
    total = np.add.reduce(net.lams)
    assert np.abs(total).max() < 1e-9 * 40


def test_round_weights_match_product_rule_on_exchanged_losses():
    maps = _maps()
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    rng = np.random.default_rng(41)
    net = _network(graph, maps)
    cfg = AdmmConfig()
    for t in range(4):
        # expectation computed from the previous round's broadcasts
        expected = {
            k: combine_weights(
                net.losses[k],
                [net.losses[l] for l in graph.neighbors[k]],
                10.0,
            )
            for k in range(3)
        }
        for k in range(3):
            sample = (rng.standard_normal(2), float(rng.standard_normal()))
            _, _, weights = step(net, k, sample, cfg)
            assert np.array_equal(weights, expected[k])
        net.end_round()


def test_replay_matches_step_prediction_bitwise():
    """A node predicts with its previous broadcast's parameters under
    the round's weights."""
    maps = _maps()
    graph = Graph(num_nodes=2, edges=((0, 1),))
    net = _network(graph, maps)
    rng = np.random.default_rng(43)
    cfg = AdmmConfig()
    for t in range(5):
        xs, preds, weights = {}, {}, {}
        for k in range(2):
            xs[k] = rng.standard_normal(2)
            preds[k], _, weights[k] = step(
                net, k, (xs[k], float(rng.standard_normal())), cfg)
        for k in range(2):
            _, replayed = _combined_prediction(
                net.thetas[k], weights[k], map_stack(maps, xs[k]),
            )
            assert float(replayed) == preds[k]
        net.end_round()


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
    product = _network(graph, maps)
    relayed = _network(graph, maps, relay=True)
    for t in range(6):
        _relay(relayed)
        for k in range(2):
            _, _, weights_p = step(product, k, samples[t][k], cfg)
            _, _, weights_m = step(relayed, k, samples[t][k], cfg)
            assert np.allclose(weights_m, weights_p, atol=1e-12)
        product.end_round()
        relayed.end_round()
