"""
Spreading kernel scores along a tree without flooding
=====================================================

The learners can pool their per-kernel loss records with a
message-passing recursion instead of summing direct neighbors only: each
edge of the graph's breadth-first spanning tree carries the accumulated
score of everything behind it, so on any connected graph every score is
counted once.  This demo runs the recursion by hand on a 4-node path,
which is its own spanning tree, shows how a score planted at node 0
reaches node 3 over three rounds, and checks that on a single edge the
recursion collapses to plain neighbor summing.
"""

import numpy as np

from domkl import Graph, combine_weights, mp_combine_weights
from domkl.hedge import accumulate, mp_update_messages

path = Graph(4, ((0, 1), (1, 2), (2, 3)))
num_kernels = 3

# Give node 0 a strong opinion (kernel 0 is bad there) and keep all
# other nodes neutral.  A node's kernel-weight state is its cumulative
# loss per kernel; log_w = -cumulative_loss / eta.
eta = 10.0
cumulatives = np.zeros((4, num_kernels))
cumulatives[0] = accumulate(cumulatives[0], np.array([30.0, 0.0, 0.0]))

# messages[k, l] is what node k last relayed to node l; zero is the
# multiplicative identity.  A relay round writes into a second buffer,
# and the two swap.
messages = np.zeros((4, 4, num_kernels))
spare = np.zeros_like(messages)
print("node 3's view of kernel 0, round by round:")
for round_index in range(1, 5):
    log_ws = -cumulatives / eta
    mp_update_messages(messages, path, log_ws, spare)
    messages, spare = spare, messages
    incoming = [messages[2, 3]]
    weights = mp_combine_weights(log_ws[3], incoming)
    print("  after round %d: weight on kernel 0 = %.4f" % (round_index,
                                                           weights[0]))
print("(the planted score needs 3 hops to reach the far end)")

# On one edge there is nothing to relay, so message passing and the
# direct product rule agree.
pair = Graph(2, ((0, 1),))
a = np.zeros(num_kernels)
b = accumulate(np.zeros(num_kernels), np.array([0.0, 5.0, 1.0]))
pair_messages = mp_update_messages(np.zeros((2, 2, num_kernels)),
                                   pair, -np.stack([a, b]) / eta,
                                   np.zeros((2, 2, num_kernels)))
via_messages = mp_combine_weights(-a / eta, [pair_messages[1, 0]])
via_product = combine_weights(a, [b], eta)
print("\ntwo-node check, max |difference|: %.2e"
      % np.abs(via_messages - via_product).max())
