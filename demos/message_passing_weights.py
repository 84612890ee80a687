"""
Spreading kernel scores along a tree without flooding
=====================================================

On tree networks the learners can pool their per-kernel loss records
with a message-passing recursion instead of summing direct neighbors
only: each edge carries the accumulated score of everything behind it.
This demo runs the recursion by hand on a 4-node path, shows how a
score planted at node 0 reaches node 3 over three rounds, and checks
that on a single edge the recursion collapses to plain neighbor
summing.
"""

import numpy as np

from domkl import Graph, HedgeState, MessageBoard, combine_weights, mp_combine_weights
from domkl.hedge import accumulate, mp_update_messages

path = Graph(4, ((0, 1), (1, 2), (2, 3)))
num_kernels = 3

# Give node 0 a strong opinion (kernel 0 is bad there) and keep all
# other nodes neutral.  log_w = -cumulative_loss / eta.
states = [HedgeState.fresh(num_kernels) for _ in range(4)]
states[0] = accumulate(states[0], np.array([30.0, 0.0, 0.0]))

board = MessageBoard.initial(path, num_kernels)
print("node 3's view of kernel 0, round by round:")
for round_index in range(1, 5):
    log_ws = [s.log_w() for s in states]
    board = mp_update_messages(board, path, log_ws)
    incoming = [board.messages[(2, 3)]]
    weights = mp_combine_weights(states[3].log_w(), incoming)
    print("  after round %d: weight on kernel 0 = %.4f" % (round_index,
                                                           weights[0]))
print("(the planted score needs 3 hops to reach the far end)")

# On one edge there is nothing to relay, so message passing and the
# direct product rule agree.
pair = Graph(2, ((0, 1),))
a = HedgeState.fresh(num_kernels)
b = accumulate(HedgeState.fresh(num_kernels), np.array([0.0, 5.0, 1.0]))
pair_board = mp_update_messages(MessageBoard.initial(pair, num_kernels),
                                pair, [a.log_w(), b.log_w()])
via_messages = mp_combine_weights(a.log_w(), [pair_board.messages[(1, 0)]])
via_product = combine_weights(a.cumulative_loss, [b.cumulative_loss], 10.0)
print("\ntwo-node check, max |difference|: %.2e"
      % np.abs(via_messages - via_product).max())
