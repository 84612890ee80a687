"""Brute-force references the fast implementations are tested against.

The joint-step solver treats one consensus round as a single dense
linear system over all learners' stacked parameters, with the edge
constraints kept as explicit per-edge auxiliary vectors and directed
duals.  It deliberately ignores the block structure so agreement with
the per-node closed forms is a real check, not a tautology.  The module
also computes hindsight optima over pooled data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np


@dataclass
class JointStepProblem:
    """State of one network-wide consensus round, edges kept explicit.

    ``gammas`` maps each undirected edge (k, l) with k < l to its
    auxiliary vector; ``duals`` maps each directed pair to its dual.
    """

    graph: object
    z: np.ndarray            # (K, D) per-node feature vectors
    y: np.ndarray            # (K,) per-node labels
    prev_thetas: np.ndarray  # (K, D)
    gammas: dict
    duals: dict
    rho: float
    eta_local: float

    @classmethod
    def initial(cls, graph, dim, rho, eta_local):
        """All-zero state before the first round."""
        gammas = {edge: np.zeros(dim) for edge in graph.edges}
        duals = {}
        for k, l in graph.edges:
            duals[(k, l)] = np.zeros(dim)
            duals[(l, k)] = np.zeros(dim)
        return cls(
            graph=graph,
            z=np.zeros((graph.num_nodes, dim)),
            y=np.zeros(graph.num_nodes),
            prev_thetas=np.zeros((graph.num_nodes, dim)),
            gammas=gammas,
            duals=duals,
            rho=rho,
            eta_local=eta_local,
        )

    def aggregated_dual(self, node):
        """Sum of the node's outgoing directed duals."""
        total = np.zeros(self.z.shape[1])
        for l in self.graph.neighbors[node]:
            total = total + self.duals[(node, l)]
        return total


def _edge_key(k, l):
    return (k, l) if k < l else (l, k)


def joint_theta_step(problem):
    """Minimize the round objective over all learners' stacked thetas.

    Assembles the dense normal equations over num_nodes * dim unknowns,
    one block per node with the per-edge auxiliaries and duals summed
    into its right-hand side, and solves them in one shot.
    """
    graph = problem.graph
    num_nodes, dim = problem.prev_thetas.shape
    size = num_nodes * dim
    system = np.zeros((size, size))
    rhs = np.zeros(size)
    for k in range(num_nodes):
        sl = slice(k * dim, (k + 1) * dim)
        degree = graph.degree(k)
        system[sl, sl] = (
            2.0 * np.outer(problem.z[k], problem.z[k])
            + (problem.eta_local + problem.rho * degree) * np.eye(dim)
        )
        gam_total = np.zeros(dim)
        for l in graph.neighbors[k]:
            gam_total = gam_total + problem.gammas[_edge_key(k, l)]
        rhs[sl] = (
            2.0 * problem.y[k] * problem.z[k]
            + problem.eta_local * problem.prev_thetas[k]
            + problem.rho * gam_total
            - problem.aggregated_dual(k)
        )
    solution = np.linalg.solve(system, rhs)
    if not np.isfinite(solution).all():
        raise FloatingPointError("joint solve produced non-finite values")
    return solution.reshape(num_nodes, dim)


def joint_gamma_step(problem, new_thetas):
    """Per-edge auxiliary update: the midpoint of the new endpoints.

    The general auxiliary argmin carries a dual correction term, but the
    duals of opposite directions cancel exactly from zero
    initialization, leaving the plain midpoint.
    """
    return {
        (k, l): 0.5 * (new_thetas[k] + new_thetas[l])
        for k, l in problem.graph.edges
    }


def edge_dual_step(problem, new_thetas, new_gammas):
    """Move every directed dual along its endpoint's constraint residual.

    The increment rho * (theta_k - gamma) is evaluated as
    (rho/2)(theta_k - theta_l) + rho * (midpoint - gamma), which is
    algebraically identical and keeps opposite-direction duals exact
    negatives of one another whenever gamma is the midpoint, since the
    correction term is then exactly zero and subtraction is
    sign-symmetric in IEEE arithmetic.
    """
    updated = {}
    for k, l in problem.graph.edges:
        gamma = new_gammas[(k, l)]
        midpoint = 0.5 * (new_thetas[k] + new_thetas[l])
        correction = problem.rho * (midpoint - gamma)
        updated[(k, l)] = (
            problem.duals[(k, l)]
            + 0.5 * problem.rho * (new_thetas[k] - new_thetas[l])
            + correction
        )
        updated[(l, k)] = (
            problem.duals[(l, k)]
            + 0.5 * problem.rho * (new_thetas[l] - new_thetas[k])
            + correction
        )
    return updated


def joint_round(problem, z, y):
    """Run one full oracle cycle and return the advanced problem.

    Installs the round's data, solves the joint theta step, recomputes
    the per-edge auxiliaries and duals, and rolls the state forward.
    """
    problem = dc_replace(
        problem,
        z=np.asarray(z, dtype=np.float64),
        y=np.asarray(y, dtype=np.float64),
    )
    new_thetas = joint_theta_step(problem)
    new_gammas = joint_gamma_step(problem, new_thetas)
    new_duals = edge_dual_step(problem, new_thetas, new_gammas)
    return dc_replace(
        problem,
        prev_thetas=new_thetas,
        gammas=new_gammas,
        duals=new_duals,
    )


def hindsight_best(z_pool, y_pool, ridge=1e-8):
    """Best fixed parameter vector for the pooled samples.

    Solves the normal equations with a tiny ridge so degenerate pools
    still give the minimum-norm interpolant.  Returns the minimizer, its
    unregularized cumulative squared loss on the pool, and the residual
    ``z_pool @ theta - y_pool`` that loss sums.
    """
    z_pool = np.asarray(z_pool, dtype=np.float64)
    y_pool = np.asarray(y_pool, dtype=np.float64)
    if z_pool.ndim != 2 or len(z_pool) < 1:
        raise ValueError("need a non-empty 2-d sample pool")
    dim = z_pool.shape[1]
    gram = z_pool.T @ z_pool + ridge * np.eye(dim)
    theta = np.linalg.solve(gram, z_pool.T @ y_pool)
    residual = z_pool @ theta - y_pool
    return theta, float(residual @ residual), residual
