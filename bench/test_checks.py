"""Hand-sized cases for the benchmark's own checkers.

Run from the root of the repository:

    python3 -m pytest -q bench/test_checks.py

Each checker gets a case whose answer is worked out by hand, and each
check must reject a perturbed output.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from checks import CheckFailure


def structure(n, intra=(), inter=(), auto=None, n_z=0, static=(), p=1):
    """Structure-like record; edges are (j, i) pairs meaning j -> i."""
    a = np.zeros((n, n), dtype=bool)
    b = np.zeros((n, n), dtype=bool)
    s = np.zeros((n_z, n), dtype=bool)
    for j, i in intra:
        a[j, i] = True
    for j, i in inter:
        b[j, i] = True
    for j, i in static:
        s[j, i] = True
    return SimpleNamespace(n_x=n, n_z=n_z, p=p, intra=a, inter=b, static_edges=s,
                           auto_lags=tuple(tuple(auto.get(i, ())) if auto else () for i in range(n)))


def column(values):
    """One trajectory of one variable: shape (1, T+1, 1)."""
    return np.asarray(values).reshape(1, -1, 1)


class TestGraphs:
    def test_topological_order_of_a_chain(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[2, 0] = adj[0, 1] = True
        assert checks.topological_order(adj) == [2, 0, 1]

    def test_cyclic_intra_graph_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[2, 0] = True
        assert checks.topological_order(adj) is None
        with pytest.raises(CheckFailure, match="cycle"):
            checks.require_acyclic(adj)

    def test_self_loop_rejected(self):
        with pytest.raises(CheckFailure, match="self loop"):
            checks.require_acyclic(np.eye(2, dtype=bool))

    def test_parent_caps(self):
        s = structure(4, intra=[(0, 3), (1, 3)], inter=[(2, 3)], auto={3: (1,)})
        checks.require_parent_caps(s, 2, 2, 1, 1, 1)
        with pytest.raises(CheckFailure, match="2 intra parents, cap is 1"):
            checks.require_parent_caps(s, 1, 2, 1, 1, 1)

    def test_shd_counts_a_reversal_twice(self):
        truth = structure(3, intra=[(0, 1)], auto={2: (1,)})
        learned = structure(3, intra=[(1, 0)], inter=[(2, 2)], auto={})
        # reversed intra edge: 2; auto lag of node 2 spelled as an inter self edge: 0
        assert checks.shd(learned, truth) == 2
        assert checks.shd(structure(3, inter=[(0, 2)]), truth) == 3

    def test_mann_whitney(self):
        assert checks.mann_whitney_auc([0.9, 0.8, 0.1], [True, False, True]) == 0.5
        assert checks.mann_whitney_auc([1.0, 1.0, 0.0], [True, False, False]) == 0.75

    def test_weighted_edge_scores_read_lag_diagonal_as_auto(self):
        s = structure(2)
        w = np.array([[0.0, 0.4], [0.0, 0.0]])
        a = np.array([[0.7, 0.0], [-0.2, 0.3]])
        universe = checks.edge_universe(2, 0, 1)
        assert universe == [("intra", 0, 1), ("intra", 1, 0), ("inter", 0, 1),
                            ("inter", 1, 0), ("auto", 0, 1), ("auto", 1, 1)]
        assert checks.edge_scores(universe, s, w, a).tolist() == [0.4, 0.0, 0.0, 0.2, 0.7, 0.3]


class TestScores:
    def test_bde_of_three_draws(self):
        # a = 1/2 per cell: P(0, 0, 1) = (1/2)(3/2 / 2)(1/2 / 3) = 1/16
        value = checks.bde_family(np.array([0, 0, 1]), np.empty((3, 0)), [], 2)
        assert value == pytest.approx(math.log(1 / 16), rel=1e-12)

    def test_bic_with_a_perfect_parent(self):
        child = np.array([0, 0, 1, 1])
        assert checks.bic_family(child, child[:, None], [2], 2) == \
            pytest.approx(-2 * math.log(4), rel=1e-12)
        assert checks.bic_family(child, np.empty((4, 0)), [], 2) == \
            pytest.approx(8 * math.log(0.5) - math.log(4), rel=1e-12)

    def test_bge_of_one_row_is_a_student_t_density(self):
        # one row x = 0, alpha_mu = 1, alpha_w = 3: t with 3 dof, scale^2 2/3
        value = checks.bge_family(np.array([0.0]), np.empty((1, 0)))
        assert value == pytest.approx(math.log(math.sqrt(2) / math.pi), rel=1e-12)

    def test_gaussian_loglik_of_two_points(self):
        value = checks.ll_family(np.array([1.0, 3.0]), np.empty((2, 0)))
        assert value == pytest.approx(-math.log(2 * math.pi) - 1, rel=1e-12)

    def test_structure_score_sums_families(self):
        x = column([0, 0, 1, 1, 1])
        s = structure(1, auto={0: (1,)})
        # targets 1..4 with the previous value as parent: 0->0, 0->1, 1->1, 1->1
        child, parent = np.array([0, 1, 1, 1]), np.array([[0], [0], [1], [1]])
        assert checks.structure_score("bde", s, x, np.zeros((1, 0)), (2,), ()) == \
            checks.bde_family(child, parent, [2], 2)

    def test_score_off_by_a_millionth_rejected(self):
        own = checks.bde_family(np.array([0, 0, 1]), np.empty((3, 0)), [], 2)
        checks.require_close("score", own * (1 + 1e-12), own)
        with pytest.raises(CheckFailure, match="score"):
            checks.require_close("score", own * (1 + 1e-6), own)
        with pytest.raises(CheckFailure, match="below"):
            checks.require_no_lower("score", own * (1 + 1e-6), own)


class TestHoldout:
    def test_discrete_posterior_mean(self):
        # T = 4, s = 2: train targets 1, 1 -> counts (0, 2) + 1/2 each
        x = column([0, 1, 1, 1, 0])
        value, rows = checks.holdout_loglik(structure(1), x, np.zeros((1, 0)), 2, (2,), ())
        assert rows == 2
        assert value == pytest.approx(math.log(2.5 / 3) + math.log(0.5 / 3), rel=1e-12)

    def test_continuous_least_squares(self):
        # train targets 1, 3 -> mean 2, variance 1; test targets 5, 2
        x = column([0.0, 1.0, 3.0, 5.0, 2.0])
        value, rows = checks.holdout_loglik(structure(1), x, np.zeros((1, 0)), 2)
        assert rows == 2
        assert value == pytest.approx(-math.log(2 * math.pi) - 4.5, rel=1e-12)

    def test_wrong_test_loglik_rejected(self):
        x = column([0.0, 1.0, 3.0, 5.0, 2.0])
        value, _ = checks.holdout_loglik(structure(1), x, np.zeros((1, 0)), 2)
        with pytest.raises(CheckFailure, match="test loglik"):
            checks.require_close("test loglik", value + 1e-3, value)

    def test_true_loglik_reads_tables_in_program_order(self):
        # node 0: parents inter 1 (least significant digit), then auto 1
        table = np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]])
        params = SimpleNamespace(families=(SimpleNamespace(table=table),
                                           SimpleNamespace(table=np.array([[0.5, 0.5]]))))
        s = structure(2, inter=[(1, 0)], auto={0: (1,)})
        x = np.array([[[0, 1], [1, 0], [1, 1]]])
        # t=1: inter=1, auto=0 -> row 1, child 1; t=2: inter=0, auto=1 -> row 2, child 1
        want = math.log(0.4) + math.log(0.7) + 2 * math.log(0.5)
        assert checks.true_loglik(s, params, x, np.zeros((1, 0)), 1, (2, 2), ()) == \
            pytest.approx(want, rel=1e-12)


class TestLearnerProperties:
    def test_monotone_trace(self):
        trace = [{"restart": 0, "step": 0, "score": -5.0}, {"restart": 0, "step": 1, "score": -3.0},
                 {"restart": 1, "step": 0, "score": -9.0}, {"restart": 1, "step": 1, "score": -2.0}]
        checks.require_monotone_trace(trace, -2.0)
        trace[3]["score"] = -9.5
        with pytest.raises(CheckFailure, match="decreases in restart 1"):
            checks.require_monotone_trace(trace, -9.5)

    def test_sem_sse(self):
        # two nodes, one trajectory, T = 2; Y = 0.5 Y_{t-1} on node 0 only
        x = np.array([[[2.0, 1.0], [1.0, 0.0], [1.0, 3.0]]])
        a = np.array([[0.5, 0.0], [0.0, 0.0]])
        # residuals: t=1: (1 - 1, 0), t=2: (1 - 0.5, 3)
        assert checks.sem_sse(x, np.zeros((2, 2)), a) == pytest.approx(0.25 + 9.0, rel=1e-12)

    def test_weight_below_bound_rejected(self):
        w = np.array([[0.0, 0.1], [0.0, 0.0]])
        checks.require_bounded_weights(w, -0.1 * np.eye(2), 0.1, 0.1)
        with pytest.raises(CheckFailure, match="below the bound"):
            checks.require_bounded_weights(w, np.array([[0.0, 0.09], [0.0, 0.0]]), 0.1, 0.1)
