import hashlib
import json
import math
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from dbnlearn.acyclicity import threshold_and_repair
from dbnlearn.core import (
    ConfigError, DataError, DbnError, DbnStructure, DimensionError, DomainMismatchError, FamilySpec,
    OptimizerError, Parent, SingularFitError, SizeGuardError, configuration_index, is_acyclic,
    parents_of, structure_from_families,
)
from dbnlearn.learn import (
    LEARNERS, BoundedConfig, CellTimeout, ContinuousConfig, Deadline, SearchConfig,
    bounded_oneshot, continuous_oneshot, exact_search, hill_climb, run_learner,
    _MoveTable, _first_best, _price_support, _random_start,
)
import dbnlearn.learn as learn
from dbnlearn.evaluate import EvalReport, temporal_split
from dbnlearn.scoring import (
    SCORE_KINDS, DirichletPrior, FamilyScorer, bge_family_score, family_score,
    information_criterion, _SearchScorer,
)
from dbnlearn.simulate import substream
from dbnlearn.simulate import (
    EdgeProbs, GeneratorConfig, RegimeSpec, regime_datasets, sample_random_dbn, sample_trajectories,
)

from conftest import continuous_dataset, discrete_dataset
from oracle_utils import (
    _structure_with, bounded_support_objective, cached_families, bounded_tables_unpruned, brute_force_best_score,
    lag1_design, reference_continuous_oneshot, reference_hill_climb, reference_legal_moves,
    residual_smooth,
)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def discrete_instance(seed, n=3, n_traj=30, horizon=10, sharpen=3.0, n_z=0, static=0.0):
    cfg = GeneratorConfig(n_x=n, n_z=n_z, model="cpt", seed=seed, sharpen=sharpen,
                          edge_probs=EdgeProbs(intra=0.3, inter=0.4, auto=0.3, static=static))
    structure, params = sample_random_dbn(cfg)
    ds = sample_trajectories(structure, params, n_traj, horizon, seed=seed + 1000,
                             x_arities=(2,) * n, z_arities=(2,) * n_z)
    return structure, ds


def continuous_instance(seed, n=3, n_traj=40, horizon=40, sigma=0.5):
    cfg = GeneratorConfig(n_x=n, model="linear_gaussian", seed=seed, sigma=sigma,
                          edge_probs=EdgeProbs(intra=0.3, inter=0.4, auto=0.3))
    structure, params = sample_random_dbn(cfg)
    return structure, sample_trajectories(structure, params, n_traj, horizon, seed=seed + 2000)


class TestExactSearch:
    def test_matches_brute_force_small(self):
        for seed in (0, 1):
            _, ds = discrete_instance(seed, n_traj=15)
            report = exact_search(ds, "bic", SearchConfig(score="bic"))
            oracle = brute_force_best_score(ds, "bic")
            assert report.score == oracle

    def test_prefers_correct_direction_two_nodes(self):
        # child copies its in-slice parent: the 0 -> 1 direction compresses best
        rng = np.random.default_rng(8)
        x0 = (rng.random((40, 6)) < 0.5).astype(int)
        noise = rng.random((40, 6)) < 0.05
        x1 = np.where(noise, 1 - x0, x0)
        ds = discrete_dataset(np.stack([x0, x1], axis=-1))
        report = exact_search(ds, "bic", SearchConfig(score="bic", max_inter=0, max_auto=0))
        assert report.structure.intra[0, 1] and not report.structure.intra[1, 0]

    def test_disabled_intra_reduces_to_per_node_argmax(self):
        _, ds = discrete_instance(3)
        cfg = SearchConfig(score="bde", max_intra=0)
        report = exact_search(ds, "bde", cfg)
        scorer = FamilyScorer(ds, "bde")
        for i in range(3):
            fam = parents_of(report.structure, i)
            best = max(
                scorer(i, parents)
                for parents in _all_non_intra_sets(ds, i, cfg))
            assert scorer(i, fam.parents) == best

    def test_report_score_matches_rescoring(self):
        _, ds = discrete_instance(4)
        report = exact_search(ds, "bde", SearchConfig(score="bde"))
        assert FamilyScorer(ds, "bde").structure_score(report.structure) == report.score

    def test_size_guard(self):
        ds = discrete_dataset(np.zeros((2, 3, 13), dtype=int))
        with pytest.raises(SizeGuardError):
            exact_search(ds, "bic")

    def test_empty_dataset_rejected(self):
        ds = discrete_dataset(np.zeros((2, 1, 2), dtype=int))
        with pytest.raises(DataError):
            exact_search(ds, "bic")

    def test_deterministic_report_bytes(self):
        _, ds = discrete_instance(5)
        a = exact_search(ds, "bde", SearchConfig(score="bde", seed=9)).to_json()
        b = exact_search(ds, "bde", SearchConfig(score="bde", seed=9)).to_json()
        assert a == b

    @pytest.mark.parametrize("kind", ["bde", "bic", "ll", "aic"])
    def test_batched_cache_equals_per_family_fill(self, kind, monkeypatch):
        # every node's lattice array against one-by-one many calls, bit for bit; the search's
        # scorer is left holding only the rescored families, one per node
        scorers, arrays = [], []
        monkeypatch.setattr(learn, "_SearchScorer",
                            lambda *a, **k: scorers.append(_SearchScorer(*a, **k)) or scorers[-1])
        lattice = FamilyScorer.lattice
        monkeypatch.setattr(FamilyScorer, "lattice", lambda self, node, classes, check=None:
                            arrays.append((node, classes, lattice(self, node, classes, check)))
                            or arrays[-1][2])
        # static covariates, auto lags up to 2 and a burn-in (the test side)
        _, binary = discrete_instance(6, n_traj=12, horizon=12, n_z=2, static=0.3)
        # ternary variables and a ternary static; an inter cap past its 2 candidates, two
        # statics under a cap of 2, and lags up to 3 under a cap of 2: without a burn-in a
        # completion may add lag 1 only, under a burn-in of 2 any lag
        rng = np.random.default_rng(6)
        x, z = rng.integers(0, 3, (10, 9, 3)), np.column_stack([rng.integers(0, 3, 10),
                                                                 rng.integers(0, 2, 10)])
        ternary = [discrete_dataset(x, z, (3, 3, 3), (3, 2), burn_in=b) for b in (0, 2)]
        cases = ((SearchConfig(score=kind, p=2, max_auto=2), (binary, temporal_split(binary)[1])),
                 (SearchConfig(score=kind, p=3, max_auto=2, max_inter=3, max_static=2), ternary))
        for cfg, sides in cases:
            for side in sides:
                arrays.clear()
                report = exact_search(side, kind, cfg, prior=DirichletPrior(3.0))
                one_by_one = FamilyScorer(side, kind, prior=DirichletPrior(3.0))
                assert [node for node, _, _ in arrays] == list(range(side.n_x))
                for node, classes, got in arrays:
                    assert got.shape == tuple(map(len, classes))
                    want = [one_by_one.many(node, row[None])[0] for row in joined_rows(classes)]
                    assert bits(got.reshape(-1)) == bits(want)
                assert report.extras["cache_entries"] == len(one_by_one.scores)
                assert len(scorers[-1].scores) == side.n_x
                assert sorted(cached_families(scorers[-1])) == sorted(
                    (i, parents_of(report.structure, i).parents) for i in range(side.n_x))

    def test_exact_ties_keep_the_smaller_intra_set(self):
        # constant data: every family's log-likelihood is 0, so every structure ties
        ds = discrete_dataset(np.zeros((4, 6, 3), dtype=int))
        for name in ("exact", "hill"):
            report = run_learner(name, ds, score="ll")
            assert report.structure == DbnStructure.empty(3, 0, 1), name
        # planted: each node's entry with the other node as intra parent ties its empty entry
        tables = [{0: (1.0, "none"), 2: (1.0, "from 1")}, {0: (1.0, "none"), 1: (1.0, "from 0")}]
        assert learn._best_dag(tables, Deadline(None)) == (2.0, [(1.0, "none"), (1.0, "none")])
        tables[1][1] = (1.5, "from 0")  # strictly better: kept
        assert learn._best_dag(tables, Deadline(None)) == (2.5, [(1.0, "none"), (1.5, "from 0")])

    def test_lattice_past_the_guard_is_refused_before_anything_is_compressed(self):
        # every family with three parents or more has 300**4 cells or more
        x = np.random.default_rng(0).integers(0, 300, (5, 20, 3))
        ds = discrete_dataset(x, x_arities=(300,) * 3)
        with pytest.raises(SizeGuardError):
            exact_search(ds)
        assert ds._rows == {}

    def test_respects_deadline(self):
        _, ds = discrete_instance(9, n_traj=50, horizon=30)
        with pytest.raises(CellTimeout):
            exact_search(ds, "bde", deadline=Deadline(0.0))

    def test_deadline_checked_inside_batched_scoring(self):
        class Countdown(Deadline):
            def __init__(self, checks):
                super().__init__(None)
                self.checks = checks

            def check(self):
                self.checks -= 1
                if self.checks < 0:
                    raise CellTimeout("learner exceeded its time budget")

        _, ds = discrete_instance(9, n_traj=50, horizon=30)
        deadline = Countdown(1)  # the check before node 0 passes, the first counting step's fails
        with pytest.raises(CellTimeout):
            exact_search(ds, "bde", deadline=deadline)
        assert deadline.checks == -1


def joined_rows(classes):
    """Every family of a lattice, one class row each, intra-major: the union of its rows."""
    intra, inter, auto, static = classes
    return np.array([a | b | c | d for a in intra for b in inter for c in auto for d in static])


def _all_non_intra_sets(ds, node, cfg):
    from oracle_utils import class_subsets
    inter = class_subsets([Parent("inter", j) for j in range(ds.n_x) if j != node], cfg.max_inter)
    auto = class_subsets([Parent("auto", t) for t in range(1, cfg.p + 1)], cfg.max_auto)
    static = class_subsets([Parent("static", j) for j in range(ds.n_z)], cfg.max_static)
    for a in inter:
        for b in auto:
            for c in static:
                yield a + b + c


def rebuilt_legal_moves(structure, config):
    """Move list built by trying each intra addition or reversal on a copy and checking it for cycles."""
    n = structure.n_x
    moves = []
    intra_in = structure.intra.sum(axis=0)
    inter_in = structure.inter.sum(axis=0)
    static_in = structure.static_edges.sum(axis=0)
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            if structure.intra[j, i]:
                moves.append(("del_intra", j, i))
                trial = structure.intra.copy()
                trial[j, i], trial[i, j] = False, True
                if intra_in[j] < config.max_intra and is_acyclic(trial):
                    moves.append(("rev_intra", j, i))
            elif intra_in[i] < config.max_intra:
                trial = structure.intra.copy()
                trial[j, i] = True
                if is_acyclic(trial):
                    moves.append(("add_intra", j, i))
            if structure.inter[j, i]:
                moves.append(("del_inter", j, i))
            elif inter_in[i] < config.max_inter:
                moves.append(("add_inter", j, i))
    for i in range(n):
        for tau in range(1, config.p + 1):
            if tau in structure.auto_lags[i]:
                moves.append(("del_auto", i, tau))
            elif len(structure.auto_lags[i]) < config.max_auto:
                moves.append(("add_auto", i, tau))
    for j in range(structure.n_z):
        for i in range(n):
            if structure.static_edges[j, i]:
                moves.append(("del_static", j, i))
            elif static_in[i] < config.max_static:
                moves.append(("add_static", j, i))
    return moves


def table_moves(scorer, structure, config):
    """A fresh move table's legal moves from ``structure``, as changed-family tuples, and their deltas."""
    table = _MoveTable(scorer, structure, config)
    moves, deltas = table.evaluate(lambda: None)
    return changed_families(table, moves), deltas


def changed_families(table, moves):
    """Each move as the ``(node, new parent tuple)`` pairs it changes, a reversal's child first."""
    return [tuple((v, table.scorer.parents(table.toggled(v, [t])[0])) for v, t in table.changes(m))
            for m in moves]


class TestHillClimb:
    def test_terminates_immediately_at_optimum(self):
        _, ds = discrete_instance(6, n_traj=40)
        best = exact_search(ds, "bic", SearchConfig(score="bic"))
        report = hill_climb(ds, "bic", SearchConfig(score="bic", restarts=1),
                            initial=best.structure)
        assert report.score == best.score
        assert len(report.trace) == 1  # zero improving moves from the optimum

    def test_learns_self_edge_on_self_driven_node(self):
        structure = DbnStructure(
            n_x=1, n_z=0, p=1, intra=np.zeros((1, 1), dtype=bool),
            inter=np.zeros((1, 1), dtype=bool), auto_lags=((1,),),
            static_edges=np.zeros((0, 1), dtype=bool))
        from dbnlearn.core import Cpt, ParameterSet
        params = ParameterSet((Cpt(np.array([[0.9, 0.1], [0.1, 0.9]])),))
        ds = sample_trajectories(structure, params, 50, 40, seed=3)
        report = hill_climb(ds, "bic", SearchConfig(score="bic", restarts=1))
        assert report.structure.auto_lags[0] == (1,)

    def test_never_beats_exact_and_often_ties(self):
        ties = 0
        for seed in range(10):
            _, ds = discrete_instance(seed + 20, n_traj=30, horizon=30)
            best = exact_search(ds, "bde", SearchConfig(score="bde"))
            hc = hill_climb(ds, "bde", SearchConfig(score="bde", restarts=3, seed=seed))
            assert hc.score <= best.score + 1e-9
            ties += math.isclose(hc.score, best.score, rel_tol=0, abs_tol=1e-9)
        assert ties >= 7

    def test_local_optimality_post_hoc_sweep(self):
        _, ds = discrete_instance(7)
        cfg = SearchConfig(score="bic", restarts=2, seed=1)
        report = hill_climb(ds, "bic", cfg)
        scorer = FamilyScorer(ds, "bic")
        base = report.score
        n = report.structure.n_x
        for move in rebuilt_legal_moves(report.structure, cfg):
            trial = _structure_with(report.structure, move)
            delta = sum(
                scorer(v, parents_of(trial, v).parents)
                - scorer(v, parents_of(report.structure, v).parents)
                for v in range(n) if parents_of(trial, v) != parents_of(report.structure, v))
            assert delta <= 1e-9, (move, delta, base)

    def test_family_tuple_moves_match_structure_rebuilds(self):
        # the move list and every delta, bit for bit, against validating a
        # whole structure and running a cycle check per candidate move
        for seed in range(12):
            n_z = seed % 3
            _, ds = discrete_instance(seed, n=4 + seed % 3, n_traj=10, horizon=6, n_z=n_z, static=0.3)
            cfg = SearchConfig(score="bic", max_intra=1 + seed % 3, max_inter=1 + seed % 2,
                               max_auto=1 + seed % 2, p=1 + seed % 3, max_static=1)
            scorer = FamilyScorer(ds, "bic")
            for k, edge_prob in enumerate((0.2, 0.4, 0.6, 0.9)):
                structure = _random_start(ds, cfg, substream(seed, "moves", k), edge_prob)
                families = [parents_of(structure, v).parents for v in range(ds.n_x)]
                node_scores = [scorer(v, families[v]) for v in range(ds.n_x)]
                moves, _ = table_moves(scorer, structure, cfg)
                reference = rebuilt_legal_moves(structure, cfg)
                assert len(moves) == len(reference)
                for moved, move in zip(moves, reference):
                    trial = _structure_with(structure, move)
                    kind, a, b = move
                    order = (b, a) if kind == "rev_intra" else (a,) if kind.endswith("auto") else (b,)
                    assert [v for v, _ in moved] == list(order)
                    assert [parents for _, parents in moved] == [parents_of(trial, v).parents for v in order]
                    new = sum(scorer(v, parents) - node_scores[v] for v, parents in moved)
                    old = sum(scorer(v, parents_of(trial, v).parents) - node_scores[v] for v in order)
                    assert new == old
                    after = list(families)
                    for v, parents in moved:
                        after[v] = parents
                    assert structure_from_families(ds.n_x, ds.n_z, cfg.p, after) == trial

    def test_inter_self_edge_is_not_offered_auto_lag_one(self):
        # the inter self edge already is the lag-1 self dependence
        _, ds = discrete_instance(3)
        initial = DbnStructure.empty(3).replace(inter=np.eye(3, dtype=bool))
        cfg = SearchConfig(score="bic", restarts=1)
        moves, _ = table_moves(FamilyScorer(ds, "bic"), initial, cfg)
        changed = [parents for moved in moves for _, parents in moved]
        assert changed and not any(Parent("auto", 1) in parents for parents in changed)
        report = hill_climb(ds, "bic", cfg, initial=initial)
        assert report.score == pytest.approx(FamilyScorer(ds, "bic").structure_score(report.structure))

    def test_move_table_matches_the_oracle_after_every_step(self):
        # legal moves, changed families and delta bits, step by step along the greedy path,
        # against listing every move from scratch
        for seed in range(10):
            n, n_z = 3 + seed % 3, seed % 3
            _, ds = discrete_instance(seed, n=n, n_traj=10, horizon=6, n_z=n_z, static=0.3)
            cfg = SearchConfig(score="bic", max_intra=1 + seed % 3, max_inter=1 + seed % 2,
                               max_auto=1 + seed % 2, p=1 + seed % 3, max_static=1 + seed % 2)
            starts = [_random_start(ds, cfg, substream(seed, "table", k), edge_prob)
                      for k, edge_prob in enumerate((0.2, 0.6, 0.9))]
            starts.append(DbnStructure.empty(n, n_z, cfg.p).replace(inter=np.eye(n, dtype=bool)))
            starts.append(DbnStructure.empty(n, n_z, 3).replace(
                auto_lags=((3,), (1, 3)) + ((2,),) * (n - 2)))
            for start in starts:
                scorer = FamilyScorer(ds, "bic")
                table = _MoveTable(scorer, start, cfg)
                for _ in range(cfg.move_budget):
                    moves, deltas = table.evaluate(lambda: None)
                    structure = table.structure()
                    families = [scorer.parents(table.toggled(v, [table.own])[0]) for v in range(n)]
                    assert families == [parents_of(structure, v).parents for v in range(n)]
                    reference = reference_legal_moves(structure, families, cfg)
                    assert changed_families(table, moves) == reference
                    # every family the oracle needs is already scored, so the lookups add none
                    entries = len(scorer.scores)
                    node_scores = table.scores[:, table.own]
                    assert node_scores.tolist() == [
                        scorer(v, parents) for v, parents in enumerate(families)]
                    assert bits(deltas) == bits([
                        sum(scorer(v, parents) - node_scores[v] for v, parents in moved)
                        for moved in reference])
                    assert len(scorer.scores) == entries
                    chosen = _first_best(deltas)
                    if chosen is None:
                        break
                    table.apply(moves[chosen])

    def test_one_many_call_per_stale_node_and_step(self):
        # the start's own scores come with the first step's batches: a step scores every node
        # once at a restart's start and the last move's nodes once after it, nothing is scored
        # outside a step, and the structure is built once per restart
        _, ds = discrete_instance(5, n=5, n_traj=20, horizon=8, n_z=1, static=0.3)
        cfg = SearchConfig(score="bic", restarts=3, seed=2)
        many, evaluate, apply, finish = FamilyScorer.many, _MoveTable.evaluate, _MoveTable.apply, learn._finish
        rows, parents = FamilyScorer.rows, FamilyScorer.parents
        outside, steps, state = [], [], {"nodes": None, "moved": {}, "finishing": False}
        converted, decoded = [], []  # per tuple-to-row and row-to-tuple call: where it came from

        def counted_many(scorer, node, families, *args, **kwargs):
            (outside if state["nodes"] is None else state["nodes"]).append(node)
            assert state["finishing"] or isinstance(families, np.ndarray)  # a step hands rows
            return many(scorer, node, families, *args, **kwargs)

        def counted_rows(scorer, node, parent_sets):
            converted.append("finish" if state["finishing"] else "search")
            return rows(scorer, node, parent_sets)

        def counted_parents(scorer, row):
            decoded.append("step" if state["nodes"] is not None else "outside a step")
            return parents(scorer, row)

        def counted_evaluate(table, check):
            state["nodes"] = []
            result = evaluate(table, check)
            steps.append((table, state["nodes"], state["moved"].pop(table, None)))
            state["nodes"] = None
            return result

        def counted_apply(table, m):
            state["moved"][table] = sorted(v for v, _ in table.changes(m))
            apply(table, m)

        def counted_finish(*args, **kwargs):
            state["outside"] = list(outside)  # the report's rescoring comes after the search
            state["finishing"] = True
            return finish(*args, **kwargs)

        with mock.patch.object(FamilyScorer, "many", counted_many), \
                mock.patch.object(FamilyScorer, "rows", counted_rows), \
                mock.patch.object(FamilyScorer, "parents", counted_parents), \
                mock.patch.object(_MoveTable, "evaluate", counted_evaluate), \
                mock.patch.object(_MoveTable, "apply", counted_apply), \
                mock.patch.object(learn, "_finish", counted_finish), \
                mock.patch.object(learn, "structure_from_families",
                                  wraps=structure_from_families) as built:
            report = hill_climb(ds, "bic", cfg)
        assert state["outside"] == []
        # tuples enter the scorer only through the report's rescoring, and no step decodes a row
        assert converted == ["finish"] * ds.n_x
        assert decoded and "step" not in decoded
        assert built.call_count == cfg.restarts == len({id(table) for table, _, _ in steps})
        assert report.extras["moves"] > cfg.restarts
        for k, (table, nodes, moved) in enumerate(steps):
            first = k == 0 or steps[k - 1][0] is not table
            assert (moved is None) == first
            assert nodes == (list(range(ds.n_x)) if first else moved)

    def test_returned_structure_shares_no_memory_with_a_table(self):
        # the benchmark reruns a dataset round after round, so leaked state would show there
        _, ds = discrete_instance(4, n=4, n_traj=20, horizon=8)
        tables = []

        class Recorded(_MoveTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        with mock.patch.object(learn, "_MoveTable", Recorded):
            report = hill_climb(ds, "bic", SearchConfig(score="bic", restarts=2, seed=3))
        assert len(tables) == 2 and report.extras["moves"] > 0
        kept = DbnStructure.from_json_dict(report.structure.to_json_dict())
        for table in tables:
            for edges in (report.structure.intra, report.structure.inter, report.structure.static_edges):
                assert not np.shares_memory(edges, table.has)
            table.has[...] = ~table.has
            table.scores[...] = np.nan
        assert report.structure == kept

    @pytest.mark.parametrize("search", [exact_search, hill_climb])
    def test_lag_past_the_horizon_raises(self, search):
        # lag 3 leaves no transition at T = 2; such a family would score 0, above every other
        ds = discrete_dataset(np.random.default_rng(0).integers(0, 2, (4, 3, 2)))
        assert ds.T == 2
        with mock.patch.object(FamilyScorer, "many", side_effect=AssertionError("scored")), \
                mock.patch.object(FamilyScorer, "lattice", side_effect=AssertionError("scored")):
            with pytest.raises(DataError, match="horizon T=2 too short for max lag 3"):
                search(ds, "bic", SearchConfig(score="bic", p=3, max_auto=3))
        assert search(ds, "bic", SearchConfig(score="bic", p=2, max_auto=2)).score < 0

    def test_initial_lag_past_the_horizon_raises(self):
        ds = discrete_dataset(np.random.default_rng(0).integers(0, 2, (4, 3, 2)))
        initial = DbnStructure.empty(2, 0, 3).replace(auto_lags=((3,), ()))
        with pytest.raises(DataError, match="horizon T=2 too short for max lag 3"):
            hill_climb(ds, "bic", SearchConfig(score="bic", restarts=1), initial=initial)

    def test_move_table_columns_are_the_scorer_table(self):
        # the graph's rows and every move's toggled columns are written in the scorer's table
        rng = np.random.default_rng(26)
        for trial in range(20):
            n, horizon, n_z = (int(v) for v in rng.integers((2, 1, 0), (6, 6, 3)))
            ds = discrete_dataset(rng.integers(0, 2, (3, horizon + 1, n)), rng.integers(0, 2, (3, n_z)))
            cfg = SearchConfig(score="bic", p=int(rng.integers(1, horizon + 1)), max_auto=2, max_static=2)
            scorer = FamilyScorer(ds, "bic")
            start = _random_start(ds, cfg, substream(trial, "columns"), 0.5)
            table = _MoveTable(scorer, start, cfg)
            assert table.own == len(scorer.candidates) == table.has.shape[1]
            assert [scorer.parents(row) for row in table.has] == \
                [parents_of(start, v).parents for v in range(n)]
            kinds = [scorer.candidates[t].kind for t in table.toggle]
            assert kinds == ["intra", "intra", "inter"] * (n * (n - 1)) + ["auto"] * (n * cfg.p) \
                + ["static"] * (n * n_z)
            assert [scorer.candidates[t] for t in table.toggle[3 * n * (n - 1):][:cfg.p]] == \
                [Parent("auto", t) for t in range(1, cfg.p + 1)]

    def test_first_best_is_the_sequential_rule(self):
        def sequential(deltas):
            chosen, best = None, 0.0
            for k, delta in enumerate(deltas):
                if delta > best + 1e-12:
                    chosen, best = k, delta
            return chosen
        rng = np.random.default_rng(4)
        cases = [[], [0.0, -1.0], [1e-13, 5e-13],
                 [1.0, 1.0 + 1e-13, 2.0, 2.0 + 2e-12, math.nan, math.inf]]
        values = [-1.0, 0.0, 1e-12, 1.0, 1.0 + 5e-13, 1.0 + 2e-12, 3.0]
        cases += [rng.choice(values, size=k).tolist() for k in range(1, 40)]
        for deltas in cases:
            assert _first_best(np.array(deltas, dtype=float)) == sequential(deltas), deltas

    @pytest.mark.parametrize("kind, restarts", [
        ("bic", 3), ("bde", 2), ("ll", 2), ("aic", 3), ("bge", 2)])
    def test_matches_the_reference_search(self, kind, restarts):
        for seed in range(4):
            if kind == "bge":
                _, ds = continuous_instance(seed, n=3 + seed % 2)
            else:
                _, ds = discrete_instance(seed, n=3 + seed % 3, n_traj=15, horizon=8, n_z=seed % 2,
                                          static=0.3)
            cfg = SearchConfig(score=kind, p=1 + seed % 3, max_auto=1 + seed % 2, restarts=restarts,
                               seed=seed, max_intra=1 + seed % 3, max_inter=1 + seed % 2)
            initial = None if seed % 2 else _random_start(ds, cfg, substream(seed, "initial"), 0.5)
            report = hill_climb(ds, kind, cfg, initial=initial)
            reference = reference_hill_climb(ds, kind, cfg, initial=initial)
            assert (repr(report.trace), repr(report.score), report.structure) == \
                (repr(reference.trace), repr(reference.score), reference.structure)
            assert report.extras == reference.extras
            assert report.extras["moves_evaluated"] > 0

    @pytest.mark.parametrize("initial", [
        DbnStructure.empty(4).replace(intra=np.eye(4, k=1, dtype=bool)),
        DbnStructure.empty(3, 2).replace(static_edges=np.eye(2, 3, dtype=bool))],
        ids=["more-nodes", "static-edges"])
    def test_initial_of_other_dimensions_raises(self, initial):
        ds = discrete_dataset(np.random.default_rng(0).integers(0, 2, (10, 12, 3)))
        with mock.patch.object(FamilyScorer, "many", side_effect=AssertionError("scored")):
            with pytest.raises(DimensionError, match="initial structure has"):
                hill_climb(ds, "bic", initial=initial)

    def test_initial_structure_keeps_its_lag_order(self):
        # moves rebuild the structure at the initial's p, so a lag the search
        # does not offer (3 > config p = 1) stays in place
        _, ds = discrete_instance(3, n_traj=30, horizon=12)
        initial = DbnStructure.empty(3, 0, 3).replace(auto_lags=((3,), (), ()))
        report = hill_climb(ds, "bic", SearchConfig(score="bic", restarts=1), initial=initial)
        assert report.extras["moves"] >= 1
        assert (report.structure.p, report.structure.auto_lags[0]) == (3, (3,))

    def test_shorter_initial_is_raised_to_config_lag_order(self):
        # moves may add auto lags up to config p = 3, so restart 0 starts at
        # that lag order: the same search as from the default empty start
        _, ds = discrete_instance(3, n_traj=30, horizon=12)
        cfg = SearchConfig(score="bic", restarts=1, p=3, max_auto=3)
        report = hill_climb(ds, "bic", cfg, initial=DbnStructure.empty(3, 0, 1))
        assert report.structure.p == 3
        assert report.to_json() == hill_climb(ds, "bic", cfg).to_json()

    def test_deterministic_given_seed(self):
        _, ds = discrete_instance(8)
        cfg = SearchConfig(score="bic", restarts=3, seed=123)
        assert hill_climb(ds, "bic", cfg).to_json() == hill_climb(ds, "bic", cfg).to_json()

    def test_respects_deadline(self):
        _, ds = discrete_instance(9, n_traj=50, horizon=30)
        with pytest.raises(CellTimeout):
            hill_climb(ds, "bic", SearchConfig(score="bic", restarts=5),
                       deadline=Deadline(0.0))


class TestContinuousOneshot:
    def test_huge_lambda_gives_empty_graph(self):
        _, ds = continuous_instance(1)
        report = continuous_oneshot(ds, ContinuousConfig(lambda_w=1e6, lambda_a=1e6))
        assert report.structure.edge_count() == 0
        assert report.extras["h"] == 0.0

    def test_one_edge_shrinkage_closed_form(self):
        # noiseless lag-1 chain x2(t) = 0.8 x1(t-1): the lag edge is the only
        # exact explanation, and soft-thresholding shifts it by lam*M/sum(x^2)
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(30, 10))
        x1 = np.zeros_like(x0)
        x1[:, 1:] = 0.8 * x0[:, :-1]
        ds = continuous_dataset(np.stack([x0, x1], axis=-1))
        lam = 0.02
        report = continuous_oneshot(ds, ContinuousConfig(
            lambda_w=lam, lambda_a=lam, w_threshold=0.05, h_tol=1e-10))
        a = report.extras["a"]
        parent = x0[:, :-1].ravel()
        bound = lam * parent.size / float(np.dot(parent, parent))
        assert report.structure.inter[0, 1]
        assert abs(a[0, 1] - 0.8) <= bound + 1e-3

    def test_final_support_always_acyclic(self):
        for seed in range(5):
            _, ds = continuous_instance(seed + 40, n_traj=25, horizon=25)
            report = continuous_oneshot(ds, ContinuousConfig(
                lambda_w=0.05, lambda_a=0.05, w_threshold=0.01, max_outer=30))
            assert is_acyclic(report.structure.intra)

    def test_inner_objective_monotone_nonincreasing(self):
        _, ds = continuous_instance(2)
        report = continuous_oneshot(ds, ContinuousConfig(
            lambda_w=0.1, lambda_a=0.1, record_inner=True, max_outer=5, h_tol=1e-10))
        for entry in report.trace:
            seq = entry["inner_objectives"]
            assert all(b <= a + 1e-9 for a, b in zip(seq, seq[1:]))

    def test_discrete_dataset_rejected(self):
        ds = discrete_dataset(np.zeros((2, 4, 2), dtype=int))
        with pytest.raises(DomainMismatchError):
            continuous_oneshot(ds)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_inner_solve_raises_optimizer_error(self):
        # the pair sums stay finite at this scale, but every trial step overflows
        ds = continuous_dataset(np.random.default_rng(0).standard_normal((10, 21, 3)) * 1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # overshooting steps are silent
            with pytest.raises(OptimizerError, match="diverged at outer 0"):
                continuous_oneshot(ds)

    def test_deterministic(self):
        _, ds = continuous_instance(3)
        cfg = ContinuousConfig(lambda_w=0.05, lambda_a=0.05, seed=4)
        assert continuous_oneshot(ds, cfg).to_json() == continuous_oneshot(ds, cfg).to_json()


class TestGramForm:
    """DYNOTEARS' Gram-form loss and gradient against the residual form written out in the oracle."""

    @pytest.mark.parametrize("burn_in", [0, 3], ids=["no-burn-in", "burn-in"])
    @pytest.mark.parametrize("max_lag", [1, 2])
    def test_matches_residual_form(self, max_lag, burn_in):
        rng = np.random.default_rng(10 * max_lag + burn_in)
        n = 4
        ds = continuous_dataset(rng.normal(size=(7, 13, n)) * 2.0 + 1.0, burn_in=burn_in)
        gram, m = learn._sem_gram(ds, max_lag)
        assert m == 7 * (12 + 1 - max(max_lag, burn_in + 1))
        for _ in range(5):
            w = rng.normal(scale=0.4, size=(n, n))
            np.fill_diagonal(w, 0.0)
            a = rng.normal(scale=0.4, size=(n * max_lag, n))
            alpha, rho = float(rng.uniform(0.0, 2.0)), float(10.0 ** rng.integers(0, 4))
            smooth = learn._SemSmooth(gram, m, n)
            value, loss, h = smooth.value(np.vstack((w, a)), alpha, rho)
            grad = smooth.gradient()
            gw, ga = grad[:n], grad[n:]
            want_value, want_loss, want_gw, want_ga = residual_smooth(ds, max_lag, w, a, alpha, rho)
            assert h > 0.0
            assert abs(value - want_value) <= 1e-12 * abs(want_value)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            for got, want in ((gw, want_gw), (ga, want_ga)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_trajectory_order_plays_no_part(self):
        _, ds = continuous_instance(6, n=4, n_traj=30, horizon=20)
        shuffled = continuous_dataset(ds.x[np.random.default_rng(1).permutation(ds.N)])
        cfg = ContinuousConfig(lambda_w=0.05, lambda_a=0.05, max_lag=2, max_outer=4,
                               record_inner=True)
        base, moved = continuous_oneshot(ds, cfg), continuous_oneshot(shuffled, cfg)
        assert moved.trace == base.trace and moved.structure == base.structure
        for key in ("w", "a"):
            assert moved.extras[key].tobytes() == base.extras[key].tobytes()


def two_copies():
    """Two noisy copies of one signal: each explains the other, so h stays above 1e-300."""
    rng = np.random.default_rng(0)
    common = rng.normal(size=(20, 16, 1))
    return continuous_dataset(common + 0.1 * rng.normal(size=(20, 16, 2)))


class TestPenaltySchedule:
    """Default DYNOTEARS on sparse linear-Gaussian (20, 40, 50) data, regime seed 2.

    Without a cap rho grew tenfold for 23 outer rounds, to 1e22, and the
    reported objective, then dominated by ``rho h^2 / 2``, read 572006.96.
    """

    @pytest.fixture(scope="class")
    def sparse(self):
        template = GeneratorConfig(n_x=1, model="linear_gaussian", sigma=0.5,
                                   weight_range=(0.3, 1.0),
                                   edge_probs=EdgeProbs(intra=0.05, inter=0.05, auto=0.5))
        cell = next(regime_datasets(RegimeSpec("sparse", ((20, 40, 50),)), template,
                                    replicates=1, seed=2))
        return cell.dataset

    def test_rho_capped_and_objective_is_the_least_squares_fit(self, sparse):
        report = continuous_oneshot(sparse)
        rhos = [entry["rho"] for entry in report.trace]
        assert max(rhos) <= 1e16
        assert report.flags["converged"] or rhos[-1] * ContinuousConfig().rho_growth > 1e16
        # loss + L1, below the empty graph's loss; alpha h + rho h^2 / 2 is left out
        y, _ = lag1_design(sparse)
        assert report.extras["objective"] == report.trace[-1]["objective"]
        assert 0.0 < report.extras["objective"] < 0.5 / len(y) * float(np.sum(y * y))

    def test_outer_loop_stops_unconverged_at_the_cap(self):
        report = continuous_oneshot(two_copies(), ContinuousConfig(
            lambda_w=0.0, lambda_a=0.0, h_tol=1e-300, max_inner=100))
        assert [entry["rho"] for entry in report.trace] == [float(10 ** k) for k in range(17)]
        assert not report.flags["converged"] and report.extras["h"] > 0.0


class TestStackedSolve:
    """The solve on one stacked [W; A] against the earlier loop over separate W and A, bit for bit."""

    @staticmethod
    def assert_same_solve(got, want):
        assert repr(got.trace) == repr(want.trace)
        assert got.structure == want.structure and got.flags == want.flags
        assert repr(got.score) == repr(want.score)
        assert got.extras.keys() == want.extras.keys()
        for key in ("w", "a"):
            assert got.extras[key].tobytes() == want.extras[key].tobytes()
        for key in ("objective", "h", "smooth_calls", "iterations"):
            assert repr(got.extras[key]) == repr(want.extras[key])

    @pytest.mark.parametrize("make, cfg", [
        pytest.param(lambda: continuous_instance(21, n=4)[1],
                     ContinuousConfig(lambda_w=0.05, lambda_a=0.05, max_outer=3), id="lag-1"),
        pytest.param(lambda: continuous_instance(22, n=4, n_traj=20, horizon=20)[1],
                     ContinuousConfig(lambda_w=0.05, lambda_a=0.05, max_lag=2, max_outer=3),
                     id="lag-2"),
        pytest.param(lambda: continuous_dataset(continuous_instance(23, n=4)[1].x, burn_in=3),
                     ContinuousConfig(lambda_w=0.02, lambda_a=0.2, max_lag=2, max_outer=3,
                                      record_inner=True),
                     id="burn-in-unequal-lambdas-record-inner"),
        pytest.param(two_copies,
                     ContinuousConfig(lambda_w=0.0, lambda_a=0.0, h_tol=1e-300, max_inner=100),
                     id="rho-cap"),
        pytest.param(lambda: continuous_instance(1)[1],
                     ContinuousConfig(lambda_w=1e6, lambda_a=1e6), id="huge-lambda"),
    ])
    def test_matches_the_separate_loop(self, make, cfg):
        ds = make()
        self.assert_same_solve(continuous_oneshot(ds, cfg), reference_continuous_oneshot(ds, cfg))

    def test_early_inner_exit(self):
        _, ds = continuous_instance(24, n=5)
        cfg = ContinuousConfig(lambda_w=0.2, lambda_a=0.01, inner_tol=1e-3, max_inner=400)
        got = continuous_oneshot(ds, cfg)
        self.assert_same_solve(got, reference_continuous_oneshot(ds, cfg))
        assert got.extras["iterations"] < len(got.trace) * cfg.max_inner

    def test_benchmark_budget_keeps_the_trial_count(self):
        # the high-dimensional DYNOTEARS cell's size and budget: 4 x 250 iterations, tolerance 0
        template = GeneratorConfig(n_x=1, model="linear_gaussian", sigma=0.5,
                                   weight_range=(0.3, 1.0),
                                   edge_probs=EdgeProbs(intra=0.05, inter=0.05, auto=0.5))
        ds = next(regime_datasets(RegimeSpec("sparse", ((20, 40, 50),)), template,
                                  replicates=1, seed=2)).dataset
        cfg = ContinuousConfig(max_outer=4, max_inner=250, inner_tol=0.0)
        got = continuous_oneshot(ds, cfg)
        self.assert_same_solve(got, reference_continuous_oneshot(ds, cfg))
        assert got.extras["iterations"] == 1000
        assert got.extras["smooth_calls"] > 1000 + 4

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises_the_same_error_silently(self):
        ds = continuous_dataset(np.random.default_rng(0).standard_normal((10, 21, 3)) * 1e100)
        messages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for solve in (continuous_oneshot, reference_continuous_oneshot):
                with pytest.raises(OptimizerError) as info:
                    solve(ds)
                messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("inner solve diverged at outer 0")

    def test_counts_evaluations_and_accepted_steps(self, monkeypatch):
        import dbnlearn.acyclicity as acyclicity
        _, ds = continuous_instance(21, n=4)
        expm, calls = acyclicity.scipy.linalg.expm, []
        monkeypatch.setattr(acyclicity.scipy.linalg, "expm", lambda m: calls.append(1) or expm(m))
        report = continuous_oneshot(ds, ContinuousConfig(lambda_w=0.05, lambda_a=0.05,
                                                         max_outer=4, record_inner=True))
        assert report.extras["smooth_calls"] == len(calls)
        # record_inner keeps the objective before the first step and after each accepted one
        assert report.extras["iterations"] == sum(
            len(entry["inner_objectives"]) - 1 for entry in report.trace)
        assert report.extras["smooth_calls"] > report.extras["iterations"] + len(report.trace)


class TestBoundedOneshot:
    def test_unreachable_bound_gives_empty_structure(self):
        _, ds = continuous_instance(11)
        report = bounded_oneshot(ds, BoundedConfig(b_w=100.0, b_a=100.0))
        assert report.structure.edge_count() == 0
        assert report.extras["objective"] == pytest.approx(report.extras["empty_objective"])

    def test_noiseless_chain_interior_recovery(self):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(25, 8))
        x1 = np.zeros_like(x0)
        x1[:, 1:] = 0.8 * x0[:, :-1]
        ds = continuous_dataset(np.stack([x0, x1], axis=-1))
        report = bounded_oneshot(ds, BoundedConfig(b_w=0.1, b_a=0.1,
                                                   lambda_w_pos=0.01, lambda_w_neg=0.01,
                                                   lambda_a_pos=0.01, lambda_a_neg=0.01))
        a = report.extras["a"]
        assert report.structure.inter[0, 1]
        assert a[0, 1] == pytest.approx(0.8, abs=1e-9)

    def test_active_weights_respect_bounds(self):
        for seed in range(5):
            _, ds = continuous_instance(seed + 60, n_traj=20, horizon=20)
            cfg = BoundedConfig(b_w=0.15, b_a=0.15, lambda_w_pos=0.5, lambda_w_neg=0.5,
                                lambda_a_pos=0.5, lambda_a_neg=0.5)
            report = bounded_oneshot(ds, cfg)
            w, a = report.extras["w"], report.extras["a"]
            active = np.abs(w[w != 0.0])
            assert active.size == 0 or active.min() >= cfg.b_w - 1e-9
            active = np.abs(a[a != 0.0])
            assert active.size == 0 or active.min() >= cfg.b_a - 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_supports_past_the_rows_are_not_priced(self, seed, monkeypatch):
        # 3 usable transitions: a support of k weights needs k + 1 <= 3 rows, as the refit does,
        # so no larger one is priced and the refit of the chosen structure succeeds
        ds = continuous_dataset(np.random.default_rng(seed).standard_normal((1, 4, 3)))
        sizes = []
        price = learn._price_support
        monkeypatch.setattr(learn, "_price_support",
                            lambda target, cols, *a, **k: sizes.append(len(cols)) or price(target, cols, *a, **k))
        report = bounded_oneshot(ds)
        assert sizes and max(sizes) == 2
        assert len(report.params) == 3
        for v in range(3):
            assert len(parents_of(report.structure, v).parents) + 1 <= 3
        assert report.score == FamilyScorer(ds, "ll").structure_score(report.structure)

    def test_objective_never_worse_than_empty(self):
        for seed in range(5):
            _, ds = continuous_instance(seed + 80, n_traj=15, horizon=15)
            report = bounded_oneshot(ds, BoundedConfig(b_w=0.2, b_a=0.2))
            assert report.extras["objective"] <= report.extras["empty_objective"] + 1e-9

    def test_node_guard(self):
        ds = continuous_dataset(np.random.default_rng(0).normal(size=(4, 6, 5)))
        with pytest.raises(SizeGuardError):
            bounded_oneshot(ds, BoundedConfig(max_nodes=4))

    def test_support_price_matches_oracle_for_sign_dependent_penalties(self):
        # each support costs the minimum over signs of SSE + its sign-class penalties
        rng = np.random.default_rng(7)
        for trial in range(400):
            _, ds = continuous_instance(trial + 300, n_traj=5, horizon=10)
            y, x_prev = lag1_design(ds)
            n = y.shape[1]
            i = int(rng.integers(n))
            intra_mask = np.zeros((n, n), dtype=bool)
            lag_mask = np.zeros((n, n), dtype=bool)
            intra_mask[:, i] = rng.random(n) < 0.5
            intra_mask[i, i] = False
            lag_mask[:, i] = rng.random(n) < 0.5
            cfg = BoundedConfig(b_w=rng.uniform(0.05, 0.5), b_a=rng.uniform(0.05, 0.5),
                                lambda_w_pos=rng.uniform(0, 0.2), lambda_w_neg=rng.uniform(0, 3),
                                lambda_a_pos=rng.uniform(0, 0.2), lambda_a_neg=rng.uniform(0, 3))
            intra_js = np.flatnonzero(intra_mask[:, i])
            cols = [y[:, j] for j in intra_js] + [x_prev[:, j] for j in np.flatnonzero(lag_mask[:, i])]
            cost, _ = _price_support(y[:, i], cols, len(intra_js), cfg)
            others = sum(float(np.dot(y[:, j], y[:, j])) for j in range(n) if j != i)
            expected = bounded_support_objective(y, x_prev, intra_mask, lag_mask, cfg)
            assert cost + others == pytest.approx(expected, rel=1e-12), trial


@st.composite
def bounded_cases(draw):
    """A small linear dataset and bounded settings.

    Options: asymmetric sign penalties, a noiseless coupling, data scaled
    by 1e-3 or 1e3, and twin variables.  Exact twins (variable 1 repeats
    variable 0) make duplicated design columns (a rank-deficient design,
    sigma = 0) and supports of exactly equal cost; near twins (1e-7 apart)
    make ill-conditioned designs.
    """
    n = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((draw(st.integers(1, 4)), draw(st.integers(2, 10)) + 1, n))
    coupling = draw(st.sampled_from([0.0, 0.3, 0.8, -1.5]))
    noise = draw(st.sampled_from([0.0, 0.1, 1.0]))
    for t in range(1, x.shape[1]):
        x[:, t, n - 1] = coupling * x[:, t - 1, 0] + noise * x[:, t, n - 1]
    twin = draw(st.sampled_from([None, 0.0, 1e-7]))
    if twin is not None:
        x[..., 1] = x[..., 0] + twin * rng.standard_normal(x.shape[:2])
    x *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    pos = [draw(st.sampled_from([0.0, 0.05, 0.5, 2.0])) for _ in range(2)]
    neg = pos if draw(st.booleans()) else [draw(st.sampled_from([0.0, 0.3, 3.0])) for _ in range(2)]
    cfg = BoundedConfig(b_w=draw(st.sampled_from([0.02, 0.2, 0.7])),
                        b_a=draw(st.sampled_from([0.02, 0.2, 0.7])),
                        lambda_w_pos=pos[0], lambda_w_neg=neg[0],
                        lambda_a_pos=pos[1], lambda_a_neg=neg[1])
    return continuous_dataset(x), cfg


def table_bits(tables):
    return [{key: (entry[0].hex(), entry[1], entry[2], entry[3].tobytes())
             for key, entry in table.items()} for table in tables]


def report_bits(report):
    return (report.structure.to_json_dict(), report.extras["w"].tobytes(),
            report.extras["a"].tobytes(), report.extras["objective"].hex())


def bounded_outcome(ds, cfg):
    """``report_bits`` of the bounded learner, or the error its parameter refit raised."""
    try:
        return report_bits(bounded_oneshot(ds, cfg))
    except Exception as err:  # degenerate draws: both sides must fail alike
        return repr(err)


class TestBoundedPruning:
    """The pruned tables and learner against the unpruned reference, bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(bounded_cases())
    def test_matches_unpruned_reference(self, case):
        ds, cfg = case
        y, x_prev = lag1_design(ds)
        pruned = learn._bounded_tables(y, x_prev, cfg, Deadline(), Counter())
        assert table_bits(pruned) == table_bits(
            bounded_tables_unpruned(y, x_prev, cfg, Deadline(), None))
        outcome = bounded_outcome(ds, cfg)
        with mock.patch.object(learn, "_bounded_tables", bounded_tables_unpruned):
            assert outcome == bounded_outcome(ds, cfg)

    def test_equal_costs_keep_the_first_support(self):
        # variables 0 and 1 are equal, so node 2's supports on either cost
        # the same bits; the one enumerated first, on variable 0, is kept
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 30, 3))
        x[..., 1] = x[..., 0]
        x[:, 1:, 2] = 0.8 * x[:, :-1, 0] + 0.3 * x[:, 1:, 2]
        ds = continuous_dataset(x)
        cfg = BoundedConfig(lambda_w_pos=0.5, lambda_w_neg=0.5, lambda_a_pos=0.5, lambda_a_neg=0.5)
        y, x_prev = lag1_design(ds)
        costs = [_price_support(y[:, 2], [x_prev[:, j]], 0, cfg)[0] for j in (0, 1)]
        assert costs[0] == costs[1]
        for tables in (learn._bounded_tables(y, x_prev, cfg, Deadline(), Counter()),
                       bounded_tables_unpruned(y, x_prev, cfg, Deadline(), None)):
            assert tables[2][0][2] == (0,)
        report = bounded_oneshot(ds, cfg)
        assert report.structure.inter[0, 2] and not report.structure.inter[1, 2]

    def test_counters_count_solves_and_pruning_fires(self, monkeypatch):
        _, ds = continuous_instance(5, n_traj=20, horizon=30)
        calls = []
        solve = scipy.optimize.lsq_linear
        monkeypatch.setattr(scipy.optimize, "lsq_linear",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        report = bounded_oneshot(ds)
        pruned_calls = len(calls)
        monkeypatch.setattr(learn, "_bounded_tables", bounded_tables_unpruned)
        assert report_bits(bounded_oneshot(ds)) == report_bits(report)
        unpruned_calls = len(calls) - pruned_calls
        assert report.extras["bvls_calls"] == pruned_calls
        assert type(report.extras["bvls_calls"]) is type(report.extras["supports_pruned"]) is int
        assert 0 < pruned_calls < unpruned_calls / 2
        assert report.extras["supports_pruned"] > 0

    def test_importing_the_package_leaves_scipy_optimize_unloaded(self):
        # only the bounded learner needs it, and it imports it on first use
        src = str(Path(learn.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import dbnlearn; "
                "print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"

    def test_a_finite_cap_prices_a_support_at_or_above_it(self):
        _, ds = continuous_instance(5, n_traj=10, horizon=20)
        y, x_prev = lag1_design(ds)
        cfg = BoundedConfig(b_w=0.3, b_a=0.3, lambda_w_pos=0.1, lambda_w_neg=1.0)
        cols = [y[:, 0], x_prev[:, 1], x_prev[:, 2]]
        exact, weights = _price_support(y[:, 2], cols, 1, cfg)
        for cap in (exact * 0.5, exact, exact * (1 + 1e-6)):
            cost, capped = _price_support(y[:, 2], cols, 1, cfg, cap)
            if cap < exact:
                assert cost >= cap
            else:
                assert (cost, capped.tobytes()) == (exact, weights.tobytes())


@st.composite
def factor_cases(draw):
    """Rows ``[Y | X_prev]``, a node, a support on them and bounded settings.

    The support has fewer columns than there are rows, so its fit is
    determined; the rows may still be fewer than the 2n columns of the
    factor.  Penalties are equal across signs or not.
    """
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2 * n - 1))
    m = draw(st.integers(k + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((m, 2 * n)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    i = draw(st.integers(0, n - 1))
    sources = draw(st.lists(st.sampled_from([j for j in range(2 * n) if j != i]),
                            min_size=k, max_size=k, unique=True))
    intra_js = sorted(j for j in sources if j < n)
    inter_js = sorted(j for j in sources if j >= n)
    pos = [draw(st.sampled_from([0.0, 0.05, 0.5, 2.0])) for _ in range(2)]
    neg = pos if draw(st.booleans()) else [draw(st.sampled_from([0.0, 0.3, 3.0])) for _ in range(2)]
    cfg = BoundedConfig(b_w=draw(st.sampled_from([0.02, 0.2, 0.7])),
                        b_a=draw(st.sampled_from([0.02, 0.2, 0.7])),
                        lambda_w_pos=pos[0], lambda_w_neg=neg[0],
                        lambda_a_pos=pos[1], lambda_a_neg=neg[1])
    return rows, i, intra_js + inter_js, len(intra_js), cfg


class TestBoundedFactor:
    """Supports priced on the triangular factor of ``[Y | X_prev]`` as on its rows."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(factor_cases())
    def test_price_on_the_factor_matches_the_rows(self, case):
        rows, i, sources, n_intra, cfg = case
        factor = np.linalg.qr(rows, mode="r")
        cost, weights = _price_support(rows[:, i], [rows[:, j] for j in sources], n_intra, cfg)
        on_r, on_r_weights = _price_support(factor[:, i], [factor[:, j] for j in sources], n_intra,
                                            cfg, rows=len(rows))
        assert on_r == pytest.approx(cost, rel=1e-12)
        assert np.sign(on_r_weights).tolist() == np.sign(weights).tolist()

    @staticmethod
    def assert_learner_matches_raw_rows(ds, cfg):
        """The learner's support, counters and objective as the tables on the raw rows give them."""
        report = bounded_oneshot(ds, cfg)
        tally = Counter(bvls_calls=0, supports_pruned=0)
        y, x_prev = lag1_design(ds)
        total, chosen = learn._best_dag(
            learn._bounded_tables(y, x_prev, cfg, Deadline(), tally), Deadline())
        n = ds.n_x
        w_mask, a_mask = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
        for v, (_, intra_js, inter_js, _) in enumerate(chosen):
            w_mask[list(intra_js), v] = True
            a_mask[list(inter_js), v] = True
        assert (report.extras["w"] != 0.0).tolist() == w_mask.tolist()
        assert (report.extras["a"] != 0.0).tolist() == a_mask.tolist()
        assert {key: report.extras[key] for key in tally} == dict(tally)
        assert report.extras["objective"] == pytest.approx(-total, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_learner_matches_the_tables_on_raw_rows(self, seed):
        # the benchmark's bounded template: every node keeps its lag-1 self edge
        cfg = GeneratorConfig(n_x=3, model="linear_gaussian", seed=seed, sigma=0.5,
                              weight_range=(0.3, 1.0),
                              edge_probs=EdgeProbs(intra=0.2, inter=0.1, auto=1.0))
        ds = sample_trajectories(*sample_random_dbn(cfg), 50, 200, seed=seed + 3000)
        self.assert_learner_matches_raw_rows(ds, BoundedConfig())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_twins_keep_the_rank_threshold_of_the_rows(self, seed):
        # variable 1 is variable 0 to 3e-13: over 2,000 rows the supports holding
        # both are rank deficient, which the 6-row factor alone would not tell
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((20, 101, 3))
        x[..., 1] = x[..., 0] + 3e-13 * rng.standard_normal(x.shape[:2])
        x[:, 1:, 2] = 0.5 * x[:, :-1, 0] + 0.6 * x[:, 1:, 0] + 0.3 * x[:, 1:, 2]
        self.assert_learner_matches_raw_rows(continuous_dataset(x), BoundedConfig(
            lambda_w_pos=0.5, lambda_w_neg=0.5, lambda_a_pos=0.5, lambda_a_neg=0.5))


def _structure_digest(report):
    return hashlib.sha256(json.dumps(report.structure.to_json_dict(), sort_keys=True)
                          .encode()).hexdigest()


class TestGoldenOutputs:
    """Learner outputs on small fixed inputs, pinned as the search layer was before its rewrite.

    The discrete reports pin the structure's JSON digest, ``repr(score)``
    and the cache size; the continuous ones pin the structure only, since
    their float bits go through LAPACK.
    """

    @pytest.fixture(scope="class")
    def discrete(self):
        cfg = GeneratorConfig(n_x=4, n_z=1, model="cpt", seed=41, sharpen=3.0,
                              edge_probs=EdgeProbs(intra=0.3, inter=0.4, auto=0.3, static=0.4))
        structure, params = sample_random_dbn(cfg)
        return sample_trajectories(structure, params, 20, 12, seed=1041,
                                   x_arities=(2,) * 4, z_arities=(2,))

    @pytest.fixture(scope="class")
    def continuous(self):
        cfg = GeneratorConfig(n_x=3, model="linear_gaussian", seed=42, sigma=0.5,
                              edge_probs=EdgeProbs(intra=0.3, inter=0.4, auto=0.3))
        structure, params = sample_random_dbn(cfg)
        return sample_trajectories(structure, params, 20, 15, seed=2042)

    # the exact search tallies 72 families: per node 3 x 3 inter and intra pairs x 2 auto
    # completions, (1) and (1, 2), as a completion never adds a later lag, x 1 static
    @pytest.mark.parametrize("learn_fn, kind, digest, score, entries, counted", [
        (exact_search, "bde", "5b1af5df0938c9251a5d1dc8331c8d0832f79e2a6e6711d1af7a6e122c5dda99",
         "-101.28625769944063", 1568, 72),
        (exact_search, "bic", "cb585cbf7953b86c7286e178dbf28ae192fc8da7fc3c4f4d5eb69ac85c52b0df",
         "-272.72161634445746", 1568, 72),
        (hill_climb, "bde", "5b1af5df0938c9251a5d1dc8331c8d0832f79e2a6e6711d1af7a6e122c5dda99",
         "-101.28625769944063", 238, None),
        (hill_climb, "bic", "11b666d99a9db809a697d4edbd35e7ed6a5b0d698853aef99845ca8ddc91c415",
         "-274.67955628177197", 200, None),
    ], ids=["exact-bde", "exact-bic", "hill-bde", "hill-bic"])
    def test_discrete_search(self, discrete, learn_fn, kind, digest, score, entries, counted):
        report = learn_fn(discrete, kind, SearchConfig(score=kind, p=2, max_auto=2, seed=5))
        assert (_structure_digest(report), repr(report.score)) == (digest, score)
        assert report.extras["cache_entries"] == entries
        assert report.extras.get("families_counted") == counted

    @pytest.mark.parametrize("kind, digest, moves", [
        ("bde", "5781319503dc733bb3bacd39a2091a00311d1c32a39a823fc5baf2d78246ec5f", 27),
        ("bic", "dc7a0840e98d29f6006af5bf08daf24a7b2333cb0c40e67f20008d773f26a544", 27),
    ], ids=["hill-bde", "hill-bic"])
    def test_discrete_hill_trace(self, discrete, kind, digest, moves):
        # recorded while hill climbing still scored one family per move
        report = hill_climb(discrete, kind, SearchConfig(score=kind, p=2, max_auto=2, seed=5))
        trace = json.dumps(list(report.trace), sort_keys=True).encode()
        assert (hashlib.sha256(trace).hexdigest(), report.extras["moves"]) == (digest, moves)

    @pytest.mark.parametrize("learn_fn, digest", [
        (lambda ds: hill_climb(ds, "bge", SearchConfig(score="bge", seed=5)),
         "fef2ea9412ded98797cc773e2f3fc5705f92ca518b00f7fc87eead812e9da344"),
        (lambda ds: continuous_oneshot(ds, ContinuousConfig(max_outer=20)),
         "fef2ea9412ded98797cc773e2f3fc5705f92ca518b00f7fc87eead812e9da344"),
        (lambda ds: bounded_oneshot(ds, BoundedConfig(max_nodes=4)),
         "ab146908c326f5352bc1861e47a97b1bfce25de36e2e17334fb5eca8ec7af4b6"),
    ], ids=["hill-bge", "dynotears", "bounded"])
    def test_continuous_structure(self, continuous, learn_fn, digest):
        assert _structure_digest(learn_fn(continuous)) == digest


class TestOverflowingData:
    """Finite data whose squares overflow a float fail with a typed error."""

    @pytest.fixture
    def huge(self):
        return continuous_dataset(np.random.default_rng(0).standard_normal((10, 21, 3)) * 1e200)

    def test_bounded_raises_data_error(self, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # refused before any overflow
            with pytest.raises(DataError):
                run_learner("bounded", huge)

    @pytest.mark.parametrize("learner", ["hill", "exact"])
    def test_bge_raises_data_error(self, huge, learner):
        with pytest.raises(DataError):
            run_learner(learner, huge, score="bge")

    @pytest.mark.parametrize("kind", ["ll", "bic", "aic"])
    def test_linear_gaussian_family_scores_raise_data_error(self, huge, kind):
        with pytest.raises(DataError):
            family_score(huge, 0, (), kind)

    def test_empty_family_bge_raises_data_error(self, huge):
        with pytest.raises(DataError):
            bge_family_score(huge, 0, FamilySpec(0, ()))

    @pytest.mark.parametrize("learner", ["hill", "exact"])
    def test_bic_raises_data_error(self, huge, learner):
        with pytest.raises(DataError):
            run_learner(learner, huge, score="bic")

    def test_dynotears_raises_data_error_from_the_sum_bank(self, huge):
        with pytest.raises(DataError, match="sums overflow"):
            run_learner("dynotears", huge)


class TestConstantColumn:
    """A variable fixed at 3.0 is a twin of every fit's intercept: no learner builds on it."""

    @pytest.fixture(scope="class")
    def constant(self):
        x = np.random.default_rng(0).standard_normal((20, 30, 4))
        x[..., 2] = 3.0
        return continuous_dataset(x)

    @pytest.mark.parametrize("name, kwargs", [("dynotears", {}), ("bounded", {})])
    def test_learners_raise_data_error(self, constant, name, kwargs):
        with pytest.raises(DataError, match="is singular"):
            run_learner(name, constant, **kwargs)

    @pytest.mark.parametrize("name", ["hill", "exact"])
    def test_searches_leave_the_column_out(self, constant, name):
        # every family with the constant as a parent scores -inf, so the search never chooses one
        structure = run_learner(name, constant, score="bic").structure
        assert not (structure.intra[2].any() or structure.inter[2].any())
        assert structure.auto_lags[2] == ()
        with pytest.raises(SingularFitError, match="is singular"):
            family_score(constant, 0, (Parent("inter", 2),), "bic")


class TestSingularCandidate:
    """One trajectory with a static covariate: the covariate is constant, so its family is singular."""

    @pytest.fixture(scope="class")
    def one_trajectory(self):
        x = np.random.default_rng(0).standard_normal((1, 40, 3))
        return continuous_dataset(x, z=np.random.default_rng(1).standard_normal((1, 1)))

    @pytest.mark.parametrize("name, hyper", [
        ("hill", {"score": "bic"}), ("hill", {"score": "bic", "restarts": 8}),
        ("exact", {"score": "bic"}), ("exact", {"score": "ll"})],
        ids=["hill-bic", "hill-bic-restarts", "exact-bic", "exact-ll"])
    def test_searches_return_a_structure_without_the_static_edge(self, one_trajectory, name, hyper):
        report = run_learner(name, one_trajectory, **hyper)
        assert not report.structure.static_edges.any()
        assert math.isfinite(report.score)

    def test_family_score_still_raises(self, one_trajectory):
        for kind in ("ll", "bic"):
            with pytest.raises(SingularFitError, match=r"parents \[Parent\(kind='static'"):
                family_score(one_trajectory, 0, (Parent("static", 0),), kind)
        assert issubclass(SingularFitError, DataError)

    @pytest.mark.parametrize("name", ["hill", "exact"])
    def test_a_child_zero_everywhere_still_aborts(self, one_trajectory, name):
        x = one_trajectory.x.copy()
        x[..., 1] = 0.0
        ds = continuous_dataset(x, z=one_trajectory.z)
        with pytest.raises(DataError, match="zero in every usable transition") as info:
            run_learner(name, ds, score="bic")
        assert not isinstance(info.value, SingularFitError)


class TestEmptyData:
    @pytest.mark.parametrize("name", ["exact", "hill", "dynotears", "bounded"])
    def test_no_trajectory_raises_data_error(self, name):
        x = np.zeros((0, 5, 3))
        ds = discrete_dataset(x) if name in ("exact", "hill") else continuous_dataset(x)
        with pytest.raises(DataError):
            run_learner(name, ds)

    @pytest.mark.parametrize("name", ["exact", "hill", "dynotears", "bounded"])
    def test_burn_in_leaving_no_transition_raises_data_error(self, name):
        x = np.ones((2, 5, 3), dtype=int)
        ds = (discrete_dataset if name in ("exact", "hill") else continuous_dataset)(x, burn_in=4)
        with pytest.raises(DataError):
            run_learner(name, ds)


class TestRegistry:
    def test_unknown_learner_lists_names(self):
        ds = discrete_dataset(np.zeros((2, 3, 2), dtype=int))
        with pytest.raises(ValueError, match="bounded, dynotears, exact, hill"):
            run_learner("nope", ds)

    def test_unknown_hyperparameter_rejected(self):
        _, ds = discrete_instance(12)
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            run_learner("hill", ds, seed=0, nonsense=1)


class TestScoreKind:
    """``config.score`` is the one score kind of the combinatorial learners."""

    @pytest.fixture(scope="class")
    def cpt(self):
        return discrete_instance(7, n_traj=20, horizon=20)[1]

    @pytest.mark.parametrize("learn_fn", [exact_search, hill_climb])
    def test_a_disagreeing_score_argument_is_refused(self, cpt, learn_fn):
        with pytest.raises(ConfigError, match="disagrees"):
            learn_fn(cpt, "bic", SearchConfig(score="bde"))

    @pytest.mark.parametrize("learn_fn", [exact_search, hill_climb])
    def test_the_config_alone_sets_the_kind(self, cpt, learn_fn):
        report = learn_fn(cpt, config=SearchConfig(score="bde"))
        assert report.to_json() == learn_fn(cpt, "bde", SearchConfig(score="bde")).to_json()
        assert report.score == FamilyScorer(cpt, "bde").structure_score(report.structure)


class TestOneshotBurnIn:
    """The one-shot learners skip a burn-in exactly as they skip the leading slices it replaces."""

    @pytest.fixture(scope="class")
    def held_out(self):
        return temporal_split(continuous_instance(9, n_traj=20, horizon=30)[1])[1]

    @staticmethod
    def cut(side, max_lag):
        """The same rows without a burn-in: ``max_lag`` slices before the first test target."""
        return continuous_dataset(side.x[:, side.burn_in + 1 - max_lag:], side.z)

    def test_dynotears(self, held_out):
        cfg = ContinuousConfig(max_lag=2, max_outer=3, max_inner=200)
        kept, cut = (continuous_oneshot(ds, cfg) for ds in (held_out, self.cut(held_out, 2)))
        assert held_out.burn_in > 0 and kept.structure == cut.structure
        assert kept.trace == cut.trace
        for key in ("w", "a"):
            assert kept.extras[key].tobytes() == cut.extras[key].tobytes()

    def test_bounded(self, held_out):
        kept, cut = (bounded_oneshot(ds) for ds in (held_out, self.cut(held_out, 1)))
        assert held_out.burn_in > 0 and kept.to_json() == cut.to_json()
        for key in ("w", "a"):
            assert kept.extras[key].tobytes() == cut.extras[key].tobytes()


TINY = discrete_dataset(np.zeros((2, 3, 2), dtype=int))

# every setting a config validator refuses: (learner, hyperparameter, bad values)
BAD_SETTINGS = (
    [(name, key, st.integers(-5, -1)) for name in ("exact", "hill")
     for key in ("max_intra", "max_inter", "max_auto", "max_static")]
    + [(name, key, st.integers(-5, 0)) for name in ("exact", "hill")
       for key in ("move_budget", "restarts", "p")]
    + [("dynotears", key, st.floats(-1e6, -1e-9) | st.just(math.nan))
       for key in ("lambda_w", "lambda_a", "w_threshold")]
    + [("dynotears", key, st.floats(-1e6, 0.0) | st.just(math.nan)) for key in ("rho0", "h_tol")]
    + [("dynotears", "rho_growth", st.floats(-1e6, 1.0)),
       ("dynotears", "max_lag", st.integers(-5, 0)), ("dynotears", "max_outer", st.integers(-5, 0))]
    + [("bounded", key, st.floats(-1e6, 0.0) | st.just(math.nan)) for key in ("b_w", "b_a")]
)


@st.composite
def bad_calls(draw):
    """One call into the scoring or learner surface with a bad name or kind."""
    word = st.text(min_size=1, max_size=12)
    what = draw(st.sampled_from(["learner", "hyperparameter", "score", "search score",
                                 "criterion", "scorer"]))
    if what == "learner":
        name = draw(word.filter(lambda w: w not in LEARNERS))
        return lambda: run_learner(name, TINY)
    if what == "hyperparameter":
        name = draw(st.sampled_from(sorted(LEARNERS)))
        key = draw(word.filter(lambda w: all(w not in cfg.__dataclass_fields__ for cfg in
                                             (SearchConfig, ContinuousConfig, BoundedConfig))))
        return lambda: run_learner(name, TINY, **{key: 1})
    kind = draw(word.filter(lambda w: w.lower() not in SCORE_KINDS))
    if what == "score":
        return lambda: family_score(TINY, 0, [], kind)
    if what == "search score":
        name = draw(st.sampled_from(["exact", "hill"]))
        return lambda: run_learner(name, TINY, score=kind)
    if what == "criterion":
        crit = draw(word.filter(lambda w: w.lower() not in ("aic", "aicc", "bic")))
        return lambda: information_criterion(-1.0, 2, 10, crit)
    return lambda: FamilyScorer(TINY, kind)


@st.composite
def bad_values(draw):
    """One call into the acyclicity, configuration-index or report surface, a value out of range."""
    what = draw(st.sampled_from(["threshold", "index value", "auroc", "shd"]))
    negative = st.floats(max_value=-1e-12, allow_nan=False)
    if what == "threshold":
        w = np.random.default_rng(draw(st.integers(0, 99))).normal(size=(3, 3))
        threshold = draw(negative)
        return lambda: threshold_and_repair(w, threshold)
    arities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    if what == "index value":
        values = [draw(st.integers(0, a - 1)) for a in arities]
        slot = draw(st.integers(0, len(arities) - 1))
        values[slot] = draw(st.integers(arities[slot], 9) | st.integers(-9, -1))
        return lambda: configuration_index(values, arities)
    cell = dict(regime="r", n=2, n_traj=3, horizon=4, learner="exact", replicate=0, seed=0,
                status="OK")
    if what == "auroc":
        cell["auroc"] = draw(st.floats(1.0 + 1e-9, 1e6) | negative | st.just(math.nan))
    else:
        cell["shd"] = draw(st.integers(-99, -1))
    return lambda: EvalReport(**cell)


class TestTypedErrors:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(bad_calls())
    def test_bad_names_and_kinds_raise_config_errors(self, call):
        with pytest.raises(DbnError) as caught:
            call()
        assert isinstance(caught.value, ConfigError) and isinstance(caught.value, ValueError)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(bad_values())
    def test_values_out_of_range_raise_config_errors(self, call):
        with pytest.raises(DbnError) as caught:
            call()
        assert isinstance(caught.value, ConfigError) and isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("name, key, value", [
        ("hill", "max_intra", "abc"), ("exact", "restarts", 2.0), ("hill", "p", True),
        ("exact", "score", 3), ("bounded", "b_w", "abc"), ("bounded", "max_nodes", 4.5),
        ("dynotears", "lambda_w", None), ("dynotears", "max_outer", 2.5),
        ("dynotears", "w_threshold", False), ("dynotears", "record_inner", 1)])
    def test_mistyped_hyperparameters_raise_config_errors(self, name, key, value):
        with pytest.raises(ConfigError, match=f"hyperparameter {key} must be of type"):
            run_learner(name, TINY, **{key: value})

    @pytest.mark.parametrize("make", [
        lambda: SearchConfig(max_intra="abc"), lambda: SearchConfig(seed=1.0),
        lambda: SearchConfig(score=None), lambda: BoundedConfig(b_w="x"),
        lambda: BoundedConfig(max_nodes=True), lambda: ContinuousConfig(max_outer=2.5),
        lambda: ContinuousConfig(record_inner=0)],
        ids=["search-max_intra", "search-seed", "search-score", "bounded-b_w",
             "bounded-max_nodes", "continuous-max_outer", "continuous-record_inner"])
    def test_configs_built_directly_check_types(self, make):
        with pytest.raises(ConfigError, match="must be of type"):
            make()

    def test_float_hyperparameters_take_ints(self):
        cfg = learn._config_from(ContinuousConfig, 3, {"lambda_w": 0, "inner_tol": 1})
        assert cfg == ContinuousConfig(lambda_w=0, inner_tol=1, seed=3)

    @pytest.mark.parametrize("name, key, values", BAD_SETTINGS,
                             ids=[f"{name}-{key}" for name, key, _ in BAD_SETTINGS])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_settings_out_of_range_raise_config_errors(self, name, key, values, data):
        with pytest.raises(ConfigError):
            run_learner(name, TINY, **{key: data.draw(values)})
