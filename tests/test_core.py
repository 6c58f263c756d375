import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbnlearn.core import (
    CycleError, DataError, DbnStructure, DimensionError, FamilySpec, ModelError, Parent, _exact_sum,
    canonical_parents, configuration_index, is_acyclic,
    parents_of, structure_from_families, topological_order,
)
from dbnlearn.simulate import EdgeProbs, GeneratorConfig, sample_random_dbn

from conftest import continuous_dataset, discrete_dataset
from oracle_utils import reference_topological_order


def adj(n, edges):
    a = np.zeros((n, n), dtype=bool)
    for j, i in edges:
        a[j, i] = True
    return a


def shortest_cycle_length(a, v):
    """Edges on a shortest cycle through ``v``, by breadth-first search; None if there is none."""
    frontier, seen = {v}, set()
    for length in range(1, len(a) + 1):
        frontier = {w for u in frontier for w in np.flatnonzero(a[u]).tolist()}
        if v in frontier:
            return length
        frontier -= seen
        seen |= frontier
    return None


class TestIsAcyclic:
    def test_empty_graph(self):
        assert is_acyclic(np.zeros((3, 3), dtype=bool))

    def test_two_cycle(self):
        assert not is_acyclic(adj(2, [(0, 1), (1, 0)]))

    def test_three_cycle(self):
        assert not is_acyclic(adj(3, [(0, 1), (1, 2), (2, 0)]))

    def test_dag_with_diamond(self):
        assert is_acyclic(adj(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            is_acyclic(np.zeros((2, 3), dtype=bool))


class TestTopologicalOrder:
    def test_single_edge(self):
        assert topological_order(adj(2, [(1, 0)])) == [1, 0]

    def test_empty_ties_by_index(self):
        assert topological_order(np.zeros((3, 3), dtype=bool)) == [0, 1, 2]

    def test_collider(self):
        assert topological_order(adj(3, [(0, 2), (1, 2)])) == [0, 1, 2]

    def test_cycle_error_names_a_cycle(self):
        with pytest.raises(CycleError) as err:
            topological_order(adj(3, [(0, 1), (1, 2), (2, 0)]))
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1] and len(cycle) >= 3

    def test_matches_is_acyclic_on_random_graphs(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = rng.random((n, n)) < 0.3
            np.fill_diagonal(a, False)
            if is_acyclic(a):
                order = topological_order(a)
                pos = {v: k for k, v in enumerate(order)}
                assert all(pos[j] < pos[i] for j, i in zip(*np.nonzero(a)))
            else:
                with pytest.raises(CycleError) as err:
                    topological_order(a)
                cycle = err.value.cycle
                assert cycle[0] == cycle[-1]
                assert all(a[j, i] for j, i in zip(cycle, cycle[1:]))
                assert len(set(cycle[1:])) == len(cycle) - 1
                # a shortest cycle through the smallest node on any cycle
                assert len(cycle) - 1 == shortest_cycle_length(a, cycle[0])
                assert all(shortest_cycle_length(a, u) is None for u in range(cycle[0]))

    def test_self_loop_names_itself(self):
        with pytest.raises(CycleError) as err:
            topological_order(adj(3, [(0, 1), (2, 2), (1, 0)]))
        assert err.value.cycle == (0, 1, 0)
        with pytest.raises(CycleError) as err:
            topological_order(adj(3, [(1, 2), (2, 2)]))
        assert err.value.cycle == (2, 2)

    def test_cycle_error_names_a_shortest_cycle_through_its_first_node(self):
        # 0 -> 1 -> 2 -> 3 -> 0 and the chord 1 -> 3: the shortest cycle through 0 has 3 edges
        with pytest.raises(CycleError) as err:
            topological_order(adj(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]))
        assert err.value.cycle == (0, 1, 3, 0)

    def test_matches_the_heap_kahn_reference(self, rng):
        # random DAGs under random labellings, sparse to dense, so ties abound
        for _ in range(300):
            n = int(rng.integers(1, 9))
            perm = rng.permutation(n)
            a = np.triu(rng.random((n, n)) < rng.choice([0.1, 0.3, 0.6]), 1)[np.ix_(perm, perm)]
            assert topological_order(a) == reference_topological_order(a)

    def test_matches_the_heap_kahn_reference_on_generated_structures(self):
        for seed in range(40):
            cfg = GeneratorConfig(n_x=3 + seed % 10, model="linear_gaussian", seed=seed,
                                  edge_probs=EdgeProbs(intra=0.1 + 0.05 * (seed % 8)))
            intra = sample_random_dbn(cfg)[0].intra
            assert topological_order(intra) == reference_topological_order(intra)


class TestConfigurationIndex:
    def test_zero(self):
        assert configuration_index((0, 0), (2, 2)) == 0

    def test_little_endian(self):
        assert configuration_index((1, 0), (2, 2)) == 1

    def test_mixed_radix(self):
        # first value least significant: 1 + 2*2
        assert configuration_index((1, 2), (2, 3)) == 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            configuration_index((2,), (2,))

    def test_inverse_identity_exhaustive(self, rng):
        for _ in range(30):
            k = int(rng.integers(1, 5))
            arities = tuple(int(rng.integers(2, 5)) for _ in range(k))
            total = int(np.prod(arities))
            if total > 10_000:
                continue
            # last value most significant: the product over reversed arities counts up
            configs = (vals[::-1] for vals in itertools.product(*map(range, arities[::-1])))
            assert [configuration_index(v, arities) for v in configs] == list(range(total))


class TestFamilySpec:
    def test_duplicate_tags_rejected(self):
        with pytest.raises(ModelError):
            FamilySpec(node=0, parents=(Parent("inter", 1), Parent("inter", 1)))

    def test_canonical_order_enforced(self):
        with pytest.raises(ModelError):
            FamilySpec(node=0, parents=(Parent("static", 0), Parent("inter", 1)))

    def test_min_time_tracks_largest_auto_lag(self):
        fam = FamilySpec(node=0, parents=canonical_parents(
            [Parent("auto", 3), Parent("inter", 1)]))
        assert fam.min_time == 3
        assert FamilySpec(node=0, parents=()).min_time == 1


def three_node_structure():
    return DbnStructure(
        n_x=3, n_z=1, p=3,
        intra=adj(3, [(0, 1)]),
        inter=adj(3, [(0, 0), (1, 0)]),
        auto_lags=((), (1, 3), ()),
        static_edges=np.array([[False, False, True]]),
    )


class TestDbnStructure:
    def test_intra_cycle_rejected(self):
        with pytest.raises(CycleError):
            DbnStructure(n_x=2, n_z=0, p=1, intra=adj(2, [(0, 1), (1, 0)]),
                         inter=np.zeros((2, 2), dtype=bool), auto_lags=((), ()),
                         static_edges=np.zeros((0, 2), dtype=bool))

    def test_intra_self_loop_rejected(self):
        with pytest.raises(CycleError) as err:
            DbnStructure(n_x=2, n_z=0, p=1, intra=adj(2, [(0, 0)]),
                         inter=np.zeros((2, 2), dtype=bool), auto_lags=((), ()),
                         static_edges=np.zeros((0, 2), dtype=bool))
        assert err.value.cycle == (0, 0)

    def test_double_spelled_self_dependence_rejected(self):
        # an inter self edge plus auto lag 1 would count X_i(t-1) twice
        with pytest.raises(ModelError):
            DbnStructure(n_x=2, n_z=0, p=1, intra=np.zeros((2, 2), dtype=bool),
                         inter=adj(2, [(1, 1)]), auto_lags=((), (1,)),
                         static_edges=np.zeros((0, 2), dtype=bool))

    def test_lag_outside_range_rejected(self):
        with pytest.raises(ModelError):
            DbnStructure(n_x=1, n_z=0, p=2, intra=np.zeros((1, 1), dtype=bool),
                         inter=np.zeros((1, 1), dtype=bool), auto_lags=((3,),),
                         static_edges=np.zeros((0, 1), dtype=bool))

    def test_json_round_trip_with_stable_field_order(self):
        s = three_node_structure()
        doc = s.to_json_dict()
        assert list(doc) == ["n_x", "n_z", "p", "intra", "inter", "auto_lags", "static_edges"]
        assert set(map(type, np.asarray(doc["intra"]).ravel().tolist())) == {int}
        assert DbnStructure.from_json_dict(json.loads(json.dumps(doc))) == s


class TestParentsOf:
    def test_markov_only_family(self):
        s = DbnStructure(n_x=2, n_z=0, p=1, intra=np.zeros((2, 2), dtype=bool),
                         inter=adj(2, [(0, 0), (1, 0)]), auto_lags=((), ()),
                         static_edges=np.zeros((0, 2), dtype=bool))
        fam = parents_of(s, 0)
        assert fam.parents == (Parent("inter", 0), Parent("inter", 1))

    def test_static_only_family(self):
        s = DbnStructure(n_x=1, n_z=2, p=1, intra=np.zeros((1, 1), dtype=bool),
                         inter=np.zeros((1, 1), dtype=bool), auto_lags=((),),
                         static_edges=np.array([[False], [True]]))
        assert parents_of(s, 0).parents == (Parent("static", 1),)

    def test_auto_lags_ascending(self):
        fam = parents_of(three_node_structure(), 1)
        auto = [p for p in fam.parents if p.kind == "auto"]
        assert auto == [Parent("auto", 1), Parent("auto", 3)]

    def test_global_ordering_convention(self):
        fam = parents_of(three_node_structure(), 1)
        kinds = [p.kind for p in fam.parents]
        assert kinds == sorted(kinds, key=["inter", "intra", "auto", "static"].index)

    def test_stability_byte_identical(self):
        s = three_node_structure()
        reference = [parents_of(s, i).parents for i in range(3)]
        for _ in range(5):
            again = DbnStructure.from_json_dict(s.to_json_dict())
            assert [parents_of(again, i).parents for i in range(3)] == reference


@st.composite
def structures(draw):
    """Any valid structure: static covariates, auto lags up to ``p`` and inter self edges."""
    n_x, n_z, p = draw(st.integers(1, 5)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    bits = lambda shape: np.array(draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                                                max_size=int(np.prod(shape))))).reshape(shape)
    rank = np.array(draw(st.permutations(range(n_x))))
    intra = bits((n_x, n_x)) & (rank[:, None] < rank[None, :])
    inter = bits((n_x, n_x))
    auto = tuple(tuple(t for t in range(1, p + 1)
                       if draw(st.booleans()) and not (t == 1 and inter[i, i]))
                 for i in range(n_x))
    return DbnStructure(n_x=n_x, n_z=n_z, p=p, intra=intra, inter=inter, auto_lags=auto,
                        static_edges=bits((n_z, n_x)))


class TestStructureFromFamilies:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(structures())
    def test_inverts_parents_of(self, structure):
        families = [parents_of(structure, v).parents for v in range(structure.n_x)]
        rebuilt = structure_from_families(structure.n_x, structure.n_z, structure.p, families)
        assert rebuilt == structure and rebuilt.to_json_dict() == structure.to_json_dict()
        assert [parents_of(rebuilt, v).parents for v in range(structure.n_x)] == families

    def test_parent_order_does_not_matter(self):
        s = three_node_structure()
        families = [parents_of(s, v).parents[::-1] for v in range(3)]
        assert structure_from_families(s.n_x, s.n_z, s.p, families) == s

    def test_cyclic_families_rejected(self):
        with pytest.raises(CycleError):
            structure_from_families(2, 0, 1, [(Parent("intra", 1),), (Parent("intra", 0),)])


class TestDatasetEquality:
    def test_separately_built_discrete_datasets_equal(self):
        a = np.arange(24).reshape(2, 4, 3) % 2
        assert discrete_dataset(a, z=[[0], [1]]) == discrete_dataset(a, z=[[0], [1]])

    def test_separately_built_continuous_datasets_equal(self):
        a = np.random.default_rng(0).normal(size=(2, 4, 3))
        assert continuous_dataset(a) == continuous_dataset(a.copy())

    def test_unequal_pairs(self):
        a = np.arange(24).reshape(2, 4, 3) % 2
        base = discrete_dataset(a)
        assert base != discrete_dataset(1 - a)
        assert base != discrete_dataset(a, burn_in=1)
        assert base != discrete_dataset(a, x_arities=(2, 3, 2))
        assert base != discrete_dataset(a, z=[[0], [1]])
        assert base != discrete_dataset(a[:1])
        assert base != continuous_dataset(a)
        assert base != "dataset"

    def test_filled_banks_play_no_part(self):
        a = np.random.default_rng(1).normal(size=(2, 5, 2))
        used, fresh = continuous_dataset(a), continuous_dataset(a)
        keys = used.family_keys(FamilySpec(0, (Parent("inter", 1),)))
        used.column_sum(*keys)
        assert used._bank and used._sums and not fresh._bank
        assert used == fresh


@st.composite
def float_vectors(draw):
    """Vectors of 0 to 20k floats: one scale, magnitudes spread over 1e-300..1e290, cancelling
    halves, a few repeated values, signed zeros."""
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 20_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["scale", "spread", "cancelling", "repeated", "zeros"]))
    if kind == "scale":
        v = rng.standard_normal(n) * 10.0 ** draw(st.integers(-300, 290))
    elif kind == "spread":
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 291, size=n)
    elif kind == "cancelling":
        half = rng.standard_normal(n // 2) * 10.0 ** rng.integers(-300, 291, size=n // 2)
        v = rng.permutation(np.concatenate([half, -half]))
    elif kind == "repeated":
        v = rng.choice(rng.standard_normal(3) * 10.0 ** rng.integers(-300, 291, size=3), size=n)
    else:
        v = rng.choice([0.0, -0.0], size=n)
    return v


class TestExactSum:
    """The sum bank's vectorised exact sum against ``math.fsum``."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(float_vectors())
    def test_bit_identical_to_fsum(self, v):
        got, want = _exact_sum(v), math.fsum(v.tolist())
        assert struct.pack("<d", got) == struct.pack("<d", want)  # sign of zero included

    @pytest.mark.parametrize("values, error", [
        ([1.2e154, 1.2e154], OverflowError),  # each product finite, their sum not
        ([1e200, -1e200], ValueError),  # products +inf and -inf
    ])
    def test_overflowing_products_raise_data_error(self, values, error):
        x = np.zeros((1, 3, 2))  # targets t = 1, 2 hold the values
        x[0, 1:, 0], x[0, 1:, 1] = values, np.abs(values)
        ds = continuous_dataset(x)
        child, parent = ds.family_keys(FamilySpec(0, (Parent("intra", 1),)))
        with np.errstate(over="ignore"):
            with pytest.raises(error):
                _exact_sum(ds._column(*child) * ds._column(*parent))
        with pytest.raises(DataError, match="sums overflow"):
            ds.column_sum(child, parent)
