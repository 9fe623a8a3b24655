"""Frozen values: Configuration, ObstacleField, TransitionStructure, TrajectorySummary,
CoupledRun and WeightedAutomaton compare by content, are unhashable, and come back from
pickle and copies through their validating constructors, frozen."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from tasep import (
    LINE,
    CoinStream,
    Configuration,
    ObstacleField,
    ProcessParams,
    Ring,
    TransitionStructure,
    build_invariant_matrix,
    coupled_run,
    density,
    even_lattice_ring,
    run,
    step,
)
from tasep.measures import markov_automaton


def _step_on_integral_ring_with_fractional_jump():
    state = step(even_lattice_ring(20, 7), ProcessParams(0.5, 1.5), CoinStream(3), 0)
    assert state._terms[0].dtype == np.float64  # the stepper converted the terms
    return state


VALUES = {
    "run snapshot": lambda: run(even_lattice_ring(30, 11), ProcessParams(0.5, 1, "lattice"), 12,
                                CoinStream(5), snapshot_stride=4).snapshots[-1][1],
    "step state, integral ring, v = 1.5": _step_on_integral_ring_with_fractional_jump,
    "line window": lambda: Configuration(LINE, [0.0, 1.5, 4.0], [0.25, 0.5, 0.25],
                                         [1.0, 0.0, 2.5]),
    "obstacle field": lambda: ObstacleField(Ring(10.0), [0.5, 3.0, 7.25]),
    "transition structure": TransitionStructure.no_adjacent_zeros,
    "run summary": lambda: run(even_lattice_ring(30, 11), ProcessParams(0.5, 1), 12,
                               CoinStream(5), snapshot_stride=4),
    "weighted automaton": lambda: markov_automaton(build_invariant_matrix(0.35, 0.6)),
    "coupled run": lambda: coupled_run(even_lattice_ring(20, 7), even_lattice_ring(20, 7),
                                       ProcessParams(0.5, 1), ProcessParams(0.5, 1), 5, 1),
}

COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _arrays(value) -> list[np.ndarray]:
    out = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, Configuration):
        out.append(value._terms[0])
    return [a for a in out if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_copies_are_equal_and_read_only(make):
    value = make()
    for how, copy_of in COPIES.items():
        out = copy_of(value)
        assert out == value, how
        assert len(_arrays(out)) == len(_arrays(value)) >= 1
        for arr in _arrays(out):
            assert not arr.flags.writeable, how
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        if isinstance(value, Configuration):
            rr, seam = out._terms
            assert rr.dtype == value._terms[0].dtype, how
            assert np.array_equal(rr, value._terms[0]) and seam == value._terms[1], how


def test_an_unpickled_state_rejects_edits_under_its_bound_terms():
    state = pickle.loads(pickle.dumps(step(even_lattice_ring(20, 5), ProcessParams(0.5, 1),
                                           CoinStream(1), 0)))
    for arr in (state.positions, state.radii, state.winding, state._terms[0]):
        with pytest.raises(ValueError):
            arr[0] = 7


def test_unpickling_validates():
    cfg = Configuration(Ring(10.0), [1.0, 4.0], 0.5)
    object.__setattr__(cfg, "positions", np.array([4.0, 1.0]))  # unsorted behind its back
    with pytest.raises(ValueError, match="sorted"):
        pickle.loads(pickle.dumps(cfg))
    with pytest.raises(ValueError, match="sorted"):
        copy.deepcopy(cfg)


class TestEquality:
    def test_obstacle_fields_compare_by_content(self):
        a = ObstacleField(Ring(10.0), [0.5, 3.0, 7.25])
        assert (a == ObstacleField(Ring(10), [0.5, 3, 7.25])) is True
        assert (a == ObstacleField(Ring(10.0), [0.5, 3.0, 7.5])) is False
        assert (a == ObstacleField(Ring(10.0), [0.5, 3.0])) is False
        assert (a == ObstacleField(Ring(11.0), [0.5, 3.0, 7.25])) is False
        assert (a != ObstacleField(LINE, [0.5, 3.0, 7.25])) is True

    def test_transition_structures_compare_by_content(self):
        ts = TransitionStructure.no_adjacent_ones()
        assert (ts == TransitionStructure(np.array([[1, 1], [1, 0]]))) is True
        assert (ts == TransitionStructure.no_adjacent_zeros()) is False
        assert (ts != TransitionStructure.full_shift()) is True

    def test_configurations_compare_across_int_and_float_positions(self):
        lattice = Configuration(Ring(10), [0, 3, 6], 0.5)
        assert lattice.positions.dtype == np.int64
        assert lattice == Configuration(Ring(10.0), [0.0, 3.0, 6.0], 0.5)
        assert lattice != Configuration(Ring(10), [0, 3, 6], 0.5, [0.0, 1.0, 0.0])
        assert lattice != Configuration(Ring(10), [0, 3, 6], 0.25)

    def test_run_summaries_compare_by_content(self):
        cfg, params = even_lattice_ring(30, 11), ProcessParams(0.5, 1)
        a = run(cfg, params, 5, 1)
        assert (a == run(cfg, params, 5, 1)) is True
        assert (a == run(cfg, params, 5, 2)) is False
        assert (a == run(cfg, params, 6, 1)) is False
        assert (a != run(cfg, params, 5, 1, snapshot_stride=1)) is True

    def test_run_summary_arrays_are_read_only(self):
        summary = run(even_lattice_ring(30, 11), ProcessParams(0.5, 1), 5, 1)
        for arr in (summary.displacement, summary.step_total_displacement):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_coupled_runs_compare_by_content(self):
        cfg, params = even_lattice_ring(20, 7), ProcessParams(0.5, 1)
        a = coupled_run(cfg, cfg, params, params, 5, 1)
        assert (a == coupled_run(cfg, cfg, params, params, 5, 1)) is True
        assert (a == coupled_run(cfg, cfg, params, params, 5, 2)) is False
        assert (a != coupled_run(cfg, cfg, params, ProcessParams(0.6, 1), 5, 1)) is True
        for arr in (a.max_gap_divergence, a.max_displacement_divergence):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_weighted_automata_compare_by_content(self):
        m = build_invariant_matrix(0.35, 0.6)
        a = markov_automaton(m)
        assert (a == markov_automaton(m)) is True
        assert (a == markov_automaton(build_invariant_matrix(0.35, 0.7))) is False
        assert not a.transfer.flags.writeable and not a.initial.flags.writeable

    def test_values_of_different_types_are_unequal(self):
        cfg = Configuration(Ring(10.0), [0.5, 3.0], 0.0)
        field = ObstacleField(Ring(10.0), [0.5, 3.0])
        assert cfg != field and field != cfg
        assert cfg != "a configuration"

    @pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
    def test_values_are_unhashable(self, make):
        with pytest.raises(TypeError):
            hash(make())


class TestTransitionStructure:
    def test_the_matrix_is_the_one_argument(self):
        with pytest.raises(TypeError):
            TransitionStructure(np.eye(2), 5.0, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [[[1.5, 1], [1, 0]], [[2, 1], [1, 0]], [[1, 1, 0], [1, 0, 1]]])
    def test_entries_outside_0_1_rejected(self, bad):
        with pytest.raises(ValueError, match="over"):
            TransitionStructure(bad)

    def test_fields_are_frozen(self):
        ts = TransitionStructure([[True, True], [True, False]])
        assert ts.matrix.dtype == np.int64 and ts == TransitionStructure.no_adjacent_ones()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ts.eigenvalue = 5.0


class TestDensityOfObstacles:
    def test_ring_and_line(self):
        assert density(ObstacleField(Ring(5.0), [0.0, 1.0, 3.5])) == 3 / 5.0
        assert density(ObstacleField(LINE, [1.0, 2.0, 5.0])) == 2 / 4.0
        field = ObstacleField(LINE, [1.0, 2.0, 5.0])
        assert field.density() == density(field)

    def test_line_needs_two_obstacles(self):
        with pytest.raises(ValueError, match="at least 2"):
            density(ObstacleField(LINE, [1.0]))
