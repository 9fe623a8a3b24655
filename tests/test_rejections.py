"""Bad input fails loudly: every domain check raises ValueError with its own message.

Rows name behaviour, not location: a callable, its arguments and a fragment of
the message it must raise, so a check keeps its row when it moves between modules.
"""

from __future__ import annotations

import io
import math
from operator import attrgetter

import numpy as np
import pytest

from tasep import (
    LINE,
    Configuration,
    MarkovMatrix,
    ObstacleField,
    ProcessParams,
    Ring,
    build_invariant_matrix,
    decode_word,
    density,
    empirical_cylinder_frequency,
    encode_word,
    even_lattice_ring,
    evenly_spaced_ring,
    extend_obstacles,
    gaps,
    one_step_cylinder_pushforward,
    radius_conjugate,
    read_configuration_csv,
    run,
    sample_ring_configuration,
    scale_shift,
    similarity_check,
    theoretical_velocity,
    theoretical_velocity_obstacles,
)
from tasep.cli import parse_grid
from tasep.measures import lattice_density
from tasep.velocity import diagram_point, initial_ring

RING = Configuration(Ring(10.0), [0.0, 2.5, 5.0], 0.0)
LATTICE = Configuration(Ring(10), np.array([0, 3, 6]), 0.5)
FIELD = ObstacleField(Ring(10.0), [1.0, 6.0])
HALF = MarkovMatrix.bernoulli(0.5)

REJECTIONS = {
    "unknown space tag": (ProcessParams, (0.5, 1.0, "grid"), "unknown space tag"),
    "positions not 1-d": (Configuration, (LINE, [[0.0, 1.0]], 0.0), "1-d"),
    "radii length": (Configuration, (LINE, [0.0, 1.0], [0.1, 0.2, 0.3]), "radii length"),
    "winding length": (Configuration, (LINE, [0.0, 1.0], 0.0, [0.0]), "winding length"),
    "line circumference": (attrgetter("circumference"), (Configuration(LINE, [0.0], 0.0),),
                           "not a ring"),
    "zero-span line density": (density, (Configuration(LINE, [1.0, 1.0], 0.0),), "zero span"),
    "negative conjugate radius": (radius_conjugate, (RING, -0.5), "nonnegative"),
    "encode a line": (encode_word, (Configuration(LINE, np.array([0, 2]), 0.5),),
                      "ring configuration"),
    "encode shared sites": (encode_word, (Configuration(Ring(5), np.array([0, 5]), 0.5),),
                            "duplicate lattice sites"),
    "decode a non-0/1 word": (decode_word, ("012",), "0/1 string"),
    "decode an empty word": (decode_word, ("",), "0/1 string"),
    "no evenly spaced particles": (evenly_spaced_ring, (0, 0.5),
                                   "n_particles must be an integer of at least 1"),
    "evenly spaced overlap": (evenly_spaced_ring, (10, 0.5, 1.5), "denser than close packing"),
    "more particles than sites": (even_lattice_ring, (5, 6),
                                  "n_particles must be an integer in 0..5"),
    "evenly spaced fractional count": (evenly_spaced_ring, (2.5, 0.5), "n_particles"),
    "fractional lattice ring": (even_lattice_ring, (10.5, 3), "n_sites"),
    "fractional lattice particles": (even_lattice_ring, (10, 3.5), "n_particles"),
    "fractional initial count": (initial_ring, (0.5, 1, 0.5, 7.5), "n_particles"),
    "lattice density at close packing": (lattice_density, (1.0, 1, 0.5), "close packing"),
    "lattice density beyond close packing": (lattice_density, (1.5, 1, 0.5), "close packing"),
    "lattice density at a negative radius": (lattice_density, (0.3, 1, -1), "radius r"),
    "csv without geometry": (read_configuration_csv,
                             (io.StringIO("index,position,radius\r\n0,1.0,0.5\r\n"),),
                             "missing geometry"),
    "obstacles not 1-d": (ObstacleField, (LINE, [[0.0]]), "1-d"),
    "obstacle geometry": (run, (RING, ProcessParams(0.5, 1.0), 1, 0,
                                ObstacleField(LINE, [1.0])), "geometry must match"),
    "pushforward at p = 0": (one_step_cylinder_pushforward, (HALF, "1", 0.0),
                             "movement probability"),
    "matrix entry": (MarkovMatrix, (1.5, -0.5, 0.5, 0.5), "entry p00=1.5 outside"),
    "matrix row sum": (MarkovMatrix, (0.5, 0.4, 0.5, 0.5), "rows must sum to 1"),
    "matrix movement_p": (MarkovMatrix, (0.5, 0.5, 0.5, 0.5, 0.0), "movement_p"),
    "matrix invariance identity": (MarkovMatrix, (0.5, 0.5, 0.5, 0.5, 0.5),
                                   "invariance identity"),
    "invariant matrix at p = 0": (build_invariant_matrix, (0.3, 0.0), "movement probability"),
    "sample beyond close packing": (sample_ring_configuration, (0.5, 0.5, 1.0, 1.0),
                                    "close packing: no lattice image"),
    "no periodic points": (empirical_cylinder_frequency, ([], "1"), "nonempty list"),
    "mixed periods": (empirical_cylinder_frequency, (["01", "011"], "1"), "one period"),
    "velocity at density 0": (theoretical_velocity, (0.0, 0.5),
                              "density rho=0.0 must be positive"),
    "velocity at p > 1": (theoretical_velocity, (0.5, 1.5), "movement probability"),
    "velocity at v = 0": (theoretical_velocity, (0.5, 0.5, 0.0), "maximal jump v"),
    "obstacle velocity at p = 0": (theoretical_velocity_obstacles, (0.2, 0.5, 0.0),
                                   "movement probability"),
    "extend at v = 0": (extend_obstacles, (FIELD, 0.0), "maximal jump v"),
    "unknown initial condition": (diagram_point, (0.3, 0.5, 1.0, 0.0, 10, 10, 0, 0, None,
                                                  "stationary"), "unknown initial"),
    "fractional sampled count": (diagram_point, (0.3, 0.5, 1.0, 0.0, 10.5, 10, 0, 0, None,
                                                 "sampled"), "n_particles"),
    "similarity at u = 0": (similarity_check, (RING, ProcessParams(0.5, 1.0), 0.0, 10, 0),
                            "scale factor u"),
    "two-part grid": (parse_grid, ("0.1:0.2",), "start:stop:step"),
    "grid with a nan step": (parse_grid, ("0.1:0.2:nan",), "bad grid"),
    "grid to infinity": (parse_grid, ("0.1:inf:0.1",), "bad grid"),
    "grid from -infinity": (parse_grid, ("-inf:0.2:0.1",), "bad grid"),
}


@pytest.mark.parametrize("call, args, fragment", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejected(call, args, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(*args)


NAN, INF = math.nan, math.inf

# one row per argument; X marks where the non-finite value goes
X = object()
NON_FINITE = {
    "theoretical_velocity.rho": (theoretical_velocity, (X, 0.5), "density rho"),
    "theoretical_velocity.p": (theoretical_velocity, (0.3, X), "movement probability"),
    "theoretical_velocity.v": (theoretical_velocity, (0.3, 0.5, X), "maximal jump v"),
    "theoretical_velocity.r": (theoretical_velocity, (0.3, 0.5, 1.0, X), "radius r"),
    "theoretical_velocity_obstacles.rho_particles": (
        theoretical_velocity_obstacles, (X, 0.5, 0.5), "rho_particles"),
    "theoretical_velocity_obstacles.rho_extended": (
        theoretical_velocity_obstacles, (0.2, X, 0.5), "rho_extended"),
    "lattice_density.rho": (lattice_density, (X, 1.0, 0.0), "positive and finite"),
    "lattice_density.v": (lattice_density, (0.3, X, 0.0), "maximal jump v"),
    "lattice_density.r": (lattice_density, (0.3, 1.0, X), "radius r"),
    "evenly_spaced_ring.rho": (evenly_spaced_ring, (10, X), "density rho"),
    "evenly_spaced_ring.radius": (evenly_spaced_ring, (10, 0.5, X), "radius r"),
    "radius_conjugate.r_new": (radius_conjugate, (RING, X), "radius r_new"),
    "sample_ring_configuration.r": (sample_ring_configuration, (0.3, 0.5, 1.0, X), "radius r"),
    "extend_obstacles.v": (extend_obstacles, (FIELD, X), "maximal jump v"),
    "initial_ring.rho": (initial_ring, (X, 1.0, 0.0, 10), "density rho"),
    "scale_shift.u": (scale_shift, (RING, X, 0.0), "scale factor u"),
    "scale_shift.w": (scale_shift, (RING, 1.0, X), "must be finite"),
}


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, args, fragment", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_rejected(call, args, fragment, bad):
    with pytest.raises(ValueError, match=fragment):
        call(*(bad if a is X else a for a in args))


def test_finite_arguments_still_accepted():
    assert theoretical_velocity(0.3, 0.5, 1.0, 0.0) > 0
    assert theoretical_velocity_obstacles(0.2, 0.5, 0.5) > 0
    assert lattice_density(0.5, 1.0, 0.0) == pytest.approx(1 / 3)
    assert extend_obstacles(FIELD, 2.0).n > FIELD.n
    assert initial_ring(0.5, 1.0, 0.5, 10)[1] == "lattice"
    assert np.array_equal(scale_shift(LATTICE, 1, -3).positions, [7, 10, 13])
    # close packing 2*r*rho = 1 is the jammed ring: velocity 0, every gap 0
    assert theoretical_velocity(1.0, 0.5, 1.0, 0.5) == 0.0
    assert np.array_equal(gaps(evenly_spaced_ring(4, 1.0, 0.5)), np.zeros(4))
    # counts may be numpy integers
    assert even_lattice_ring(np.int64(10), np.int32(3)).n == 3
    assert evenly_spaced_ring(np.int64(4), 0.5).n == 4
    assert initial_ring(0.5, 1, 0.5, np.int64(10))[0].n == 10
