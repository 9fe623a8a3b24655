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
    CoinStream,
    Configuration,
    MarkovMatrix,
    ObstacleField,
    ProcessParams,
    Ring,
    build_invariant_matrix,
    coupled_run,
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
    step,
    theoretical_velocity,
    theoretical_velocity_obstacles,
    verify_invariance,
)
from tasep.cli import main, parse_grid
from tasep.measures import lattice_density
from tasep.velocity import diagram_point, initial_ring

RING = Configuration(Ring(10.0), [0.0, 2.5, 5.0], 0.0)
LATTICE = Configuration(Ring(10), np.array([0, 3, 6]), 0.5)
FIELD = ObstacleField(Ring(10.0), [1.0, 6.0])
HALF = MarkovMatrix.bernoulli(0.5)
STATIONARY = build_invariant_matrix(0.3, 0.5)

REJECTIONS = {
    "unknown space tag": (ProcessParams, (0.5, 1.0, "grid"), "unknown space tag"),
    "positions not 1-d": (Configuration, (LINE, [[0.0, 1.0]], 0.0), "1-d"),
    "radii length": (Configuration, (LINE, [0.0, 1.0], [0.1, 0.2, 0.3]), "radii length"),
    "winding length": (Configuration, (LINE, [0.0, 1.0], 0.0, [0.0]), "winding length"),
    # np.diff of two int64 positions 2**63 or more apart wraps, and reads this as sorted
    "unsorted positions 2**63 apart": (Configuration, (LINE, [2**62 + 2**61, -(2**62 + 2**61)],
                                                       0.0), "sorted"),
    "integer line wider than 2**62": (Configuration, (LINE, [-2**62, 2**62], 0.0),
                                      r"span at most 2\*\*62 sites"),
    # numpy holds these as uint64, which the int64 cast wraps, and as objects or float64
    "integer positions past int64": (Configuration, (LINE, [2**63, 2**63 + 1], 0.0),
                                     "must lie in int64"),
    "integer positions past 2**64": (Configuration, (LINE, [0, 2**64 + 3], 0.0),
                                     "must lie in int64"),
    "scale past int64": (scale_shift, (Configuration(LINE, [0, 2**62], 0.0), 4),
                         "outside int64"),
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
    "negative verification tolerance": (verify_invariance, (STATIONARY, 0.5, 4, -1.0),
                                        "tolerance tol=-1.0 must be nonnegative"),
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
    "coupled run at scale 0": (coupled_run, (LATTICE, LATTICE, ProcessParams(0.5, 1),
                                             ProcessParams(0.5, 1), 5, 0, 0.0),
                               "displacement_scale=0.0 must be positive"),
    "coupled run at a negative scale": (coupled_run, (LATTICE, LATTICE, ProcessParams(0.5, 1),
                                                      ProcessParams(0.5, 1), 5, 0, -1.0),
                                        "displacement_scale=-1.0 must be positive"),
    # a line has no window: its last particle would turn inf in float64, or stop at the
    # int64 sentinel bound, without a word
    "line run past float64": (run, (Configuration(LINE, [0.0, 1e308], 0.0),
                                    ProcessParams(1, 1e308), 3, 0),
                              r"positions up to 1e\+308 with maximal jump v=1e\+308"),
    "line run past the int64 sentinel": (run, (Configuration(LINE, np.array([0, 2**62]), 0.0),
                                               ProcessParams(1, 2**61), 3, 0),
                                         f"positions up to {2**62} with maximal jump v={2**61}"),
    "line step past the int64 sentinel": (step, (Configuration(LINE, np.array([0, 2**61 - 1]),
                                                               0.0), ProcessParams(1, 1),
                                                 CoinStream(0), 0), "exact range"),
    "coupled line run past float64": (coupled_run, (Configuration(LINE, [0.0, 1.0], 0.0),
                                                    Configuration(LINE, [0.0, 1e308], 0.0),
                                                    ProcessParams(1, 1), ProcessParams(1, 1e308),
                                                    3, 0), "exact range"),
    "two-part grid": (parse_grid, ("0.1:0.2",), "start:stop:step"),
    "grid with a nan step": (parse_grid, ("0.1:0.2:nan",), "bad grid"),
    "grid to infinity": (parse_grid, ("0.1:inf:0.1",), "bad grid"),
    "grid from -infinity": (parse_grid, ("-inf:0.2:0.1",), "bad grid"),
}


@pytest.mark.parametrize("call, args, fragment", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejected(call, args, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(*args)


# the CLI's domain error: exit status 2 and one line on stderr, never a traceback
SIMULATE = ["simulate", "--steps", "5", "--particles", "10"]
VERIFY = ["verify-invariance", "--rho", "0.3", "--p", "0.5", "--max-len", "4"]
COUPLE = ["couple-check", "--mode", "radius", "--particles", "20", "--steps", "5"]
CLI_REJECTIONS = {
    "simulate on a ring of length 0": ([*SIMULATE, "--ring", "0"],
                                       "ring circumference=0.0 must be positive"),
    "simulate on a negative ring": ([*SIMULATE, "--ring", "-5"],
                                    "ring circumference=-5.0 must be positive"),
    "simulate on a nan ring": ([*SIMULATE, "--ring", "nan"],
                               "ring circumference=nan must be positive"),
    "verify-invariance at a nan tolerance": ([*VERIFY, "--tol", "nan"], "tolerance tol=nan"),
    "verify-invariance at a negative tolerance": ([*VERIFY, "--tol", "-1"],
                                                  "tolerance tol=-1.0"),
    "couple-check at a nan tolerance": ([*COUPLE, "--tol", "nan"], "tolerance tol=nan"),
    "couple-check at a negative tolerance": ([*COUPLE, "--tol", "-1"], "tolerance tol=-1.0"),
    "couple-check at an infinite tolerance": ([*COUPLE, "--tol", "inf"], "tolerance tol=inf"),
    "heterogeneous couple-check at density 0": (
        ["couple-check", "--mode", "heterogeneous", "--rho", "0", "--particles", "20",
         "--steps", "5"], "density rho=0.0 must be positive"),
    # rho_x * ring = 3.3 would run 3 particles under a header that says 0.33
    "obstacles with a fractional particle count": (
        ["obstacles", "--ring", "10", "--rho-x", "0.33", "--count", "4", "--steps", "5"],
        "--rho-x 0.33 --ring 10.0 give 3.3 particles"),
    "obstacles at a nan density": (
        ["obstacles", "--ring", "10", "--rho-x", "nan", "--count", "4", "--steps", "5"],
        "--rho-x nan --ring 10.0 give nan particles"),
}


@pytest.mark.parametrize("argv, fragment", CLI_REJECTIONS.values(), ids=CLI_REJECTIONS.keys())
def test_cli_rejected(argv, fragment, tmp_path, capsys):
    assert main(["--outdir", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and fragment in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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
    "coupled_run.displacement_scale": (coupled_run, (LATTICE, LATTICE, ProcessParams(0.5, 1),
                                                     ProcessParams(0.5, 1), 5, 0, X),
                                       "displacement_scale"),
    "verify_invariance.tol": (verify_invariance, (STATIONARY, 0.5, 4, X), "tolerance tol"),
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
    # a tolerance of 0 asks for exact agreement
    assert verify_invariance(STATIONARY, 0.5, 4, 0.0).tolerance == 0.0
