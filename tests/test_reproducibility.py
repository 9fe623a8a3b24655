"""Bit-identity referee for the step kernel and the cylinder evaluator.

(a) SHA-256 digests of small seeded runs pin their exact output bytes, so any
rewrite of the step kernel must reproduce trajectories bit for bit.
(b) A loop of ``step`` calls must give ``run(...).final``, values and dtypes,
and each side of a ``coupled_run`` must equal its own ``run``.
(a) and (b) hold on the default path, the fused C kernel where it builds, and
on the numpy stepper (ids ``numpy-<case>``).
(c) Digests of the Markov cylinder weights, as ``verify_invariance`` reports
them and as ``tasep measure cylinder`` writes them, pin those bytes too.
(d) Digests of cyclic ring samples, of a sampled configuration (which also pins
the generator state the word draw leaves behind) and of the periodic-point and
sample CSVs pin the sampler and the word enumerator.
(e) Digests of every other CLI artifact pin the CSV writers: trajectories on a
lattice and a continuum ring, both invariance verdicts, and each table.
"""

from __future__ import annotations

import hashlib

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
    coupled_run,
    even_lattice_ring,
    evenly_spaced_ring,
    build_invariant_matrix,
    gaps,
    radius_conjugate,
    run,
    sample_ring_configuration,
    sample_ring_word,
    step,
    verify_invariance,
)
from tasep import _native
from tasep.cli import main


def digest(arr: np.ndarray) -> str:
    """First 16 hex digits of SHA-256 over the dtype tag and the raw bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(arr.dtype.str.encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _line_window():
    gaps = np.random.default_rng(5).uniform(0.0, 1.5, 79)
    pos = np.concatenate([[0.0], np.cumsum(0.4 + gaps)])
    return Configuration(LINE, pos, 0.2)


def _integer_ring_radius_03():
    pos = np.arange(0, 200, 2, dtype=np.int64)
    return Configuration(Ring(200), pos, 0.3)


# name -> (configuration, params, field, steps, seed)
CASES = {
    "lattice_ring": (even_lattice_ring(250, 100), ProcessParams(0.5, 2, "lattice"),
                     None, 80, 11),
    "continuum_ring": (evenly_spaced_ring(120, 0.4, radius=0.25),
                       ProcessParams(0.6, 1.5), None, 80, 12),
    "line_window": (_line_window(), ProcessParams(0.7, 2.0), None, 60, 13),
    "integer_radius_0.3": (_integer_ring_radius_03(), ProcessParams(0.5, 1.0),
                           None, 80, 14),
    "obstacles_continuum": (evenly_spaced_ring(60, 0.3), ProcessParams(0.5, 2.0),
                            ObstacleField(Ring(200.0), np.linspace(0.0, 190.0, 25)),
                            80, 15),
    "obstacles_integer_ring": (Configuration(Ring(120), np.arange(0, 120, 3), 0.0),
                               ProcessParams(0.8, 3.0),
                               ObstacleField(Ring(120), np.arange(1.0, 120.0, 7.0)),
                               80, 16),
}

# name -> digests of (final.positions, final.winding, step_total_displacement)
RUN_DIGESTS = {
    "lattice_ring": ("fe52d5b502b98f7b", "322236f5e737cdb3", "de0e77bd916700ec"),
    "continuum_ring": ("a16bb2bde487e121", "d73670096bdc4f5e", "a6e80ae82489b156"),
    "line_window": ("a93ce5e76cf11953", "2381d4a2c45ab1f9", "45fd1a75f9995552"),
    "integer_radius_0.3": ("6679df59bf991200", "4fda557398c9dc61", "7fc389db920f2c09"),
    "obstacles_continuum": ("021a17bde9a1210e", "9468c574ae7e4b6c", "ec76040175d8d0bc"),
    "obstacles_integer_ring": ("08aeae4a0daeca5d", "3c83ab4d1a0b890f", "f34626e6483f34f2"),
}

# heterogeneous-radius ring coupled to its mean-radius conjugate: positions and
# winding of both finals, both step-total series, then gap and displacement
# divergences (rounding-level, so they pin the float arithmetic too)
COUPLED_DIGESTS = (
    "fbaae7f4a4e0c1e5", "2bf770bed5e4a4b0", "8850e8bc06c2b68f", "a464c4fea8e01d91",
    "5175607e0728ffef", "da78e965007673d6", "54aa354427e12cae", "8d1c20ef69ef9ef1",
)


def _heterogeneous_pair():
    radii = np.random.default_rng(6).uniform(0.0, 0.4, 60)
    cfg_a = Configuration(Ring(200.0), np.arange(60) * (200.0 / 60), radii)
    return cfg_a, radius_conjugate(cfg_a, float(radii.mean()))


def _ring_pair(n):
    """n particles of random radii on a continuum ring, and its mean-radius conjugate."""
    radii = np.random.default_rng(n).uniform(0.0, 0.4, n)
    cfg = Configuration(Ring(3.0 * n), np.arange(n) * 3.0, radii)
    return cfg, radius_conjugate(cfg, float(radii.mean()))


def _lattice_pair():
    cfg = even_lattice_ring(40, 13)
    return cfg, radius_conjugate(cfg, 0.0)


# name -> (configuration a, its conjugate b, params of both, steps, seed)
COUPLED_CASES = {
    "heterogeneous": (*_heterogeneous_pair(), ProcessParams(0.7, 1.0), 70, 17),
    "line_window": (_line_window(), radius_conjugate(_line_window(), 0.0),
                    ProcessParams(0.7, 2.0), 60, 13),
    "lattice_conjugate": (*_lattice_pair(), ProcessParams(0.7, 1, "lattice"), 80, 18),
    **{f"n{n}": (*_ring_pair(n), ProcessParams(0.6, 1.5), 40, 20 + n) for n in (1, 2, 5, 129)},
}


@pytest.fixture
def backend(request, monkeypatch):
    """"default" runs the fused kernel where it builds; "numpy" forces the numpy stepper."""
    if request.param == "numpy":
        monkeypatch.setattr(_native, "kernel", lambda: None)
    return request.param


# every case on the default path (its id is the case name), then on the numpy path
BACKEND_CASES = (
    [pytest.param(name, "default", id=name) for name in sorted(CASES)]
    + [pytest.param(name, "numpy", id=f"numpy-{name}") for name in sorted(CASES)]
)


COUPLED_BACKEND_CASES = (
    [pytest.param(name, "default", id=name) for name in sorted(COUPLED_CASES)]
    + [pytest.param(name, "numpy", id=f"numpy-{name}") for name in sorted(COUPLED_CASES)]
)


def _coupled(name):
    cfg_a, cfg_b, params, steps, seed = COUPLED_CASES[name]
    return coupled_run(cfg_a, cfg_b, params, params, steps, CoinStream(seed))


def _run(name, snapshot_stride=None):
    cfg, params, field, steps, seed = CASES[name]
    return run(cfg, params, steps, CoinStream(seed), field=field,
               snapshot_stride=snapshot_stride)


@pytest.mark.parametrize("name, backend", BACKEND_CASES, indirect=["backend"])
def test_run_digests(name, backend):
    s = _run(name)
    got = (digest(s.final.positions), digest(s.final.winding),
           digest(s.step_total_displacement))
    assert got == RUN_DIGESTS[name]


@pytest.mark.parametrize("name, backend", BACKEND_CASES, indirect=["backend"])
def test_snapshot_stride_keeps_the_trajectory(name, backend):
    plain, strided = _run(name), _run(name, snapshot_stride=7)
    assert strided.final == plain.final
    assert np.array_equal(strided.step_total_displacement, plain.step_total_displacement)


def _coupled_arrays(res):
    return (res.a.final.positions, res.a.final.winding, res.b.final.positions,
            res.b.final.winding, res.a.step_total_displacement, res.b.step_total_displacement,
            res.max_gap_divergence, res.max_displacement_divergence)


@pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
def test_coupled_run_digests(backend):
    res = _coupled("heterogeneous")
    assert tuple(map(digest, _coupled_arrays(res))) == COUPLED_DIGESTS


@pytest.mark.parametrize("name", sorted(COUPLED_CASES))
def test_coupled_run_is_the_same_on_both_backends(name, monkeypatch):
    fused = tuple(map(digest, _coupled_arrays(_coupled(name))))
    monkeypatch.setattr(_native, "kernel", lambda: None)
    assert tuple(map(digest, _coupled_arrays(_coupled(name)))) == fused


def _same(a: Configuration, b: Configuration) -> bool:
    return (
        a == b
        and a.positions.dtype == b.positions.dtype
        and a.winding.dtype == b.winding.dtype
    )


@pytest.mark.parametrize("name, backend", BACKEND_CASES, indirect=["backend"])
def test_step_loop_equals_run(name, backend):
    cfg, params, field, steps, seed = CASES[name]
    coins = CoinStream(seed)
    x = cfg
    for t in range(steps):
        x = step(x, params, coins, t, field=field)
    assert _same(x, _run(name).final)


@pytest.mark.parametrize("name, backend", COUPLED_BACKEND_CASES, indirect=["backend"])
def test_coupled_sides_equal_single_runs(name, backend):
    cfg_a, cfg_b, params, steps, seed = COUPLED_CASES[name]
    res = _coupled(name)
    for side, cfg in ((res.a, cfg_a), (res.b, cfg_b)):
        alone = run(cfg, params, steps, CoinStream(seed))
        assert _same(side.final, alone.final)
        assert np.array_equal(side.step_total_displacement, alone.step_total_displacement)
    # a line compares its n - 1 gaps: the last particle's unbounded one would be inf
    assert np.all(np.isfinite(res.max_gap_divergence))
    if name == "lattice_conjugate":  # exact int64 on both sides
        assert res.b.final.positions.dtype == np.int64
        assert not res.max_gap_divergence.any() and not res.max_displacement_divergence.any()


@pytest.mark.parametrize("name, backend", BACKEND_CASES, indirect=["backend"])
def test_stepper_states_equal_validated_configurations(name, backend):
    """Snapshots and step results skip ``__post_init__``; they equal what it builds."""
    cfg, params, field, steps, seed = CASES[name]
    coins = CoinStream(seed)
    loop = [cfg]
    for t in range(steps):
        loop.append(step(loop[-1], params, coins, t, field=field))
    snaps = _run(name, snapshot_stride=7).snapshots
    # snapshots are copies taken along the way, not views of the running state
    assert all(snap == loop[t] for t, snap in snaps)
    for c in [snap for _, snap in snaps] + loop[1:]:
        fresh = Configuration(c.geometry, c.positions, c.radii, c.winding)
        assert c == fresh
        for field_name in ("positions", "radii", "winding"):
            got, want = getattr(c, field_name), getattr(fresh, field_name)
            assert got.dtype == want.dtype
            assert not got.flags.writeable and not want.flags.writeable


@pytest.mark.parametrize("name", sorted(CASES))
def test_radius_conjugate_keeps_every_snapshot_gap(name):
    for _, snap in _run(name, snapshot_stride=1).snapshots:
        for r_new in (0.0, 0.25):
            out = radius_conjugate(snap, r_new)
            assert out.geometry.__class__ is snap.geometry.__class__
            assert np.allclose(gaps(out), gaps(snap), rtol=0.0, atol=1e-9)


# name -> (matrix, movement probability); the mu column at length 10
MU_CASES = {
    "stochastic": (build_invariant_matrix(0.35, 0.6), 0.6),
    "deterministic": (build_invariant_matrix(0.7, 1.0), 1.0),
}
MU_DIGESTS = {"stochastic": "171a56e1ced0b572", "deterministic": "104b998e7fe6a664"}


@pytest.mark.parametrize("name", sorted(MU_CASES))
def test_invariance_mu_digests(name):
    m, p = MU_CASES[name]
    mu = np.array([row.mu for row in verify_invariance(m, p, 10).rows])
    assert digest(mu) == MU_DIGESTS[name]


def test_measure_cylinder_csv_digest(tmp_path):
    argv = ["--outdir", str(tmp_path), "measure", "cylinder", "--rho", "0.35", "--p", "0.6",
            "--max-len", "8"]
    assert main(argv) == 0
    data = (tmp_path / "cylinders.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest()[:16] == "543fa1a51dafb938"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


SAMPLE_MATRICES = {
    "stochastic": build_invariant_matrix(0.35, 0.6),
    "sparse_p1": build_invariant_matrix(0.3, 1.0),
    "dense_p1": build_invariant_matrix(0.7, 1.0),
    "bernoulli": MarkovMatrix.bernoulli(0.4),
    "identity": MarkovMatrix(1.0, 0.0, 0.0, 1.0),
}
SAMPLE_SITES = (2, 5, 200, 10**4, 10**5)
# name -> digests of sample_ring_word(matrix, n, 21) for n in SAMPLE_SITES
SAMPLE_DIGESTS = {
    "stochastic": ("4a44dc15364204a8", "af2aef7071ca92fd", "191595d4576490b2",
                   "4f588a69d6aaf7aa", "085ae25e4630e889"),
    "sparse_p1": ("4a44dc15364204a8", "af2aef7071ca92fd", "da941fe621dcb88b",
                  "72e4b3af88de15e2", "9798a19041961d0a"),
    "dense_p1": ("4fc82b26aecb47d2", "4a01ae2c6a180114", "36f98aa8c3d841f2",
                 "b45bb8c3fae28a9a", "4da10ea532e9a1ce"),
    "bernoulli": ("4fc82b26aecb47d2", "4a01ae2c6a180114", "fa6d60de9bd26fc0",
                  "f73bca1c097dff40", "ce9ff0c705e0febb"),
    "identity": ("4fc82b26aecb47d2", "d17f25ecfbcc7857", "90b03b3ede18032a",
                 "d25f01257c989062", "99776d836e8bcb45"),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_MATRICES))
def test_sample_ring_word_digests(name):
    words = [sample_ring_word(SAMPLE_MATRICES[name], n, 21) for n in SAMPLE_SITES]
    assert tuple(_sha(w.encode()) for w in words) == SAMPLE_DIGESTS[name]
    if name == "identity":
        assert all(len(set(w)) == 1 for w in words)


def test_sample_ring_configuration_digest():
    cfg = sample_ring_configuration(0.3, 0.7, v=2.0, r=0.25, n_sites=500, seed=23,
                                    randomize_offset=True)
    assert digest(cfg.positions) == "75894ca54dddd2a9"


# argv -> {artifact: digest}
CLI_DIGESTS = {
    ("periodic-points", "--n", "12"): {"periodic_points.csv": "ad05a00df8f13811"},
    ("periodic-points", "--n", "24"): {"periodic_points.csv": "0c15b0983fbbe950"},
    ("measure", "sample", "--rho", "0.35", "--p", "0.6", "--sites", "1000", "--seed", "7"):
        {"sample.csv": "6a4194a8d437d674"},
    ("measure", "sample", "--rho", "0.3", "--p", "0.7", "--v", "2", "--r", "0.25",
     "--sites", "500", "--seed", "8", "--configuration", "--randomize-offset"):
        {"sample.csv": "b4d4eaf081769fe1"},
    ("simulate", "--ring", "100", "--particles", "50", "--p", "0.5", "--v", "1", "--r", "0.5",
     "--steps", "60", "--seed", "7", "--snapshot-stride", "20"):
        {"trajectory.csv": "a2d8391fd6a07474", "velocity.csv": "d9da6e20c636d15e"},
    ("simulate", "--ring", "150", "--particles", "60", "--p", "0.6", "--v", "1.5",
     "--r", "0.25", "--steps", "60", "--seed", "8", "--snapshot-stride", "20"):
        {"trajectory.csv": "f3f3c165b10ba55f", "velocity.csv": "15e88cd9208754ff"},
    ("verify-invariance", "--rho", "0.35", "--p", "0.6", "--max-len", "6"):
        {"invariance.csv": "5465ba61ad2aaa93"},
    ("verify-invariance", "--rho", "0.3", "--p", "1", "--max-len", "6"):
        {"invariance.csv": "308a63d8dabb4763"},
    ("fundamental-diagram", "--rho", "0.2:0.4:0.1", "--p", "0.8", "--v", "1", "--r", "0.5",
     "--particles", "200", "--steps", "300", "--seed", "11"): {"fd.csv": "c43cddbb00cd49ef"},
    ("couple-check", "--mode", "heterogeneous", "--rho", "0.3", "--p", "0.7",
     "--particles", "60", "--steps", "50", "--seed", "4"): {"couple.csv": "5346b25641726981"},
    ("obstacles", "--ring", "100", "--rho-x", "0.25", "--count", "40", "--p", "0.5",
     "--v", "1", "--steps", "400", "--seed", "1"): {"obstacles.csv": "addefbc55bdbddea"},
    ("stability-sweep", "--rho", "0.5", "--v", "1", "--r", "0", "--p-list", "0.9,1.0",
     "--particles", "100", "--steps", "100", "--seed", "2"): {"sweep.csv": "5966ca618976c4f7"},
    ("measure", "matrix", "--rho", "0.35", "--p", "0.6"): {"matrix.csv": "1742cee5a48b1d07"},
    ("periodic-points", "--count-only", "--n", "100"):
        {"periodic_counts.csv": "31512ed6311a9352"},
}


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS), ids=" ".join)
def test_cyclic_cli_digests(argv, tmp_path):
    assert main(["--outdir", str(tmp_path), *argv]) == 0
    got = {name: _sha((tmp_path / name).read_bytes()) for name in CLI_DIGESTS[argv]}
    assert got == CLI_DIGESTS[argv]
