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
    "lattice_ring": ("b5c67cfcdf47524d", "b3635aadbe79e4a8", "2ee6e040776ce1ff"),
    "continuum_ring": ("9d79c5a1e178e282", "ada71768c740aa33", "0f65ab64571dcab9"),
    "line_window": ("6a0a59f0b82d13f1", "9f35f72e47798128", "8eae3d06624e07c3"),
    "integer_radius_0.3": ("f27f2ac8f2437cc6", "b029352310d0cfcb", "dbc26a6b43fa578d"),
    "obstacles_continuum": ("564d27cec964c0e6", "fe4ca460c6c88b82", "ca760824692f289e"),
    "obstacles_integer_ring": ("75b00e36bd701353", "c359369d40135075", "4be094fb0fd82fb8"),
}

# heterogeneous-radius ring coupled to its mean-radius conjugate: positions and
# winding of both finals, both step-total series, then gap and displacement
# divergences (rounding-level, so they pin the float arithmetic too)
COUPLED_DIGESTS = (
    "04663356b6d84f07", "f534a540a140cf83", "29f7871e7dff6739", "a55ca89c77dcbcff",
    "b425059a04c1ce03", "50297106661b3181", "54aa354427e12cae", "5a7640c568f72dd9",
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
    assert hashlib.sha256(data).hexdigest()[:16] == "9d7177bf10f62087"


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
    assert digest(cfg.positions) == "a4b8f7c537fb5237"


CLI_DIGESTS = {
    ("periodic-points", "--n", "12"): ("periodic_points.csv", "17134cecf2ec0765"),
    ("periodic-points", "--n", "24"): ("periodic_points.csv", "2fd7eacc2831851f"),
    ("measure", "sample", "--rho", "0.35", "--p", "0.6", "--sites", "1000", "--seed", "7"):
        ("sample.csv", "d6fcbc483f61a3f7"),
    ("measure", "sample", "--rho", "0.3", "--p", "0.7", "--v", "2", "--r", "0.25",
     "--sites", "500", "--seed", "8", "--configuration", "--randomize-offset"):
        ("sample.csv", "59834c4559221c7f"),
}


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS), ids=" ".join)
def test_cyclic_cli_digests(argv, tmp_path):
    name, expected = CLI_DIGESTS[argv]
    assert main(["--outdir", str(tmp_path), *argv]) == 0
    assert _sha((tmp_path / name).read_bytes()) == expected
