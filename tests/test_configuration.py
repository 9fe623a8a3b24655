"""Configuration data model: gaps, densities, admissibility, transforms, encodings."""

from __future__ import annotations

import io
import itertools

import numpy as np
import pytest

from tasep import (
    LINE,
    AdmissibilityError,
    AdmissibilityReport,
    CoinStream,
    Configuration,
    ProcessParams,
    Ring,
    check_admissible,
    decode_word,
    density,
    encode_word,
    even_lattice_ring,
    evenly_spaced_ring,
    gaps,
    radius_conjugate,
    read_configuration_csv,
    run,
    scale_shift,
    write_configuration_csv,
)
from tasep.configuration import successor_bounds
from tasep.velocity import initial_ring


def line(positions, radii):
    return Configuration(LINE, positions, radii)


def ring(L, positions, radii):
    return Configuration(Ring(L), positions, radii)


class TestGaps:
    def test_line_uniform_radius(self):
        assert np.allclose(gaps(line([0.0, 1.5, 4.0], 0.5)), [0.5, 1.5])

    def test_touching_balls(self):
        assert np.array_equal(gaps(line([0.0, 2.0, 4.0], 1.0)), [0.0, 0.0])

    def test_ring_closure(self):
        g = gaps(ring(10, [0, 3, 7], 0.0))
        assert np.array_equal(g, [3, 4, 3])
        assert g.sum() == 10

    def test_ring_gap_sum_identity(self):
        cfg = ring(12.0, [0.0, 2.0, 5.5, 9.0], [0.25, 0.5, 0.75, 0.25])
        total = gaps(cfg).sum() + 2 * cfg.radii.sum()
        assert total == pytest.approx(12.0, abs=1e-12)

    def test_inadmissible_rejected_with_index(self):
        with pytest.raises(AdmissibilityError) as err:
            gaps(line([0.0, 0.9, 5.0], 0.5))
        assert err.value.indices == (0,)


class TestEmpty:
    @pytest.mark.parametrize("geometry", [Ring(10), Ring(10.0), LINE],
                             ids=["int-ring", "float-ring", "line"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_empty_gaps_and_report(self, geometry, dtype):
        cfg = Configuration(geometry, np.empty(0, dtype), 0.0)
        g = gaps(cfg)
        assert g.shape == (0,) and g.dtype == dtype
        assert check_admissible(cfg) == AdmissibilityReport(ok=True)


class TestDensity:
    def test_ring(self):
        assert density(ring(10, [0, 3, 7], 0.0)) == pytest.approx(0.3)

    def test_line_window(self):
        assert density(line([0, 1, 2, 3, 4], 0.0)) == pytest.approx(1.0)

    def test_packed_ring_reaches_maximum(self):
        cfg = ring(8, list(range(8)), 0.5)
        assert density(cfg) == pytest.approx(1.0)  # 1/(2r)

    def test_line_needs_two_particles(self):
        with pytest.raises(ValueError):
            density(line([1.0], 0.0))


class TestAdmissibility:
    def test_overlap_reported(self):
        report = check_admissible(line([0.0, 0.9], 0.5))
        assert not report.ok
        assert report.violations == (0,)

    def test_touching_allowed(self):
        assert check_admissible(line([0.0, 1.0], 0.5)).ok

    def test_zero_range_piling_allowed(self):
        assert check_admissible(line([0.0, 0.0], 0.0)).ok

    def test_ring_wrap_pair(self):
        report = check_admissible(ring(4.0, [0.0, 3.9], 0.25))
        assert not report.ok
        assert report.violations == (1,)

    def test_ring_radius_mass(self):
        report = check_admissible(ring(3.0, [0.0, 1.0, 2.0], [0.5, 0.5, 0.6]))
        assert report.radius_sum_exceeds

    def test_one_overlap_rule_at_the_slack_edge(self):
        # an overlap just past the float slack: check_admissible, gaps and run agree
        cfg = line([511.82162470025673, 517.5244068782087], 2.851391088977806)
        report = check_admissible(cfg)
        assert not report.ok
        assert report.violations == (0,)
        with pytest.raises(AdmissibilityError):
            gaps(cfg)
        with pytest.raises(AdmissibilityError):
            run(cfg, ProcessParams(0.5, 1.0), 1, 0)


class TestRadiusConjugate:
    def test_collapses_touching_chain_to_a_point(self):
        out = radius_conjugate(line([0.0, 2.0, 4.0], 1.0), 0.0)
        assert np.array_equal(out.positions, [0.0, 0.0, 0.0])

    def test_ring_density_transform(self):
        cfg = ring(10, [0, 2, 5, 7], 0.5)
        out = radius_conjugate(cfg, 0.0)
        assert out.circumference == 6
        rho, rho_new = density(cfg), density(out)
        assert rho_new == pytest.approx(rho / (1 - 2 * 0.5 * rho), abs=1e-12)
        # the inverse form of the same correspondence
        assert rho == pytest.approx(rho_new / (1 + 2 * 0.5 * rho_new), abs=1e-12)

    def test_identity_at_same_radius(self):
        cfg = ring(10.0, [0.5, 3.0, 7.0], 0.5)
        assert radius_conjugate(cfg, 0.5) == cfg

    def test_preserves_gaps(self):
        rng = np.random.default_rng(5)
        radii = rng.uniform(0, 0.4, 20)
        g = rng.uniform(0, 2.0, 20)
        pos = np.concatenate([[0.0], np.cumsum(g[:-1] + radii[:-1] + radii[1:])])
        L = g.sum() + 2 * radii.sum()
        cfg = Configuration(Ring(L), pos, radii)
        for r_new in (0.0, 0.2, 0.55):
            out = radius_conjugate(cfg, r_new)
            assert np.allclose(gaps(out), gaps(cfg), atol=1e-12)

    def test_matches_telescoped_formula_for_uniform_radii(self):
        # x_i - 2 i (r - r_new) for uniform input radius r
        pos = np.array([0.0, 2.2, 4.9, 8.0])
        cfg = line(pos, 1.0)
        out = radius_conjugate(cfg, 0.25)
        expected = pos - 2 * np.arange(4) * (1.0 - 0.25)
        assert np.allclose(out.positions, expected, atol=1e-12)

    def test_nonpositive_circumference_rejected(self):
        with pytest.raises(ValueError):
            radius_conjugate(ring(2.0, [0.0, 1.0], 0.5), 0.0)

    def test_point_particles_stacked_across_the_seam(self):
        # a criterion-5 state: its last particle sits exactly at x_0 + L, and the
        # rebuilt positions' rounded sum overshoots the seam unless clamped (on the
        # coins of contract 0.3 the run of point 46 stands so after 1994 steps)
        start, _ = initial_ring(0.6, 2.0, 0.0, 10_000)
        state = run(start, ProcessParams(0.8, 2.0, "continuum"), 1994,
                    CoinStream(20_250_505).derive(46)).final
        assert state.positions[-1] == state.positions[0] + state.circumference
        for r_new, tol in ((0.0, 1e-11), (0.1, 1e-8)):
            out = radius_conjugate(state, r_new)
            assert out.positions[-1] <= out.positions[0] + out.circumference
            assert check_admissible(out).ok
            assert np.abs(gaps(out) - gaps(state)).max() <= tol

    def test_heterogeneous_stack_across_the_seam_is_clamped(self):
        # 1000 balls of radii in [0, 0.5), every gap 0 but ten, the seam gap 0 too:
        # the running sum of gap_i + 2 r_new that rebuilds them at the mean radius
        # overshoots the seam by 4e-12 to 1.2e-11 on 6 of the first 10 rings unless
        # clamped, and the clamp alone left pair 998 overlapping beyond the slack on 129
        # of these 300 until the stack behind the seam was pulled back.  With no free
        # gap the stack is the whole ring, and pulled back to the anchor it left pair 0
        # overlapping on 130 of 300 until its pairs shared the overlap.
        n = 1000
        for free, seed in itertools.product((10, 0), range(300)):
            rng = np.random.default_rng(seed)
            r = rng.uniform(0.0, 0.5, n)
            g = np.zeros(n)
            g[rng.choice(n - 1, free, replace=False)] = rng.uniform(0.0, 2.0, free)
            pos = np.concatenate([[0.0], np.cumsum(g[:-1] + r[:-1] + r[1:])])
            cfg = ring(pos[-1] + r[-1] + r[0], pos, r)
            r_new = float(r.mean())
            out = radius_conjugate(cfg, r_new)
            assert out.positions[-1] <= out.positions[0] + (out.circumference - 2.0 * r_new)
            gaps(out)  # raises AdmissibilityError on an overlap beyond the slack
            assert np.abs(successor_bounds(out) - out.positions - g).max() <= 5e-11

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.9])
    def test_uniform_radii_keep_float_gaps_to_an_ulp(self, rho):
        # each position moves on its own, x_i + 2i(r_new - r); the running sum of gaps
        # this replaced was off by 5.1e-9, 1.4e-9 and 4.1e-10 on these states, against
        # 3.6e-12, 1.8e-12 and 9.1e-13 now, each at most an ulp of the ring's length
        start = evenly_spaced_ring(10_000, rho, radius=0.5)
        state = run(start, ProcessParams(0.5, 1.0, "continuum"), 300, CoinStream(24)).final
        out = radius_conjugate(state, 0.1)
        assert check_admissible(out).ok
        assert np.abs(gaps(out) - gaps(state)).max() <= np.spacing(state.circumference)

    def test_lattice_stays_integer(self):
        cfg = ring(10, np.array([0, 2, 5, 7]), 0.5)
        out = radius_conjugate(cfg, 0.0)
        assert out.positions.dtype.kind == "i"
        assert isinstance(out.circumference, int | float)
        assert float(out.circumference).is_integer()


class TestScaleShift:
    def test_scaling_halves_density(self):
        cfg = line([0.0, 1.0, 2.0], 0.0)
        out = scale_shift(cfg, 2.0, 0.0)
        assert np.array_equal(out.positions, [0.0, 2.0, 4.0])
        assert density(out) == pytest.approx(density(cfg) / 2)

    def test_pure_translation_keeps_gaps(self):
        cfg = line([0.0, 1.5, 4.0], 0.5)
        out = scale_shift(cfg, 1.0, 5.0)
        assert np.allclose(gaps(out), gaps(cfg))

    def test_ring_circumference_scales(self):
        assert scale_shift(ring(5.0, [0.0], 0.0), 3.0, 0.0).circumference == 15.0

    def test_inverse_composition_is_identity(self):
        cfg = ring(9.0, [0.25, 3.0, 6.5], 0.3)
        u, w = 1.6, 0.7
        back = scale_shift(scale_shift(cfg, u, w), 1 / u, -w / u)
        assert np.allclose(back.positions, cfg.positions, atol=1e-12)
        assert np.allclose(back.radii, cfg.radii, atol=1e-12)
        assert back.circumference == pytest.approx(9.0, abs=1e-12)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            scale_shift(line([0.0], 0.0), 0.0, 1.0)


class TestRewrap:
    """Conjugacies whose first position leaves [0, L) shift the window back by L."""

    CFG = Configuration(Ring(10), np.array([8, 9]), 0.5)

    def test_radius_conjugate_lattice(self):
        out = radius_conjugate(self.CFG, 0.0)
        assert out.geometry == Ring(8)
        assert out.positions.dtype == np.int64
        assert np.array_equal(out.positions, [0, 0])
        assert np.array_equal(gaps(out), gaps(self.CFG))

    @pytest.mark.parametrize("w, expected", [(12, [0, 1]), (-9, [9, 10])])
    def test_scale_shift_lattice(self, w, expected):
        out = scale_shift(self.CFG, 1, w)
        assert out.geometry == Ring(10)
        assert out.positions.dtype == np.int64
        assert np.array_equal(out.positions, expected)
        assert np.array_equal(gaps(out), gaps(self.CFG))

    def test_radius_conjugate_float(self):
        cfg = Configuration(Ring(10.0), [8.5, 9.5], 0.5)
        out = radius_conjugate(cfg, 0.0)
        assert out.geometry == Ring(8.0)
        assert out.positions.dtype == np.float64
        assert np.array_equal(out.positions, [0.5, 0.5])
        assert np.array_equal(gaps(out), gaps(cfg))


class TestEncodeDecode:
    def test_encode(self):
        assert encode_word(ring(5, np.array([0, 2, 3]), 0.5)) == "10110"

    def test_empty_ring(self):
        assert encode_word(decode_word("000")) == "000"
        assert decode_word("000").n == 0

    def test_roundtrip_exhaustive_short_rings(self):
        for n in range(1, 13):
            for bits in itertools.product("01", repeat=n):
                word = "".join(bits)
                cfg = decode_word(word)
                assert encode_word(cfg) == word
                assert decode_word(encode_word(cfg)) == cfg

    def test_rejects_non_lattice(self):
        with pytest.raises(ValueError):
            encode_word(ring(5.0, [0.5, 2.25], 0.5))

    def test_rejects_wrong_radius(self):
        with pytest.raises(ValueError):
            encode_word(ring(5, np.array([0, 2]), 0.0))

    def test_whole_arrays_match_a_per_letter_codec(self):
        word = "".join(np.random.default_rng(11).choice(["0", "1"], 20_000))
        cfg = decode_word(word)
        assert np.array_equal(cfg.positions, [k for k, ch in enumerate(word) if ch == "1"])
        assert cfg.positions.dtype == np.int64
        assert encode_word(cfg) == word

    def test_positions_past_the_seam_name_their_sites_mod_L(self):
        assert encode_word(ring(10, np.array([3, 12]), 0.5)) == "0011000000"


class TestConfigurationInvariants:
    def test_positions_must_be_sorted(self):
        with pytest.raises(ValueError):
            line([1.0, 0.0], 0.0)

    def test_ring_window(self):
        with pytest.raises(ValueError):
            ring(5.0, [6.0], 0.0)  # first position beyond [0, L)
        with pytest.raises(ValueError):
            ring(5.0, [0.5, 6.0], 0.0)  # spread wider than one circumference

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            line([0.0], -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="positions"):
            line([0.0, bad, 3.0], 0.0)
        with pytest.raises(ValueError, match="radii"):
            line([0.0, 1.0], [0.1, bad])
        with pytest.raises(ValueError, match="winding"):
            Configuration(LINE, [0.0, 1.0], 0.0, [bad, 0.0])
        with pytest.raises(ValueError, match="circumference"):
            Ring(bad)

    def test_immutability(self):
        cfg = line([0.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            cfg.positions[0] = 5.0

    def test_process_params_validation(self):
        with pytest.raises(ValueError):
            ProcessParams(p=1.5, v=1.0)
        with pytest.raises(ValueError):
            ProcessParams(p=0.5, v=-1.0)
        with pytest.raises(ValueError):
            ProcessParams(p=0.5, v=1.5, space="lattice")
        ProcessParams(p=0.5, v=2, space="lattice")

    @pytest.mark.parametrize("space", ["continuum", "lattice"])
    def test_infinite_jump_rejected(self, space):
        with pytest.raises(ValueError, match="finite"):
            ProcessParams(p=0.5, v=np.inf, space=space)

    def test_evenly_spaced_ring_exact_density(self):
        cfg = evenly_spaced_ring(100, 0.4, radius=0.5)
        assert density(cfg) == pytest.approx(0.4, abs=1e-15)
        assert check_admissible(cfg).ok

    def test_even_lattice_ring_equals_the_per_site_rule(self):
        # the reference: site j holds a particle when (j + 1) n // L steps past j n // L
        for n_sites in range(1, 201):
            j = np.arange(n_sites, dtype=np.int64)
            for n in range(n_sites + 1):
                cfg = even_lattice_ring(n_sites, n)
                want = j[(j + 1) * n // n_sites > j * n // n_sites]
                assert cfg.positions.dtype == np.int64
                assert np.array_equal(cfg.positions, want), (n_sites, n)


class TestCsv:
    def test_roundtrip_ring(self):
        cfg = ring(7.5, [0.0, 2.25, 5.0], [0.1, 0.2, 0.3])
        buf = io.StringIO()
        write_configuration_csv(cfg, buf)
        buf.seek(0)
        back = read_configuration_csv(buf)
        assert np.allclose(back.positions, cfg.positions)
        assert np.allclose(back.radii, cfg.radii)
        assert back.circumference == pytest.approx(7.5)

    def test_roundtrip_lattice_line(self):
        cfg = Configuration(LINE, np.array([0, 3, 9]), 0.5)
        buf = io.StringIO()
        write_configuration_csv(cfg, buf)
        buf.seek(0)
        back = read_configuration_csv(buf)
        assert back.positions.dtype.kind == "i"
        assert np.array_equal(back.positions, cfg.positions)

    def test_roundtrip_of_a_numpy_float_circumference(self):
        # the circumference 3 / 0.7 comes out as a numpy float, not a Python one
        cfg = evenly_spaced_ring(3, np.float64(0.7))
        assert type(cfg.circumference) is np.float64
        buf = io.StringIO()
        write_configuration_csv(cfg, buf)
        assert buf.getvalue().splitlines()[0] == "# geometry=ring circumference=4.285714285714286"
        buf.seek(0)
        back = read_configuration_csv(buf)
        assert back == cfg
        assert back.circumference == cfg.circumference

    @pytest.mark.parametrize("cfg", [
        Configuration(Ring(3.0), [0.1, 1 / 3, 2.9], [0.05, 0.1, 0.0]),
        Configuration(Ring(12), np.array([0, 5, 11]), 0.5),
        Configuration(LINE, np.empty(0), 0.0),
    ], ids=["float-ring", "lattice-ring", "empty-line"])
    def test_roundtrip_is_exact_under_a_replay_header(self, cfg):
        buf = io.StringIO()
        buf.write("# tasep=0.1.0 command=measure-sample p=0.5 rho=0.3\n")
        write_configuration_csv(cfg, buf)
        buf.seek(0)
        back = read_configuration_csv(buf)
        assert back == cfg
        assert back.positions.dtype == cfg.positions.dtype
