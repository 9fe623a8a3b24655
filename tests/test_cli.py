"""CLI plumbing: artifacts, reproducibility, exit codes, grid parsing."""

from __future__ import annotations

import io
import tracemalloc

import pytest

from tasep import _native, build_invariant_matrix, cli, verify_invariance
from tasep._rows import CHUNK_ROWS, write_rows
from tasep.cli import main, parse_grid


def read(path):
    return path.read_text()


class TestParseGrid:
    def test_single_value(self):
        assert parse_grid("0.5") == [0.5]

    def test_inclusive_range(self):
        grid = parse_grid("0.05:0.95:0.05")
        assert len(grid) == 19
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(0.95)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            parse_grid("1:0:0.1")


class TestExitCodes:
    def test_usage_error_is_one(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "no-such-command"]) == 1
        assert main(["--outdir", str(tmp_path), "verify-invariance"]) == 1  # missing flags

    def test_domain_error_is_two(self, tmp_path):
        code = main(["--outdir", str(tmp_path), "verify-invariance",
                     "--rho", "1.5", "--p", "0.5"])
        assert code == 2
        for max_len in ("0", "13"):  # all-words tables hold lengths 1..12
            code = main(["--outdir", str(tmp_path), "measure", "cylinder",
                         "--rho", "0.5", "--p", "0.5", "--max-len", max_len])
            assert code == 2
            assert not (tmp_path / "cylinders.csv").exists()
        for args in (["stability-sweep", "--rho", "1", "--r", "0.5"],  # 2*r*rho >= 1
                     ["obstacles", "--ring", "100", "--rho-x", "0.25", "--count", "0"],
                     ["obstacles", "--ring", "100", "--rho-x", "0.001"],  # no particle
                     ["simulate", "--ring", "100", "--particles", "10",
                      "--snapshot-stride", "-5"],
                     ["simulate", "--ring", "100", "--particles", "0", "--r", "0.5"]):
            assert main(["--outdir", str(tmp_path)] + args) == 2, args

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_heterogeneous_couple_check_names_a_bad_particle_count(self, tmp_path, capsys,
                                                                    count):
        # the count sizes the ring: it must be named itself, not through the ring's length
        # ("ring circumference=0.0") or numpy's "negative dimensions"
        code = main(["--outdir", str(tmp_path), "couple-check", "--mode", "heterogeneous",
                     "--particles", count, "--steps", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("domain error: n_particles must be an integer of at least 1, "
                              f"got {count}")
        assert list(tmp_path.iterdir()) == []

    def test_verified_is_zero(self, tmp_path):
        code = main(["--outdir", str(tmp_path), "verify-invariance",
                     "--rho", "0.5", "--p", "0.5", "--max-len", "4", "--tol", "1e-10"])
        assert code == 0
        text = read(tmp_path / "invariance.csv")
        assert "verdict=stationary" in text
        assert "seed" not in text.splitlines()[0] or "rho=0.5" in text.splitlines()[0]

    @pytest.mark.parametrize("rho, p, tol, verdict", [
        ("0.35", "0.6", "1e-10", "stationary:"),
        ("0.7", "1", "1e-10", "stationary:"),
        # a tolerance of 0 fails on the last bits of rounding
        ("0.35", "0.6", "0", "NON-STATIONARY:"),
    ])
    def test_verify_invariance_prints_the_worst_cylinder(self, tmp_path, capsys,
                                                          rho, p, tol, verdict):
        code = main(["--outdir", str(tmp_path), "verify-invariance", "--rho", rho, "--p", p,
                     "--max-len", "7", "--tol", tol])
        assert code == (0 if verdict == "stationary:" else 3)
        line = capsys.readouterr().out.strip()
        report = verify_invariance(build_invariant_matrix(float(rho), float(p)), float(p), 7)
        errs = [row.abs_err for row in report.rows]
        worst = report.rows[errs.index(max(errs))].word  # the first largest
        assert line.startswith(verdict)
        assert line.endswith(f"over words up to length 7, worst cylinder {worst}")
        last = read(tmp_path / "invariance.csv").splitlines()[-1]
        assert last.endswith("verdict=stationary" if code == 0 else "verdict=non-stationary")

    def test_simulate_rejects_a_rounded_lattice_ring(self, tmp_path, capsys):
        # the lattice start rounds the ring to 1001 sites
        code = main(["--outdir", str(tmp_path), "simulate", "--ring", "1000.7",
                     "--particles", "500", "--r", "0.5", "--steps", "100"])
        assert code == 2
        assert "1001 sites" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_obstacles_csv_with_a_nan_row_is_a_domain_error(self, tmp_path, capsys):
        csv = tmp_path / "z.csv"
        csv.write_text("1.0\nnan\n5.0\n")
        code = main(["--outdir", str(tmp_path), "obstacles", "--ring", "100",
                     "--rho-x", "0.25", "--obstacles-csv", str(csv)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "obstacles.csv").exists()

    @pytest.mark.parametrize("name", ["missing.csv", "a_directory"])
    def test_an_unreadable_obstacles_csv_is_a_domain_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        if name == "a_directory":
            path.mkdir()
        code = main(["--outdir", str(tmp_path), "obstacles", "--ring", "100",
                     "--rho-x", "0.5", "--obstacles-csv", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and str(path) in err
        assert not (tmp_path / "obstacles.csv").exists()

    def test_couple_check_failure_is_three(self, tmp_path):
        # heterogeneous radii diverge by rounding only (2.8e-14 here), which tol = 0 fails
        code = main(["--outdir", str(tmp_path), "couple-check", "--mode", "heterogeneous",
                     "--rho", "0.3", "--p", "0.6", "--particles", "50",
                     "--steps", "20", "--tol", "0"])
        assert code == 3


class TestArtifacts:
    def test_simulate_writes_trajectory_and_velocity(self, tmp_path):
        code = main(["--outdir", str(tmp_path), "simulate", "--ring", "100",
                     "--particles", "50", "--p", "0.5", "--v", "1", "--r", "0.5",
                     "--steps", "200", "--seed", "7", "--snapshot-stride", "100"])
        assert code == 0
        traj = read(tmp_path / "trajectory.csv")
        assert traj.splitlines()[1] == "t,particle,position,displacement"
        assert "seed=7" in traj.splitlines()[0]
        vel = read(tmp_path / "velocity.csv")
        assert "v_hat" in vel

    def test_simulate_runs_a_jump_past_int64_as_the_ring_length(self, tmp_path):
        # a lattice ring caps the jump at its length, exactly: v = 1e19 moves as v = 10,
        # where it once left cli.main with a struct.error; v = 1 moves otherwise
        rows = {}
        for v in ("1e19", "10", "1"):
            out = tmp_path / v
            assert main(["--outdir", str(out), "simulate", "--ring", "10", "--particles", "3",
                         "--r", "0.5", "--p", "0.5", "--v", v, "--steps", "50"]) == 0
            rows[v] = [read(out / name).splitlines()[1:]
                       for name in ("trajectory.csv", "velocity.csv")]
        assert rows["1e19"] == rows["10"] != rows["1"]

    def test_simulate_rejects_a_ring_past_int64(self, tmp_path):
        # 10**19 sites once wrapped k * n_sites in even_lattice_ring and left a traceback
        assert main(["--outdir", str(tmp_path), "simulate", "--ring", "1e19",
                     "--particles", "5", "--r", "0.5", "--steps", "4"]) == 2

    def test_simulate_runs_the_continuum_ring_it_was_given(self, tmp_path, monkeypatch):
        # 333 * (1 / (333 / 150)) is 149.99999999999997
        seen = []
        real_run = cli.run
        monkeypatch.setattr(cli, "run",
                            lambda cfg, *a, **k: seen.append(cfg) or real_run(cfg, *a, **k))
        assert main(["--outdir", str(tmp_path), "simulate", "--ring", "150",
                     "--particles", "333", "--r", "0", "--steps", "40"]) == 0
        assert seen[0].circumference == 150.0

    def test_fundamental_diagram_reproducible_bytes(self, tmp_path):
        args = ["fundamental-diagram", "--rho", "0.2:0.4:0.1", "--p", "0.8",
                "--v", "1", "--r", "0.5", "--particles", "200", "--steps", "300",
                "--seed", "11"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["--outdir", str(a_dir)] + args) == 0
        assert main(["--outdir", str(b_dir)] + args) == 0
        assert read(a_dir / "fd.csv") == read(b_dir / "fd.csv")
        header, colnames = read(a_dir / "fd.csv").splitlines()[:2]
        assert colnames == "rho,p,v,r,V_theory,V_hat,stderr,flux"
        assert "seed=11" in header and "rho=0.2:0.4:0.1" in header

    @pytest.mark.parametrize("base", [
        ["fundamental-diagram", "--rho", "0.2:0.4:0.1", "--p", "0.8",
         "--v", "1", "--r", "0", "--particles", "120", "--steps", "200",
         "--seed", "3"],
        ["fundamental-diagram", "--rho", "0.30:0.32:0.002", "--p", "0.5",
         "--v", "1", "--r", "0.5", "--particles", "100", "--steps", "100",
         "--seed", "1", "--initial", "sampled"],
        # serial runs split across two threads where two CPUs are there; the pool's
        # workers run one thread each
        ["fundamental-diagram", "--rho", "0.2:0.4:0.2", "--p", "0.8",
         "--v", "2", "--r", "0", "--particles", str(2 * _native.SPLIT_PARTICLES),
         "--steps", "200", "--seed", "5"],
    ], ids=["even", "sampled", "above_the_split"])
    def test_fundamental_diagram_jobs_matches_serial(self, tmp_path, base):
        a_dir, b_dir = tmp_path / "serial", tmp_path / "par"
        assert main(["--outdir", str(a_dir)] + base) == 0
        assert main(["--outdir", str(b_dir)] + base + ["--jobs", "2"]) == 0
        strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert strip(read(a_dir / "fd.csv")) == strip(read(b_dir / "fd.csv"))

    @pytest.mark.parametrize("jobs", ["0", "-4", "two"])
    def test_fundamental_diagram_rejects_jobs_below_one(self, tmp_path, jobs, capsys):
        assert main(["--outdir", str(tmp_path), "fundamental-diagram", "--rho", "0.3",
                     "--particles", "50", "--steps", "400", "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "fd.csv").exists()

    def test_measure_family(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "measure", "matrix",
                     "--rho", "0.25", "--p", "1"]) == 0
        assert "1,0" in read(tmp_path / "matrix.csv")
        assert main(["--outdir", str(tmp_path), "measure", "cylinder",
                     "--rho", "0.5", "--p", "0.5", "--max-len", "3"]) == 0
        lines = read(tmp_path / "cylinders.csv").splitlines()
        assert lines[1] == "word,measure"
        assert len(lines) == 2 + 2 + 4 + 8
        assert main(["--outdir", str(tmp_path), "measure", "sample",
                     "--rho", "0.5", "--p", "0.5", "--sites", "24", "--seed", "5"]) == 0
        word = read(tmp_path / "sample.csv").splitlines()[-1]
        assert set(word) <= {"0", "1"} and len(word) == 24

    def test_measure_sample_configuration(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "measure", "sample", "--configuration",
                     "--rho", "0.25", "--p", "0.5", "--v", "2", "--r", "0.25",
                     "--sites", "60", "--seed", "4"]) == 0
        text = read(tmp_path / "sample.csv")
        assert "geometry=ring" in text
        assert "index,position,radius" in text

    def test_periodic_points_and_counts(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "periodic-points", "--n", "4"]) == 0
        lines = read(tmp_path / "periodic_points.csv").splitlines()
        assert len(lines) == 2 + 7

    def test_periodic_counts_past_the_enumeration_cap(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "periodic-points", "--count-only",
                     "--n", "100"]) == 0
        assert read(tmp_path / "periodic_counts.csv").splitlines()[-1] == (
            "100,792070839848372253127")  # the Lucas number L_100
        assert main(["--outdir", str(tmp_path), "periodic-points", "--n", "100"]) == 2

    def test_periodic_counts_past_the_digit_limit(self, tmp_path, capsys):
        # tr M^30000 of no-11 is the Lucas number L_30000, of 6270 digits: more than
        # str(int) converts under the interpreter's default limit of 4300
        lucas, following = 2, 1
        for _ in range(30_000):
            lucas, following = following, lucas + following
        # its digits 1000 at a time, each chunk within the limit
        chunks = []
        while lucas >= 10**1000:
            lucas, low = divmod(lucas, 10**1000)
            chunks.append(f"{low:01000d}")
        digits = str(lucas) + "".join(reversed(chunks))
        assert len(digits) == 6270
        assert main(["--outdir", str(tmp_path), "periodic-points", "--count-only",
                     "--n", "30000"]) == 0
        assert read(tmp_path / "periodic_counts.csv").splitlines()[-1] == f"30000,{digits}"
        assert f" count={digits} " in capsys.readouterr().out

    def test_periodic_points_count_mismatch_raises(self, tmp_path, monkeypatch):
        # the rows are counted as they stream out, then checked against the trace
        monkeypatch.setattr(cli, "periodic_point_count", lambda ts, n: 8)
        with pytest.raises(RuntimeError, match="wrote 7 words, trace count is 8"):
            main(["--outdir", str(tmp_path), "periodic-points", "--n", "4"])

    def test_stability_sweep(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "stability-sweep", "--rho", "0.5",
                     "--v", "1", "--r", "0", "--p-list", "0.9,1.0",
                     "--particles", "100", "--steps", "100", "--seed", "2"]) == 0
        lines = read(tmp_path / "sweep.csv").splitlines()
        assert lines[1] == "p,V_theory,V_hat,stderr,measure_dist"
        assert len(lines) == 4

    def test_obstacles(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "obstacles", "--ring", "100",
                     "--rho-x", "0.25", "--count", "40", "--p", "0.5", "--v", "1",
                     "--steps", "400", "--seed", "1"]) == 0
        lines = read(tmp_path / "obstacles.csv").splitlines()
        assert lines[1] == "rho_x,rho_extended,p,v,V_theory,V_hat,stderr"

    def test_couple_check_modes_pass(self, tmp_path):
        for mode, tol in [("radius", "1e-12"), ("heterogeneous", "1e-9"),
                          ("similarity", "1e-9")]:
            code = main(["--outdir", str(tmp_path), "couple-check", "--mode", mode,
                         "--rho", "0.3", "--p", "0.7", "--particles", "60",
                         "--steps", "50", "--tol", tol])
            assert code == 0, mode


class TestOutdir:
    def test_tasep_outdir_is_read_on_each_call(self, tmp_path, monkeypatch):
        # the parser is built once per process; the environment is read per call
        first, second, flag = tmp_path / "first", tmp_path / "second", tmp_path / "flag"
        monkeypatch.setenv("TASEP_OUTDIR", str(first))
        assert main(["periodic-points", "--n", "4"]) == 0
        monkeypatch.setenv("TASEP_OUTDIR", str(second))
        assert main(["measure", "matrix", "--rho", "0.25", "--p", "1"]) == 0
        assert main(["--outdir", str(flag), "periodic-points", "--count-only", "--n", "4"]) == 0
        assert sorted(f.name for f in first.iterdir()) == ["periodic_points.csv"]
        assert sorted(f.name for f in second.iterdir()) == ["matrix.csv"]
        assert sorted(f.name for f in flag.iterdir()) == ["periodic_counts.csv"]


class TestRowWriter:
    VALUES = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308, 1e12,
              123456789012.5, 0.1 + 0.2, float("nan"), float("inf"), -float("inf"), 7, 10**13]

    def test_templates_give_the_per_cell_text(self):
        buf = io.StringIO()
        rows = [(i, x, x, x, x) for i, x in enumerate(self.VALUES)]
        assert write_rows(buf, "%d,%.12g,%.17g,%.3g,%r\n", rows) == len(rows)
        want = "".join(f"{i},{format(x, '.12g')},{format(x, '.17g')},{format(x, '.3g')},"
                       f"{x!r}\n" for i, x in enumerate(self.VALUES))
        assert buf.getvalue() == want

    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                   3 * CHUNK_ROWS + 5])
    def test_chunks_count_and_join_every_row(self, n):
        class Counting(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        stream = Counting()
        rows = ((k, f"w{k}") for k in range(n))  # a generator: counted as it streams
        assert write_rows(stream, "%d,%s\n", rows) == n
        assert stream.getvalue() == "".join(f"{k},w{k}\n" for k in range(n))
        assert stream.writes == -(-n // CHUNK_ROWS)


class TestBoundedWriter:
    """The writer holds one chunk of rows, never the whole body.

    The traced peak is taken from the moment the first artifact opens, above the
    memory then held (the run's snapshots, the word tables). For the two commands
    below, a row-at-a-time writer peaks at 0.05 and 0.04 MB, the chunked writer at
    0.31 and 0.27 MB, and one join over every row at 14.5 and 18.6 MB.
    """

    BOUND = 1_000_000  # bytes

    @pytest.mark.parametrize("argv, name, min_size", [
        (["simulate", "--ring", "250", "--particles", "97", "--p", "0.5", "--v", "1.37",
          "--r", "0.2", "--steps", "700", "--snapshot-stride", "1"], "trajectory.csv", 2e6),
        (["periodic-points", "--n", "24"], "periodic_points.csv", 2.5e6),
    ], ids=["simulate", "periodic-points"])
    def test_writer_peak_is_bounded(self, tmp_path, monkeypatch, argv, name, min_size):
        held = []

        def opening(*args, **kwargs):
            if not held:
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return open(*args, **kwargs)

        monkeypatch.setattr(cli, "open", opening, raising=False)
        tracemalloc.start()
        try:
            assert main(["--outdir", str(tmp_path), *argv]) == 0
            peak = tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()
        size = (tmp_path / name).stat().st_size
        assert size > min_size  # the body alone is twice the bound and more
        assert peak < self.BOUND, f"writer peak {peak / 1e6:.2f} MB for {size / 1e6:.1f} MB"
