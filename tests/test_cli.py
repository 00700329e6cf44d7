import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rank1tensor.cli as cli
from rank1tensor import BreakdownError, SolverConfig, Tensor, UnitTuple, io, solve
from rank1tensor.ami import hessian_form_at
from rank1tensor.bench import CSV_HEADER
from rank1tensor.solvers import METHODS

from conftest import SCALE_EXPONENTS, max_scaled, planted_rank1, random_tensor, random_tuple


@pytest.fixture
def plant_files(tmp_path):
    t, axes = planted_rank1((3, 3, 3), 7.0, 0)
    tensor_path = tmp_path / "plant.txt"
    tuple_path = tmp_path / "axes.txt"
    io.write_tensor_text(t, tensor_path)
    io.write_tuple_text(axes, tuple_path)
    return t, axes, str(tensor_path), str(tuple_path)


def parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


class TestDecompose:
    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    def test_planted_rank_one(self, plant_files, capsys, method):
        _, _, tensor_path, _ = plant_files
        code = cli.main(
            ["decompose", "--input", tensor_path, "--method", method, "--seed", "1"]
        )
        report = parse_report(capsys.readouterr().out)
        assert code == 0
        assert float(report["lambda"]) == pytest.approx(7.0, rel=1e-8)
        assert report["converged_by"] == "fitchange"

    def test_stationarity_line_only_when_certified(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        io.write_tensor_text(random_tensor((5, 4, 6), 7), path)
        args = ["decompose", "--input", str(path), "--method", "asvd"]
        assert cli.main(args) == 0
        assert "stationarity" not in parse_report(capsys.readouterr().out)
        assert cli.main(args + ["--tol", "1e-12", "--max-iters", "2000"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["converged_by"] == "stationary"
        assert 0.0 <= float(report["stationarity"]) <= 1e-9

    def test_malformed_dims_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n2 x 2\n1 2 3 4 5 6 7 8\n")
        code = cli.main(["decompose", "--input", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_entry_is_input_error(self, tmp_path, capsys, method, token):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"3\n2 2 2\n1 2 3 {token} 5 6 7 8\n")
        code = cli.main(["decompose", "--input", str(bad), "--method", method])
        captured = capsys.readouterr()
        assert code == 1
        assert "finite" in captured.err
        assert captured.out == ""

    def test_non_finite_entry_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n2 2 2\n1 2 3 4\n5 6 -inf 8\n")
        code = cli.main(["decompose", "--input", str(bad)])
        assert code == 1
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_finite_scale(self, plant_files, tmp_path, capsys, scale):
        t, _, _, _ = plant_files
        path = tmp_path / "scaled.txt"
        io.write_tensor_text(Tensor(scale * t.array), path)
        code = cli.main(["decompose", "--input", str(path), "--seed", "1"])
        report = parse_report(capsys.readouterr().out)
        assert code == 0
        assert float(report["lambda"]) == pytest.approx(7.0 * scale, rel=1e-8, abs=0.0)
        assert float(report["rel_error"]) <= 1e-8

    def test_missing_file(self, capsys):
        assert cli.main(["decompose", "--input", "/nonexistent/t.txt"]) == 1

    def test_deterministic_output(self, plant_files, capsys):
        _, _, tensor_path, _ = plant_files
        args = ["decompose", "--input", tensor_path, "--method", "mals", "--seed", "5"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_trace_file(self, plant_files, tmp_path, capsys):
        _, _, tensor_path, _ = plant_files
        trace = tmp_path / "trace.csv"
        code = cli.main(
            ["decompose", "--input", tensor_path, "--trace", str(trace)]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,substep,modes,chosen,f_after,opt_calls"
        assert len(lines) > 1

    def test_unknown_flag_is_input_error(self, plant_files, capsys):
        _, _, tensor_path, _ = plant_files
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose", "--input", tensor_path, "--bogus"])
        assert exc.value.code == 1

    def test_solver_breakdown_maps_to_exit_two(self, plant_files, monkeypatch, capsys):
        _, _, tensor_path, _ = plant_files

        def boom(*args, **kwargs):
            raise BreakdownError("synthetic")

        monkeypatch.setattr(cli, "solve", boom)
        assert cli.main(["decompose", "--input", tensor_path]) == 2


class TestVerify:
    def test_exact_axes_pass(self, plant_files, capsys):
        _, _, tensor_path, tuple_path = plant_files
        code = cli.main(
            ["verify", "--input", tensor_path, "--tuple", tuple_path, "--level", "2"]
        )
        report = parse_report(capsys.readouterr().out)
        assert code == 0
        assert report["semi_max"] == "pass"
        assert float(report["max_residual"]) <= 1e-10

    def test_perturbed_axes_fail_with_reported_residual(
        self, plant_files, tmp_path, capsys
    ):
        t, axes, tensor_path, _ = plant_files
        rng = np.random.default_rng(1)
        bumped = []
        for v in axes.vectors:
            w = v + 1e-2 * rng.standard_normal(v.size)
            bumped.append(w / np.linalg.norm(w))
        tuple_path = tmp_path / "bumped.txt"
        io.write_tuple_text(UnitTuple(bumped), tuple_path)
        code = cli.main(
            ["verify", "--input", tensor_path, "--tuple", str(tuple_path)]
        )
        report = parse_report(capsys.readouterr().out)
        assert code == 3
        assert 1e-4 <= float(report["max_residual"]) <= 1.0  # about 1e-2 scale

    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf", "abc"])
    def test_bad_tol_rejected_before_any_report(self, plant_files, tol, capsys):
        _, _, tensor_path, tuple_path = plant_files
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--input", tensor_path, "--tuple", tuple_path, "--tol", tol])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "--tol" in captured.err

    def test_norm_beyond_float_range_exits_one(self, tmp_path, capsys):
        arr = np.random.default_rng(15).standard_normal((3, 4, 5))
        tensor_path, tuple_path = tmp_path / "huge.txt", tmp_path / "ones.txt"
        io.write_tensor_text(Tensor(arr * (1e308 / np.max(np.abs(arr)))), tensor_path)
        io.write_tuple_text(UnitTuple([np.ones(m) for m in (3, 4, 5)], normalize=True), tuple_path)
        args = ["verify", "--input", str(tensor_path), "--tuple", str(tuple_path), "--level", "2"]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "norm" in captured.err

    @pytest.mark.parametrize("tol", ["0", "1e-3", "inf"])
    def test_tol_range(self, plant_files, tol, capsys):
        _, _, tensor_path, tuple_path = plant_files
        code = cli.main(["verify", "--input", tensor_path, "--tuple", tuple_path, "--tol", tol])
        report = parse_report(capsys.readouterr().out)
        assert float(report["max_residual"]) <= 1e-10
        # the planted axes are exact only to rounding, which tol 0 may fail
        assert code == 0 or (tol == "0" and code == 3)

    def test_non_finite_tuple_is_input_error(self, plant_files, tmp_path, capsys):
        _, _, tensor_path, _ = plant_files
        bad = tmp_path / "bad_axes.txt"
        bad.write_text("3\n3 3 3\n1 0 0\n0 nan 0\n0 0 1\n")
        code = cli.main(["verify", "--input", tensor_path, "--tuple", str(bad)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_level_two_checks_every_pair_at_four_modes(self, tmp_path, capsys):
        t = random_tensor((4, 3, 3, 2), 21)
        cfg = SolverConfig(method="asvd", fitchange_tol=1e-12, max_iterations=2000)
        tensor_path, tuple_path = tmp_path / "t4.txt", tmp_path / "u4.txt"
        io.write_tensor_text(t, tensor_path)
        io.write_tuple_text(solve(t, cfg).axes, tuple_path)
        argv = ["verify", "--input", str(tensor_path), "--tuple", str(tuple_path), "--level", "2"]
        code = cli.main(argv)
        lines = capsys.readouterr().out.splitlines()
        checks = [line.split() for line in lines if line.startswith("check ")]
        assert code == 0
        assert [c[2] for c in checks] == ["0", "1", "2", "3", "4", "5"]
        assert all(c[-1] == "pass" for c in checks)

    def test_level_two_needs_three_modes(self, tmp_path, capsys):
        t, axes = planted_rank1((2, 3), 1.0, 2)
        tensor_path = tmp_path / "t2.txt"
        tuple_path = tmp_path / "u2.txt"
        io.write_tensor_text(t, tensor_path)
        io.write_tuple_text(axes, tuple_path)
        code = cli.main(
            [
                "verify",
                "--input",
                str(tensor_path),
                "--tuple",
                str(tuple_path),
                "--level",
                "2",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("level", ["1", "2"])
    def test_zero_pair_matrix_passes(self, tmp_path, capsys, level):
        # T = e0 (x) e0 (x) e0 at (e1, e1, e1): every margin is 0
        tensor_path, tuple_path = tmp_path / "t.txt", tmp_path / "u.txt"
        tensor_path.write_text("3\n2 2 2\n1 0 0 0 0 0 0 0\n")
        tuple_path.write_text("3\n2 2 2\n0 1\n0 1\n0 1\n")
        argv = ["verify", "--input", tensor_path, "--tuple", tuple_path, "--level", level]
        code = cli.main([str(a) for a in argv])
        lines = capsys.readouterr().out.splitlines()
        checks = [line.split() for line in lines if line.startswith("check ")]
        assert code == 0
        assert [(c[4], c[5]) for c in checks] == [("0", "pass")] * 3
        assert "semi_max pass" in lines and "criticality pass" in lines

    @pytest.mark.parametrize("level", ["1", "2"])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_finite_scale(self, tmp_path, capsys, scale, level):
        # a Gaussian tensor's masvd axes pass at any scale; the residual is
        # reported in the units of the tensor
        t = random_tensor((3, 3, 3), 4)
        axes = solve(
            t, SolverConfig(method="masvd", fitchange_tol=1e-12, max_iterations=2000)
        ).axes
        tuple_path = tmp_path / "axes.txt"
        io.write_tuple_text(axes, tuple_path)
        reports = {}
        for factor in (1.0, scale):
            tensor_path = tmp_path / f"t{factor}.txt"
            io.write_tensor_text(Tensor(factor * t.array), tensor_path)
            args = ["--input", str(tensor_path), "--tuple", str(tuple_path)]
            code = cli.main(["verify", *args, "--level", level])
            reports[factor] = parse_report(capsys.readouterr().out)
            assert code == 0
            assert reports[factor]["criticality"] == "pass"
            assert reports[factor]["semi_max"] == "pass"
        unit = float(reports[1.0]["max_residual"])
        got = float(reports[scale]["max_residual"])
        assert got == pytest.approx(scale * unit, rel=1e-6, abs=1e-12 * scale * t.norm())

    @pytest.mark.parametrize("scale", [1e-170, 3e-160, 1e200])
    @pytest.mark.parametrize("bump", [0.0, 1e-2])
    def test_extreme_scale_tuple_verifies_as_unscaled(
        self, plant_files, tmp_path, capsys, scale, bump
    ):
        # the planted axes pass (exit 0) and bumped ones fail (exit 3) at
        # any finite scale of the tuple file's entries
        _, axes, tensor_path, _ = plant_files
        rng = np.random.default_rng(5)
        vectors = [v + bump * rng.standard_normal(v.size) for v in axes.vectors]
        codes = []
        for factor in (1.0, scale):
            rows = [" ".join(f"{factor * x:.17g}" for x in v) for v in vectors]
            tuple_path = tmp_path / f"axes{factor}.txt"
            tuple_path.write_text("3\n3 3 3\n" + "\n".join(rows) + "\n")
            codes.append(cli.main(["verify", "--input", tensor_path, "--tuple", str(tuple_path)]))
            capsys.readouterr()
        assert codes[0] == codes[1] == (3 if bump else 0)

    def test_tuple_of_other_dims_exits_one(self, plant_files, tmp_path, capsys):
        _, _, tensor_path, _ = plant_files
        tuple_path = tmp_path / "axes.txt"
        io.write_tuple_text(UnitTuple([np.ones(3), np.ones(2), np.ones(3)], normalize=True), tuple_path)
        code = cli.main(["verify", "--input", tensor_path, "--tuple", str(tuple_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: tuple dims (3, 2, 3) do not match tensor dims (3, 3, 3)\n"

    def test_off_sphere_tuple_warns_and_normalizes(self, plant_files, tmp_path, capsys):
        t, axes, tensor_path, _ = plant_files
        text = io.format_tuple_text(axes).splitlines()
        text[2] = " ".join(str(2.0 * float(x)) for x in text[2].split())
        tuple_path = tmp_path / "scaled.txt"
        tuple_path.write_text("\n".join(text) + "\n")
        code = cli.main(["verify", "--input", tensor_path, "--tuple", str(tuple_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "normalized" in captured.err


class TestBench:
    def test_counts_and_header(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli.main(
            [
                "bench",
                "--sizes",
                "4",
                "--methods",
                "als",
                "--runs",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="ascii").strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_rerun_identical_modulo_timing(self, tmp_path, capsys):
        args = lambda path: [
            "bench",
            "--sizes",
            "4,8",
            "--methods",
            "als,masvd",
            "--runs",
            "3",
            "--seed",
            "7",
            "--out",
            path,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args(str(a))) == 0
        assert cli.main(args(str(b))) == 0
        capsys.readouterr()
        strip = lambda text: [
            ",".join(line.split(",")[:-1]) for line in text.strip().splitlines()
        ]
        assert strip(a.read_text()) == strip(b.read_text())

    @pytest.mark.parametrize("sizes", ["abc", "4,x", "4.5"])
    def test_non_integer_sizes_are_input_errors(self, sizes, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--sizes", sizes, "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--sizes" in err and "Traceback" not in err
        assert not out.exists()

    def test_unallocatable_size_is_input_error(self, tmp_path, capsys):
        # NumPy refuses a 100000^3 tensor before allocating anything
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--sizes", "100000", "--runs", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "allocate" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "extra",
        [["--methods", "foo"], ["--methods", "als,foo"], ["--methods", ","], ["--runs", "0"]],
    )
    def test_bad_run_exits_one_before_the_file(self, extra, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--sizes", "2", *extra, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out.exists()

    def test_defaults_are_the_solver_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["decompose", "--input", "t.txt"])
        cfg = SolverConfig()
        assert (args.method, args.seed, args.init) == (cfg.method, cfg.seed, cfg.init)
        assert (args.max_iters, args.tol) == (cfg.max_iterations, cfg.fitchange_tol)
        assert parser.parse_args(["bench"]).methods.split(",") == list(METHODS)

    def test_parallel_flag_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--parallel", "2", "--out", str(out)])
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()


class TestAmi:
    def write_h(self, tmp_path, h, sizes, name="h.txt"):
        path = tmp_path / name
        lines = [str(h.shape[0]), " ".join(str(m) for m in sizes)]
        for row in h:
            lines.append(" ".join(f"{x:.17g}" for x in row))
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return str(path)

    def test_positive_definite_fixture(self, tmp_path, capsys):
        g = np.random.default_rng(3).standard_normal((5, 5))
        path = self.write_h(tmp_path, g.T @ g + np.eye(5), (2, 3))
        code = cli.main(["ami", "--input", path])
        report = parse_report(capsys.readouterr().out)
        assert code == 0
        assert report["theorem_holds"] == "True"
        assert report["ostrowski"] == "True"
        assert report["alpha"] == "5"

    @pytest.mark.parametrize("scale", [1e-300, 1e-310])
    def test_tiny_scale_gives_unscaled_counts(self, scale, tmp_path, capsys):
        # every threshold is relative to H's own scale, so H and cH report
        # the same counts and flags, also where cH is subnormal
        g = np.random.default_rng(5).standard_normal((4, 4))
        h = g.T @ g + np.eye(4)
        reports = []
        for name, c in (("h.txt", 1.0), ("tiny.txt", scale)):
            code = cli.main(["ami", "--input", self.write_h(tmp_path, c * h, (2, 2), name)])
            assert code == 0
            reports.append(parse_report(capsys.readouterr().out))
        keys = ("alpha", "beta", "gamma", "pi", "nu", "zeta", "diagonal_blocks_definite",
                "theorem_holds", "ostrowski", "pi_lower_bound_ok", "unit_circle_near_one")
        assert [reports[1][k] for k in keys] == [reports[0][k] for k in keys]
        assert reports[0]["theorem_holds"] == "True"

    def test_singular_block_named(self, tmp_path, capsys):
        h = np.eye(4)
        h[2, 2] = h[3, 3] = 0.0
        path = self.write_h(tmp_path, h, (2, 2))
        code = cli.main(["ami", "--input", path])
        err = capsys.readouterr().err
        assert code == 1
        assert "block 1" in err

    def test_basin_on_null_vector_stays_constant(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        h0 = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
        h0 = (h0 + h0.T) / 2
        w = rng.standard_normal(4)
        hw = h0 @ w
        h = h0 - np.outer(hw, hw) / float(w @ hw)
        h = (h + h.T) / 2
        path = self.write_h(tmp_path, h, (2, 2))
        xi_path = tmp_path / "xi.txt"
        xi_path.write_text(" ".join(f"{x:.17g}" for x in w) + "\n")
        code = cli.main(
            ["ami", "--input", path, "--basin", str(xi_path), "--sweeps", "25"]
        )
        report = parse_report(capsys.readouterr().out)
        assert code == 0
        assert float(report["basin_norm_last"]) == pytest.approx(
            float(report["basin_norm_first"]), rel=1e-8
        )
        assert report["basin_converged_to_zero"] == "False"

    @pytest.mark.parametrize("sweeps", ["-1", "abc", "2.5"])
    def test_bad_sweeps_rejected_before_any_report(self, sweeps, tmp_path, capsys):
        path = self.write_h(tmp_path, np.eye(4), (2, 2))
        xi_path = tmp_path / "xi.txt"
        xi_path.write_text("1 0 0 0\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["ami", "--input", path, "--basin", str(xi_path), "--sweeps", sweeps])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "--sweeps" in captured.err

    @pytest.mark.parametrize(
        "start, message",
        [
            ("1e308 1e308 1e308 1e308", "float64 range"),  # the norm overflows
            ("1e200 1e200 1e200 1e200", "float64 range"),  # the objective does
            ("1 0 0", "expected (4,)"),
        ],
    )
    def test_bad_basin_start_is_input_error(self, start, message, tmp_path, capsys):
        path = self.write_h(tmp_path, np.eye(4), (2, 2))
        xi_path = tmp_path / "xi.txt"
        xi_path.write_text(start + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["ami", "--input", path, "--basin", str(xi_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""  # the start is read before any report line
        assert captured.err.startswith("error: ") and message in captured.err

    def test_zero_sweeps_accepted(self, tmp_path, capsys):
        path = self.write_h(tmp_path, np.eye(4), (2, 2))
        xi_path = tmp_path / "xi.txt"
        xi_path.write_text("1 0 0 0\n")
        code = cli.main(["ami", "--input", path, "--basin", str(xi_path), "--sweeps", "0"])
        assert code == 0
        assert parse_report(capsys.readouterr().out)["basin_sweeps"] == "0"


class TestScaleSweep:
    """``decompose``, ``verify`` and ``ami`` on files at scales 10^k (the
    tensor's max|entry|, or H's), with every warning an error. Each run
    exits 0 (``verify`` also 3, a failed check) with finite numbers, or 1
    with an ``error:`` line and no report; a tensor of norm beyond the
    float64 range exits 1. Where the entries are normal floats, the report
    is the unscaled one's: lambda times c, the same verify verdict and,
    where ``ami`` exits 0, the same ami counts."""

    write_h = TestAmi.write_h

    def run(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        captured = capsys.readouterr()
        report = parse_report(captured.out)
        if code == 1:
            assert captured.err.startswith("error: ")
        else:
            for value in report.values():
                for token in value.split():
                    try:
                        number = float(token)
                    except ValueError:
                        continue
                    assert np.isfinite(number), (argv[0], token)
        return code, report

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    def test_finite_report_or_input_error(self, k, tmp_path, capsys):
        t1, t, exact = max_scaled((3, 4, 5), 1, k)
        c = 10.0**k
        cfg = SolverConfig(method="asvd", fitchange_tol=1e-12, max_iterations=2000)
        axes = solve(t1, cfg).axes
        h1 = hessian_form_at(t1, axes).h
        h1 /= np.max(np.abs(h1))
        tuple_path, xi_path = tmp_path / "axes.txt", tmp_path / "xi.txt"
        io.write_tuple_text(axes, tuple_path)
        xi_path.write_text(" ".join(f"{x:.17g}" for x in np.linspace(-1.0, 1.0, 9)) + "\n")
        reports = {}
        for name, tensor, h in (("unit", t1, h1), ("scaled", t, c * h1)):
            tensor_path = tmp_path / f"{name}.txt"
            io.write_tensor_text(tensor, tensor_path)
            h_path = self.write_h(tmp_path, h, (2, 3, 4), f"h_{name}.txt")
            reports[name] = [
                self.run(argv, capsys)
                for argv in (
                    ["decompose", "--input", str(tensor_path), "--method", "asvd"],
                    ["verify", "--input", str(tensor_path), "--tuple", str(tuple_path)],
                    ["ami", "--input", h_path, "--basin", str(xi_path), "--sweeps", "20"],
                )
            ]
        (dec1, dec), (ver1, ver), (ami1, ami) = zip(reports["unit"], reports["scaled"])
        assert dec1[0] == ver1[0] == ami1[0] == 0
        if not np.isfinite(c * t1.norm()):
            assert dec[0] == ver[0] == 1
            assert dec[1] == ver[1] == {}
        elif exact:
            assert dec[0] == ver[0] == 0
            assert float(dec[1]["lambda"]) == pytest.approx(c * float(dec1[1]["lambda"]), rel=1e-10)
        else:
            assert dec[0] == 0 and ver[0] in (0, 3)
        assert ami[0] in (0, 1)
        if ami[0] == 1:
            assert ami[1] == {}  # an input error prints no report
        elif c * np.min(np.abs(h1[h1 != 0.0])) >= np.finfo(np.float64).tiny:
            keys = ("alpha", "beta", "gamma", "pi", "nu", "zeta", "theorem_holds")
            assert [ami[1][key] for key in keys] == [ami1[1][key] for key in keys]


class TestBadInputFiles:
    """A file that cannot be read ends in exit 1 and one ``error:`` line."""

    def run(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""
        return lines[0]

    def test_decompose_directory(self, tmp_path, capsys):
        self.run(["decompose", "--input", str(tmp_path)], capsys)

    @pytest.mark.parametrize("which", ["input", "tuple"])
    def test_verify_directory(self, plant_files, tmp_path, capsys, which):
        _, _, tensor_path, tuple_path = plant_files
        paths = {"input": tensor_path, "tuple": tuple_path, which: str(tmp_path)}
        self.run(["verify", "--input", paths["input"], "--tuple", paths["tuple"]], capsys)

    def test_decompose_non_ascii_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2\n2 2\n1 2\n3 4\xe9\n")
        assert "line 4" in self.run(["decompose", "--input", str(bad)], capsys)

    @pytest.mark.parametrize("which", ["input", "tuple"])
    def test_verify_non_ascii_byte(self, plant_files, tmp_path, capsys, which):
        _, _, tensor_path, tuple_path = plant_files
        bad = tmp_path / "bad.txt"
        with open({"input": tensor_path, "tuple": tuple_path}[which], "rb") as fh:
            rows = fh.read().split(b"\n")
        rows[3] += b"\x85"
        bad.write_bytes(b"\n".join(rows))
        paths = {"input": tensor_path, "tuple": tuple_path, which: str(bad)}
        argv = ["verify", "--input", paths["input"], "--tuple", paths["tuple"]]
        err = self.run(argv, capsys)
        assert "line 4" in err and "0x85" in err


class TestInputSweep:
    """Every subcommand over tensors of 1 to 4 modes and malformed files,
    with every warning an error. Each run ends in a documented exit code
    (0 to 3), never in a raw exception, and a run that exits 1 prints one
    ``error:`` line and no report, and writes nothing to its output file.
    An output path in a missing directory exits 1 before any work."""

    write_h = TestAmi.write_h

    def run(self, argv, capsys, output=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        if code == 1:
            assert captured.out == "", argv
            assert captured.err.startswith("error: "), argv
            if output is not None and os.path.exists(output):
                assert os.path.getsize(output) == 0, argv
        return code

    @staticmethod
    def variants(tmp_path, name, text):
        """The file ``name`` holding ``text``, its copy with the last entry
        cut off, and its copy with a non-ASCII byte in the last entry."""
        paths = [tmp_path / f"{name}{tag}.txt" for tag in ("", "_cut", "_byte")]
        body, _, last = text.rstrip("\n").rpartition(" ")
        paths[0].write_text(text, encoding="ascii")
        paths[1].write_text(body + "\n", encoding="ascii")
        paths[2].write_bytes(f"{body} {last}".encode() + b"\xe9\n")
        return paths

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_tensor_files(self, d, tmp_path, capsys):
        dims = (3, 2, 2, 2)[:d]
        tensors = self.variants(tmp_path, "t", io.format_tensor_text(random_tensor(dims, d)))
        tuples = [tmp_path / "u.txt", tmp_path / "u_dims.txt"]
        io.write_tuple_text(random_tuple(dims, d), tuples[0])
        io.write_tuple_text(random_tuple([m + 1 for m in dims], d), tuples[1])
        for i, tensor in enumerate(tensors):
            for method in METHODS:
                trace = tmp_path / f"trace_{method}_{i}.csv"
                argv = ["decompose", "--input", tensor, "--method", method, "--trace", trace]
                self.run(argv, capsys, trace)
            for level in ("1", "2"):
                for tuple_path in tuples:
                    argv = ["verify", "--input", tensor, "--tuple", tuple_path, "--level", level]
                    code = self.run(argv, capsys)
                    if d < 3 and level == "2":
                        assert code == 1  # pair schedules need three modes
        missing = tmp_path / "missing" / "t.csv"
        assert self.run(["decompose", "--input", tensors[0], "--trace", missing], capsys) == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_block_files(self, d, tmp_path, capsys):
        sizes = (3, 2, 2, 2)[:d]
        n = sum(sizes)
        g = np.random.default_rng(d).standard_normal((n, n))
        good = self.write_h(tmp_path, g + g.T + 2.0 * n * np.eye(n), sizes)
        lines = open(good, encoding="ascii").read().splitlines()
        lines[1] = " ".join(str(m) for m in (*sizes[:-1], sizes[-1] + 1))
        (tmp_path / "sizes.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
        cut, byte = self.variants(tmp_path, "form", open(good, encoding="ascii").read())[1:]
        for form in (good, tmp_path / "sizes.txt", cut, byte):
            self.run(["ami", "--input", form], capsys)
        for length in (n - 1, n, n + 1):
            start = tmp_path / f"xi{length}.txt"
            start.write_text(" ".join(["0.5"] * length) + "\n", encoding="ascii")
            code = self.run(["ami", "--input", good, "--basin", start, "--sweeps", "5"], capsys)
            assert code == (0 if length == n else 1)

    def test_bench_output(self, tmp_path, capsys):
        argv = ["bench", "--sizes", "2", "--runs", "1", "--methods", "als"]
        out = tmp_path / "b.csv"
        assert self.run([*argv, "--out", out], capsys) == 0
        assert out.read_text(encoding="ascii").startswith(CSV_HEADER)
        for extra in (["--runs", "0"], ["--datasets", "bogus"], ["--sizes", "0"]):
            out = tmp_path / f"bad{extra[-1]}.csv"
            assert self.run([*argv, *extra, "--out", out], capsys, out) == 1

    @pytest.mark.parametrize("command", ["decompose", "bench"])
    def test_unwritable_output_fails_before_the_work(
        self, command, plant_files, tmp_path, capsys, monkeypatch
    ):
        from rank1tensor import bench

        def work(*args, **kwargs):
            raise AssertionError("the work ran before the output file was opened")

        monkeypatch.setattr(cli, "solve", work)
        monkeypatch.setattr(bench, "run_bench", work)
        missing = tmp_path / "missing" / "out.csv"
        argv = {
            "decompose": ["decompose", "--input", plant_files[2], "--trace", missing],
            "bench": ["bench", "--sizes", "2", "--runs", "1", "--out", missing],
        }[command]
        assert self.run(argv, capsys) == 1


def imported_modules(args):
    """The modules ``python -m rank1tensor ARGS`` imports, from ``-X importtime``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rank1tensor", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


class TestImports:
    LAZY = {"rank1tensor.ami", "rank1tensor.bench", "rank1tensor.diagnostics"}

    def test_decompose_skips_analysis_modules(self, plant_files):
        _, _, tensor_path, _ = plant_files
        modules = imported_modules(["decompose", "--input", tensor_path])
        assert {"rank1tensor.cli", "rank1tensor.io", "rank1tensor.solvers"} <= modules
        assert not modules & self.LAZY

    def test_verify_imports_diagnostics_only(self, plant_files):
        _, _, tensor_path, tuple_path = plant_files
        modules = imported_modules(["verify", "--input", tensor_path, "--tuple", tuple_path])
        assert modules & self.LAZY == {"rank1tensor.diagnostics"}
