"""Front-end behavior: validation, exit codes, artifacts, determinism."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearspec import cli, eigcore
from shearspec.cli import ConfigError, load_config, load_mask, main
from shearspec.waveguide import CSV_COLUMNS, compute_spectrum

PI2 = math.pi ** 2
DEMO_CONFIGS = Path(__file__).parents[1] / "demos" / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "beta": 1.0,
        "rect": [0, 1, 0, 1],
        "disc": {"nx": 24, "n1": 8, "n2": 8, "L": 4.0, "mode": "reduced",
                 "refine": 2, "l_steps": 2},
        "eig": {"k": 4, "tol": 1e-9, "seed": 0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def assert_manifest(out_dir, command, outputs):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == sorted(outputs)
    assert re.fullmatch("[0-9a-f]{64}", manifest["config_sha256"])


MASK_TEXT = "cell 0.08333333333333333\n" + "\n".join(
    ["1" * 6 + "0" * 6] * 6 + ["1" * 12] * 6) + "\n"


class TestThresholds:
    def test_unit_square(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--beta", "1",
                           "--rect", "0,1,0,1")
        assert code == 0
        d = json.loads(out)
        assert d["E1"] == pytest.approx(3 * PI2, rel=1e-10)
        assert d["ess_threshold"] == d["E1"]
        assert d["beta_star"] == pytest.approx(math.sqrt(3.0), rel=1e-10)
        assert d["bound_factor"] == 1.0

    def test_wide_strip_bound(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--beta", "1",
                           "--rect", "0,1,0,4.442883")
        assert code == 0
        d = json.loads(out)
        assert d["beta_star"] == pytest.approx(1.1321, abs=2e-4)
        assert d["branch"] == "wide"

    def test_negative_beta_exits_2(self, capsys):
        code, _, err = run(capsys, "thresholds", "--beta", "-1",
                           "--rect", "0,1,0,1")
        assert code == 2
        assert "shear slope" in err

    def test_section_flags_exclusive(self, capsys, tmp_path):
        code, _, _ = run(capsys, "thresholds", "--beta", "1")
        assert code == 2
        mask = tmp_path / "m.txt"
        mask.write_text(MASK_TEXT)
        code, _, _ = run(capsys, "thresholds", "--beta", "1",
                         "--rect", "0,1,0,1", "--mask", str(mask))
        assert code == 2

    def test_mask_section(self, capsys, tmp_path):
        mask = tmp_path / "m.txt"
        mask.write_text(MASK_TEXT)
        code, out, _ = run(capsys, "thresholds", "--beta", "1",
                           "--mask", str(mask))
        assert code == 0
        d = json.loads(out)
        assert d["E1"] > 0
        assert "beta_star" not in d

    @pytest.mark.parametrize("factor", ["0", "-3"])
    def test_grid_factor_below_one_exits_2(self, capsys, tmp_path, factor):
        mask = tmp_path / "m.txt"
        mask.write_text(MASK_TEXT)
        code, _, err = run(capsys, "thresholds", "--beta", "1",
                           "--mask", str(mask), "--grid-factor", factor)
        assert code == 2
        assert "refinement factor" in err

    def test_oversized_grid_factor_exits_2_unallocated(self, capsys,
                                                      tmp_path):
        # 12 x 12 cells refined 100000-fold would be a 9.3 GiB mask
        mask = tmp_path / "m.txt"
        mask.write_text(MASK_TEXT)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "thresholds", "--beta", "1", "--mask",
                               str(mask), "--grid-factor", "100000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20
        assert len(err.splitlines()) == 1
        assert err.startswith("error: --grid-factor: refinement factor")

    def test_grid_factor_on_a_rectangle_exits_2(self, capsys):
        code, _, err = run(capsys, "thresholds", "--beta", "1",
                           "--rect", "0,1,0,1", "--grid-factor", "5")
        assert code == 2
        assert "--grid-factor" in err and "mask" in err

    def test_mask_with_fewer_vertices_than_modes_exits_2(self, capsys,
                                                         tmp_path):
        # a 2 x 2-cell mask has one interior vertex, and thresholds
        # reports two modes
        mask = tmp_path / "m.txt"
        mask.write_text("cell 0.5\n11\n11\n")
        code, _, err = run(capsys, "thresholds", "--beta", "1",
                           "--mask", str(mask))
        assert code == 2
        assert "1 interior vertices" in err and "2 modes" in err

    def test_mask_grid_factor_threshold_is_e1(self, capsys, tmp_path):
        # one section solve: the threshold field is the refined E1
        mask = tmp_path / "m.txt"
        mask.write_text(MASK_TEXT)
        code, out, _ = run(capsys, "thresholds", "--beta", "1",
                           "--mask", str(mask), "--grid-factor", "2")
        assert code == 0
        d = json.loads(out)
        assert d["ess_threshold"] == d["E1"]
        assert d["E1"] < d["E2"]

    def test_non_numeric_rect_names_the_rect(self, capsys, tmp_path):
        want = "error: rect needs four numbers a,b,c,d, got '0,1,0,x'\n"
        code, _, err = run(capsys, "thresholds", "--beta", "1",
                           "--rect", "0,1,0,x")
        assert (code, err) == (2, want)
        cfg = write_config(tmp_path, rect="0,1,0,x")
        code, _, err = run(capsys, "spectrum", str(cfg))
        assert (code, err) == (2, want)


class TestCertify:
    def test_unit_square_certificate(self, capsys):
        code, out, _ = run(capsys, "certify", "--beta", "1",
                           "--rect", "0,1,0,1")
        assert code == 0
        d = json.loads(out)
        assert d["cross_term"] == pytest.approx(-0.5, abs=1e-12)
        assert d["verdict"] is True
        assert d["total"] < 0

    def test_out_writes_the_printed_certificate(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", "--beta", "1",
                           "--rect", "0,1,0,1", "--out", str(tmp_path))
        assert code == 0
        assert json.loads((tmp_path / "certificate.json").read_text()) == \
            json.loads(out)
        assert_manifest(tmp_path, "certify", ["certificate.json"])


class TestStraightAndTinyBeta:
    def test_thresholds_straight_rect(self, capsys):
        # beta = 0 is the straight tube: E1 = 2 pi^2 on the unit square,
        # and no shear to bound
        code, out, _ = run(capsys, "thresholds", "--beta", "0",
                           "--rect", "0,1,0,1")
        assert code == 0
        d = json.loads(out)
        assert d["E1"] == pytest.approx(2.0 * PI2, rel=1e-10)
        assert d["bound_factor"] is None

    def test_thresholds_straight_mask(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--beta", "0", "--mask",
                           str(DEMO_CONFIGS / "l_mask.txt"))
        assert code == 0
        assert json.loads(out)["bound_factor"] is None

    @pytest.mark.parametrize("argv", [
        ("certify", "--beta", "0", "--rect", "0,1,0,1"),
        ("oracle-compare", "--beta", "0", "--rect", "0,1,0,1"),
        ("certify", "--beta", "1e-160", "--rect", "0,1,0,1"),
        ("certify", "--beta", "1e-300", "--rect", "0,1,0,1"),
    ], ids=["certify_0", "oracle_compare_0", "certify_1e-160",
            "certify_1e-300"])
    def test_bad_beta_exits_2(self, capsys, argv):
        # no trial state certifies the straight tube, and below about
        # 1e-154 the ramp length n overflows
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_certify_tiny_beta_inconclusive(self, capsys):
        # at beta = 1e-100 the three pieces cancel to rounding: the
        # verdict is withheld, not refused
        code, out, _ = run(capsys, "certify", "--beta", "1e-100",
                           "--rect", "0,1,0,1")
        assert code == 4
        assert json.loads(out)["verdict"] is False


@pytest.mark.parametrize("argv", [
    ("thresholds", "--beta", "1e8", "--rect", "0,1,0,1"),
    ("thresholds", "--beta", "1e200", "--rect", "0,1,0,1"),
    ("certify", "--beta", "1e8", "--rect", "0,1,0,1"),
    ("oracle-compare", "--beta", "1e9", "--rect", "0,1,0,1"),
], ids=["thresholds", "thresholds_1e200", "certify", "oracle_compare"])
def test_beta_flag_takes_the_config_rule(capsys, argv):
    # --beta is held to the rule of a config's beta: above 2^26 it exits 2
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "beta" in err


@pytest.mark.parametrize("argv", [
    ("thresholds", "--beta", "1", "--rect", "0,1e-300,0,1"),
    ("oracle-compare", "--beta", "1", "--rect", "0,1,0,1", "--L", "1e-300"),
], ids=["thresholds_rect", "oracle_compare_L"])
def test_length_flag_below_the_floor_exits_2(capsys, argv):
    # a length too small for double precision is bad input, not a solver
    # failure: exit 2, naming the value
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "1e-300" in err
    assert len(err.strip().splitlines()) == 1


class TestSpectrum:
    def test_run_writes_artifacts(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "spectrum", str(cfg),
                           "--out", str(out_dir))
        assert code == 0
        assert "count 1" in out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["count"] == 1
        assert report["stable"] is True
        csv_text = (out_dir / "eigenvalues.csv").read_text()
        assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "spectrum"
        assert sorted(manifest["outputs"]) == ["eigenvalues.csv",
                                               "report.json"]
        assert len(manifest["config_sha256"]) == 64

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "spectrum", str(cfg), "--out", str(a))[0] == 0
        assert run(capsys, "spectrum", str(cfg), "--out", str(b))[0] == 0
        assert (a / "eigenvalues.csv").read_bytes() == \
               (b / "eigenvalues.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == \
               (b / "manifest.json").read_bytes()

    def test_coarse_grid_exits_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, disc={"nx": 4, "n1": 4, "n2": 4,
                                           "L": 2.0})
        code, _, err = run(capsys, "spectrum", str(cfg))
        assert code == 2
        assert "nx" in err

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, betaa=2.0)
        code, _, err = run(capsys, "spectrum", str(cfg))
        assert code == 2
        assert "betaa" in err

    @pytest.mark.parametrize("overrides", [
        {"beta": [1.0]},
        {"disc": None},
        {"eig": {"k": "4"}},
        {"eig": {"block": 8}},
        {"rect": None, "mask": "missing.txt"},
        {"beta": 1e200},
        {"beta": 1e150},
        {"rect": None, "mask": "m4.txt", "beta": 1e154,
         "disc": {"nx": 8, "n1": 8, "n2": 8, "L": 4.0, "mode": "half"}},
        {"disc": {"nx": 8, "n1": 8, "n2": 8, "L": 4.0, "mode": "half"},
         "eig": {"tol": 1e-300, "maxit": -1}},
        {"eig": {"tol": math.nan}},
        {"eig": {"tol": math.inf}},
        {"eig": {"tol": 10}},
    ], ids=["beta_list", "disc_null", "k_string", "eig_block", "missing_mask",
            "beta_overflow", "beta_1e150_reduced", "beta_1e154_mask",
            "negative_maxit", "nan_tol", "inf_tol", "tol_10"])
    def test_malformed_config_exits_2(self, capsys, tmp_path, overrides):
        cfg = write_config(tmp_path, **overrides)
        if "mask" in overrides:
            (tmp_path / "m4.txt").write_text("cell 0.25\n" + "1111\n" * 4)
            data = json.loads(cfg.read_text())
            del data["rect"]
            cfg.write_text(json.dumps(data))
        code, _, err = run(capsys, "spectrum", str(cfg))
        assert code == 2
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        if "beta" in overrides:
            assert "beta" in err

    @pytest.mark.parametrize("overrides", [
        {"disc": {"nx": 24, "n1": 8, "n2": 8, "L": 1e-300, "mode": "reduced",
                  "refine": 2, "l_steps": 2}},
        {"rect": [0, 1e-300, 0, 1]},
        {"mask": "tiny.txt"},
    ], ids=["L", "rect", "mask_cell"])
    def test_length_below_the_floor_exits_2(self, capsys, tmp_path,
                                            overrides):
        cfg = write_config(tmp_path, **overrides)
        if "mask" in overrides:
            (tmp_path / "tiny.txt").write_text("cell 1e-300\n" + "11\n" * 2)
            data = json.loads(cfg.read_text())
            del data["rect"]
            cfg.write_text(json.dumps(data))
        code, _, err = run(capsys, "spectrum", str(cfg))
        assert code == 2
        assert err.startswith("error: ") and "1e-300" in err
        assert len(err.strip().splitlines()) == 1

    def test_largest_resolved_beta_loads(self, tmp_path):
        # 1 + beta^2 is exact up to beta = 2^26; one step above it is not
        load_config(str(write_config(tmp_path, beta=2.0 ** 26)))
        with pytest.raises(ConfigError, match="beta"):
            load_config(str(write_config(tmp_path, beta=2.0 ** 26 * 1.01)))

    def test_report_traces_shifts_not_csv(self, capsys, monkeypatch,
                                          tmp_path):
        # r0s1 (order 48 * 7 = 336) on the dense side, which records no shift
        monkeypatch.setattr(eigcore, "DENSE_N", 48 * 7)
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "spectrum", str(cfg), "--out", str(a))[0] == 0
        assert run(capsys, "spectrum", str(cfg), "--out", str(b))[0] == 0
        rungs = json.loads((a / "report.json").read_text())["rungs"]
        assert [r["solver"] for r in rungs] == ["dense", "shift_invert",
                                                "shift_invert"]
        assert rungs[0]["shift"] is None and rungs[1]["shift"] > 0
        assert [r["inertia"] for r in rungs] == [None, None, [1, 1]]
        text = (a / "eigenvalues.csv").read_text()
        assert text.splitlines()[0] == ("beta,mode,rung,L,nx,n1,n2,j,lambda,"
                                        "residual,below_threshold,flags")
        assert (a / "eigenvalues.csv").read_bytes() == \
               (b / "eigenvalues.csv").read_bytes()

    def test_empty_failure_message_names_the_exception(self, capsys,
                                                         monkeypatch):
        def exhausted(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_thresholds", exhausted)
        code, _, err = run(capsys, "thresholds", "--beta", "1",
                           "--rect", "0,1,0,1")
        assert code == 3
        assert err.strip() == "solver failure: MemoryError"

    def test_straight_run_has_no_bound_rows(self, capsys, tmp_path):
        # beta = 0 is the straight tube, which binds nothing
        cfg = write_config(tmp_path, beta=0)
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "spectrum", str(cfg), "--out", str(out_dir))
        assert code == 0
        assert out.startswith("count 0 ")
        assert json.loads((out_dir / "report.json").read_text())["count"] == 0
        import csv as csvmod
        rows = list(csvmod.DictReader(
            (out_dir / "eigenvalues.csv").read_text().splitlines()))
        assert rows
        assert all(r["below_threshold"] == "0" for r in rows)

    def test_straight_key_exits_2(self, capsys, tmp_path):
        # beta alone says whether the guide is straight
        cfg = write_config(tmp_path, beta=0, straight=True)
        code, _, err = run(capsys, "spectrum", str(cfg))
        assert code == 2
        assert err.startswith("error: ") and "straight" in err
        assert len(err.strip().splitlines()) == 1

    def test_config_without_eig_solves_as_the_library(self, capsys,
                                                      monkeypatch, tmp_path):
        # a config with no eig block runs the same solver options as
        # compute_spectrum(spec, disc): the L-mask's block-CG rungs give
        # the same values to the last bit
        cfg = tmp_path / "lmask.json"
        cfg.write_text(json.dumps({
            "beta": 1.0, "mask": str(DEMO_CONFIGS / "l_mask.txt"),
            "disc": {"nx": 10, "n1": 12, "n2": 12, "L": 4.0, "mode": "half",
                     "refine": 2, "l_steps": 2}}))
        reports = []

        def recorded(*args):
            reports.append(compute_spectrum(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "compute_spectrum", recorded)
        run(capsys, "spectrum", str(cfg))
        _, spec, disc, _ = load_config(str(cfg))
        want = compute_spectrum(spec, disc)
        got, = reports
        assert "block_cg" in [rr.solver for rr in got.rungs]
        assert got.threshold == want.threshold
        assert got.eigenvalues.tolist() == want.eigenvalues.tolist()
        assert got.safety.tolist() == want.safety.tolist()
        assert (got.count, got.flags) == (want.count, want.flags)

    def test_nonconvergence_exits_3(self, capsys, tmp_path):
        # sections of 11 x 11 and up are too wide to factor: block CG
        cfg = write_config(tmp_path,
                           disc={"nx": 8, "n1": 12, "n2": 12, "L": 4.0,
                                 "mode": "half", "refine": 2,
                                 "l_steps": 2},
                           eig={"k": 4, "tol": 1e-14, "maxit": 2})
        code, out, _ = run(capsys, "spectrum", str(cfg))
        assert code == 3
        assert "nonconverged" in out

    def test_inconclusive_exits_4(self, capsys, tmp_path):
        mask = tmp_path / "m.txt"
        mask.write_text(MASK_TEXT)
        cfg = tmp_path / "mask.json"
        cfg.write_text(json.dumps({
            "beta": 1.0, "mask": "m.txt",
            "disc": {"nx": 10, "n1": 8, "n2": 8, "L": 4.0, "mode": "half",
                     "refine": 2, "l_steps": 2},
        }))
        code, out, _ = run(capsys, "spectrum", str(cfg))
        assert code == 4
        assert "inconclusive" in out

    def test_report_counts_block_applies_not_csv(self, capsys, tmp_path):
        # the finest rungs of a 24 x 24-cell section are too wide to
        # factor and run block CG: A applies are the start block, one per
        # iteration and the confirmations; r0s1 is factored and has none
        (tmp_path / "m.txt").write_text(MASK_TEXT)
        cfg = tmp_path / "mask.json"
        cfg.write_text(json.dumps({
            "beta": 1.0, "mask": "m.txt",
            "disc": {"nx": 10, "n1": 8, "n2": 8, "L": 4.0, "mode": "half",
                     "refine": 2, "l_steps": 2},
        }))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "spectrum", str(cfg), "--out", str(a))[0] == 4
        assert run(capsys, "spectrum", str(cfg), "--out", str(b))[0] == 4
        rungs = json.loads((a / "report.json").read_text())["rungs"]
        assert [r["solver"] for r in rungs] == ["shift_invert", "block_cg",
                                                "block_cg"]
        assert rungs[0]["matmats"] == 0 and rungs[0]["iterations"] > 0
        for r in rungs[1:]:
            assert r["matmats"] >= r["iterations"] + 2 > 2
        text = (a / "eigenvalues.csv").read_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert "matmats" not in text
        assert (a / "eigenvalues.csv").read_bytes() == \
               (b / "eigenvalues.csv").read_bytes()

    def test_rung_below_k_solve_is_named(self, capsys, tmp_path):
        # the top rung is counted first; the coarse r0s1 (order 112)
        # cannot hold the 200 pairs every rung resolves
        cfg = write_config(tmp_path, disc={
            "nx": 8, "n1": 8, "n2": 8, "L": 3.0, "mode": "reduced",
            "refine": 2, "l_steps": 2}, eig={"k": 200})
        code, _, err = run(capsys, "spectrum", str(cfg))
        assert code == 2
        assert err.startswith("error: rung r0s1 has order 112, ")
        assert "k_solve = 200" in err and "eig k = 200" in err


class TestSweep:
    def test_rows_and_exit(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "betas": [2.0, 0.5], "rect": [0, 1, 0, 1],
            "disc": {"nx": 24, "n1": 8, "n2": 8, "L": 4.0,
                     "mode": "reduced", "refine": 3, "l_steps": 2},
        }))
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "sweep", str(cfg), "--out", str(out_dir))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("beta 0.5")
        assert lines[1].startswith("beta 2")
        text = (out_dir / "sweep.csv").read_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        reports = json.loads((out_dir / "reports.json").read_text())
        assert [r["beta"] for r in reports] == [0.5, 2.0]
        assert all(r["count"] >= 1 for r in reports)

    def test_needs_betas(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        code, _, err = run(capsys, "sweep", str(cfg))
        assert code == 2
        assert "betas" in err

    @pytest.mark.parametrize("betas", [[1.0, 1.0], [0.5, 1, 1.0]])
    def test_repeated_beta_exits_2_before_the_solve(self, capsys,
                                                    monkeypatch, tmp_path,
                                                    betas):
        # the same ladder solved twice adds nothing: the config is refused
        def unreachable(*args, **kw):
            raise AssertionError("solved a sweep with a repeated beta")

        monkeypatch.setattr(cli, "sweep_beta", unreachable)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "betas": betas, "rect": [0, 1, 0, 1],
            "disc": {"nx": 8, "n1": 8, "n2": 8, "L": 4.0, "mode": "reduced"},
        }))
        code, out, err = run(capsys, "sweep", str(cfg))
        assert code == 2
        assert out == ""
        assert err == "error: beta 1 is given more than once\n"


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_beta_and_betas_together_exit_2(capsys, tmp_path, command):
    # neither key may be dropped in silence: the config is refused
    cfg = write_config(tmp_path, betas=[0.5, 2.0],
                       disc={"nx": 8, "n1": 8, "n2": 8, "L": 4.0,
                             "mode": "reduced", "refine": 2, "l_steps": 2})
    code, _, err = run(capsys, command, str(cfg))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "'beta'" in err and "'betas'" in err


class TestConvergence:
    def test_table(self, capsys, tmp_path):
        cfg = write_config(tmp_path, disc={"nx": 24, "n1": 8, "n2": 12,
                                           "L": 4.0, "mode": "reduced",
                                           "refine": 3, "l_steps": 2})
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "convergence", str(cfg),
                         "--out", str(out_dir))
        assert code == 0
        import csv as csvmod
        rows = list(csvmod.DictReader(
            (out_dir / "convergence.csv").read_text().splitlines()))
        ground = [r for r in rows if r["j"] == "0"]
        assert len(ground) == 3
        # second-order refinement: the diff ratio sits near 4
        assert 2.0 < float(ground[-1]["ratio"]) < 6.0
        assert ground[-1]["extrapolated"] != ""
        vals = [float(r["lambda"]) for r in ground]
        assert vals[0] > vals[1] > vals[2]

    def test_est_belongs_to_its_solved_value(self, capsys, tmp_path):
        # a wide section lists planar value 0 in channels 1 to 4, so the
        # listed estimates are all value 0's; each row's est must be the
        # scatter of its own value's last two extrapolants
        cfg = write_config(tmp_path, beta=3.0, rect=[0, 3, 0, 1],
                           disc={"nx": 24, "n1": 8, "n2": 8, "L": 3.0,
                                 "mode": "reduced", "refine": 3,
                                 "l_steps": 2})
        out_dir = tmp_path / "out"
        run(capsys, "convergence", str(cfg), "--out", str(out_dir))
        rep = json.loads(json.dumps(compute_spectrum(
            *load_config(str(cfg))[1:]).as_dict()))
        assert rep["channels"] == [[0, 1], [0, 2], [0, 3], [0, 4]]
        import csv as csvmod
        rows = list(csvmod.DictReader(
            (out_dir / "convergence.csv").read_text().splitlines()))
        assert len(rows) == 12
        for j in range(4):
            lam = [float(r["lambda"]) for r in rows if r["j"] == str(j)]
            ext, prev = (4 * lam[2] - lam[1]) / 3, (4 * lam[1] - lam[0]) / 3
            top = [r for r in rows if r["j"] == str(j) and r["est"]]
            assert float(top[0]["est"]) == pytest.approx(abs(ext - prev),
                                                         rel=1e-6)


class TestOracleCompare:
    def test_identity_holds(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "--beta", "1",
                           "--rect", "0,1,0,1")
        assert code == 0
        d = json.loads(out)
        assert d["max_rel"] <= 1e-10
        assert d["pairs"][0] == [0, 1]

    def test_out_writes_the_printed_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "oracle-compare", "--beta", "1",
                           "--rect", "0,1,0,1", "--out", str(tmp_path))
        assert code == 0
        assert json.loads((tmp_path / "separation.json").read_text()) == \
            json.loads(out)
        assert_manifest(tmp_path, "oracle-compare", ["separation.json"])

    @pytest.mark.parametrize("grid", ["10,8", "10,8,x", "10,8,8,8"])
    def test_malformed_grid_exits_2(self, capsys, grid):
        code, _, err = run(capsys, "oracle-compare", "--beta", "1",
                           "--rect", "0,1,0,1", "--grid", grid)
        assert code == 2
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "--grid" in err and "nx,n1,n2" in err


class TestUnusableOut:
    # an --out that cannot be a directory is a bad argument: exit 2
    # before anything is solved, which each case proves by making the
    # solve raise
    @pytest.mark.parametrize("command, solve", [
        ("certify", "existence_certificate"),
        ("oracle-compare", "separation_check"),
        ("spectrum", "compute_spectrum"),
        ("sweep", "sweep_beta"),
        ("convergence", "compute_spectrum"),
    ])
    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
    def test_exits_2_before_the_solve(self, capsys, monkeypatch, tmp_path,
                                      command, solve, sub):
        def unreachable(*args, **kw):
            raise AssertionError("solved despite an unusable --out")

        monkeypatch.setattr(cli, solve, unreachable)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / sub if sub else blocker
        if command in ("certify", "oracle-compare"):
            argv = (command, "--beta", "1", "--rect", "0,1,0,1")
        else:
            cfg = write_config(tmp_path)
            if command == "sweep":
                data = json.loads(cfg.read_text())
                data["betas"] = [data.pop("beta")]
                cfg.write_text(json.dumps(data))
            argv = (command, str(cfg))
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: cannot write {out}: ")

    def test_unwritable_file_exits_2(self, capsys, tmp_path):
        (tmp_path / "certificate.json").mkdir()
        code, _, err = run(capsys, "certify", "--beta", "1",
                           "--rect", "0,1,0,1", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith(
            f"error: cannot write {tmp_path / 'certificate.json'}: ")
        assert not (tmp_path / "manifest.json").exists()


class TestConfigOut:
    # a config's out key is read from the config's own directory, as its
    # mask is, so the same config writes to the same place from anywhere;
    # --out is taken as given, from the working directory
    @pytest.fixture
    def dirs(self, monkeypatch, tmp_path):
        cfgdir, work = tmp_path / "cfgdir", tmp_path / "work"
        cfgdir.mkdir()
        work.mkdir()
        monkeypatch.chdir(work)
        return cfgdir, work

    @pytest.mark.parametrize("command", ["spectrum", "sweep", "convergence"])
    def test_out_key_is_read_from_the_config_directory(self, capsys, dirs,
                                                       command):
        cfgdir, work = dirs
        cfg = write_config(cfgdir, out="res")
        if command == "sweep":
            data = json.loads(cfg.read_text())
            data["betas"] = [data.pop("beta")]
            cfg.write_text(json.dumps(data))
        code, _, _ = run(capsys, command, "../cfgdir/run.json")
        assert code == 0
        assert (cfgdir / "res" / "manifest.json").exists()
        assert not (work / "res").exists()

    def test_out_flag_is_taken_as_given(self, capsys, dirs):
        cfgdir, work = dirs
        write_config(cfgdir, out="res")
        code, _, _ = run(capsys, "spectrum", "../cfgdir/run.json",
                         "--out", "given")
        assert code == 0
        assert (work / "given" / "report.json").exists()
        assert not (cfgdir / "res").exists()
        assert not (cfgdir / "given").exists()


class TestMaskFiles:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("cell 0.5\n// comment\n110\n111\n")
        m = load_mask(str(p))
        assert m.cell == 0.5
        assert m.inside.tolist() == [[True, True, False],
                                     [True, True, True]]

    def test_hash_alias(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("cell 1.0\n##.\n###\n")
        m = load_mask(str(p))
        assert m.inside.sum() == 5

    def test_bad_character(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("cell 1.0\n1x1\n")
        with pytest.raises(ConfigError, match="mask character"):
            load_mask(str(p))

    def test_bad_cell_size_names_file_and_line(self, capsys, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("// L mask\ncell abc\n11\n11\n")
        code, _, err = run(capsys, "thresholds", "--beta", "1",
                           "--mask", str(p))
        assert code == 2
        assert f"{p} line 2" in err and "'cell abc'" in err

    def test_missing_cell_line(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("111\n111\n")
        with pytest.raises(ConfigError, match="cell"):
            load_mask(str(p))

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("cell 1.0\n11\n111\n")
        with pytest.raises(ConfigError, match="equal-length"):
            load_mask(str(p))

    def test_cell_line_without_rows(self, capsys, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("// no cells\ncell 0.25\n")
        code, _, err = run(capsys, "thresholds", "--beta", "1",
                           "--mask", str(p))
        assert code == 2
        assert err == f"error: mask file {p} has no cell rows\n"


class TestParser:
    def test_bad_flags_exit_2(self, capsys):
        assert run(capsys, "thresholds")[0] == 2
        assert run(capsys, "no-such-command")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0


# configs made by editing a valid one: each edit sets a known or an
# unknown key, at the top or in "disc" or "eig", to a random JSON value
# (integers beyond the float range and non-finite floats included), or
# deletes it; mask paths stay inside the config's directory
BASE = {"beta": 1.0, "rect": [0, 1, 0, 1],
        "disc": {"nx": 8, "n1": 8, "n2": 8, "L": 4.0, "mode": "half",
                 "refine": 2, "l_steps": 2},
        "eig": {"k": 4, "tol": 1e-9, "maxit": 50, "seed": 0}}
KEYS = ([(k,) for k in cli.TOP_KEYS] + [("disc", k) for k in BASE["disc"]]
        + [("eig", k) for k in BASE["eig"]] + [("x",), ("disc", "x"),
                                                ("eig", "x")])
NUMBER = st.integers() | st.floats() | st.sampled_from([2**1024, -2**1024])
JSON = st.recursive(
    st.none() | st.booleans() | NUMBER | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=5)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)
DELETE = object()
VALUES = (st.just(DELETE) | st.lists(NUMBER, min_size=4, max_size=4)
          | st.sampled_from(["half", "full", "reduced", "m.txt", "0,1,0,1"])
          | st.text(st.characters(blacklist_characters="/"), max_size=6)
          | JSON)


@st.composite
def configs(draw):
    cfg = json.loads(json.dumps(BASE))
    for path, value in draw(st.lists(st.tuples(st.sampled_from(KEYS),
                                               VALUES), min_size=1,
                                     max_size=4)):
        parent = cfg if len(path) == 1 else cfg.get(path[0])
        if not isinstance(parent, dict):
            continue
        if value is DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return cfg


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(cfg=configs())
    def test_bad_configs_exit_2_with_one_line(self, cfg):
        # no solve runs: only configs that load_config rejects reach main
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as f:
                json.dump(cfg, f)
            with open(os.path.join(tmp, "m.txt"), "w") as f:
                f.write("cell 0.25\n" + "1111\n" * 4)
            try:
                load_config(path, sweep=True)
            except ValueError:   # ConfigError is a ValueError
                pass
            try:
                load_config(path)
            except ValueError:
                pass
            else:
                return
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["spectrum", path])
        assert code == 2
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
