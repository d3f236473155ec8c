"""Ladder orchestration: rung bookkeeping, counts, and the cross-checks.

The broken-strip rung values are frozen from an independent assembly of
the same discrete form (plain scipy.sparse Kronecker products solved by
shift-invert Lanczos), so they test the whole pipeline, not just the
solver against itself.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearspec import assembly, cli, eigcore, waveguide
from shearspec.cli import load_config
from shearspec.cross_section import ess_threshold, l_shaped_mask, refine_mask
from shearspec.eigcore import EigOptions, lowest_eigenpairs, smallest_eigenpairs
from shearspec.geometry import Rect, WaveguideSpec
from shearspec.waveguide import (
    CSV_COLUMNS,
    DiscretizationSpec,
    benchmark_disc,
    compute_spectrum,
    separation_check,
    sweep_beta,
    symmetry_check,
)

PI2 = math.pi ** 2
SQUARE = Rect(0.0, 1.0, 0.0, 1.0)
STRIP = Rect(0.0, 1.0, 0.0, math.pi * math.sqrt(2.0))

# planar rung values for the strip at beta = 1, ladder base
# (nx=11, n2=8, L=6, refine=2, l_steps=2); independent sparse solver
STRIP_RUNGS = {
    (0, 1): (0.963115977978, 1.079398661720),
    (1, 0): (0.947145523018, 1.326532940057),
    (1, 1): (0.940455449813, 1.063755565705),
}
STRIP_DISC = DiscretizationSpec(nx=11, n1=8, n2=8, L=6.0, mode="reduced2d",
                                refine=2, l_steps=2)


def small_reduced(nx=24, n2=8, L=4.0, refine=2):
    return DiscretizationSpec(nx=nx, n1=8, n2=n2, L=L, mode="reduced2d",
                              refine=refine, l_steps=2)


class TestDiscretizationSpec:
    def test_size_validation(self):
        with pytest.raises(ValueError, match="nx"):
            DiscretizationSpec(nx=4, n1=8, n2=8, L=2.0)
        with pytest.raises(ValueError, match="n2"):
            DiscretizationSpec(nx=8, n1=8, n2=7, L=2.0)
        with pytest.raises(ValueError, match="integer"):
            DiscretizationSpec(nx=8.0, n1=8, n2=8, L=2.0)

    def test_mode_and_ladder_validation(self):
        with pytest.raises(ValueError, match="mode"):
            DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0, mode="fancy")
        with pytest.raises(ValueError, match="ladder"):
            DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0, refine=0)
        with pytest.raises(ValueError, match="ladder"):
            DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0, l_steps=0)
        with pytest.raises(ValueError, match="box length"):
            DiscretizationSpec(nx=8, n1=8, n2=8, L=-1.0)

    def test_rung_scaling(self):
        d = DiscretizationSpec(nx=8, n1=10, n2=12, L=2.0, refine=3, l_steps=2)
        g = d.rung(2, 1)
        assert (g.nx, g.n1, g.n2, g.L) == (64, 40, 48, 4.0)
        g0 = d.rung(0, 0)
        assert (g0.nx, g0.n1, g0.n2, g0.L) == (8, 10, 12, 2.0)
        with pytest.raises(ValueError, match="outside"):
            d.rung(3, 0)

    def test_ladder_pairs(self):
        d = DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0, refine=3, l_steps=2)
        assert d.ladder() == [(0, 1), (1, 1), (2, 0), (2, 1)]
        d1 = DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0, refine=2, l_steps=1)
        assert d1.ladder() == [(0, 0), (1, 0)]

    def test_single_rung_rejected_by_spectrum(self):
        d = DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0, refine=1)
        with pytest.raises(ValueError, match="two mesh rungs"):
            compute_spectrum(WaveguideSpec(1.0, SQUARE), d)


@pytest.fixture(scope="module")
def strip_report():
    return compute_spectrum(WaveguideSpec(1.0, STRIP), STRIP_DISC)


@pytest.fixture(scope="module")
def square_report():
    return compute_spectrum(WaveguideSpec(1.0, SQUARE),
                            small_reduced(refine=3))


@pytest.fixture(scope="module")
def square_symmetry():
    disc = DiscretizationSpec(nx=12, n1=10, n2=10, L=4.0,
                              refine=2, l_steps=2)
    return symmetry_check(WaveguideSpec(1.0, SQUARE), disc)


@pytest.fixture(scope="module")
def square_sweep():
    return sweep_beta(SQUARE, [2.0, 0.5], small_reduced(refine=3))


class TestStripOracle:

    def test_rung_values_match_independent_solver(self, strip_report):
        for rr in strip_report.rungs:
            lam1, lam2 = STRIP_RUNGS[(rr.grid.r, rr.grid.s)]
            assert rr.solved[0] == pytest.approx(lam1, abs=1e-9)
            assert rr.solved[1] == pytest.approx(lam2, abs=1e-9)

    def test_extrapolation_formula(self, strip_report):
        lam1_c = STRIP_RUNGS[(0, 1)][0]
        lam1_f = STRIP_RUNGS[(1, 1)][0]
        assert strip_report.solved[0] == pytest.approx((4 * lam1_f - lam1_c) / 3,
                                                 abs=1e-9)
        assert strip_report.order == 2

    def test_count_and_channels(self, strip_report):
        assert strip_report.count == 1
        assert strip_report.stable
        assert strip_report.counts_by_rung == {(0, 1): 1, (1, 0): 1, (1, 1): 1}
        assert strip_report.channels[0] == (0, 1)
        # full-guide value is the planar one plus the first channel
        assert strip_report.eigenvalues[0] == pytest.approx(
            strip_report.solved[0] + PI2, rel=1e-14)
        assert strip_report.threshold == pytest.approx(1.0 + PI2, rel=1e-14)

    def test_monotone_along_both_axes(self, strip_report):
        vals = {(rr.grid.r, rr.grid.s): rr.solved[0] for rr in strip_report.rungs}
        assert vals[(1, 1)] < vals[(0, 1)]   # mesh refinement
        assert vals[(1, 1)] < vals[(1, 0)]   # box doubling
        assert not any(f.startswith("monotone") for f in strip_report.flags)


class TestUnitSquareLadder:
    def test_one_bound_state(self, square_report):
        assert square_report.count == 1
        assert square_report.stable
        assert square_report.flags == []
        assert square_report.boundary == []
        assert set(square_report.counts_by_rung.values()) == {1}

    def test_threshold_exact(self, square_report):
        assert square_report.threshold == pytest.approx(3 * PI2, rel=1e-14)

    def test_planar_ratio_near_benchmark(self, square_report):
        # the strip ratio 0.93 transfers to any width by scaling
        assert 0.925 < square_report.solved[0] / (2 * PI2) < 0.936

    def test_values_sorted_with_positive_gap(self, square_report):
        assert np.all(np.diff(square_report.eigenvalues) >= -1e-12)
        assert square_report.gap > 1.0
        assert square_report.gap > 10 * square_report.est[0]

    def test_extrapolated_below_finest_raw(self, square_report):
        finest = square_report.rungs[-1]
        assert square_report.solved[0] <= finest.solved[0] + 1e-12


class TestModesAgree:
    def test_half_and_full_ladders_match(self):
        half = DiscretizationSpec(nx=8, n1=8, n2=8, L=3.0, mode="half_DN",
                                  refine=2, l_steps=2)
        full = DiscretizationSpec(nx=8, n1=8, n2=8, L=3.0, mode="full_sign",
                                  refine=2, l_steps=2)
        spec = WaveguideSpec(1.0, SQUARE)
        rh = compute_spectrum(spec, half)
        rf = compute_spectrum(spec, full)
        assert rh.count == rf.count == 1
        assert rf.eigenvalues[0] == pytest.approx(rh.eigenvalues[0],
                                                  rel=1e-10)

    def test_reduced_matches_3d(self):
        spec = WaveguideSpec(1.0, SQUARE)
        r3 = compute_spectrum(spec, DiscretizationSpec(
            nx=8, n1=8, n2=8, L=3.0, mode="half_DN", refine=2, l_steps=2))
        r2 = compute_spectrum(spec, DiscretizationSpec(
            nx=8, n1=8, n2=8, L=3.0, mode="reduced2d", refine=2, l_steps=2))
        # same (x, y2) grid; the 3-D run has FEM y1 error on top of the
        # exact channel offset, so only rough agreement is expected
        assert r3.eigenvalues[0] == pytest.approx(r2.eigenvalues[0], rel=2e-3)
        assert r3.count == r2.count == 1


class TestLengthScaling:
    def test_ladder_is_invariant_under_length_scaling(self):
        # scaling every length by s scales every eigenvalue by s^-2 and
        # nothing else: the count, lambda_1 s^2 and the iterations of
        # every rung, the factored r0s1 and the block-CG r1 rungs, and
        # the block-CG rungs' residual / lambda must not move with s
        got = {}
        for s in (1e-6, 1.0, 1e4):
            disc = DiscretizationSpec(nx=24, n1=8, n2=8, L=s, mode="half_DN",
                                      refine=2, l_steps=2)
            rep = compute_spectrum(WaveguideSpec(1.0, Rect(0.0, s, 0.0, s)),
                                   disc)
            assert rep.count == 1
            assert not any(f.startswith(("monotone", "nonconverged"))
                           or f == "inconclusive" for f in rep.flags)
            assert [(rr.grid.r, rr.grid.s, rr.solver) for rr in rep.rungs] \
                == [(0, 1, "shift_invert"), (1, 0, "block_cg"),
                    (1, 1, "block_cg")]
            # residual / lambda of each block-CG rung's lowest value
            got[s] = (rep.eigenvalues[0] * s * s,
                      [rr.iterations for rr in rep.rungs],
                      [rr.residuals[0] / rr.eigenvalues[0]
                       for rr in rep.rungs[1:]])
        lam, iters, rel = got[1.0]
        for s in (1e-6, 1e4):
            assert got[s][0] == pytest.approx(lam, rel=1e-8)
            assert got[s][1] == iters
            assert got[s][2] == pytest.approx(rel, rel=1e-6)
        assert lam == pytest.approx(28.2600696101, rel=1e-8)


class TestStraightReference:
    def test_count_zero(self):
        spec = WaveguideSpec(0.0, SQUARE)
        rep = compute_spectrum(spec, small_reduced())
        assert rep.count == 0
        assert rep.stable
        assert rep.flags == []
        # nothing below the band edge: the lowest value is a box mode
        assert rep.eigenvalues[0] >= rep.threshold - 1e-9

    def test_full_sign_assembles_the_full_guide(self):
        # beta = 0 is the straight tube in every mode: a straight
        # full_sign run solves on (-L, L), not on the half guide
        spec = WaveguideSpec(0.0, SQUARE)
        disc = DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0, mode="full_sign")
        g = disc.rung(0, 0)
        form = waveguide._build(spec.beta, spec.section, disc, g)
        assert form.A.shape == (2 * g.nx - 1, (g.n1 - 1) * (g.n2 - 1))
        assert form.n == (2 * g.nx - 1) * (g.n1 - 1) * (g.n2 - 1)


class TestCountReliability:
    def test_reliable_count_raises_no_flag(self, strip_report):
        assert not any(f.startswith("unreliable_count")
                       for f in strip_report.flags)

    def test_unreliable_top_count_is_flagged_inconclusive(self, monkeypatch):
        # a top-rung count whose block never cleared the threshold must
        # not be reported as settled
        real = waveguide.count_below

        def uncleared(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs),
                                       clearance=-np.inf)

        monkeypatch.setattr(waveguide, "count_below", uncleared)
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), STRIP_DISC)
        assert "unreliable_count:r1s1" in rep.flags
        assert "inconclusive" in rep.flags

    def test_top_count_matches_its_inertia(self, strip_report):
        top = strip_report.rungs[-1]
        assert top.inertia == (1, 1)
        assert top.below == 1
        assert not any(f.startswith("count_mismatch")
                       for f in strip_report.flags)

    def test_skipped_top_value_is_a_count_mismatch(self, monkeypatch):
        # the top rung r1s1 is the second solve; dropping its lowest value
        # leaves its inertia count of one without a solved value below
        real = waveguide.lowest_eigenpairs
        calls = []

        def skip_lowest(A, M, k, *args, **kwargs):
            calls.append(k)
            if len(calls) != STRIP_DISC.refine:
                return real(A, M, k, *args, **kwargs)
            res = real(A, M, k + 1, *args, **kwargs)
            return dataclasses.replace(
                res, theta=res.theta[1:], vectors=res.vectors[:, 1:],
                converged=res.converged[1:], residuals=res.residuals[1:])

        monkeypatch.setattr(waveguide, "lowest_eigenpairs", skip_lowest)
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), STRIP_DISC)
        assert rep.rungs[-1].inertia == (1, 1)
        assert rep.rungs[-1].below == 0
        assert "count_mismatch:r1s1" in rep.flags
        assert "inconclusive" in rep.flags


class TestOneTopCount:
    """A factored top rung is counted by inertia once, at the top of its
    band, and counted again at the bottom only when its solve does not
    settle it (``CountResult.settle``)."""

    @staticmethod
    def spy_counts(monkeypatch):
        """The shift of every inertia count, in order."""
        real = eigcore._negative_count
        calls = []

        def spy(band, sigma):
            calls.append(sigma)
            return real(band, sigma)

        monkeypatch.setattr(eigcore, "_negative_count", spy)
        return calls

    def test_a_settled_top_rung_is_counted_once(self, monkeypatch):
        calls = self.spy_counts(monkeypatch)
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), STRIP_DISC)
        top = rep.rungs[-1]
        assert top.solver == "shift_invert" and top.inertia == (1, 1)
        # the planar threshold E1 - pi^2 plus the band: its one solved
        # value below the band settles the bottom
        band = waveguide.BAND_REL * top.threshold
        assert calls == [pytest.approx(top.threshold - PI2 + band)]

    def test_a_value_in_the_band_is_counted_again(self, monkeypatch):
        # a band of 1 % of E1 holds the top rung's lowest planar value,
        # 0.94 against a planar threshold of 1
        monkeypatch.setattr(waveguide, "BAND_REL", 0.01)
        calls = self.spy_counts(monkeypatch)
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), STRIP_DISC)
        below, above = rep.rungs[-1].inertia
        assert len(calls) == 2
        assert calls[1] == pytest.approx(calls[0] - 2 * 0.01
                                         * rep.rungs[-1].threshold)
        assert below == 0 < above
        assert "unreliable_count:r1s1" in rep.flags
        assert not any(f.startswith("count_mismatch") for f in rep.flags)

    def test_a_skipped_value_is_counted_again(self, monkeypatch):
        # the top rung r1s1 is the second solve; with its lowest value
        # dropped, no solved value lies below the band, and the second
        # count finds the one the solve skipped
        real = waveguide.lowest_eigenpairs
        solves = []

        def skip_lowest(A, M, k, *args, **kwargs):
            solves.append(k)
            if len(solves) != STRIP_DISC.refine:
                return real(A, M, k, *args, **kwargs)
            res = real(A, M, k + 1, *args, **kwargs)
            return dataclasses.replace(
                res, theta=res.theta[1:], vectors=res.vectors[:, 1:],
                converged=res.converged[1:], residuals=res.residuals[1:])

        monkeypatch.setattr(waveguide, "lowest_eigenpairs", skip_lowest)
        calls = self.spy_counts(monkeypatch)
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), STRIP_DISC)
        assert len(calls) == 2
        assert rep.rungs[-1].inertia == (1, 1)
        assert "count_mismatch:r1s1" in rep.flags
        assert "inconclusive" in rep.flags

    def test_one_band_pencil_per_factored_rung_and_one_for_the_count(
            self, monkeypatch):
        # the benchmark's strip ladder: four factored rungs, and the top
        # rung's count holds a pencil of its own, built once
        built = []
        real = eigcore._BandPencil.__init__

        def spy(band, *args, **kwargs):
            built.append(band)
            real(band, *args, **kwargs)

        monkeypatch.setattr(eigcore._BandPencil, "__init__", spy)
        disc = DiscretizationSpec(nx=40, n1=8, n2=8, L=21.2,
                                  mode="reduced2d", refine=3, l_steps=2)
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), disc)
        factored = [rr for rr in rep.rungs if rr.solver == "shift_invert"]
        assert len(factored) == 4
        assert len(built) == 5

    def test_a_block_cg_pencil_is_never_built(self, monkeypatch):
        # the benchmark's L-mask ladder: only r0s1 is factored, and the
        # block-CG rungs' kd is read off their factors with no pencil
        built = []
        real = eigcore._BandPencil.__init__

        def spy(band, *args, **kwargs):
            built.append(band)
            real(band, *args, **kwargs)

        monkeypatch.setattr(eigcore._BandPencil, "__init__", spy)
        mask = cli.load_mask(str(Path(__file__).parents[1] / "demos"
                                 / "configs" / "l_mask.txt"))
        disc = DiscretizationSpec(nx=10, n1=12, n2=12, L=4.0, mode="half_DN",
                                  refine=2, l_steps=2)
        rep = compute_spectrum(WaveguideSpec(1.0, mask), disc,
                               EigOptions(k=4, tol=1e-9))
        assert [rr.solver for rr in rep.rungs] == [
            "shift_invert", "block_cg", "block_cg"]
        assert len(built) == 1


class TestStrongShear:
    def test_beta4_finite_stable_count(self):
        disc = DiscretizationSpec(nx=48, n1=8, n2=8, L=2.0, mode="reduced2d",
                                  refine=3, l_steps=2)
        rep = compute_spectrum(WaveguideSpec(4.0, SQUARE), disc)
        assert rep.stable
        assert rep.count >= 1
        assert not any(f.startswith("monotone") for f in rep.flags)


@pytest.fixture(scope="module")
def lmask_report():
    disc = DiscretizationSpec(nx=10, n1=8, n2=8, L=4.0, mode="half_DN",
                              refine=2, l_steps=2)
    return compute_spectrum(WaveguideSpec(1.0, l_shaped_mask(12)), disc)


class TestMaskLadder:
    def test_l_shape_binds_one_state(self, lmask_report):
        rep = lmask_report
        assert rep.count == 1
        assert rep.stable
        assert rep.gap > 0.5
        # section pencil grounds fall with refinement (conforming)
        thrs = [rr.threshold for rr in rep.rungs]
        assert thrs[-1] <= thrs[0]
        for rr in rep.rungs:
            assert rr.eigenvalues[0] < rr.threshold

    def test_rung_threshold_is_ess_threshold(self, lmask_report):
        # one discretization of the section: the threshold a rung counts
        # against is E1 of the same mask refined to that rung
        mask = l_shaped_mask(12)
        for rr in lmask_report.rungs:
            want = ess_threshold(1.0, refine_mask(mask, 2 ** rr.grid.r))
            assert rr.threshold == pytest.approx(want, rel=1e-12)

    def test_box_steps_reuse_the_top_section(self, monkeypatch):
        # the box step at the finest mesh has the top rung's refined mask
        # and beta: three rungs, two section eigensolves
        orders = []

        def counted(A, *args, **kwargs):
            orders.append(A.shape[0])
            return lowest_eigenpairs(A, *args, **kwargs)

        monkeypatch.setattr(assembly, "lowest_eigenpairs", counted)
        disc = DiscretizationSpec(nx=10, n1=8, n2=8, L=4.0, mode="half_DN",
                                  refine=2, l_steps=2)
        rep = compute_spectrum(WaveguideSpec(1.0, l_shaped_mask(12)), disc)
        rungs = {(rr.grid.r, rr.grid.s): rr for rr in rep.rungs}
        assert sorted(rungs) == [(0, 1), (1, 0), (1, 1)]
        assert len(orders) == 2 and orders[0] > orders[1]
        assert rungs[(1, 0)].threshold == rungs[(1, 1)].threshold

    def test_reduced_rejects_masks(self):
        disc = DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0, mode="reduced2d")
        with pytest.raises(ValueError, match="rectangle"):
            compute_spectrum(WaveguideSpec(1.0, l_shaped_mask(12)), disc)


class TestOnePathPerRung:
    """Every rung is built once, the finest first for its count, and
    solved once: by the ladder's one ``lowest_eigenpairs`` call, or by
    the count itself when its block-CG solve holds enough values."""

    @staticmethod
    def spies(monkeypatch):
        built, solved, block_cg = [], [], []
        build = waveguide._build
        solve = waveguide.lowest_eigenpairs
        cg = eigcore.smallest_eigenpairs

        def spy_build(beta, section, disc, g):
            form = build(beta, section, disc, g)
            built.append(((g.r, g.s), form.n))
            return form

        def spy_solve(A, *args, **kwargs):
            solved.append(A.n)
            return solve(A, *args, **kwargs)

        def spy_cg(A, M=None, opts=None, precond=None):
            block_cg.append((A.n, opts.k))
            return cg(A, M, opts, precond)

        monkeypatch.setattr(waveguide, "_build", spy_build)
        monkeypatch.setattr(waveguide, "lowest_eigenpairs", spy_solve)
        monkeypatch.setattr(eigcore, "smallest_eigenpairs", spy_cg)
        return built, solved, block_cg

    def test_block_cg_finest_rung_is_solved_by_its_count(self, monkeypatch):
        built, solved, block_cg = self.spies(monkeypatch)
        disc = DiscretizationSpec(nx=10, n1=8, n2=8, L=4.0, mode="half_DN",
                                  refine=2, l_steps=2)
        rep = compute_spectrum(WaveguideSpec(1.0, l_shaped_mask(12)), disc)
        assert [p for p, _ in built] == [(1, 1), (0, 1), (1, 0)]
        n = dict(built)
        # the count's k = 4 solve is the finest rung's only solve
        assert block_cg == [(n[(1, 1)], 4), (n[(1, 0)], 4)]
        assert solved == [n[(0, 1)], n[(1, 0)]]
        assert rep.rungs[-1].solver == "block_cg"
        assert rep.rungs[-1].inertia is None

    def test_factored_ladder_builds_and_solves_each_rung_once(
            self, monkeypatch):
        built, solved, block_cg = self.spies(monkeypatch)
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), STRIP_DISC)
        assert [p for p, _ in built] == [(1, 1), (0, 1), (1, 0)]
        n = dict(built)
        # counted by inertia, the finest rung is solved in mesh order
        assert solved == [n[(0, 1)], n[(1, 1)], n[(1, 0)]]
        assert block_cg == []
        assert rep.rungs[-1].inertia == (1, 1)


class TestSymmetryCheck:
    def test_even_spectrum_reproduced(self, square_symmetry):
        # matched grids make the even part of the full spectrum an exact
        # copy of the half spectrum, so gaps are pure solver noise
        assert square_symmetry.gaps.max() <= 1e-9

    def test_matched_vectors_are_even(self, square_symmetry):
        assert np.all(square_symmetry.odd_fraction >= -1e-12)
        assert np.all(square_symmetry.odd_fraction <= 1.0 + 1e-12)
        for m in square_symmetry.matches:
            assert square_symmetry.odd_fraction[m] <= 1e-10
        assert square_symmetry.odd_fraction[square_symmetry.matches[0]] <= 1e-12

    def test_rejects_straight(self):
        disc = DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0)
        with pytest.raises(ValueError, match="shear slope"):
            symmetry_check(WaveguideSpec(0.0, SQUARE), disc)


class TestSeparationCheck:
    def test_unit_square(self):
        disc = DiscretizationSpec(nx=10, n1=8, n2=8, L=4.0,
                                  refine=2, l_steps=2)
        sep = separation_check(WaveguideSpec(1.0, SQUARE), disc)
        assert sep.max_rel <= 1e-12
        assert sep.pairs[0] == (0, 1)

    def test_beta_independent(self):
        disc = DiscretizationSpec(nx=10, n1=8, n2=8, L=4.0,
                                  refine=2, l_steps=2)
        sep = separation_check(WaveguideSpec(0.5, SQUARE), disc)
        assert sep.max_rel <= 1e-12

    def test_excited_channel_appears(self):
        # wide y1 pushes the second channel below the planar excitations
        wide = Rect(0.0, 2.0, 0.0, 1.0)
        disc = DiscretizationSpec(nx=10, n1=10, n2=8, L=4.0,
                                  refine=2, l_steps=2)
        sep = separation_check(WaveguideSpec(1.0, wide), disc,
                               EigOptions(k=6))
        assert sep.max_rel <= 1e-12
        assert any(k == 2 for _, k in sep.pairs)

    def test_c08_grid_factors_the_3d_pencil(self, monkeypatch):
        solves = []
        solve = waveguide.lowest_eigenpairs

        def spy(A, *args, **kwargs):
            res = solve(A, *args, **kwargs)
            solves.append((A.n, res.solver))
            return res

        monkeypatch.setattr(waveguide, "lowest_eigenpairs", spy)
        disc = DiscretizationSpec(nx=16, n1=10, n2=12, L=4.0)
        sep = separation_check(WaveguideSpec(1.0, SQUARE), disc)
        # the 3-D pencil is above DENSE_N with half-bandwidth 9 * 11 + 12
        # = 111, under the band limit 18 (4 + 3) = 126; the planar one is
        # below DENSE_N
        assert solves == [(16 * 9 * 11, "shift_invert"), (16 * 11, "dense")]
        assert sep.max_rel <= 1e-10

    def test_rejects_masks(self):
        disc = DiscretizationSpec(nx=8, n1=8, n2=8, L=2.0)
        with pytest.raises(ValueError, match="rectangle"):
            separation_check(WaveguideSpec(1.0, l_shaped_mask(12)), disc)


class TestSweep:
    def test_rows_sorted_by_beta(self, square_sweep):
        assert [r.beta for r in square_sweep] == [0.5, 2.0]

    def test_shear_above_beta_max_is_refused_before_any_solve(
            self, monkeypatch):
        runs = []
        monkeypatch.setattr(waveguide, "compute_spectrum",
                            lambda *args: runs.append(args))
        with pytest.raises(ValueError, match="2\\^26"):
            sweep_beta(SQUARE, [1.0, 1e30], small_reduced())
        assert runs == []

    def test_every_row_binds(self, square_sweep):
        for rep in square_sweep:
            assert rep.count >= 1
            assert rep.gap > 0
            assert rep.stable

    def test_csv_shape(self, square_sweep):
        text = cli._csv(CSV_COLUMNS, [row for r in square_sweep
                                      for row in r.rows()])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        k = len(square_sweep[0].eigenvalues)
        rungs = len(square_sweep[0].rungs)
        assert len(lines) - 1 == sum(
            len(r.rungs) * len(r.eigenvalues) + len(r.eigenvalues)
            for r in square_sweep)
        # ext row of the ground state is certified below threshold
        import csv as csvmod
        rows = list(csvmod.DictReader(text.splitlines()))
        ext0 = [r for r in rows if r["rung"] == "ext" and r["j"] == "0"]
        assert len(ext0) == 2
        for r in ext0:
            assert r["below_threshold"] == "1"
            float(r["lambda"])  # 12-digit floats parse back

    def test_json_round_trip(self, square_sweep):
        data = json.loads(json.dumps([r.as_dict()
                                      for r in square_sweep]))
        assert len(data) == 2
        assert data[0]["beta"] == 0.5
        assert data[0]["count"] >= 1
        assert data[0]["rungs"][0]["eigenvalues"]

    def test_sweep_through_zero_has_a_straight_row(self):
        # beta = 0 is the straight tube, which binds nothing
        sweep = sweep_beta(SQUARE, [1.0, 0.0], small_reduced())
        assert [r.beta for r in sweep] == [0.0, 1.0]
        assert [r.count for r in sweep] == [0, 1]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            sweep_beta(SQUARE, [], small_reduced())


class TestReportSerialization:
    def test_json_and_rows(self, monkeypatch):
        # r0s1 has order 48 * 7 = 336: at DENSE_N here, so dense; the
        # others are above it, with half-bandwidth n2 = 16: factored
        monkeypatch.setattr(eigcore, "DENSE_N", 48 * 7)
        rep = compute_spectrum(WaveguideSpec(1.0, SQUARE), small_reduced())
        d = json.loads(json.dumps(rep.as_dict()))
        assert d["count"] == rep.count
        assert d["order"] == 2
        assert d["section"] == {"kind": "rect", "a": 0.0, "b": 1.0,
                                "c": 0.0, "d": 1.0}
        assert set(d["counts_by_rung"]) == {"r0s1", "r1s0", "r1s1"}
        assert [r["solver"] for r in d["rungs"]] == ["dense", "shift_invert",
                                                     "shift_invert"]
        assert [r["shift"] is None for r in d["rungs"]] == [True, False,
                                                           False]
        # the top rung is counted by inertia at E1 -/+ band
        assert [r["inertia"] for r in d["rungs"]] == [None, None, [1, 1]]
        rows = rep.rows()
        assert all(tuple(r) == CSV_COLUMNS for r in rows)
        ext = [r for r in rows if r["rung"] == "ext"]
        assert len(ext) == len(rep.eigenvalues)
        assert ext[0]["below_threshold"] == 1


class TestNonconvergence:
    def test_flagged_not_raised(self):
        # sections of 11 x 11 and up are too wide to factor: block CG
        disc = DiscretizationSpec(nx=8, n1=12, n2=12, L=4.0, mode="half_DN",
                                  refine=2, l_steps=2)
        opts = EigOptions(k=4, tol=1e-14, maxit=2)
        rep = compute_spectrum(WaveguideSpec(1.0, SQUARE), disc, opts)
        assert any(f.startswith("nonconverged") for f in rep.flags)
        assert any("nonconverged" in rr.warnings for rr in rep.rungs)


class TestBenchmarkProfile:
    def test_strip_profile(self):
        d = benchmark_disc(STRIP)
        assert d.mode == "reduced2d"
        assert d.n2 * 2 ** (d.refine - 1) >= 256
        w2 = STRIP.width2
        assert d.L * 2 ** (d.l_steps - 1) >= 60.0 * w2 / math.pi - 1e-9
        hx = d.L / d.nx
        hy = w2 / d.n2
        assert 1.8 * hy <= hx <= 2.2 * hy

    def test_masks_rejected(self):
        with pytest.raises(ValueError, match="rectangle"):
            benchmark_disc(l_shaped_mask(12))


class TestFactoredRungs:
    """Factored solves against block CG on the rungs of the strip and
    shear-sweep benchmark ladders."""

    STRIP_LADDER = DiscretizationSpec(nx=40, n1=8, n2=8, L=21.2,
                                      mode="reduced2d", refine=3, l_steps=2)
    SWEEP_LADDER = DiscretizationSpec(nx=8, n1=8, n2=8, L=4.0,
                                      mode="reduced2d", refine=3, l_steps=2)

    @pytest.mark.parametrize("rect, beta, disc", [
        (STRIP, 1.0, STRIP_LADDER), (SQUARE, 0.5, SWEEP_LADDER),
        (SQUARE, 3.0, SWEEP_LADDER)], ids=["strip", "sweep0.5", "sweep3"])
    def test_values_agree_with_block_cg(self, monkeypatch, rect, beta, disc):
        monkeypatch.setattr(eigcore, "DENSE_N", 0)
        opts = EigOptions(k=4, tol=1e-11)
        for p in disc.ladder():
            g = waveguide._grid_for(disc, rect, *p)
            form = waveguide._build(beta, rect, disc, g)
            fac = lowest_eigenpairs(form.A, form.M, 4, opts)
            cg = smallest_eigenpairs(form.A, form.M, opts,
                                     form.preconditioner())
            assert fac.solver == "shift_invert" and cg.ok
            assert fac.theta == pytest.approx(cg.theta, rel=1e-10), p

    def test_ladder_shifts_sit_below_each_rung(self):
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), self.STRIP_LADDER)
        by = {(rr.grid.r, rr.grid.s): rr for rr in rep.rungs}
        # r0s1 (order 80 * 7 = 560), which no rung precedes, is shifted
        # from its threshold, every later rung from the previous mesh
        # drop; each guess is certified or backed off, never replaced by
        # the sigma = 0 fallback
        for p in ((0, 1), (1, 1), (2, 1), (2, 0)):
            rr = by[p]
            assert rr.solver == "shift_invert"
            assert 0.0 < rr.shift < rr.solved[0]
        assert by[(2, 1)].inertia == (1, 1)

    def test_factored_rungs_report_their_lanczos_applies(self):
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), self.STRIP_LADDER)
        rungs = json.loads(json.dumps(rep.as_dict()))["rungs"]
        for rr, row in zip(rep.rungs, rungs):
            assert rr.solver == "shift_invert"
            assert row["iterations"] == rr.iterations > 0

    @staticmethod
    def assert_guessed_shifts(rep):
        """Every factored rung, the first mesh rung included, is shifted
        by a certified guess or its back-off, never at sigma = 0."""
        factored = [rr for rr in rep.rungs if rr.solver == "shift_invert"]
        assert factored
        for rr in factored:
            assert 0.0 < rr.shift < rr.solved[0], (rr.grid, rr.shift)

    @pytest.mark.parametrize("beta", [2.0, 2.5, 3.0])
    def test_sweep_shifts_back_off_above_the_spectrum(self, beta):
        # r2s1's guess lands above its lowest value at these shears
        rep = compute_spectrum(WaveguideSpec(beta, SQUARE), self.SWEEP_LADDER)
        self.assert_guessed_shifts(rep)

    def test_demo_sweep_shifts_back_off(self):
        # at beta 0.5 the coarse value sits above the threshold, so the
        # first drop is negative and r1s1's guess lies above its spectrum
        path = Path(__file__).parents[1] / "demos" / "configs" / "sweep.json"
        _, section, betas, disc, opts = load_config(str(path), sweep=True)
        for beta in betas:
            rep = compute_spectrum(WaveguideSpec(beta, section), disc, opts)
            self.assert_guessed_shifts(rep)


    def test_factored_rungs_assemble_only_the_mass(self, monkeypatch):
        # a factored rung reads A from its Kronecker factors: the only
        # CSR matrices built are the masses, for the Lanczos products
        built = []
        assemble = eigcore.KronOp.matrix.func
        monkeypatch.setattr(eigcore.KronOp, "matrix", property(
            lambda op: built.append(type(op)) or assemble(op)))
        rep = compute_spectrum(WaveguideSpec(1.0, STRIP), self.STRIP_LADDER)
        assert {rr.solver for rr in rep.rungs} == {"shift_invert"}
        assert built and set(built) == {eigcore.MassKron}

    @pytest.mark.parametrize("config", ["strip", "square"])
    def test_first_mesh_rung_factors_at_its_first_shift(self, monkeypatch,
                                                        config):
        # a top rung that counts a bound state starts the first mesh rung
        # at its threshold's first back-off, which factors: the threshold
        # itself lies above that rung's lowest value
        if config == "strip":
            spec, disc, opts = (WaveguideSpec(1.0, STRIP), self.STRIP_LADDER,
                                None)
        else:
            path = Path(__file__).parents[1] / "demos" / "configs" / \
                "square.json"
            _, spec, disc, opts = load_config(str(path))
        real = eigcore._band_cholesky
        tried = []

        def spy(band, sigma):
            chol = real(band, sigma)
            tried.append((band.n, chol is not None))
            return chol

        monkeypatch.setattr(eigcore, "_band_cholesky", spy)
        rep = compute_spectrum(spec, disc, opts)
        first = rep.rungs[0]
        assert (first.grid.r, first.grid.s) == (0, disc.l_steps - 1)
        assert first.solver == "shift_invert" and rep.count == 1
        n = tried[0][0]
        assert [ok for m, ok in tried if m == n] == [True]
        planar = first.threshold - PI2
        assert first.shift == pytest.approx(planar * (1.0 - 0.5 ** 4),
                                            rel=1e-15)
        assert first.solved[0] < planar


def _channel_sums_seed(planar, rect, e1, band):
    """``waveguide._channel_sums`` as it was before the channel bound."""
    w1 = rect.width1
    kmax = max(1, int(math.floor(w1 * math.sqrt(max(e1, 0.0)) / math.pi)) + 1)
    entries = []
    count = 0
    for k in range(1, kmax + 1):
        off = (math.pi * k / w1) ** 2
        if off > e1 + band and k > 1:
            break
        for m, p in enumerate(planar):
            v = p + off
            entries.append((v, m, k))
            if v < e1 - band:
                count += 1
    entries.sort()
    return entries, count


# every channel whose offset is at most this: over the strategy below a
# counted or band sum is at most e1 + band <= 430, the first len(planar)
# sums are at most 400 + (pi / 0.3)^2 < 510, and a planar value is at
# least -50, so no offset above 560 reaches either
OFFSET_CAP = 1000.0


def _channel_sums_brute(planar, w1, e1, band):
    """Every channel sum with offset up to OFFSET_CAP, ascending, and the
    count of those below e1 - band."""
    kmax = int(w1 * math.sqrt(OFFSET_CAP) / math.pi)
    entries = sorted((p + (math.pi * k / w1) ** 2, m, k)
                     for k in range(1, kmax + 1) for m, p in enumerate(planar))
    return entries, sum(1 for v, _, _ in entries if v < e1 - band)


class TestChannelSums:
    @settings(max_examples=300, deadline=None)
    @given(planar=st.lists(st.floats(-50.0, 400.0), min_size=1, max_size=8),
           w1=st.floats(0.3, 3.0), e1=st.floats(0.0, 400.0),
           band=st.floats(0.0, 30.0))
    # channel 2 of value 0 (4.39) ranks above channel 1 of value 4 (5.10),
    # far above e1 + band; from planar -10 channels 1 and 2 (-7.53, -0.13)
    # both lie below e1
    @example(planar=[0.0, 4.0], w1=3.0, e1=0.0, band=0.0)
    @example(planar=[-10.0], w1=2.0, e1=0.0, band=0.0)
    def test_same_count_list_and_band_as_unbounded(self, planar, w1, e1,
                                                   band):
        got, count = waveguide._channel_sums(planar, w1, e1, band)
        want, want_count = _channel_sums_brute(planar, w1, e1, band)
        assert count == want_count
        k = len(planar)
        assert got[:k] == want[:k]
        assert set(got) <= set(want)
        near = [e for e in want if abs(e[0] - e1) <= band]
        assert [e for e in got if abs(e[0] - e1) <= band] == near

    def test_ladder_lists_the_lowest_sums_of_every_channel(self):
        # 24 listed values on the unit square: the planar ground value
        # plus the channel-2 offset 4 pi^2 ranks 20th, below channel-1
        # sums the listing would otherwise show in its place
        disc = DiscretizationSpec(nx=16, n1=8, n2=8, L=4.0, mode="reduced2d",
                                  refine=2, l_steps=2)
        rep = compute_spectrum(WaveguideSpec(1.0, SQUARE), disc,
                               EigOptions(k=24))
        assert rep.channels.index((0, 2)) == 19
        assert sum(1 for _, k in rep.channels if k == 2) == 4
        sums = sorted(p + (math.pi * k) ** 2 for p in rep.solved
                      for k in range(1, 25))
        assert rep.eigenvalues.tolist() == sums[:24]

    def test_strong_shear_lists_one_channel(self):
        # near the planar threshold the second channel's lowest sum is
        # already above every first-channel sum and E1: the unbounded walk
        # took every channel below E1, about beta of them, 400,000 entries
        # here
        beta = 1e5
        e1 = ess_threshold(beta, SQUARE)
        thr = e1 - PI2
        planar = np.array([thr - 1.0, thr + 0.5, thr + 2.0, thr + 3.0])
        entries, count = waveguide._channel_sums(planar, SQUARE.width1, e1,
                                                 0.0)
        assert count == 1
        assert [(m, k) for _, m, k in entries] == [(0, 1), (1, 1), (2, 1),
                                                   (3, 1)]
        assert len(_channel_sums_seed(planar, SQUARE, e1, 0.0)[0]) == 400_000

    def test_3d_guide_is_one_channel_at_offset_0(self):
        vals = np.array([5.0, 3.0, 7.0, 4.0])
        entries, count = waveguide._channel_sums(vals, None, 6.0, 1.5)
        assert entries == [(3.0, 1, 1), (4.0, 3, 1), (5.0, 0, 1),
                           (7.0, 2, 1)]
        assert count == 2


def _rung(r, s, theta, residuals, w1, e1):
    """A ladder rung made by ``_make_rung`` from a synthetic solve with
    the residual bounds ``residuals``."""
    theta = np.asarray(theta)
    sol = eigcore.EigResult(theta, np.zeros((1, len(theta))),
                            np.ones(len(theta), bool), 0, 0,
                            np.asarray(residuals), "dense")
    g = waveguide.RungGrid(r, s, 8, 0, 8, 1.0)
    return waveguide._make_rung(g, e1, sol, len(theta), w1, [], 0.0)


class TestFlagMonotone:
    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e4])
    def test_a_relative_rise_is_flagged_at_every_length_scale(self, s):
        # the slack comes from the residual bound sqrt(8) ||r||_D, which
        # scales with the values: a rise of 1e-3 of the largest-residual
        # value along the box axis is flagged alike at every length scale
        disc = DiscretizationSpec(nx=24, n1=8, n2=8, L=s, mode="half_DN",
                                  refine=2, l_steps=2)
        rep = compute_spectrum(WaveguideSpec(1.0, Rect(0.0, s, 0.0, s)),
                               disc)
        results = {(rr.grid.r, rr.grid.s): rr for rr in rep.rungs}
        flags = []
        waveguide._flag_monotone(results, disc, rep.threshold, flags)
        assert flags == []
        j = int(np.argmax(results[(1, 1)].solved_residuals
                          / results[(1, 1)].solved))
        results[(1, 1)].solved[j] = results[(1, 0)].solved[j] * 1.001
        waveguide._flag_monotone(results, disc, rep.threshold, flags)
        assert f"monotone_L:j{j}" in flags

    def test_each_solved_value_keeps_its_own_residual(self):
        # a wide section: planar value 0 in channel 2 (sum 5.39) ranks
        # above planar value 1 in channel 1 (6.10), so both listed sums
        # come from value 0 and carry its tiny residual; value 1 rises by
        # 1e-4 along the mesh, inside the slack of its own residual 1e-4
        w1, e1 = 3.0, 10.0
        disc = DiscretizationSpec(nx=8, n1=8, n2=8, L=1.0, mode="reduced2d",
                                  refine=2, l_steps=2)
        results = {
            (0, 1): _rung(0, 1, [1.0, 5.0], [1e-12, 1e-4], w1, e1),
            (1, 0): _rung(1, 0, [0.95, 5.0002], [1e-12, 1e-4], w1, e1),
            (1, 1): _rung(1, 1, [0.9, 5.0001], [1e-12, 1e-4], w1, e1),
        }
        listed = results[(1, 1)]
        assert listed.residuals.tolist() == [1e-12, 1e-12]
        assert listed.solved_residuals.tolist() == [1e-12, 1e-4]
        flags = []
        waveguide._flag_monotone(results, disc, e1, flags)
        assert flags == []
        # a rise past that slack along both axes is still flagged, on the
        # solved index
        results[(1, 1)] = _rung(1, 1, [0.9, 5.01], [1e-12, 1e-4], w1, e1)
        waveguide._flag_monotone(results, disc, e1, flags)
        assert flags == ["monotone_refine:j1", "monotone_L:j1"]
