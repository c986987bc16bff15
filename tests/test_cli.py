import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallachflow import cli
from wallachflow.integrate import Trajectory
from wallachflow.verify import CheckResult


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "wallachflow.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestAnalyze:
    def test_exact_census_output(self):
        proc = run_cli(["analyze", "--a", "1/6,1/6,1/6", "--exact"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["parameters"]["a"] == ["1/6", "1/6", "1/6"]
        assert payload["surface"]["region"] == "O1"
        deltas = sorted(e["delta"] for e in payload["equilibria"])
        assert deltas == ["-2/9", "-2/9", "-8/9", "1/9"]
        kinds = sorted(e["classification"] for e in payload["equilibria"])
        assert kinds == ["saddle", "saddle", "saddle", "unstable node"]

    def test_degenerate_case_mentions_blowup(self):
        proc = run_cli(["analyze", "--a", "1/4,1/4,1/4", "--exact"])
        payload = json.loads(proc.stdout)
        assert len(payload["equilibria"]) == 1
        assert payload["equilibria"][0]["classification"] == "degenerate"
        assert any("blowup" in n for n in payload["notes"])

    @pytest.mark.parametrize("triple, ray, mult", [
        ("5/24,5/24,1/6", ["3/4", "3/4", "1/1"], 2),
        ("1/8,1/8,17/56", ["2/1", "2/1", "1/1"], 3),
    ])
    def test_unresolved_degenerate_ray_does_not_mention_blowup(self, triple, ray, mult, capsys):
        # `blowup` resolves 1/4,1/4,1/4 only
        assert cli.main(["analyze", "--a", triple, "--exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (degenerate,) = [e for e in payload["equilibria"] if e["classification"] == "degenerate"]
        assert degenerate["x3_one"] == ray and degenerate["multiplicity"] == mult
        assert payload["notes"] == ["degenerate equilibrium: the type of this ray is not resolved"]

    def test_double_root_census(self):
        proc = run_cli(["analyze", "--a", "5/36,1/6,1/4"])
        payload = json.loads(proc.stdout)
        assert len(payload["equilibria"]) == 3
        assert sorted(e["multiplicity"] for e in payload["equilibria"]) == [1, 1, 2]

    @pytest.mark.parametrize("triple, multiplicities", [
        # near the face a1 -> 1/2 a complex pair of the quartic once passed
        # for a real root and merged with one into a multiplicity 3
        ("0.49999999,1/6,1/3", [1, 1]),
        # the double root of the exact A9 triple splits in its dyadic quartic
        ("0.1388888888888889,0.16666666666666666,0.25", [1, 1, 1, 1]),
    ])
    def test_float_triple_multiplicities(self, triple, multiplicities, capsys):
        assert cli.main(["analyze", "--a", triple]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["multiplicity"] for e in payload["equilibria"]] == multiplicities

    def test_spurious_closed_form_rays_are_dropped(self, capsys):
        # the general quartic in float coefficients gave three float rays
        # here, two of them with residuals of about 0.23 and -0.46, which the
        # census does not find; this once exited 3 when linearize_at refused
        # them.  The quartic of the dyadic parameters, in integers, has the
        # one ray only
        from closed_forms import solve_general
        from wallachflow.core import Parameters
        from wallachflow.equilibria import FamilyTag, solve_all

        assert cli.main(["analyze", "--a", "0.49999999,0.03333333333333333,0.5"]) == 0
        rays = json.loads(capsys.readouterr().out)["equilibria"]
        assert len(rays) == 1
        exact = Parameters(Fraction(49999999, 100000000), Fraction(1, 30), Fraction(1, 2))
        (ref,) = solve_all(exact)
        for got, want in zip(rays[0]["x3_one"], ref.rep.x):
            assert abs(got - float(want)) <= 1e-8 * float(want)
        p = Parameters(0.49999999, 0.03333333333333333, 0.5)
        assert len(solve_general(p)) == 1
        assert [(r.family_tag, r.multiplicity) for r in solve_all(p)] == [(FamilyTag.GENERAL_QUARTIC, 1)]

    @pytest.mark.parametrize("triple", ["0.1,0.17,0.23", "1e-1,17e-2,2.3E-1"])
    def test_decimals_under_exact_are_decimal_fractions(self, triple, capsys):
        # 0.1 + 0.17 + 0.23 is 1/2 exactly, so the four sum-half families
        # show, with exact coordinates
        assert cli.main(["analyze", "--a", triple, "--exact"]) == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert err == ""
        assert payload["parameters"]["a"] == ["1/10", "17/100", "23/100"]
        assert payload["parameters"]["exact"] is True
        rays = payload["equilibria"]
        assert sorted(e["family"] for e in rays) == ["sum_half_1", "sum_half_2", "sum_half_3", "sum_half_4"]
        assert all("/" in v for e in rays for v in e["x3_one"])
        # without --exact a decimal is the nearest float
        assert cli.main(["analyze", "--a", triple]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["exact"] is False

    def test_usage_error(self):
        proc = run_cli(["analyze", "--a", "1,2"])
        assert proc.returncode == 2

    def test_domain_error_on_undefined_triple(self):
        proc = run_cli(["analyze", "--a", "1,1,-1/2"])
        assert proc.returncode == 3

    @pytest.mark.parametrize("flags", [[], ["--exact"]], ids=["float", "exact"])
    @pytest.mark.parametrize("triple", ["nan,0.2,0.3", "0.2,inf,0.3", "0.2,0.3,-inf", "1/0,1/6,1/6"])
    def test_non_finite_or_malformed_triple_is_usage_error(self, triple, flags, capsys):
        assert cli.main(["analyze", "--a", triple, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    @pytest.mark.parametrize("triple", ["1e-100000000,0.2,0.3", "0.2,1E+401,0.3", "0.2,0.3,1e9999999999"])
    def test_huge_exponent_under_exact_is_usage_error(self, triple, capsys):
        assert cli.main(["analyze", "--a", triple, "--exact"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "exponent" in err

    def test_zero_parameter_is_domain_error(self, capsys):
        assert cli.main(["analyze", "--a", "0,1/4,1/3"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "a1*a2*a3" in err

    @pytest.mark.parametrize("triple", ["-1/2,1/2,1/2", "1/2,-1/2,1/2", "1/2,1/2,-1/2"])
    def test_curve_of_equilibria_is_domain_error(self, triple, capsys):
        assert cli.main(["analyze", f"--a={triple}"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "form a curve" in err

    def test_overflow_is_domain_error(self, capsys):
        # the quartic's coefficients overflow a float; this once ended in
        # an OverflowError traceback
        assert cli.main(["analyze", "--a", "1e200,2e200,3e200"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: a value left the float range\n"

    def test_subnormal_parameter_is_overflow(self, capsys):
        # 1/a1 is infinite, so the unit-volume scaling factor is NaN; this
        # once read "metric coefficients must be strictly positive"
        assert cli.main(["analyze", "--a", "1e-310,0.2,0.3"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: a value left the float range\n"

    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["analyze", "--exact"],
        ["flow", "--x0", "1,1"],
        ["flow", "--x0", "1,1,1", "--three-d"],
    ])
    def test_a_parameter_that_rounds_to_0_is_overflow(self, command, capsys):
        # a1 = 10**-330 lies in the closed cube, but its float is 0.0 and
        # 1 / a1 leaves the float range; this once ended in a
        # ZeroDivisionError traceback
        argv = [command[0], "--a", f"1/{10**330},1/5,1/7", *command[1:]]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: a value left the float range\n"

    @pytest.mark.parametrize("flags", [["--exact"], []], ids=["exact", "float"])
    def test_tiny_parameters_are_overflow(self, flags, capsys):
        # exact: A^2 (x1 x2 x3)^2 is 0.0 at a float ray, once a
        # ZeroDivisionError traceback (exit 1, as a failed verify); float:
        # the product a1 a2 a3 underflows to 0.0, which once read as a zero
        # parameter
        assert cli.main(["analyze", "--a", "1e-200,1e-200,0.3", *flags]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: a value left the float range\n"

    @pytest.mark.parametrize("triple, kind", [("1e10,2,3", "stable node"), ("1e20,0.2,0.3", "saddle")])
    def test_large_parameters_keep_their_ray(self, triple, kind, capsys):
        # the census ray was once refused as "not an equilibrium"
        assert cli.main(["analyze", "--a", triple]) == 0
        (ray,) = json.loads(capsys.readouterr().out)["equilibria"]
        assert ray["classification"] == kind

    def test_region_takes_the_sign_of_the_exact_q(self, capsys):
        # the float Q is -2.2e-16, a rounding of Q = 2.65e-302 at the dyadic
        # parameters: O3, not OnOmega
        assert cli.main(["analyze", "--a", "1e-300,0.2,0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["surface"]["region"] == "O3"


def _flow_csv(runs):
    """The CSV ``flow`` prints for runs with the given samples: the
    integrator is replaced by one that returns them."""
    samples = iter(runs)

    def run_one(_x0, **_kwargs):
        return Trajectory(samples=list(next(samples)))

    argv = ["--threads", "1", "flow", "--a", "1/6,1/4,1/3", "--x0", "1,1"]
    argv += ["--random-starts", str(len(runs) - 1)] if len(runs) > 1 else []
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        mp.setattr(cli, "_run_one_flow", run_one)
        assert cli.main(argv) == 0
    return out.getvalue()


def _fstring_csv(runs):
    """The same CSV written with one f-string per value, as ``flow`` wrote it
    before it formatted each row with one ``%``."""
    if len(runs) == 1:
        lines = ["t,x1,x2,x3,V"]
        lines += [f"{t:.17g},{x1:.17g},{x2:.17g},{x3:.17g},{v:.17g}" for t, x1, x2, x3, v in runs[0]]
    else:
        lines = ["run,t,x1,x2,x3,V"]
        lines += [
            f"{run},{t:.17g},{x1:.17g},{x2:.17g},{x3:.17g},{v:.17g}"
            for run, samples in enumerate(runs) for t, x1, x2, x3, v in samples
        ]
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                   math.inf, -math.inf, math.nan, 0.1, 1 / 3, 1.7976931348623157e308)


class TestFlowCsvFormat:
    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_special_values(self, n_runs):
        # each special value in each column, and rows that mix them
        rows = [(v,) * 5 for v in _SPECIAL_FLOATS]
        rows += [tuple(_SPECIAL_FLOATS[(k + j) % len(_SPECIAL_FLOATS)] for j in range(5))
                 for k in range(len(_SPECIAL_FLOATS))]
        runs = [rows[k:] for k in range(n_runs)]
        assert _flow_csv(runs) == _fstring_csv(runs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(*[st.floats()] * 5), max_size=4), min_size=1, max_size=3))
    def test_any_floats(self, runs):
        assert _flow_csv(runs) == _fstring_csv(runs)


class TestFlow:
    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        proc = run_cli([
            "flow", "--a", "1/6,1/6,1/6", "--x0", "1,1", "--tmax", "5",
            "--out", str(out),
        ])
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,V"
        assert lines[1].startswith("0,1,1,1,1")
        summary = json.loads(proc.stdout)
        assert summary["runs"][0]["status"] == "converged"

    def test_default_rtol_documented(self):
        proc = run_cli(["flow", "--help"])
        assert "1e-10" in proc.stdout.replace(" ", "") or "rtol" in proc.stdout

    def test_nonpositive_start_rejected(self):
        proc = run_cli(["flow", "--a", "1/6,1/6,1/6", "--x0", "-1,1"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("tmax", ["nan", "inf", "-5", "0"])
    def test_tmax_must_be_finite_and_positive(self, tmax, capsys):
        rc = cli.main(["flow", "--a", "1/6,1/6,1/6", "--x0", "1,1", "--tmax", tmax])
        assert rc == 2
        assert "--tmax" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--a", "nan,1/6,1/6", "--x0", "1,1"],
                                      ["--a", "1/6,1/6,1/6", "--x0", "nan,1"],
                                      ["--a", "1/6,1/6,1/6", "--x0", "1,inf"]])
    def test_non_finite_input_rejected(self, args):
        assert cli.main(["flow", *args, "--tmax", "1"]) == 2

    @pytest.mark.parametrize("rtol", ["1", "1e-13", "nan"])
    def test_rtol_out_of_range_is_usage_error(self, rtol, capsys):
        rc = cli.main(["flow", "--a", "1/6,1/6,1/6", "--x0", "1,1", "--rtol", rtol])
        assert rc == 2
        assert "rel_tol" in capsys.readouterr().err

    def test_negative_random_starts_is_usage_error(self, capsys):
        rc = cli.main(["flow", "--a", "1/6,1/4,1/3", "--random-starts", "-3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--random-starts must be non-negative" in err
        assert "provide --x0" not in err

    def test_negative_seed_is_usage_error(self, capsys):
        # checked before the seeded generator, which rejects it as a domain error
        rc = cli.main(["flow", "--a", "1/6,1/4,1/3", "--random-starts", "1", "--seed", "-1"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "--seed must be non-negative" in err
        assert out == ""

    def test_zero_parameter_is_domain_error(self, capsys):
        rc = cli.main(["flow", "--a", "1/6,0,1/6", "--random-starts", "1"])
        assert rc == 3
        assert "a1*a2*a3" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--x0", "1/0,1"], ["--x0", "abc,1"], ["--x0", "1,2,3"]])
    def test_malformed_start_is_usage_error(self, args, capsys):
        assert cli.main(["flow", "--a", "1/6,1/6,1/6", *args, "--tmax", "1"]) == 2
        assert "--x0" in capsys.readouterr().err

    def test_three_d_runs_carry_the_integrator_equilibrium_id(self, capsys):
        # the 3D flow keeps the start's volume; the summary must still name
        # the equilibrium a converged run settled on
        rc = cli.main(["flow", "--a", "7/15,7/15,7/15", "--random-starts", "2",
                       "--three-d", "--tmax", "50"])
        assert rc == 0
        runs = json.loads(capsys.readouterr().err)["runs"]
        converged = [r for r in runs if r["status"] == "converged"]
        assert converged
        assert all(r["equilibrium_id"] is not None for r in converged)

    @pytest.mark.parametrize("args, counts", [
        # (steps_accepted, steps_rejected, field_evals) per run
        (["--a", "7/15,7/15,7/15", "--random-starts", "2", "--seed", "3"],
         [(177, 0, 1063), (160, 0, 961)]),
        (["--a", "1/6,1/4,1/3", "--x0", "1.3,0.8", "--rtol", "1e-6"], [(64, 46, 661)]),
    ])
    def test_summary_work_counters(self, args, counts, capsys):
        # one evaluation at the start and six per attempted step: the seventh
        # stage of an accepted step is the next step's first
        assert cli.main(["--threads", "1", "flow", *args]) == 0
        runs = json.loads(capsys.readouterr().err)["runs"]
        assert [(r["steps_accepted"], r["steps_rejected"], r["field_evals"]) for r in runs] == counts
        for r in runs:
            assert r["steps"] == 1 + r["steps_accepted"]
            assert r["field_evals"] == 1 + 6 * (r["steps_accepted"] + r["steps_rejected"])

    @pytest.mark.parametrize("args, bound", [
        (["--a", "0.01,0.01,0.49", "--random-starts", "3", "--seed", "2"], 1e-8),
        (["--a", "1/6,1/4,1/3", "--random-starts", "3", "--rtol", "1e-3", "--three-d"], 1e-7),
    ])
    def test_trial_stage_outside_float_range_is_retried(self, args, bound, capsys):
        # these runs once ended in an OverflowError traceback (planar) or a
        # "metric coefficients must be strictly positive" domain error (3D):
        # a trial stage left the float range and the step must shrink instead
        assert cli.main(["flow", *args]) == 0
        runs = json.loads(capsys.readouterr().err)["runs"]
        assert {r["status"] for r in runs} <= {"converged", "left_domain", "max_time", "step_underflow"}
        assert all(r["max_volume_drift"] <= bound for r in runs)
        # an unevaluable stage ends its step early
        assert all(r["field_evals"] <= 1 + 6 * (r["steps_accepted"] + r["steps_rejected"]) for r in runs)

    @pytest.mark.parametrize("args", [
        ["--a", "1/6,1/4,1/3", "--x0", "1e300,1e-300"],
        ["--a", "0.01,0.01,0.49", "--x0", "1e5,1e4,1", "--three-d"],
        ["--a", "7/15,7/15,7/15", "--x0", "1e-300,1e-300"],
    ])
    def test_start_outside_float_range_is_domain_error(self, args, capsys):
        # x3 of the planar starts and the volume of the 3D start overflow a
        # float; the first two once ended in an OverflowError traceback, the
        # third in a CSV row of infinities
        assert cli.main(["flow", *args]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "float range" in err

    def test_batch_reproducible(self, tmp_path):
        # the CSV and the summary are byte-identical from run to run and
        # across thread counts
        args = ["flow", "--a", "7/15,7/15,7/15", "--random-starts", "3",
                "--seed", "5", "--tmax", "3"]
        outputs = []
        for i, threads in enumerate(("1", "1", "2")):
            out = tmp_path / f"{i}.csv"
            proc = run_cli(["--threads", threads, *args, "--out", str(out)])
            assert proc.returncode == 0
            outputs.append((out.read_bytes(), proc.stdout))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("three_d, x0", [
        (False, [["0x1.221d1b5de0f68p+0", "0x1.7cd83366b51ddp+0"],
                 ["0x1.51435607c67c5p+0", "0x1.84fb445bc9131p-1"]]),
        (True, [["0x1.221d1b5de0f68p+0", "0x1.7cd83366b51ddp+0", "0x1.51435607c67c5p+0"],
                ["0x1.84fb445bc9131p-1", "0x1.a34285f269838p-1", "0x1.73f07b59cd056p+0"]]),
    ])
    def test_random_starts_are_pinned(self, three_d, x0, capsys):
        # the seeded PCG64 starts are numpy's default_rng draws, made without numpy
        args = ["flow", "--a", "1/6,1/4,1/3", "--random-starts", "2", "--seed", "7", "--tmax", "1"]
        assert cli.main(args + ["--three-d"] * three_d) == 0
        runs = json.loads(capsys.readouterr().err)["runs"]
        assert [[v.hex() for v in r["x0"]] for r in runs] == x0

    @pytest.mark.parametrize("three_d", [False, True])
    @pytest.mark.parametrize("seed", [1, 5, 7])
    def test_random_starts_are_math_exp_of_the_draws(self, seed, three_d, capsys):
        # numpy's exp picks a kernel by CPU and can differ from math.exp in the
        # last bit: on an x86-64 host with AVX-512 it does for 11 of these 150
        # coordinates (numpy 2.4)
        import numpy as np

        args = ["flow", "--a", "1/6,1/4,1/3", "--random-starts", "10", "--seed", str(seed), "--tmax", "1e-3"]
        assert cli.main(args + ["--three-d"] * three_d) == 0
        runs = json.loads(capsys.readouterr().err)["runs"]
        rng = np.random.default_rng(seed)
        draws = [rng.uniform(-0.5, 0.5, 3 if three_d else 2).tolist() for _ in runs]
        assert [r["x0"] for r in runs] == [[math.exp(v) for v in d] for d in draws]

    @pytest.mark.parametrize("args, digest", [
        (["--a", "1/6,1/4,1/3"],
         "2535d6aba2704ad52ab15b2351ac4c306928c68e49794fa7b0789f2ceedbe617"),
        (["--a", "1/6,1/4,1/3", "--three-d"],
         "1606b08ee560da3153c2e42d6865ef3297fc44f959687a8b7cebb4ed060a11c6"),
        (["--a", "0.17,0.26,0.33"],
         "9c7c11bfbbe004ce573decf23d79c291c5c6cb7ab79d8c559c31c7c100bfe51a"),
        (["--a", "0.17,0.26,0.33", "--three-d"],
         "4a57313397c1113e12b58fade54bbc8e2fb2195c396eeb353aa6e438b007d48d"),
        # 125 rejected steps over the three runs
        (["--a", "1/6,1/4,1/3", "--rtol", "1e-6"],
         "d5bb6a0893eadc68d2549c0f4633926b80500960ffd2f2eefb57d38a5331e392"),
    ], ids=["planar-exact", "3d-exact", "planar-float", "3d-float", "rtol-1e-6"])
    def test_flow_output_bits_are_pinned(self, args, digest, capsys):
        # SHA-256 of stdout + stderr: every CSV coordinate, volume, drift and
        # work counter, so any change to the order of the stage arithmetic
        # shows; the first start is checked apart, since the seeded generator
        # draws it
        argv = ["--threads", "1", "flow", *args, "--random-starts", "3", "--seed", "5"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        runs = json.loads(err)["runs"]
        first = ["0x1.5b4c09408af8ap+0", "0x1.5c519ebebd9b4p+0", "0x1.03f41c9b94059p+0"]
        assert [v.hex() for v in runs[0]["x0"]] == first[:len(runs[0]["x0"])]
        if "--rtol" in args:
            assert sum(r["steps_rejected"] for r in runs) == 125
        assert hashlib.sha256((out + err).encode()).hexdigest() == digest


class TestScan:
    def test_row_count_and_order(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_cli(["scan", "--n", "5", "--out", str(out)])
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 125
        coords = [tuple(map(float, ln.split(",")[:3])) for ln in lines[1:]]
        assert coords == sorted(coords)

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["scan", "--n", "3", "--out", str(out1)])
        run_cli(["scan", "--n", "3", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_agree_with_serial(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["scan", "--n", "3", "--out", str(out1)])
        run_cli(["--threads", "2", "scan", "--n", "3", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_rejects_small_n(self):
        proc = run_cli(["scan", "--n", "1"])
        assert proc.returncode == 2

    def test_thread_count_resolution(self):
        assert cli._thread_count(None, 8) == 1
        assert cli._thread_count(2, 8) == 2
        assert cli._thread_count(0, 8) == 1
        # capped at the CPU count; checked on the helper, no pool is started
        assert cli._thread_count(10**6, 4) == 4
        assert cli._thread_count(64, None) == 1

    def test_tol_omega_is_no_option(self, capsys):
        # OnOmega means Q = 0 at the exact parameters: there is no tolerance
        assert cli.main(["scan", "--n", "2", "--tol-omega", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--tol-omega" in err

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "scan.json"
        proc = run_cli(["scan", "--n", "2", "--json", "--out", str(out)])
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 8
        assert set(payload[0]) == {"a1", "a2", "a3", "Q", "Q1", "gQ1", "gQ2", "gQ3", "region"}

    def test_region_census_consistency(self, tmp_path):
        # every row labeled like the two-saddle component indeed has exactly
        # two equilibria
        out = tmp_path / "scan.csv"
        run_cli(["scan", "--n", "4", "--out", str(out)])
        from wallachflow.core import Parameters
        from wallachflow.equilibria import solve_all

        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        checked = 0
        for row in rows:
            if row[8] == "O3" and checked < 5:
                p = Parameters(*(float(v) for v in row[:3]))
                assert len(solve_all(p)) == 2
                checked += 1
        assert checked > 0


class TestPinnedOutputs:
    @pytest.mark.parametrize("argv, digest", [
        (["--threads", "1", "scan", "--n", "9"],
         "54bd27613a37501228c1674b53a8bc2b55027321a6411b4c9852a472c2b9207e"),
        (["analyze", "--a", "1/6,1/4,1/3", "--exact"],
         "0a399b5c7b418d9189e194421a576b604b71f5e89346790c0bec279c50cc8485"),
        (["analyze", "--a", "13/97,17/89,23/101", "--exact"],
         "6f2d33ec9ec1cc418f06943aa3ac306ed769d352b6b3df093fe4bc5f67b9ac3e"),
        (["analyze", "--a", "2/17,1/8,2/17", "--exact"],
         "f2e2cd4ea9612cfb732c4d743dbfb9bdec5b7387ea28f0017d8fc7db0e5361b8"),
        (["blowup"],
         "27baff7fca3c6447e8345c1085ae472b03f65881e05bb5121eace54368507249"),
    ], ids=["scan-9", "analyze-reference", "analyze-large-coefficients", "analyze-near-focus", "blowup"])
    def test_output_bits_are_pinned(self, argv, digest, capsys):
        # SHA-256 of stdout: every census root, rounded once, shows in it
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--a", "1/6,1/4,1/3"],
        ["flow", "--a", "1/6,1/4,1/3", "--x0", "1.05,0.95", "--tmax", "1"],
        ["scan", "--n", "2"],
        ["surface", "--fix", "a1=1/2", "--n", "2"],
        ["blowup"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_is_a_usage_error(self, argv, where, tmp_path, capsys):
        path = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
        assert cli.main([*argv, "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {path}")
        assert "Traceback" not in err


class TestSurfaceSlice:
    def test_fixed_plane(self, tmp_path):
        out = tmp_path / "slice.csv"
        proc = run_cli(["surface", "--fix", "a1=1/2", "--n", "5", "--out", str(out)])
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a1,a2,a3,Q,Q1"
        assert len(lines) == 26
        assert all(ln.startswith("0.5,") for ln in lines[1:])

    def test_bad_fix_argument(self):
        proc = run_cli(["surface", "--fix", "b2=1"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("bound", [["--lo", "nan"], ["--hi", "inf"]])
    def test_non_finite_bounds_are_usage_error(self, bound, capsys):
        assert cli.main(["surface", "--fix", "a1=1/2", "--n", "2", *bound]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--lo" in err

    @pytest.mark.parametrize("fix", ["a1=1/0", "a1=abc", "a1=nan", "a1"])
    def test_malformed_fix_value_is_usage_error(self, fix, capsys):
        assert cli.main(["surface", "--fix", fix, "--n", "2"]) == 2
        assert "--fix" in capsys.readouterr().err

    def test_overflow_is_domain_error(self, capsys):
        # Q's powers of s1 leave the float range; the slice is not written
        assert cli.main(["surface", "--fix", "a1=1e200", "--n", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a value left the float range\n"


class TestCensusWarningsSilenced:
    def test_no_warning_text_on_stderr(self):
        # on the edge (1/2, 1/2, c) with 8c^2 < 1 no positive ray exists;
        # solve_all warns of nothing, there or anywhere
        from wallachflow.core import Parameters
        from wallachflow.equilibria import solve_all

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert solve_all(Parameters(Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))) == []
        assert caught == []
        for args in (["analyze", "--a", "1/2,1/2,1/3"],
                     ["--threads", "2", "scan", "--n", "3"]):
            proc = run_cli(args)
            assert proc.returncode == 0
            assert proc.stderr == ""


class _ClosedPipe:
    def write(self, _text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedStdout:
    def test_broken_pipe_exits_141(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert cli.main(["analyze", "--a", "1/6,1/4,1/3"]) == cli.EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""

    def test_reader_gone_before_output(self):
        # as in `wallachflow analyze ... | head`: no traceback on stderr
        proc = subprocess.Popen(
            [sys.executable, "-m", "wallachflow.cli", "analyze", "--a", "1/6,1/4,1/3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestImportPath:
    """``verify``, the process pool and each package module load only for
    the commands that use them, so a one-shot command does not pay for them
    at start-up.  numpy loads for no command."""

    LAZY = ("numpy", "wallachflow.verify", "concurrent.futures.process")
    # what importing the CLI loads: the modules every command uses
    CLI = {"wallachflow", "wallachflow.cli", "wallachflow.core", "wallachflow._poly", "wallachflow.flow",
           "wallachflow.equilibria"}
    RANDOM_STARTS = ["flow", "--a", "1/6,1/4,1/3", "--random-starts", "3", "--tmax", "1"]

    @staticmethod
    def _main(argv: list[str]) -> str:
        """Code that runs ``cli.main(argv)`` quietly and checks its exit code."""
        return (
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
        )

    @staticmethod
    def _package_modules(code: str) -> set[str]:
        """The ``wallachflow`` modules loaded once ``code`` has run in a fresh
        interpreter."""
        code += "\nimport sys\nprint(' '.join(m for m in sys.modules if m.partition('.')[0] == 'wallachflow'))\n"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def _loaded_after(self, body: str) -> list[str]:
        code = (
            "import contextlib, io, sys\n"
            "import wallachflow.cli as cli\n"
            f"{body}\n"
            f"print(','.join(m for m in {self.LAZY!r} if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return [m for m in proc.stdout.strip().split(",") if m]

    def test_import_loads_none_of_them(self):
        assert self._loaded_after("") == []

    def test_import_does_not_build_the_linearization_layout(self):
        # the layout of F1, F2 and G is built on the first exact linearization
        body = "import wallachflow.linearize as lin\nassert lin._LAYOUT is None"
        assert self._loaded_after(body) == []

    def test_serial_commands_without_random_starts_load_none_of_them(self):
        commands = [
            # irrational rays, polished by the damped Newton of equilibria
            ["analyze", "--a", "1/6,1/4,1/3"],
            ["analyze", "--a", "13/97,17/89,23/101", "--exact"],
            ["--threads", "1", "scan", "--n", "3"],
            ["flow", "--a", "7/15,7/15,7/15", "--x0", "1.05,0.95,1", "--three-d", "--tmax", "2"],
        ]
        body = (
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
        )
        assert self._loaded_after(body) == []

    def _added_by(self, body: str) -> set[str]:
        """The modules that ``import wallachflow.cli`` and then ``body`` add
        to ``sys.modules`` in a fresh interpreter: a difference, because
        ``site`` may preload some (``typing`` on some hosts)."""
        code = (
            "import sys\nbefore = set(sys.modules)\n"
            "import contextlib, io\nimport wallachflow.cli as cli\n"
            f"{body}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_cli_import_adds_no_dataclasses_inspect_typing_or_json(self):
        # the records are plain classes, ``core.Scalar`` is a union of
        # types, and ``json`` loads in the handlers that write JSON
        added = self._added_by("")
        assert "wallachflow.cli" in added
        assert not added & {"dataclasses", "inspect", "typing", "json"}

    @pytest.mark.parametrize("argv, writes_json, census", [
        (["scan", "--n", "3"], False, False),
        (["surface", "--fix", "a1=1/2", "--n", "3"], False, False),
        (["blowup"], True, False),
        (["analyze", "--a", "1/6,1/4,1/3"], True, True),
    ], ids=["scan", "surface", "blowup", "analyze"])
    def test_json_and_the_census_chart_load_for_the_commands_that_use_them(self, argv, writes_json, census):
        # the census chart is laid out on the first census
        body = (
            "assert cli.eq_mod._CHART is None\n"
            + self._main(argv)
            + f"assert (cli.eq_mod._CHART is not None) is {census}\n"
        )
        assert ("json" in self._added_by(body)) is writes_json

    def test_package_import_loads_no_module(self):
        assert self._package_modules("import wallachflow") == {"wallachflow"}

    def test_cli_import_loads_the_modules_every_command_uses(self):
        assert self._package_modules("import wallachflow.cli") == self.CLI

    @pytest.mark.parametrize("argv, added", [
        (["analyze", "--a", "1/6,1/4,1/3"], {"linearize", "surfaces"}),
        (["scan", "--n", "3"], {"linearize", "surfaces"}),
        (["flow", "--a", "1/6,1/4,1/3", "--x0", "1.05,0.95", "--tmax", "1"], {"integrate"}),
        (RANDOM_STARTS, {"integrate", "_pcg64"}),
        (["blowup"], {"blowup"}),
        (["verify"], {"verify", "blowup", "integrate", "linearize", "surfaces"}),
    ], ids=["analyze", "scan", "flow-x0", "flow-random-starts", "blowup", "verify"])
    def test_each_command_loads_its_own_modules(self, argv, added):
        code = "import contextlib, io\nimport wallachflow.cli as cli\n" + self._main(argv)
        assert self._package_modules(code) == self.CLI | {f"wallachflow.{m}" for m in added}

    @pytest.mark.parametrize("argv", [
        RANDOM_STARTS,
        ["--threads", "2", "flow", "--a", "1/6,1/4,1/3", "--random-starts", "2", "--tmax", "1"],
    ], ids=["serial", "pool"])
    def test_random_starts_load_no_numpy(self, argv):
        assert "numpy" not in self._loaded_after(self._main(argv))

    def test_verify_loads_no_numpy(self):
        assert self._loaded_after(self._main(["verify"])) == ["wallachflow.verify"]

    def test_verify_passes_with_numpy_blocked(self):
        # an import of numpy raises ImportError in this process
        code = (
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "import wallachflow.cli as cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    assert cli.main(['verify', '--json']) == 0\n"
            "results = json.loads(out.getvalue())\n"
            "assert [r['name'] for r in results if r['passed']] == [f'A{i}' for i in range(1, 13)], results\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_scan_starts_no_pool_at_any_thread_count(self):
        # scan is serial; --threads sizes the pool of batch flow alone
        body = (
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['--threads', '2', 'scan', '--n', '3']) == 0\n"
        )
        assert self._loaded_after(body) == []


class TestBlowupCommand:
    def test_report(self):
        proc = run_cli(["blowup"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["roots"] == ["-2/1", "-1/2", "1/1"]
        assert [pt["verdict"] for pt in payload["points"]] == ["saddle"] * 3
        assert "six hyperbolic sectors" in payload["verdict"]


class TestVerifyCommand:
    def test_table_and_exit_codes(self, monkeypatch, capsys):
        calls = {}

        def fake_run_all():
            calls["ran"] = True
            return [CheckResult("A0", True, "fine", 0.01)]

        monkeypatch.setattr("wallachflow.verify.run_all", fake_run_all)
        rc = cli.main(["verify"])
        assert rc == 0 and calls["ran"]
        out = capsys.readouterr().out
        assert "A0" in out and "PASS" in out

        def failing_run_all():
            return [CheckResult("A0", False, "broken", 0.01)]

        monkeypatch.setattr("wallachflow.verify.run_all", failing_run_all)
        rc = cli.main(["verify", "--json"])
        assert rc == 1

    def test_mutated_determinant_form_fails_census_check(self, monkeypatch):
        # perturbing the quartic coefficient of the determinant form must
        # break the exact census criterion; exact parameters evaluate F2 from
        # a layout built from f2, so the layout is rebuilt under the patch
        # (monkeypatch restores the unperturbed one afterwards)
        import wallachflow.linearize as lin_mod
        from wallachflow.verify import check_census_two_saddles

        original = lin_mod.f2

        def perturbed(p, x):
            return original(p, x) + x.x1**4 * Fraction(1, 10**6)

        monkeypatch.setattr(lin_mod, "f2", perturbed)
        monkeypatch.setattr(lin_mod, "_LAYOUT", None)
        problems, _ = check_census_two_saddles()
        assert problems
