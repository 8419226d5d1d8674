"""CLI surface: flags, schemas, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hillband.cli import run_command


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_classification_json(self, capsys):
        code, out, _ = run(capsys, "info", "--n", "2,2,1,0")
        assert code == 0
        d = json.loads(out)
        assert d["case"] == "B" and d["g"] == 3 and d["m"] == 2
        assert d["dual"] == [3, 1, 0, 0]

    def test_condition_vector(self, capsys):
        code, out, _ = run(capsys, "info", "--n", "1,2,2,1")
        d = json.loads(out)
        assert d["c1"] is True and d["case"] == "none" and d["m"] is None


class TestDisc:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "disc", "--n", "1,0,0,0", "--tau", "1.0",
                           "--E", "2,0")
        assert code == 0
        d = json.loads(out)
        assert abs(d["delta"][0] + 1.4053926432) < 1e-6
        assert d["det_defect"] < 1e-9

    @pytest.mark.parametrize("e_val", ["1000,0", "1e4,0", "3e5,0"])
    def test_det_defect_relative_at_large_E(self, capsys, e_val):
        # |det M - 1| / max(1, max|m_ij|)^2 stays a check of det M = 1 where
        # the entries of M reach 1e237 (Delta ~ exp(sqrt(E)))
        code, out, _ = run(capsys, "disc", "--n", "1,0,0,0", "--E", e_val)
        assert code == 0
        d = json.loads(out)
        assert np.isfinite(d["delta"][0]) and abs(d["delta"][0]) > 1e10
        assert d["det_defect"] <= 1e-12

    def test_off_axis_tau(self, capsys):
        # tau = 0.3 + i has no PT-symmetric sampling line: the monodromy is
        # built from the line's half period and the reflected line's
        code, out, _ = run(capsys, "disc", "--n", "1,0,0,0", "--tau-full", "0.3,1",
                           "--E", "2,0")
        assert code == 0
        d = json.loads(out)
        assert d["det_defect"] < 1e-9


class TestQpolySpectrum:
    def test_qpoly_schema(self, capsys):
        code, out, _ = run(capsys, "qpoly", "--n", "1,0,0,0", "--tau", "1.0")
        assert code == 0
        d = json.loads(out)
        assert d["degree"] == 3
        assert d["coeffs"][0] == [1, 0]
        assert d["z_constancy"] <= 1e-9
        assert len(d["roots"]) == 3

    def test_round_trip_roots_match_spectrum(self, capsys):
        code, qout, _ = run(capsys, "qpoly", "--n", "2,2,1,0", "--tau", "1.0")
        code2, sout, _ = run(capsys, "spectrum", "--n", "2,2,1,0", "--tau", "1.0")
        assert code == 0 and code2 == 0
        qroots = json.loads(qout)["roots"]
        sroots = json.loads(sout)["roots"]
        assert qroots == sroots

    def test_spectrum_bands(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--n", "1,0,0,0", "--tau", "1.0")
        d = json.loads(out)
        assert d["all_real_distinct"] is True
        assert len(d["bands"]) == 2
        assert d["bands"][0][0] is None

    def test_hidden_full_tau_flag(self, capsys):
        code, out, _ = run(capsys, "qpoly", "--n", "2,1,2,0",
                           "--tau-full", "0.0,0.5")
        assert code == 0
        d = json.loads(out)
        assert d["degree"] == 7

    def test_hidden_full_tau_off_axis(self, capsys):
        code, out, _ = run(capsys, "qpoly", "--n", "2,1,2,0",
                           "--tau-full", "0.3,1.1")
        assert code == 0
        d = json.loads(out)
        assert d["degree"] == 7 and d["tau_re"] == 0.3
        # general tau: coefficients genuinely complex
        assert any(abs(c[1]) > 1.0 for c in d["coeffs"])

    @pytest.mark.parametrize("argv,called", [
        (["spectrum", "--n", "1,0,0,0"], ["classify_spectrum"]),
        (["scan", "--n", "2,2,1,0", "--tau-list", "1.0", "--gaps"],
         ["classify_spectrum", "gap_eigenvalue_report"]),
    ])
    def test_rtol_reaches_library(self, capsys, monkeypatch, argv, called):
        import hillband.cli as cli_mod

        seen = []
        for name in called:
            def spy(spec, settings=None, *rest, _real=getattr(cli_mod, name)):
                seen.append(settings.rel_tol)
                return _real(spec, settings, *rest)

            monkeypatch.setattr(cli_mod, name, spy)
        code, _, _ = run(capsys, *argv, "--rtol", "1e-8")
        assert code == 0
        assert seen == [1e-8] * len(called)

    def test_qpoly_rejects_rtol(self, capsys):
        # Q comes from the KdV chain; no integrator tolerance applies
        code, _, err = run(capsys, "qpoly", "--n", "1,0,0,0", "--rtol", "1e-8")
        assert code == 1 and "usage error" in err


class TestGolden:
    """stdout pinned byte for byte: gaps and verify recorded while every inner
    band edge of the gap search still took a Delta certificate, arcs while
    the chaining walked a dict keyed by edge tuples."""

    @pytest.mark.parametrize("argv, name", [
        (("gaps", "--n", "2,2,1,0"), "gaps_n2210.txt"),
        (("verify", "--n", "3,3,3,3", "--tau", "0.6"), "verify_n3333_tau0.6.txt"),
        (("arcs", "--n", "1,0,0,0", "--window=-15,15,-3,3", "--res", "512"),
         "arcs_n1000_res512.txt"),
        (("arcs", "--n", "1,2,2,1", "--window=25,50,-16,16", "--res", "192"),
         "arcs_n1221_res192.txt"),
    ])
    def test_stdout_matches_golden(self, capsys, argv, name):
        _, out, _ = run(capsys, *argv)
        assert out == (Path(__file__).parent / "golden" / name).read_text()


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, a, _ = run(capsys, "spectrum", "--n", "2,2,1,0", "--tau", "1.0")
        _, b, _ = run(capsys, "spectrum", "--n", "2,2,1,0", "--tau", "1.0")
        assert a == b

    def test_arcs_byte_identical_runs(self, capsys):
        argv = ("arcs", "--n", "1,2,2,1", "--window=25,50,-16,16", "--res", "48")
        _, a, _ = run(capsys, *argv)
        _, b, _ = run(capsys, *argv)
        assert a == b and len(a.strip().split("\n")) > 10

    @pytest.mark.parametrize("argv, z0", [
        (("spectrum", "--n", "1,0,0,0"), "0.3,0.002"),
        (("arcs", "--n", "1,0,0,0", "--window=-8,8,-0.5,0.5", "--res", "96"), "0.3,0.002"),
        (("gaps", "--n", "2,2,1,0"), "0.1,0.01"),
    ])
    def test_z0_does_not_steer_the_numerics(self, capsys, argv, z0):
        # a base point next to a pole names the same operator; every engine
        # samples tau/4 + [0, 1], so the output is the default base point's
        code, want, _ = run(capsys, *argv)
        assert code == 0 and want
        code, got, _ = run(capsys, *argv, "--z0", z0)
        assert code == 0 and got == want

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        code, out, _ = run(capsys, "qpoly", "--n", "1,0,0,0", "--tau", "1.0",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["degree"] == 3


class TestScan:
    def test_condition_vector_rows_flag_complex(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "1,2,2,1",
                           "--tau-list", "0.5,0.8,1.0,1.5")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert lines[0].startswith("tau_im,all_real_distinct,num_complex_pairs")
        assert len(lines) == 5
        for row in lines[1:]:
            vals = dict(zip(header, row.split(",")))
            assert vals["all_real_distinct"] == "false"
            assert int(vals["num_complex_pairs"]) >= 1


class TestArcs:
    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "arcs", "--n", "1,0,0,0", "--tau", "1.0",
                           "--window=-8,8,-0.5,0.5", "--res", "96")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "arc_id,re_E,im_E,re_Delta"
        assert len(lines) > 10

    def test_empty_window(self, capsys):
        # a window that meets no arc is a correct empty answer: header only,
        # exit 0, and a note on stderr
        code, out, err = run(capsys, "arcs", "--n", "1,0,0,0",
                             "--window=100,101,5,6", "--res", "8")
        assert code == 0
        assert out == "arc_id,re_E,im_E,re_Delta\n"
        assert err == "note: no arc points in window 100,101,5,6\n"

    def test_reversed_imaginary_window(self, capsys):
        def points(window):
            code, out, _ = run(capsys, "arcs", "--n", "1,0,0,0",
                               f"--window={window}", "--res", "32")
            assert code == 0
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            return np.array([[float(r[1]), float(r[2])] for r in rows])

        fwd = points("-8,8,-0.5,0.5")
        rev = points("-8,8,0.5,-0.5")
        assert len(fwd) > 10 and len(rev) == len(fwd)
        dist = np.abs(fwd[:, None, :] - rev[None, :, :]).max(axis=2)
        assert dist.min(axis=1).max() <= 1e-9
        assert dist.min(axis=0).max() <= 1e-9


    def test_loose_rtol(self, capsys):
        # the Delta samples behind the proxy run at rel_tol min(rtol, 1e-10);
        # a loose --rtol still passes the proxy's check
        def points(*extra):
            code, out, _ = run(capsys, "arcs", "--n", "1,0,0,0",
                               "--window=-8,8,-0.5,0.5", "--res", "64", *extra)
            assert code == 0
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            return np.array([[float(r[1]), float(r[2])] for r in rows])

        loose, default = points("--rtol", "1e-6"), points()
        assert len(loose) > 10 and loose.shape == default.shape
        assert np.abs(loose - default).max() <= 1e-6


class TestLooseRtol:
    """gaps and verify read Delta at rel_tol min(rtol, 1e-10): the crossing
    certificate's step does not grow with the transport's error, and a loose
    --rtol used to fail a true crossing near E = 0 with TolFailure."""

    def test_gaps(self, capsys):
        code, out, _ = run(capsys, "gaps", "--n", "3,3,3,3", "--rtol", "1e-6")
        assert code == 0
        _, want, _ = run(capsys, "gaps", "--n", "3,3,3,3")
        got, want = json.loads(out), json.loads(want)
        assert [len(g["hits"]) for g in got["gaps"]] == [len(g["hits"]) for g in want["gaps"]]

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4,4,4,4", "--tau", "1", "--rtol", "1e-6")
        assert code == 0 and json.loads(out)["all_pass"] is True


class TestVerifyCommand:
    def test_lame_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1,0,0,0", "--tau", "1.0")
        assert code == 0
        d = json.loads(out)
        assert d["all_pass"] is True

    def test_unresolved_real_cluster_is_consistent(self, capsys):
        # at tau = 1.7i two band edges of (2,2,0,0) touch +-2 below float64
        # resolution and stay a real double cluster; the spectrum is still
        # real, so Theorem 1.1 holds
        code, out, _ = run(capsys, "verify", "--n", "2,2,0,0", "--tau", "1.7")
        d = json.loads(out)
        assert d["details"]["all_real_distinct"] is False
        assert d["details"]["num_complex_pairs"] == 0
        assert d["thm11_consistent"] is True
        assert code == 0 and d["all_pass"] is True
        code, out, _ = run(capsys, "spectrum", "--n", "2,2,0,0", "--tau", "1.7")
        d = json.loads(out)
        assert code == 0 and d["thm_1_1_consistent"] is True
        assert any(r["mult"] == 2 and r["real"] for r in d["roots"])

    def test_dual_past_the_chain_range(self, capsys):
        # the dual (9,1,1,0) has a weight the chain does not take; duality
        # and the trig limit read the Heun blocks, which take any weight
        code, out, _ = run(capsys, "verify", "--n", "6,4,4,3", "--tau", "1")
        d = json.loads(out)
        assert d["classification"]["dual"] == [9, 1, 1, 0]
        assert d["duality_match"] is True and d["trig_limit_match"] is True
        assert code == 0 and d["all_pass"] is True

    def test_exit_three_on_mismatch(self, capsys, monkeypatch):
        import hillband.cli as cli_mod

        def fake_verify(spec, settings=None):
            return {"all_pass": False, "thm11_consistent": False}

        monkeypatch.setattr(cli_mod, "verify_theorems", fake_verify)
        code, _, _ = run(capsys, "verify", "--n", "1,0,0,0", "--tau", "1.0")
        assert code == 3


class TestExitCodes:
    def test_usage_error_bad_n(self, capsys):
        code, _, err = run(capsys, "info", "--n", "1,2,3")
        assert code == 1 and "usage error" in err

    def test_usage_error_low_tau(self, capsys):
        code, _, err = run(capsys, "qpoly", "--n", "1,0,0,0", "--tau", "0.1")
        assert code == 1

    def test_numeric_failure(self, capsys):
        code, _, err = run(capsys, "qpoly", "--n", "9,0,0,0", "--tau", "1.0")
        assert code == 2 and "UnsupportedMultiplicity" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


class TestOverflow:
    @pytest.mark.parametrize("argv", [
        ["disc", "--n", "1,0,0,0", "--E", "1e6,0"],
        ["arcs", "--n", "1,0,0,0", "--window=-10,1e6,-1,1", "--res", "16"],
        # off the real axis the transport runs over E and conj E
        ["disc", "--n", "1,0,0,0", "--E", "1e6,5e5"],
    ])
    def test_overflow_is_named(self, argv):
        # Delta ~ exp(sqrt(E)) leaves double precision near E = 5e5; that is
        # a typed overflow failure, without float warnings on stderr
        import os
        import subprocess
        import sys
        from pathlib import Path

        import hillband

        src = str(Path(hillband.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "hillband.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert "TransportOverflow" in proc.stderr and "overflow" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


class TestLargeTau:
    @pytest.mark.parametrize("tau", ["40", "200"])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "1,0,0,0"],
        ["disc", "--n", "2,1,1,0", "--E", "3,0"],
        ["verify", "--n", "2,1,1,0"],
    ])
    def test_answers_or_typed_error(self, argv, tau):
        # q^k underflows while cos(2 pi k z) overflows at large Im tau; every
        # command answers or names its failure, with no float warning
        import os
        import subprocess
        import sys
        from pathlib import Path

        import hillband

        src = str(Path(hillband.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "hillband.cli", *argv, "--tau", tau],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode in (0, 2)
        if argv[0] != "verify":
            assert proc.returncode == 0 and proc.stdout
        if proc.returncode == 2:
            assert proc.stderr.startswith("numeric failure:")
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


class TestBoundaryValidation:
    @pytest.mark.parametrize("argv", [
        ["qpoly", "--n", "1,0,0,0", "--tau", "nan"],
        ["qpoly", "--n", "1,0,0,0", "--tau", "inf"],
        ["scan", "--n", "1,0,0,0", "--tau-list", "1,nan"],
        ["disc", "--n", "1,0,0,0", "--E", "2,0", "--rtol", "1e-15"],
        ["disc", "--n", "1,0,0,0", "--E", "2,0", "--rtol", "0"],
        ["disc", "--n", "1,0,0,0", "--E", "nan,0"],
        ["arcs", "--n", "1,0,0,0", "--window=a,1,2,3"],
        ["arcs", "--n", "1,0,0,0", "--window=-1,1,nan,1"],
        ["arcs", "--n", "1,0,0,0", "--window=-1,1,-1,1", "--res", "0"],
        ["arcs", "--n", "1,0,0,0", "--window=-1,1,-1,1", "--res", "1"],
        ["arcs", "--n", "1,0,0,0", "--tau", "1", "--window=5,5,-1,1", "--res", "16"],
        ["arcs", "--n", "1,0,0,0", "--tau", "1", "--window=-5,5,0,0", "--res", "16"],
        ["spectrum", "--n", "1,0,0,0", "--format", "csv"],
        ["verify", "--n", "1,0,0,0", "--format", "csv"],
    ])
    def test_bad_value_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "usage error" in err and "Traceback" not in err


_MALFORMED = ["", "nan", "inf", "1e400", "-0.1"]


def _pool(valid, *malformed):
    return st.one_of(valid, st.sampled_from(_MALFORMED + list(malformed)))


def _pair(re, im):
    return st.tuples(re, im).map(lambda p: f"{p[0]!r},{p[1]!r}")


def _window(re0, width, im0, height, shape):
    """re0,re1,im0,im1 of a finite window, its reverse, or one of zero width."""
    re1 = re0 if shape == "flat re" else re0 + width
    im1 = im0 if shape == "flat im" else im0 + height
    if shape == "reversed":
        re0, re1, im0, im1 = re1, re0, im1, im0
    return ",".join(map(repr, (re0, re1, im0, im1)))


def _windows(*shapes):
    return st.tuples(st.floats(-60.0, 60.0), st.floats(0.5, 40.0),
                     st.floats(-20.0, 20.0), st.floats(0.5, 20.0),
                     st.sampled_from(shapes)).map(lambda w: _window(*w))


_N = st.tuples(*[st.integers(0, 4)] * 4).map(lambda t: ",".join(map(str, t)))
# valid values of each flag, then the same pools mixed with malformed tokens
_VALID = {
    "--n": st.tuples(st.integers(1, 4), *[st.integers(0, 4)] * 3).map(
        lambda t: ",".join(str(min(k, t[0])) for k in t)),
    "--tau": st.floats(0.3, 3.0).map(repr),
    "--E": _pair(st.floats(-7e5, 7e5), st.floats(-7e5, 7e5)),
    "--rtol": st.sampled_from(["1e-12", "1e-10", "1e-8", "1e-6"]),
    "--window": _windows("finite", "reversed"),
    "--res": st.integers(2, 48).map(str),
}
_FLAG_POOLS = {
    "--n": _pool(_N, "1,0,0", "1,0,0,0,0", "9,0,0,0", "4,9,1,1"),
    "--tau": _pool(_VALID["--tau"]),
    "--E": _pool(_VALID["--E"], "1", "1,2,3", "nan,0", "0,inf", "1e400,0"),
    "--z0": _pool(_pair(st.floats(-1.0, 1.0), st.floats(0.05, 1.5)),
                  "0.1", "0.1,0.2,0.3", "0.1,nan"),
    "--rtol": _pool(_VALID["--rtol"], "0", "2"),
    "--window": _pool(_windows("finite", "reversed", "flat re", "flat im"),
                      "a,1,2,3", "1,2,3", "-1,1,nan,1", "1e400,2,0,1"),
    "--res": _pool(_VALID["--res"]),
}
_FLAGS_OF = {
    "info": ["--n"],
    "disc": ["--n", "--tau", "--E", "--z0", "--rtol"],
    "qpoly": ["--n", "--tau", "--z0"],
    "arcs": ["--n", "--tau", "--z0", "--rtol", "--window", "--res"],
    "spectrum": ["--n", "--tau", "--z0", "--rtol"],
    "verify": ["--n", "--tau", "--z0", "--rtol"],
}


def _assert_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    for text in (out, err):
        assert "NaN" not in text and "Infinity" not in text


class TestRobustness:
    # extreme inputs, run through the console entry point in this process:
    # each ends in an answer or a typed failure with a documented exit code,
    # and no NaN or Infinity reaches either stream (a float warning is an
    # error under this suite's filterwarnings)
    @pytest.mark.parametrize("argv", [
        ["gaps", "--n", "1,0,1,0", "--tau", "0.35"],
        ["scan", "--n", "3,2,3,3", "--tau-list", "0.6,1.0,1.7"],
        ["verify", "--n", "1,0,1,0", "--tau", "0.35"],
        ["scan", "--n", "1,0,1,0", "--tau-list", "0.35", "--gaps"],
        ["disc", "--n", "1,0,0,0", "--E", "1e6,0"],
        ["disc", "--n", "1,0,0,0", "--E", "0,1e300"],
        ["qpoly", "--n", "3,3,0,0", "--tau", "8"],
        ["gaps", "--n", "3,3,3,3", "--tau", "0.3"],
        ["verify", "--n", "3,3,3,3", "--tau", "0.3"],
        ["spectrum", "--n", "3,3,3,3", "--tau", "0.3"],
        ["arcs", "--n", "1,0,0,0", "--window=-1e6,1e6,-1,1", "--res", "16"],
        ["info", "--n", "0,0,0,0"],
    ])
    def test_extreme_argv(self, capsys, monkeypatch, argv):
        from hillband.cli import main

        monkeypatch.setattr("sys.argv", ["hillband", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        out, err = capsys.readouterr()
        assert exc.value.code in (0, 1, 2, 3)
        assert "Traceback" not in err
        for text in (out, err):
            assert "NaN" not in text and "Infinity" not in text

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_drawn_argv(self, capsys, data):
        # the same contract on argv drawn from pools that mix valid flag
        # values with malformed tokens; --n (and --E for disc, --window for
        # arcs) always given
        cmd = data.draw(st.sampled_from(sorted(_FLAGS_OF)))
        argv = [cmd]
        for flag in _FLAGS_OF[cmd]:
            if flag in ("--n", "--E", "--window") or data.draw(st.booleans()):
                argv.append(f"{flag}={data.draw(_FLAG_POOLS[flag])}")
        _assert_contract(*run(capsys, *argv))

    @pytest.mark.parametrize("cmd", ["arcs", "disc", "qpoly", "spectrum", "verify"])
    @settings(max_examples=16, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_drawn_engines(self, capsys, cmd, data):
        # the same contract on argv whose every value is valid, so that each
        # draw runs its command's engine: n0 = max(n) as verify asks, and
        # --z0 sits between the pole rows at Im 0 and Im tau/2
        tau = data.draw(st.floats(0.3, 3.0))
        argv = [cmd, f"--n={data.draw(_VALID['--n'])}", f"--tau={tau!r}"]
        if data.draw(st.booleans()):
            argv.append(f"--z0={data.draw(st.floats(-1.0, 1.0))!r},"
                        f"{data.draw(st.floats(0.1, 0.4)) * tau!r}")
        for flag in _FLAGS_OF[cmd]:
            if flag in ("--E", "--window", "--res") or (
                    flag == "--rtol" and data.draw(st.booleans())):
                argv.append(f"{flag}={data.draw(_VALID[flag])}")
        _assert_contract(*run(capsys, *argv))

    def test_scan_names_an_overflowing_discriminant(self, capsys):
        # |disc Q| passes e^700 at 0.6i and i: those cells read n/a, the
        # finite one at 1.7i is printed
        code, out, _ = run(capsys, "scan", "--n", "3,2,3,3", "--tau-list", "0.6,1.0,1.7")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[3:5] for row in rows[:2]] == [["n/a", "n/a"]] * 2
        assert np.isfinite(float(rows[2][3]))
