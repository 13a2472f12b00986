import builtins
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cssm.cli
from cssm.cli import build_parser, main, read_series
from cssm.critval import DEFAULT_ALPHA, DEFAULT_SEED, BridgeConfig, critical_value
from cssm.cusum import cssm_test
from cssm.longrun import DEFAULT_BETA
from cssm.mc import DEFAULT_REPLICATIONS, rep_seed
from cssm.models import DEFAULT_BURN_IN, ChangeSpec, ModelSpec, simulate, simulate_with_change

from oracles import read_series_reference


def run_cli(*args, capsys=None):
    code = main(list(args))
    if capsys is None:
        return code, None, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReadSeries:
    def test_undecodable_file_is_named(self, tmp_path, capsys):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"\xff1.0\n2.0\n")
        with pytest.raises(ValueError, match=f"{f}: not UTF-8 text"):
            read_series(f)
        code, _, err = run_cli("detect", str(f), capsys=capsys)
        assert code == 2
        assert f"{f}: not UTF-8 text" in err

    def test_file_failing_the_byte_gate_is_opened_once(self, tmp_path, monkeypatch):
        f = tmp_path / "x.txt"
        f.write_bytes(b"# h\r\n1.5\r\n")
        opened = []

        def spy(*args, **kwargs):
            opened.append(args)
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(cssm.cli, "open", spy, raising=False)
        np.testing.assert_array_equal(read_series(f), [1.5])
        assert len(opened) == 1


def parse_outcome(parse, path):
    """The parsed values as a list, or the message of the ValueError raised."""
    try:
        return list(parse(path))
    except ValueError as exc:
        return str(exc)


def bytes_outcome(parse, path):
    """The parsed values' float64 bytes, or the message of the ValueError raised.

    Warnings are errors: no warning may reach the user."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.array(parse(path), dtype=np.float64).tobytes()
        except ValueError as exc:
            return str(exc)


class TestReadSeriesParity:
    """The bulk parser gives exactly what the per-line loop gives."""

    @pytest.mark.parametrize("raw,want", [
        (b"1.0\r\n2.0\r\n", [1.0, 2.0]),
        (b"1.0\r2.0\r", [1.0, 2.0]),
        (b"1.0\n2.5", [1.0, 2.5]),
        (b"1_000\n+2.5e3\n", [1000.0, 2500.0]),
        (b"1.0\n1 2\n", "line 2: not a number"),
        (b"1.0\x0c2.0\n3.0\n", "line 1: not a number"),
        (b"1.0\n2.0\ninf\n", "line 3: non-finite"),
        (b"nan\nfoo\n", "line 1: non-finite"),
        (b"\n  \n# only a comment\n", "no data lines found"),
        (b"1 2\n", "line 1: not a number"),
        (b"1 2\n3 4\n5 6\n", "line 1: not a number"),
        (b"1 # c\n2\n", "line 1: not a number"),
        (b"# header\n1.5\n-2.5\n", [1.5, -2.5]),
        ("\u0661\u0662\n\u0663.\u0665\n".encode(), [12.0, 3.5]),
        (b"\n \n\t\n", "no data lines found"),
        (b"", "no data lines found"),
        ("1.0\u20282.0\n".encode(), "line 1: not a number"),
        (b"1\x00\n2\n", "line 1: not a number"),
        (b"1e400\n2\n", "line 1: non-finite"),
        (b"1.0\n\n# c\nx\n", "line 4: not a number"),
        (b"\xef\xbb\xbf# c\r\n1.5\r\n\r\nx\r\n", "line 4: not a number"),
        (b"+e\x0c9-879.6\n\x0bE\xc3", "not UTF-8 text"),
        (b"# header\n1.5\n\n  2.5\n# trailing\n", [1.5, 2.5]),
        (b"\xef\xbb\xbf1.5\n-2.0\n", [1.5, -2.0]),
    ], ids=["crlf", "cr", "no-final-newline", "underscore-and-plus", "two-fields",
            "form-feed", "inf", "first-bad-line-wins", "no-data", "one-line-two-fields",
            "two-columns", "inline-comment", "header", "arabic-indic-digits", "blank-only",
            "empty", "line-separator", "nul", "overflow", "skipped-lines-counted",
            "bom-crlf-comment", "truncated-utf8", "comments-and-blanks", "byte-order-mark"])
    def test_same_outcome_as_per_line_loop(self, tmp_path, raw, want):
        f = tmp_path / "x.txt"
        f.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may reach the user
            got = parse_outcome(read_series, f)
        assert got == parse_outcome(read_series_reference, f)
        if isinstance(want, str):
            assert isinstance(got, str) and want in got
        else:
            assert got == want

    # each passes the byte gate for numpy's parser; the first eight fail there too
    @pytest.mark.parametrize("raw,want", [
        (b"1e\n2\n", "line 1: not a number"),
        (b"1.5\n1e\n", "line 2: not a number"),
        (b"1.2.3\n", "line 1: not a number"),
        (b"5-3\n", "line 1: not a number"),
        (b"+\n", "line 1: not a number"),
        (b".\n", "line 1: not a number"),
        (b"1e999\n", "line 1: non-finite"),
        (b"\n\n2\n1e999\n", "line 4: non-finite"),
        (b"1\n\n2\n", [1.0, 2.0]),
        (b"\n1\n", [1.0]),
        (b"1e-400\n", [0.0]),
        (b"-0\n", [-0.0]),
    ], ids=["bare-exponent", "bare-exponent-on-line-2", "two-points", "inner-minus", "bare-plus",
            "bare-point", "overflow", "overflow-after-blanks", "blank-line", "leading-blank",
            "underflow", "negative-zero"])
    def test_plain_bytes_same_outcome(self, tmp_path, raw, want):
        f = tmp_path / "x.txt"
        f.write_bytes(raw)
        got = bytes_outcome(read_series, f)
        assert got == bytes_outcome(read_series_reference, f)
        if isinstance(want, str):
            assert isinstance(got, str) and want in got
        else:  # bytes, so the sign of -0.0 counts
            assert got == np.array(want).tobytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.text(alphabet="0123456789+-.eE\n"),
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
                           st.text(alphabet="0123456789+-.eE", max_size=5))).map("\n".join)))
    @example("\n\n")
    @example("1e308\n1e309\n")
    def test_plain_bytes_property(self, tmp_path, text):
        f = tmp_path / "x.txt"
        f.write_bytes(text.encode())
        assert bytes_outcome(read_series, f) == bytes_outcome(read_series_reference, f)

    # characters that float(), str.strip and the split on "\n" treat differently
    _WIDE = ["0", "1", "7", "9", "+", "-", ".", "e", "E", "\n", "\r", "\r\n", " ", "\t", "#",
             "_", "a", "n", "i", "f", "x", "\x0b", "\x0c", "\x1c", "\x85", "\u3000"]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.booleans(), st.lists(st.one_of(
        st.sampled_from(_WIDE),
        st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}\n".format))).map("".join))
    @example(False, "1\x852\n")
    def test_wide_text_property(self, tmp_path, bom, text):
        f = tmp_path / "x.txt"
        f.write_bytes(("\ufeff" if bom else "").encode() + text.encode())
        assert bytes_outcome(read_series, f) == bytes_outcome(read_series_reference, f)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_undecodable_byte_past_8k(self, tmp_path, bom):
        # text mode would decode in 8 KB chunks; both decode the whole file, so they
        # name the position in the whole file after any byte-order mark
        body = b"1.5\n" * 3000 + b"\xff\n"
        f = tmp_path / "x.txt"
        f.write_bytes(bom + body)
        with pytest.raises(ValueError) as ref:
            read_series_reference(f)
        with pytest.raises(ValueError) as got:
            read_series(f)
        assert str(got.value) == str(ref.value)
        assert str(got.value) == (f"{f}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                                  "in position 12000: invalid start byte")

    def test_simulated_file_is_bit_identical(self, tmp_path, capsys):
        f = tmp_path / "long.txt"
        assert main(["simulate", "--family", "garch11", "--params", "0.1,0.1,0.8",
                     "--n", "100000", "--seed", "5", "--out", str(f)]) == 0
        got = read_series(f)
        assert got.dtype == np.float64 and got.shape == (100000,)
        assert got.tobytes() == np.array(read_series_reference(f)).tobytes()


class TestSimulate:
    def test_roundtrip_is_lossless(self, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        code = main([
            "simulate", "--family", "garch11", "--params", "0.5,0.1,0.2",
            "--n", "300", "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        want = simulate(ModelSpec.garch11(0.5, 0.1, 0.2), 300, seed=42)
        np.testing.assert_array_equal(read_series(out), want.values)

    def test_stdout_emission(self, capsys):
        code, out, _ = run_cli(
            "simulate", "--family", "ma2", "--params", "0.3,0.3",
            "--n", "5", "--seed", "1", capsys=capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_change_requires_params_after(self, tmp_path, capsys):
        code, _, err = run_cli(
            "simulate", "--family", "ma2", "--params", "0.3,0.3",
            "--n", "10", "--seed", "1", "--change-at", "5", capsys=capsys,
        )
        assert code == 2
        assert "params-after" in err
        code, _, err = run_cli(
            "simulate", "--family", "ma2", "--params", "0.3,0.3",
            "--n", "10", "--seed", "1", "--params-after", "0.1,0.1", capsys=capsys,
        )
        assert code == 2
        assert "--params-after requires --change-at" in err

    def test_noise_sigma_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--family", "garch11", "--params", "0.5,0.4,0.5",
                  "--n", "10", "--noise-sigma", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --noise-sigma" in capsys.readouterr().err

    def test_negative_params_in_equals_form(self, capsys):
        code, out, _ = run_cli(
            "simulate", "--family", "ma2", "--params=-0.3,0.5", "--n", "5",
            "--change-at", "2", "--params-after=0.3,-0.5", capsys=capsys,
        )
        assert code == 0
        change = ChangeSpec(2, ModelSpec.ma2(-0.3, 0.5), ModelSpec.ma2(0.3, -0.5))
        want = simulate_with_change(change, 5, DEFAULT_SEED)
        np.testing.assert_array_equal(np.array(out.split(), dtype=float), want.values)

    def test_negative_seed_exits_2_naming_seed(self, capsys):
        code, out, err = run_cli("simulate", "--family", "ma2", "--params", "0.3,0.3",
                                 "--n", "5", "--seed", "-5", capsys=capsys)
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, got -5" in err

    def test_bad_params_error(self, capsys):
        code, _, err = run_cli(
            "simulate", "--family", "ma2", "--params", "a,b",
            "--n", "10", "--seed", "1", capsys=capsys,
        )
        assert code == 2
        assert "comma-separated" in err


class TestDetect:
    def test_zeros_file_no_change(self, tmp_path, capsys):
        f = tmp_path / "zeros.txt"
        f.write_text("0.0\n" * 1000)
        code, out, _ = run_cli("detect", str(f), "--L", "1", capsys=capsys)
        assert code == 0
        assert "statistic: 0" in out
        assert "change_detected: no" in out

    def test_bad_line_exits_2(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\n2.0\nnot-a-number\n")
        code, _, err = run_cli("detect", str(f), capsys=capsys)
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("argv", [f"--L {10**400}", f"--L {10**18} --beta 0.49",
                                      f"--L {10**700} --beta 0.49"])
    def test_absurd_L_exits_2_naming_minimum(self, tmp_path, argv, capsys):
        f, cache = tmp_path / "x.txt", tmp_path / "cache.txt"
        f.write_text("1.0\n-1.0\n" * 150)
        code, out, err = run_cli("detect", str(f), *argv.split(), "--cache", str(cache),
                                 capsys=capsys)
        assert (code, out) == (2, "")
        assert "minimum usable n is" in err
        assert not cache.exists()

    @pytest.mark.parametrize("target, exc, message", [
        ("cssm.critval.simulate_bridge_sup", MemoryError("Unable to allocate 224. GiB"),
         "Unable to allocate 224. GiB"),
        ("cssm.cli.read_series", MemoryError(), "MemoryError"),
        ("cssm.cli.read_series", OverflowError("int too large to convert to C long"),
         "int too large to convert to C long"),
    ])
    def test_memory_and_overflow_errors_exit_2_not_1(self, tmp_path, monkeypatch, target, exc,
                                                     message, capsys):
        # exit 1 means "change detected", so no failure may leave through it
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(target, fail)
        f, cache = tmp_path / "x.txt", tmp_path / "cache.txt"
        f.write_text("1.0\n-1.0\n" * 150)
        code, out, err = run_cli("detect", str(f), "--L", "2", "--reps", "1000",
                                 "--cache", str(cache), capsys=capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not cache.exists()

    @pytest.mark.parametrize("argv, name", [
        ("simulate --family arma11 --params nan,0.1 --n 10", "phi"),
        ("detect {series} --alpha 1.5 --cache {cache}", "alpha"),
        ("detect {series} --beta 0.7 --cache {cache}", "beta"),
        ("critval --L 2 --alpha 0 --cache {cache}", "alpha"),
    ])
    def test_bad_real_flag_exits_2_naming_it(self, tmp_path, argv, name, capsys):
        series, cache = tmp_path / "x.txt", tmp_path / "cache.txt"
        series.write_text("".join(f"{v:.17g}\n" for v in np.linspace(-1.0, 1.0, 300)))
        code, out, err = run_cli(*argv.format(series=series, cache=cache).split(), capsys=capsys)
        assert (code, out) == (2, "")
        assert f"error: {name} must be " in err
        assert not cache.exists()

    def test_short_series_fails_before_critical_value(self, tmp_path, capsys):
        # (L=2, alpha=0.05) is not built in; bad data must fail before the
        # bridge simulation that would resolve it and fill the cache.  L=1 is built in
        f = tmp_path / "short.txt"
        cache = tmp_path / "cache.txt"
        for L, text in (("2", "1.0\n-1.0\n0.5\n"), ("1", "1.0\n-1.0\n")):
            f.write_text(text)
            code, _, err = run_cli("detect", str(f), "--L", L, "--cache", str(cache),
                                   capsys=capsys)
            assert code == 2
            assert "minimum usable n" in err
            assert not cache.exists()

    def test_alpha_resolved_by_simulation(self, tmp_path, capsys):
        # off the built-in table the command simulates the threshold and caches it
        f = tmp_path / "x.txt"
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1).values
        f.write_text("".join(f"{v:.17g}\n" for v in x))
        cache = tmp_path / "cache.txt"
        code, out, _ = run_cli("detect", str(f), "--alpha", "0.01", "--grid", "200",
                               "--reps", "2000", "--seed", "9", "--cache", str(cache),
                               capsys=capsys)
        assert code in (0, 1)
        want = critical_value(1, 0.01, BridgeConfig(200, 2000, 9))
        assert f"critical_value: {want:.6g}" in out.splitlines()
        assert len(cache.read_text().splitlines()) == 1

    def test_table_threshold_ignores_bridge_flags(self, tmp_path, no_bridges, capsys):
        f = tmp_path / "x.txt"
        x = simulate(ModelSpec.arma11(0.2, 0.1), 300, seed=3).values
        f.write_text("".join(f"{v:.17g}\n" for v in x))
        code, out, _ = run_cli("detect", str(f), "--reps", "10", "--grid", "3", capsys=capsys)
        assert code in (0, 1)
        assert "critical_value: 2.408" in out.splitlines()

    def test_nan_cache_record_exits_2(self, tmp_path, capsys):
        # a NaN threshold would never reject; it must not reach the decision
        f = tmp_path / "x.txt"
        x = simulate(ModelSpec.arma11(0.2, 0.1), 300, seed=3).values
        f.write_text("".join(f"{v:.17g}\n" for v in x))
        cache = tmp_path / "cache.txt"
        cache.write_text("2 0.05 200 2000 9 nan\n")
        code, _, err = run_cli("detect", str(f), "--L", "2", "--grid", "200", "--reps", "2000",
                               "--seed", "9", "--cache", str(cache), capsys=capsys)
        assert code == 2
        assert "critical value must be finite" in err

    def test_variance_change_detected_near_break(self, tmp_path, capsys):
        sim = tmp_path / "fig4.txt"
        assert main([
            "simulate", "--family", "product2dep", "--params", "0,1",
            "--n", "1000", "--seed", str(rep_seed(12345, 1)),
            "--change-at", "500", "--params-after", "0,1.26",
            "--out", str(sim),
        ]) == 0
        report = tmp_path / "report.txt"
        code, out, _ = run_cli(
            "detect", str(sim), "--out", str(report), capsys=capsys,
        )
        assert code == 1
        assert "change_detected: yes" in out
        idx = int(out.split("change_index: ")[1].split()[0])
        assert abs(idx - 500) <= 60
        assert report.read_text().strip() == out.strip()

    def test_readme_demo(self, tmp_path, capsys):
        demo = tmp_path / "demo.txt"
        assert main(["simulate", "--family", "product2dep", "--params", "0,1", "--n", "1000",
                     "--seed", "12344", "--change-at", "500", "--params-after", "0,1.26",
                     "--out", str(demo)]) == 0
        code, out, _ = run_cli("detect", str(demo), "--L", "1", capsys=capsys)
        assert code == 1
        assert {"statistic: 2.63241", "change_index: 534"} <= set(out.splitlines())

    def test_emit_path_matches_statistic(self, tmp_path, capsys):
        sim = tmp_path / "series.txt"
        main([
            "simulate", "--family", "arma11", "--params", "0.2,0.1",
            "--n", "400", "--seed", "7", "--out", str(sim),
        ])
        path_csv = tmp_path / "path.csv"
        code, out, _ = run_cli(
            "detect", str(sim), "--path-out", str(path_csv), capsys=capsys,
        )
        assert code in (0, 1)
        rows = path_csv.read_text().strip().splitlines()
        assert rows[0] == "k,path_value,critical_value"
        body = [r.split(",") for r in rows[1:]]
        assert len(body) == 400 - 1 - 1  # n - 1 - L
        ks = [int(r[0]) for r in body]
        assert ks[0] == 2 and ks[-1] == 399
        values = np.array([float(r[1]) for r in body])
        assert (values >= 0).all()
        res = cssm_test(read_series(sim), 1)
        assert values.max() == res.statistic
        assert float(body[0][2]) == res.critical_value

    def test_tiny_scale_file_matches_unscaled(self, tmp_path, capsys):
        # the same report across the double range, and no warning on the way
        x = simulate(ModelSpec.arma11(0.2, 0.1), 600, seed=42).values
        reports = []
        for scale in (1.0, 1e-90, 1e200, 1e-200, 3e300, 5e-300):
            f = tmp_path / f"x{scale}.txt"
            f.write_text("\n".join(format(v, ".17g") for v in scale * x))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, _ = run_cli("detect", str(f), "--L", "1", capsys=capsys)
            fields = dict(line.split(": ") for line in out.splitlines())
            reports.append((code, fields["statistic"], fields["change_index"]))
        assert reports == [reports[0]] * 6
        assert float(reports[0][1]) > 0.0

    @pytest.mark.parametrize("flag", ["--out", "--path-out"])
    def test_unwritable_output_prints_no_report(self, tmp_path, flag, capsys):
        f = tmp_path / "s.txt"
        f.write_text("\n".join(str(v) for v in np.random.default_rng(3).standard_normal(300)))
        code, out, err = run_cli("detect", str(f), flag, str(tmp_path / "missing" / "x"),
                                 capsys=capsys)
        assert code == 2
        assert out == ""
        assert "missing" in err

    def test_center_flag_changes_statistic(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        f = tmp_path / "shifted.txt"
        f.write_text("\n".join(format(v, ".17g") for v in rng.standard_normal(500) + 5.0))
        _, out_raw, _ = run_cli("detect", str(f), capsys=capsys)
        _, out_centered, _ = run_cli("detect", str(f), "--center", capsys=capsys)
        stat_raw = float(out_raw.split("statistic: ")[1].split()[0])
        stat_centered = float(out_centered.split("statistic: ")[1].split()[0])
        assert stat_raw != stat_centered


class TestCritvalCommand:
    def test_builtin_lookup(self, capsys):
        code, out, _ = run_cli("critval", "--L", "1", "--alpha", "0.05", capsys=capsys)
        assert code == 0
        assert float(out.strip()) == 2.408

    def test_prints_shortest_round_trip_text(self, capsys):
        assert run_cli("critval", "--L", "1", capsys=capsys) == (0, "2.408\n", "")

    def test_table_entry_ignores_bridge_flags(self, no_bridges, capsys):
        # (L=1, alpha=0.05) needs no simulation, so --reps 10 is never checked
        code, out, _ = run_cli("critval", "--L", "1", "--reps", "10", capsys=capsys)
        assert code == 0
        assert float(out) == 2.408

    def test_off_table_still_checks_bridge_flags(self, tmp_path, capsys):
        # an impossible count fails at once, before any batch is simulated
        cache = tmp_path / "cache.txt"
        for reps, message in (("10", "replications must be >= 1000, got 10"),
                              (str(10**30), "replications must fit in memory")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli("critval", "--L", "2", "--reps", reps,
                                         "--cache", str(cache), capsys=capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and message in err
            assert not cache.exists()

    def test_simulated_value_is_pinned(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_cli("critval", "--L", "2", "--alpha", "0.01", "--reps", "2000", "--seed", "7",
                          "--cache", str(tmp_path / "cache.txt"), capsys=capsys)
        assert got == (0, "4.1203916507230804\n", "")

    def test_simulated_value_cached(self, tmp_path, monkeypatch, capsys):
        # with --cache, and without it in the default file of the working directory
        monkeypatch.chdir(tmp_path)
        args = ["critval", "--L", "0", "--alpha", "0.1", "--grid", "120",
                "--reps", "1500", "--seed", "5"]
        want = critical_value(0, 0.1, BridgeConfig(120, 1500, 5))
        for flags, cache in ((["--cache", "cache.txt"], tmp_path / "cache.txt"),
                             ([], tmp_path / "cssm_critval_cache.txt")):
            code, out, _ = run_cli(*args, *flags, capsys=capsys)
            assert code == 0
            assert float(out.strip()) == want
            assert cache.exists()
            record = cache.read_text()
            assert len(record.strip().splitlines()) == 1
            # a second run reads the record back and appends nothing
            assert run_cli(*args, *flags, capsys=capsys) == (0, out, "")
            assert cache.read_text() == record

    @pytest.mark.parametrize("record", ["nan", "-3"])
    def test_bad_cache_record_exits_2(self, tmp_path, capsys, record):
        cache = tmp_path / "cache.txt"
        cache.write_text(f"2 0.01 200 2000 9 {record}\n")
        code, out, err = run_cli("critval", "--L", "2", "--alpha", "0.01", "--grid", "200",
                                 "--reps", "2000", "--seed", "9", "--cache", str(cache),
                                 capsys=capsys)
        assert code == 2
        assert out == ""
        assert "critical value must be finite and nonnegative" in err


class TestDefaults:
    def test_flags_default_to_the_library_constants(self):
        parser = build_parser()
        cfg = BridgeConfig()
        for argv in (["detect", "x.txt"], ["critval", "--L", "1"]):
            args = parser.parse_args(argv)
            assert args.alpha == DEFAULT_ALPHA
            assert (args.grid, args.reps, args.seed) == (cfg.grid_points, cfg.replications,
                                                         cfg.seed)
        assert parser.parse_args(["detect", "x.txt"]).beta == DEFAULT_BETA
        sim = parser.parse_args(["simulate", "--family", "ma2", "--params", "0,0", "--n", "5"])
        assert (sim.seed, sim.burn_in) == (DEFAULT_SEED, DEFAULT_BURN_IN)
        power = parser.parse_args(["power", "--table", "T1", "--out", "t1.csv"])
        assert (power.reps, power.seed) == (DEFAULT_REPLICATIONS, DEFAULT_SEED)


class TestPowerCommand:
    def test_beta_is_not_an_option(self, tmp_path, capsys):
        out_csv = tmp_path / "t1.csv"
        with pytest.raises(SystemExit) as exc:
            main(["power", "--table", "T1", "--beta", "0.3", "--reps", "2",
                  "--out", str(out_csv)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --beta 0.3" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_small_table_run(self, tmp_path, capsys):
        out_csv = tmp_path / "t2b.csv"
        code, out, _ = run_cli(
            "power", "--table", "T2b", "--reps", "4", "--seed", "3",
            "--out", str(out_csv), capsys=capsys,
        )
        assert code == 0
        assert "T2b mu=1.5" in out
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("scenario,")

    def test_several_tables_concatenate_into_one_csv(self, tmp_path, capsys):
        # one header, then each table's rows in the order given; every
        # column but the last (wall_time_ms) matches the single-table runs
        rows = {}
        for tables in (("T2b", "T2a"), ("T2b",), ("T2a",)):
            out_csv = tmp_path / ("_".join(tables) + ".csv")
            code, _, _ = run_cli(
                "power", "--table", *tables, "--reps", "4", "--seed", "3",
                "--out", str(out_csv), capsys=capsys,
            )
            assert code == 0
            rows[tables] = [line.rsplit(",", 1)[0]
                            for line in out_csv.read_text().splitlines()]
        assert len(rows["T2b", "T2a"]) == 9
        assert rows["T2b", "T2a"] == rows["T2b",] + rows["T2a",][1:]

    def test_unwritable_out_fails_before_the_study(self, tmp_path, monkeypatch, capsys):
        def no_study(*args):
            raise AssertionError("the study ran before --out was checked")

        monkeypatch.setattr("cssm.cli.run_scenario", no_study)
        bad = tmp_path / "missing" / "t1.csv"
        code, out, err = run_cli("power", "--table", "T1", "--reps", "20",
                                 "--out", str(bad), capsys=capsys)
        assert code == 2
        assert out == ""
        assert str(bad) in err

    @pytest.mark.parametrize("reps,seed,message", [
        ("3", "-5", "seed must be >= 0, got -5"),
        ("0", "1", "replications must be >= 1"),
    ])
    def test_failed_study_leaves_out_as_it_was(self, tmp_path, reps, seed, message, capsys):
        fresh, kept = tmp_path / "new.csv", tmp_path / "old.csv"
        kept.write_bytes(b"scenario,earlier run\r\n")
        for out in (fresh, kept):
            code, stdout, err = run_cli("power", "--table", "T2b", "--reps", reps, "--seed", seed,
                                        "--out", str(out), capsys=capsys)
            assert code == 2
            assert stdout == ""
            assert message in err
        assert not fresh.exists()
        assert kept.read_bytes() == b"scenario,earlier run\r\n"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            "power", "--table", "T2b", "--reps", "5", "--seed", "-3000000",
            "--out", str(tmp_path / "t2b.csv"), capsys=capsys,
        )
        assert code == 2
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize("seed", ["-3000000", "-1000"])
    def test_negative_seed_is_named_as_given(self, tmp_path, seed, capsys):
        # a base seed in (-2**21, 0) used to give valid seeds to every scenario
        code, out, err = run_cli("power", "--table", "T1", "--reps", "3", "--seed", seed,
                                 "--out", str(tmp_path / "t1.csv"), capsys=capsys)
        assert code == 2
        assert out == ""
        assert f"seed must be >= 0, got {seed}\n" in err
