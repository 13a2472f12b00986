import numpy as np
import pytest

from cssm.cli import main, read_series
from cssm.critval import BridgeConfig, critical_value
from cssm.cusum import cssm_test
from cssm.mc import rep_seed

from oracles import read_series_reference


def run_cli(*args, capsys=None):
    code = main(list(args))
    if capsys is None:
        return code, None, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReadSeries:
    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("# header\n1.5\n\n  2.5\n# trailing\n")
        np.testing.assert_array_equal(read_series(f), [1.5, 2.5])

    def test_bad_line_cites_line_number(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1.0\nfoo\n2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_series(f)

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1.0\nnan\n")
        with pytest.raises(ValueError, match="line 2"):
            read_series(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no data"):
            read_series(f)


def parse_outcome(parse, path):
    """The parsed values as a list, or the message of the ValueError raised."""
    try:
        return list(parse(path))
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
    ], ids=["crlf", "cr", "no-final-newline", "underscore-and-plus", "two-fields",
            "form-feed", "inf", "first-bad-line-wins", "no-data"])
    def test_same_outcome_as_per_line_loop(self, tmp_path, raw, want):
        f = tmp_path / "x.txt"
        f.write_bytes(raw)
        got = parse_outcome(read_series, f)
        assert got == parse_outcome(read_series_reference, f)
        if isinstance(want, str):
            assert isinstance(got, str) and want in got
        else:
            assert got == want


class TestSimulate:
    def test_roundtrip_is_lossless(self, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        code = main([
            "simulate", "--family", "garch11", "--params", "0.5,0.1,0.2",
            "--n", "300", "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        from cssm.models import ModelSpec, simulate
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

    def test_insufficient_data_exits_2_naming_minimum(self, tmp_path, capsys):
        f = tmp_path / "tiny.txt"
        f.write_text("1.0\n-1.0\n")
        code, _, err = run_cli("detect", str(f), "--L", "1", capsys=capsys)
        assert code == 2
        assert "minimum usable n" in err

    def test_short_series_fails_before_critical_value(self, tmp_path, capsys):
        # (L=2, alpha=0.05) is not built in; bad data must fail before the
        # bridge simulation that would resolve it and fill the cache
        f = tmp_path / "short.txt"
        f.write_text("1.0\n-1.0\n0.5\n")
        cache = tmp_path / "cache.txt"
        code, _, err = run_cli("detect", str(f), "--L", "2", "--cache", str(cache),
                               capsys=capsys)
        assert code == 2
        assert "minimum usable n" in err
        assert not cache.exists()

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

    def test_simulated_value_cached(self, tmp_path, capsys):
        cache = tmp_path / "cache.txt"
        args = ["critval", "--L", "0", "--alpha", "0.1", "--grid", "120",
                "--reps", "1500", "--seed", "5", "--cache", str(cache)]
        code, out, _ = run_cli(*args, capsys=capsys)
        assert code == 0
        want = critical_value(0, 0.1, BridgeConfig(120, 1500, 5))
        assert float(out.strip()) == want
        assert cache.exists()
        assert len(cache.read_text().strip().splitlines()) == 1


class TestPowerCommand:
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
