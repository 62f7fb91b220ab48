"""CLI tests: config parsing and merging, sweep output format, determinism,
paired draws, custom profile and channel inputs."""

import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import ofdmse
from ofdmse import cli
from ofdmse.channel import tux_profile
from ofdmse.cli import (
    CSV_HEADER,
    SweepConfig,
    _parse_pt,
    _parse_snr,
    _parse_systems,
    main,
    run_sweep,
    series_payload,
    trial_gammas,
    write_csv,
)
from ofdmse.metrics import SweepPoint

FULL_ROW = "ask:8,psk:16,qam:64"

FIXTURES = Path(__file__).parent / "fixtures"


def small_config(**overrides):
    base = dict(systems=("lte", "cm"), snr_db=(10.0, 20.0), p_t=(1e-3,),
                trials=6, seed=3, workers=1)
    base.update(overrides)
    return SweepConfig(**base)


def write_full_profile(path, name_rows=FULL_ROW):
    lines = ["12 7"]
    for k in range(12):
        for l in range(7):
            lines.append(f"{k} {l} data {name_rows}")
    path.write_text("\n".join(lines) + "\n")


class TestParsers:
    def test_snr_range(self):
        assert _parse_snr("0:2:40") == tuple(float(s) for s in range(0, 41, 2))
        assert _parse_snr("40") == (40.0,)
        assert _parse_snr([0, 10]) == (0.0, 10.0)
        assert _parse_snr("0:3:10") == (0.0, 3.0, 6.0, 9.0)
        with pytest.raises(ValueError):
            _parse_snr("0:2")
        with pytest.raises(ValueError):
            _parse_snr("0:-2:40")
        with pytest.raises(ValueError):
            _parse_snr("10:2:0")

    def test_pt_and_systems(self):
        assert _parse_pt("1e-2,1e-3") == (1e-2, 1e-3)
        assert _parse_pt([1e-4]) == (1e-4,)
        assert _parse_systems("FB, lte") == ("fb", "lte")
        assert _parse_systems(["cm"]) == ("cm",)


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.systems == ("fb", "cm", "lte", "mlte")
        assert len(cfg.snr_db) == 21
        assert cfg.p_t == (1e-3,)
        assert cfg.trials == 1000 and cfg.n_fft == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(systems=())
        with pytest.raises(ValueError):
            SweepConfig(systems=("dvb",))
        with pytest.raises(ValueError):
            SweepConfig(systems=("fb", "fb"))
        with pytest.raises(ValueError, match="^duplicate p_t values$"):
            SweepConfig(p_t=(1e-2, 1e-3, 0.001))
        with pytest.raises(ValueError):
            SweepConfig(p_t=(0.6,))
        with pytest.raises(ValueError):
            SweepConfig(trials=0)
        with pytest.raises(ValueError):
            SweepConfig(granularity="symbol")
        with pytest.raises(ValueError):
            SweepConfig(workers=0)
        with pytest.raises(ValueError):
            SweepConfig(seed=-1)

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf, 1e6, -1e6])
    def test_unusable_snr_names_the_flag(self, snr):
        # the library names the field; ofdmse sweep leads with the flag or
        # config key (see test_snr_refusal_names_the_config_key)
        with pytest.raises(ValueError, match="^snr_db value "):
            SweepConfig(snr_db=(10.0, snr))

    def test_extreme_but_usable_snr_accepted(self):
        assert SweepConfig(snr_db=(-300.0, 300.0)).snr_db == (-300.0, 300.0)

    def test_numpy_scalar_entries_stored_as_floats(self):
        # a kept float32 SNR would give float32 noise variances, so other gammas
        cfg = SweepConfig(systems=("fb",), snr_db=[np.float32(12.5), np.int64(20), 30],
                          p_t=[np.float32(2.0 ** -10)], n_f=3, n_t=2)
        plain = SweepConfig(systems=("fb",), snr_db=(12.5, 20.0, 30.0), p_t=(2.0 ** -10,),
                            n_f=3, n_t=2)
        assert cfg.snr_db == plain.snr_db and cfg.p_t == plain.p_t
        assert all(type(v) is float for v in cfg.snr_db + cfg.p_t)
        for trial in range(3):
            assert (trial_gammas(cfg, tux_profile(), 0, trial).tobytes()
                    == trial_gammas(plain, tux_profile(), 0, trial).tobytes())

    @pytest.mark.parametrize("field,least", [
        ("trials", 1), ("seed", 0), ("workers", 1), ("n_fft", 1), ("n_f", 1), ("n_t", 1)])
    def test_integer_fields_below_least_name_the_field(self, field, least):
        with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {least - 1}$"):
            SweepConfig(**{field: least - 1})

    def test_more_subcarriers_than_dft_bins_refused(self):
        with pytest.raises(ValueError, match=r"^n_f \(12\) must not exceed n_fft \(9\)"):
            SweepConfig(n_f=12, n_fft=9)
        assert SweepConfig(n_f=9, n_fft=9).n_f == 9

    @pytest.mark.parametrize("field", ["trials", "seed", "workers", "n_fft", "n_f", "n_t"])
    @pytest.mark.parametrize("value", [2.7, 3.0, True, "3", None])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("systems", "fb"), ("systems", ""),
        ("p_t", ("0.01",)), ("p_t", (1e-3, True)), ("p_t", (None,)),
        ("snr_db", ("a",)), ("snr_db", (10.0, False)), ("snr_db", (1j,))])
    def test_sequence_fields_reject_other_types(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} "):
            SweepConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = small_config(trials=np.int64(3), seed=np.int32(3), workers=np.uint8(1),
                           n_fft=np.int64(128), n_f=np.int16(12), n_t=np.int64(7),
                           snr_db=(np.float64(10.0), np.int64(20)), p_t=(np.float64(1e-3),))
        assert cfg == small_config(trials=3)
        assert all(type(getattr(cfg, f)) is int
                   for f in ("trials", "seed", "workers", "n_fft", "n_f", "n_t"))
        assert run_sweep(cfg) == run_sweep(small_config(trials=3))


class TestRunSweep:
    def test_row_order_and_reference_ratio(self):
        points = run_sweep(small_config())
        assert len(points) == 2 * 2  # systems x snr
        assert [(p.system, p.snr_db) for p in points] == [
            ("lte", 10.0), ("lte", 20.0), ("cm", 10.0), ("cm", 20.0)
        ]
        for p in points:
            assert 0.0 <= p.mean_bits_per_subcarrier <= 6.0
            assert p.trials == 6

    def test_reference_rows_are_unity(self):
        points = run_sweep(small_config(systems=("fb",), snr_db=(12.0,)))
        assert points[0].eta_r == 1.0

    def test_reference_series_independent_of_requested_set(self):
        alone = run_sweep(small_config(systems=("fb",)))
        paired = run_sweep(small_config(systems=("fb", "mlte", "cm")))
        fb_rows = [p for p in paired if p.system == "fb"]
        assert fb_rows == alone

    def test_undefined_ratio_at_hopeless_snr(self):
        points = run_sweep(small_config(snr_db=(-30.0,), trials=3))
        for p in points:
            assert p.mean_bits_per_subcarrier == 0.0
            assert math.isnan(p.eta_r)

    def test_worker_count_invariance(self):
        one = run_sweep(small_config(workers=1))
        many = run_sweep(small_config(workers=4))
        assert one == many

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    def test_csv_does_not_depend_on_draw_batches(self, granularity):
        # 5 trials split over 1, 2 and 3 workers give different partial
        # batches of draws per loader call, taken target-major, so some
        # batches straddle the two targets
        csvs = []
        for workers in (1, 2, 3):
            buf = io.StringIO()
            write_csv(run_sweep(small_config(systems=("fb", "cm", "lte", "mlte"),
                                             p_t=(1e-3, 1e-2), trials=5, workers=workers,
                                             granularity=granularity)), buf)
            csvs.append(buf.getvalue())
        assert csvs[0] == csvs[1] == csvs[2]

    def test_single_trial_has_no_interval(self):
        points = run_sweep(small_config(trials=1, snr_db=(20.0,)))
        assert math.isnan(points[0].ci95)

    def test_multiple_pt_blocks(self):
        points = run_sweep(small_config(p_t=(1e-2, 1e-3), snr_db=(15.0,),
                                        systems=("lte",)))
        assert [(p.p_t, p.system) for p in points] == [(1e-2, "lte"), (1e-3, "lte")]
        # looser target can only help
        assert points[0].mean_bits_per_subcarrier >= points[1].mean_bits_per_subcarrier

    def test_block_granularity_runs(self):
        fine = run_sweep(small_config(systems=("fb",), snr_db=(25.0,)))
        coarse = run_sweep(small_config(systems=("fb",), snr_db=(25.0,),
                                        granularity="block"))
        assert coarse[0].mean_bits_per_subcarrier <= fine[0].mean_bits_per_subcarrier

    def test_custom_profile_joins_output(self, tmp_path):
        pf = tmp_path / "clone.txt"
        write_full_profile(pf)
        points = run_sweep(small_config(systems=("fb",), profile_file=str(pf)))
        names = {p.system for p in points}
        assert names == {"fb", "clone"}
        for snr in (10.0, 20.0):
            fb = next(p for p in points if p.system == "fb" and p.snr_db == snr)
            clone = next(p for p in points if p.system == "clone" and p.snr_db == snr)
            # identical constraints on identical paired draws
            assert clone.mean_bits_per_subcarrier == fb.mean_bits_per_subcarrier
            assert clone.eta_r == 1.0

    def test_custom_channel_file(self, tmp_path):
        cf = tmp_path / "flat.txt"
        cf.write_text("0 1.0\n")
        points = run_sweep(small_config(systems=("fb",), channel_file=str(cf)))
        assert all(np.isfinite(p.mean_bits_per_subcarrier) for p in points)

    def test_non_finite_gains_fail_the_sweep(self, monkeypatch):
        draw = cli.draw_realization

        def nan_draw(*args, **kwargs):
            gains = draw(*args, **kwargs)
            gains[1, 2] = np.nan
            return gains

        monkeypatch.setattr(cli, "draw_realization", nan_draw)
        with pytest.raises(ValueError, match="^channel gains must be finite$"):
            run_sweep(small_config())

    def test_profile_dimension_mismatch(self, tmp_path):
        pf = tmp_path / "tiny.txt"
        pf.write_text("1 1\n0 0 data psk:2\n")
        with pytest.raises(ValueError, match="sweep grid"):
            run_sweep(small_config(profile_file=str(pf)))


def patch_chunks(monkeypatch, fail):
    """Make cli._sweep_chunk call fail(lo) first; forked children inherit
    the patch.  A chunk for which fail returns goes on as usual."""
    real = cli._sweep_chunk

    def chunk(cfg, chan, grids, lo, hi):
        fail(lo)
        return real(cfg, chan, grids, lo, hi)

    monkeypatch.setattr(cli, "_sweep_chunk", chunk)


def source_env():
    src = str(Path(ofdmse.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


class TestFanOut:
    def test_child_exception_is_reraised(self, monkeypatch):
        def fail(lo):
            if lo > 0:
                raise ValueError(f"chunk at trial {lo} failed")

        patch_chunks(monkeypatch, fail)
        with pytest.raises(ValueError, match=r"^chunk at trial 2 failed$"):
            run_sweep(small_config(trials=6, workers=3))
        assert multiprocessing.active_children() == []

    def test_child_exception_is_a_usage_error(self, monkeypatch, capsys):
        def fail(lo):
            if lo > 0:
                raise ValueError("bad chunk")

        patch_chunks(monkeypatch, fail)
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--systems", "lte", "--snr-db", "20", "--trials", "2",
                  "--workers", "2"])
        assert err.value.code == 2
        assert "bad chunk" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_parent_chunk_failure_reaps_children(self, monkeypatch):
        def fail(lo):
            if lo == 0:
                raise ValueError("parent chunk failed")
            time.sleep(60)  # still running when the parent fails

        patch_chunks(monkeypatch, fail)
        start = time.monotonic()
        with pytest.raises(ValueError, match="parent chunk failed"):
            run_sweep(small_config(trials=6, workers=3))
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_child_exit_without_result_raises(self):
        # in a subprocess with a timeout, so a fan-out that waits forever on
        # a dead worker fails this test instead of stalling the suite
        script = textwrap.dedent("""
            import multiprocessing, os
            from ofdmse import cli
            real = cli._sweep_chunk
            def chunk(cfg, chan, grids, lo, hi):
                if lo > 0:
                    os._exit(3)
                return real(cfg, chan, grids, lo, hi)
            cli._sweep_chunk = chunk
            cfg = cli.SweepConfig(systems=("lte",), snr_db=(20.0,), trials=4, workers=2)
            try:
                cli.run_sweep(cfg)
            except RuntimeError as exc:
                print(exc)
            print(len(multiprocessing.active_children()))
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["sweep worker exited with code 3", "0"]


class TestGoldenCsv:
    """Byte-for-byte pins of a short sweep: fb,cm,lte,mlte over 0:2:40 dB,
    p_t 1e-3 and 1e-2, 20 trials, seed 0, one file per granularity."""

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    def test_matches_fixture(self, granularity):
        cfg = SweepConfig(p_t=(1e-3, 1e-2), trials=20, seed=0,
                          granularity=granularity)
        buf = io.StringIO()
        write_csv(run_sweep(cfg), buf)
        expected = (FIXTURES / f"sweep_20trials_{granularity}.csv").read_text()
        assert buf.getvalue() == expected


class TestCsvFormat:
    def test_exact_layout(self):
        points = [
            SweepPoint("lte", 40.0, 1e-3, 1000, 5.714285714, 0.00123456789, 0.952381),
            SweepPoint("cm", 0.0, 1e-3, 1000, 0.0, 0.0, math.nan),
        ]
        buf = io.StringIO()
        write_csv(points, buf)
        assert buf.getvalue() == (
            "system,snr_db,p_t,trials,mean_bits_per_subcarrier,ci95,eta_r\n"
            "lte,40,0.001,1000,5.71429,0.00123457,0.952381\n"
            "cm,0,0.001,1000,0,0,nan\n"
        )

    def test_header_constant(self):
        assert CSV_HEADER == "system,snr_db,p_t,trials,mean_bits_per_subcarrier,ci95,eta_r"


class TestSeriesPayload:
    def test_groups_by_pt_and_system(self):
        cfg = small_config(systems=("lte",), p_t=(1e-2, 1e-3))
        points = run_sweep(cfg)
        blocks = series_payload(cfg, points)
        assert [b["p_t"] for b in blocks] == [1e-2, 1e-3]
        for block in blocks:
            assert block["snr_db"] == [10.0, 20.0]
            series = block["systems"]["lte"]
            assert len(series["mean_bits_per_subcarrier"]) == 2
            assert len(series["eta_r"]) == 2
        assert json.dumps(blocks)  # serializable as emitted


class TestMain:
    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--systems", "lte", "--snr-db", "20", "--trials", "4",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("lte,20,0.001,4,")

    def test_series_out(self, tmp_path):
        out = tmp_path / "sweep.csv"
        series = tmp_path / "series.json"
        rc = main(["sweep", "--systems", "cm", "--snr-db", "15", "--trials", "3",
                   "--out", str(out), "--series-out", str(series)])
        assert rc == 0
        payload = json.loads(series.read_text())
        assert payload[0]["systems"]["cm"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"systems": ["lte"], "snr_db": [10.0], "trials": 5, "seed": 1}
        ))
        out = tmp_path / "o.csv"
        rc = main(["sweep", "--config", str(cfg_file), "--trials", "7",
                   "--out", str(out)])
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[0] == "lte" and row[3] == "7"  # flag beat the file

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        for argv in (
            ["sweep", "--systems", "dvb", "--trials", "2"],
            ["sweep", "--snr-db", "0:-2:40"],
            ["sweep", "--pt", "0.9", "--trials", "2"],
            ["sweep", "--pt", "1e-3,0.001", "--trials", "2"],
            ["validate-ber", "--symbols", "10"],
            [],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
        capsys.readouterr()

    def test_grid_beyond_the_dft_refused(self, tmp_path, capsys):
        # rows 9-11 of such a grid would repeat rows 0-2
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_f": 12, "nfft": 9, "trials": 2, "snr_db": [20]}))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg_file)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "n_f (12) must not exceed n_fft (9)" in captured.err

    def test_delay_spread_beyond_the_dft_refused_before_any_worker(self, monkeypatch):
        def no_fan_out(*args):
            raise AssertionError("the sweep started its workers")

        monkeypatch.setattr(cli, "_fan_out", no_fan_out)
        cfg = SweepConfig(systems=("fb",), snr_db=(20.0,), trials=2, workers=2,
                          n_fft=8, n_f=4, n_t=2)
        with pytest.raises(ValueError, match="^delay spread 8 does not fit n_fft=8$"):
            run_sweep(cfg)

    @pytest.mark.parametrize("key", ["trials", "seed", "workers", "nfft", "n_f", "n_t"])
    @pytest.mark.parametrize("value", [2.7, True, "3"])
    def test_non_integer_config_value(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg_file)])
        assert err.value.code == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_integral_float_config_value(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"systems": ["lte"], "snr_db": [10.0], "trials": 3.0}))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[3] == "3"

    @pytest.mark.parametrize("key", ["out", "series_out", "profile_file", "channel_file"])
    @pytest.mark.parametrize("value", [1, True, ["a.csv"]])
    def test_non_string_path_config_value(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value, "systems": ["lte"],
                                        "snr_db": [20.0], "trials": 2}))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg_file)])
        assert err.value.code == 2
        assert f"config key {key!r} must be a path string" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["snr_db", "pt"])
    def test_non_numeric_list_config_value(self, tmp_path, capsys, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: [None]}))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg_file)])
        assert err.value.code == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("systems", ["fb", 1]), ("systems", [None]), ("systems", 7),
        ("snr_db", [True, 10]), ("snr_db", ["12", 10]), ("snr_db", True),
        ("snr_db", [10 ** 400]),
        ("pt", [True]), ("pt", ["1e-3"]), ("pt", False),
    ])
    def test_mistyped_list_config_value(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg_file)])
        assert err.value.code == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("file_cfg,flags", [
        ({"systems": ["LTE", " cm"], "snr_db": [10, 20.0], "pt": [0.001]},
         ["--systems", "lte,cm", "--snr-db", "10:10:20", "--pt", "1e-3"]),
        ({"systems": "lte, cm", "snr_db": "10:10:20", "pt": "0.001"},
         ["--systems", "lte,cm", "--snr-db", "10:10:20", "--pt", "1e-3"]),
        ({"snr_db": 12, "pt": 0.01}, ["--snr-db", "12", "--pt", "0.01"]),
    ])
    def test_config_lists_parse_like_flags(self, tmp_path, monkeypatch, file_cfg, flags):
        seen = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg: seen.append(cfg) or [])
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(file_cfg))
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        assert main(["sweep"] + flags) == 0
        assert seen[0] == seen[1]

    def test_null_path_config_value_means_default(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out": None, "systems": ["lte"],
                                        "snr_db": [20.0], "trials": 2}))
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER + "\n")

    def test_no_flags_build_the_default_config(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg: seen.append(cfg) or [])
        assert main(["sweep"]) == 0
        assert seen == [SweepConfig()]
        assert capsys.readouterr().out == CSV_HEADER + "\n"

    def test_custom_profile_named_like_a_built_in_system_refused(self, tmp_path, capsys):
        # a BPSK-only fb.txt would otherwise replace fb as the eta_R reference
        pf = tmp_path / "fb.txt"
        lines = ["2 2"] + [f"{p // 2} {p % 2} data psk:2" for p in range(4)]
        pf.write_text("\n".join(lines) + "\n")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_f": 2, "n_t": 2, "nfft": 16}))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg_file), "--systems", "cm", "--profile-file",
                  str(pf), "--snr-db", "20", "--trials", "3"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "custom profile name 'fb' collides" in captured.err

    @pytest.mark.parametrize("stem", ["x,y", 'x"y'])
    def test_custom_profile_name_that_breaks_the_csv_refused(self, tmp_path, capsys, stem):
        # the file stem names the profile, and write_csv writes it unquoted
        pf = tmp_path / f"{stem}.txt"
        lines = ["2 2"] + [f"{p // 2} {p % 2} data psk:2" for p in range(4)]
        pf.write_text("\n".join(lines) + "\n")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_f": 2, "n_t": 2, "nfft": 16}))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg_file), "--systems", "cm", "--profile-file",
                  str(pf), "--snr-db", "20", "--trials", "3"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"profile name {stem!r} must not hold" in captured.err

    @staticmethod
    def refusal(tmp_path, capsys, argv, file_cfg):
        """The usage error of `sweep argv` with file_cfg as its --config."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(file_cfg))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg_file), *argv])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err.splitlines()[-1]

    def test_nfft_refusal_names_the_flag_or_config_key(self, tmp_path, capsys):
        message = "n_fft must be >= 1, got 0"
        assert self.refusal(tmp_path, capsys, ["--nfft", "0"], {"nfft": 128}) \
            == f"ofdmse: error: argument --nfft: {message}"
        assert self.refusal(tmp_path, capsys, [], {"nfft": 0}) \
            == f"ofdmse: error: config key 'nfft': {message}"

    def test_pt_refusal_names_the_flag_or_config_key(self, tmp_path, capsys):
        message = "p_t must lie in (0, 0.5), got 0.7"
        assert self.refusal(tmp_path, capsys, ["--pt", "0.7"], {"pt": [1e-3]}) \
            == f"ofdmse: error: argument --pt: {message}"
        assert self.refusal(tmp_path, capsys, [], {"pt": [1e-3, 0.7]}) \
            == f"ofdmse: error: config key 'pt': {message}"

    def test_snr_refusal_names_the_config_key(self, tmp_path, capsys):
        # JSON reads 1e999 as inf
        assert self.refusal(tmp_path, capsys, [], {"snr_db": [1e999], "trials": 2}) \
            == ("ofdmse: error: config key 'snr_db': snr_db value inf is unusable: it must "
                "be finite and give a positive, finite noise variance 10^(-snr/10)")

    def test_systems_refusal_names_the_flag(self, tmp_path, capsys):
        # the field leads the message, so a name that is also a field
        # (seed) does not take the lead-in
        for argv in (["--systems", "dvb"], ["--systems", "seed", "--seed", "3"]):
            assert self.refusal(tmp_path, capsys, argv, {"trials": 2}) \
                == (f"ofdmse: error: argument --systems: systems entry {argv[1]!r} is "
                    "unknown; choose from fb, cm, lte, mlte")

    def test_unknown_config_key(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"snr": "0:2:40"}))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg_file)])
        assert err.value.code == 2

    def test_unwritable_output(self, tmp_path, capsys):
        rc = main(["sweep", "--systems", "lte", "--snr-db", "20", "--trials", "2",
                   "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert rc == 1
        assert "cannot write" in capsys.readouterr().err


def test_python_m_ofdmse_runs_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "ofdmse", "sweep", "--trials", "2", "--snr-db", "10"],
        capture_output=True, text=True, timeout=120, env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[:4] for line in lines[1:]] == [
        [name, "10", "0.001", "2"] for name in ("fb", "cm", "lte", "mlte")]
