import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import windrift
from windrift import cli
from windrift import (ConfigError, collective_normals, parse_config,
                      rate_from_green_kubo, rate_from_msd, run_winding,
                      substream)
from windrift.cli import format_float, json_text, main, run, write_csv

MINIMAL_RATES = {
    "env": {"mass": 1.0, "eta": 2.0, "temperature": 1.0},
    "geometry": {"l_x": 5.0, "l_y": 5.0},
    "population": {"mode": "fixed", "n_v": 4, "n_a": 4},
    "dt": 0.1,
    "total_time": 60.0,
    "replicas": 4,
    "master_seed": 7,
    "sample_stride": 2,
}


FIELDS_DOC = {"material": {"zeta": 1.0, "a_coeff": 5000.0, "b_coeff": 5000.0,
                           "g_coupling": 1.0, "sigma": 1.0,
                           "d_thickness": 1.0}}
DESIGN_DOC = {"device": {"r_eff": 0.02, "n1": 0, "n2": 1, "l_x": 0.05,
                         "l_y": 0.001, "epsilon_line": 1.0,
                         "temperature": 1.0}}
BASE_DOCS = {"rates": MINIMAL_RATES, "simulate": MINIMAL_RATES,
             "fields": FIELDS_DOC, "design": DESIGN_DOC, "selftest": {}}


def config_text(**overrides):
    doc = dict(MINIMAL_RATES)
    doc.update(overrides)
    return json.dumps(doc)


def read_without_timestamp(path: Path) -> str:
    lines = path.read_text().splitlines()
    return "\n".join(line for line in lines if '"timestamp"' not in line)


class TestParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config(config_text(), "rates")
        assert cfg.fit_t_min == pytest.approx(10.0 / cfg.env.gamma)
        assert cfg.fit_t_max == pytest.approx(30.0)       # total_time / 2
        assert cfg.gk_cutoff == pytest.approx(20.0 / cfg.env.gamma)
        assert cfg.replicas == 4

    def test_negative_eta_names_key(self):
        bad = config_text(env={"mass": 1.0, "eta": -1.0, "temperature": 1.0})
        with pytest.raises(ConfigError, match="eta"):
            parse_config(bad, "rates")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="tempratures"):
            parse_config(config_text(env={"mass": 1.0, "eta": 1.0,
                                          "tempratures": 1.0}), "rates")
        with pytest.raises(ConfigError, match="replica_count"):
            parse_config(config_text(replica_count=3), "rates")

    def test_parse_is_deterministic(self):
        text = config_text()
        assert parse_config(text, "rates") == parse_config(text, "rates")

    def test_missing_block_for_subcommand(self):
        with pytest.raises(ConfigError, match="material"):
            parse_config("{}", "fields")
        with pytest.raises(ConfigError, match="device"):
            parse_config("{}", "design")

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json", "rates")

    def test_unbalanced_counts_rejected(self):
        bad = config_text(population={"mode": "fixed", "n_v": 3, "n_a": 2})
        with pytest.raises(ConfigError, match="n_v"):
            parse_config(bad, "rates")

    @pytest.mark.parametrize("block,key", [("env", "temperature"),
                                           ("geometry", "l_x")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "huge-int"])
    def test_non_finite_value_names_key(self, block, key, value):
        doc = json.loads(config_text())
        doc[block][key] = value
        text = json.dumps(doc)          # writes NaN / Infinity / 1000...0
        with pytest.raises(ConfigError, match=f"{block}.{key}.*finite"):
            parse_config(text, "rates")

    @pytest.mark.parametrize("seed", [2**64, 1e20])
    def test_master_seed_beyond_64_bits_names_key(self, seed):
        # rng.substream would refuse it after parsing; masked to 64 bits,
        # 2**64 used to reproduce seed 0
        with pytest.raises(ConfigError, match="'master_seed'"):
            parse_config(config_text(master_seed=seed), "rates")
        parse_config(config_text(master_seed=2**64 - 1), "rates")

    def test_rates_need_one_sample(self):
        doc = json.loads(config_text(dt=0.1, total_time=0.5))
        del doc["sample_stride"]        # default 10 > 5 steps
        with pytest.raises(ConfigError, match="sample_stride"):
            parse_config(json.dumps(doc), "rates")
        parse_config(json.dumps(doc), "simulate")
        # one sample after t=0 passes the stride check; two samples leave
        # no MSD lag, which the fit-window check then reports
        with pytest.raises(ConfigError, match="fit.t_max"):
            parse_config(json.dumps(dict(doc, sample_stride=5)), "rates")

    def test_fit_t_min_below_diffusive_regime_names_key(self):
        # gamma = 2: t_min = 10/gamma = 5 is the smallest accepted value
        parse_config(config_text(fit={"t_min": 5.0}), "rates")
        with pytest.raises(ConfigError, match="'fit.t_min'"):
            parse_config(config_text(fit={"t_min": 4.99}), "rates")

    def test_fit_window_without_lags_names_key(self):
        # sample spacing 0.2: t_min = 5 and t_max = 5.1 both round to lag 25
        with pytest.raises(ConfigError, match="'fit.t_max'"):
            parse_config(config_text(fit={"t_min": 5.0, "t_max": 5.1}),
                         "rates")
        parse_config(config_text(fit={"t_min": 5.0, "t_max": 5.2}), "rates")

    def test_green_kubo_cutoff_beyond_run_names_key(self):
        # 600 steps of dt = 0.1: the cutoff lag must stay below 600
        parse_config(config_text(green_kubo_cutoff=59.9), "rates")
        with pytest.raises(ConfigError, match="'green_kubo_cutoff'"):
            parse_config(config_text(green_kubo_cutoff=60.0), "rates")
        parse_config(config_text(green_kubo_cutoff=60.0), "simulate")

    def test_green_kubo_cutoff_below_one_step_names_key(self):
        # dt = 0.1: a cutoff of 0.04 rounds to lag 0, 0.06 to lag 1
        with pytest.raises(ConfigError, match="'green_kubo_cutoff'"):
            parse_config(config_text(green_kubo_cutoff=0.04), "rates")
        parse_config(config_text(green_kubo_cutoff=0.06), "rates")

    @pytest.mark.parametrize("subcommand", ["rates", "simulate"])
    @pytest.mark.parametrize("population", [
        {"mode": "boltzmann", "f0": 0.5}, {"mode": "mean", "f0": 0.5}])
    def test_sampled_population_at_zero_temperature_names_key(
            self, subcommand, population):
        with pytest.raises(ConfigError, match="'env.temperature'"):
            parse_config(config_text(
                env={"mass": 1.0, "eta": 2.0, "temperature": 0.0},
                population=population), subcommand)

    @pytest.mark.parametrize("total_time,stride,fit,cutoff", [
        (60.0, 2, {}, 10.0), (60.0, 7, {"t_max": 5.6}, 10.0),
        (3.0, 1, {}, 1.0), (12.0, 5, {"t_min": 5.0}, 11.9),
        (60.0, 2, {"t_min": 5.0 - 1e-13}, 59.94),
        (60.0, 2, {"t_min": 4.9}, 10.0),
        (8.0, 1, {"t_max": 7.0}, 7.94), (8.0, 1, {"t_max": 7.0}, 7.96)])
    def test_parse_verdict_matches_estimators(self, total_time, stride, fit,
                                              cutoff):
        doc = config_text(total_time=total_time, sample_stride=stride,
                          fit=fit, green_kubo_cutoff=cutoff)
        try:
            cfg = parse_config(doc, "rates")
        except ConfigError:
            cfg = None
        # series of the shapes a run of this config produces
        dt, gamma = 0.1, 2.0
        n_steps = int(round(total_time / dt))
        samples = n_steps // stride + 1
        window = (fit.get("t_min", 10.0 / gamma),
                  fit.get("t_max", total_time / 2.0))
        try:
            rate_from_msd(dt * stride, np.ones((2, samples)), window,
                          gamma=gamma)
            rate_from_green_kubo(np.ones((2, n_steps)), dt, cutoff)
            refused = False
        except ValueError:
            refused = True
        assert (cfg is None) == refused

    def test_selftest_accepts_empty_config(self):
        cfg = parse_config("{}", "selftest")
        assert cfg.subcommand == "selftest"


class TestKeySets:
    """Each subcommand accepts exactly the keys it reads."""

    @pytest.mark.parametrize("subcommand,key,value", [
        ("rates", "env", 5), ("rates", "env", None), ("rates", "fit", 3),
        ("rates", "population", 7), ("design", "anyon", "x"),
        ("fields", "fields", [])])
    def test_non_object_block_names_block(self, tmp_path, capsys,
                                          subcommand, key, value):
        text = json.dumps(dict(BASE_DOCS[subcommand], **{key: value}))
        message = f"'{key}' must be a JSON object"
        with pytest.raises(ConfigError, match=message):
            parse_config(text, subcommand)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code = main([subcommand, "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, 5, ["out"]])
    def test_non_string_output_dir_names_key(self, value):
        with pytest.raises(ConfigError, match="'output_dir' must be a "
                                              "string"):
            parse_config(config_text(output_dir=value), "rates")

    @pytest.mark.parametrize("subcommand,key,value", [
        ("fields", "dt", 0.1), ("design", "env", MINIMAL_RATES["env"]),
        ("selftest", "material", FIELDS_DOC["material"]),
        ("rates", "material", FIELDS_DOC["material"]),
        ("simulate", "c_light", 1.0), ("fields", "r_unit_m", 1.0),
        ("design", "fields", {})])
    def test_other_subcommands_key_refused(self, subcommand, key, value):
        text = json.dumps(dict(BASE_DOCS[subcommand], **{key: value}))
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(text, subcommand)

    @pytest.mark.parametrize("subcommand", ["rates", "simulate"])
    def test_geometry_thickness_refused(self, subcommand):
        # no computation reads a film thickness on the torus
        geometry = dict(MINIMAL_RATES["geometry"], d=1.0)
        with pytest.raises(ConfigError, match="unknown key 'geometry.d'"):
            parse_config(config_text(geometry=geometry), subcommand)

    @pytest.mark.parametrize("population,key", [
        ({"mode": "fixed", "n_v": 4, "n_a": 4, "f0": 0.5}, "f0"),
        ({"n_v": 4, "n_a": 4, "f0": 0.5}, "f0"),
        ({"mode": "boltzmann", "f0": 0.5, "n_v": 4}, "n_v"),
        ({"mode": "mean", "f0": 0.5, "n_a": 4}, "n_a")])
    def test_population_keys_follow_mode(self, population, key):
        with pytest.raises(ConfigError,
                           match=f"unknown key 'population.{key}'"):
            parse_config(config_text(population=population), "rates")

    @pytest.mark.parametrize("mode", ["poisson", 3, ["fixed"]])
    def test_bad_population_mode_names_key(self, mode):
        with pytest.raises(ConfigError, match="'population.mode'"):
            parse_config(config_text(population={"mode": mode, "f0": 0.5}),
                         "rates")

    @pytest.mark.parametrize("grid", [{"r_min": 0.5, "r_max": 0.5},
                                      {"r_min": 0.6, "r_max": 0.5},
                                      {"r_min": 1e6}])
    def test_empty_field_grid_refused_by_parser(self, grid):
        text = json.dumps(dict(FIELDS_DOC, fields=grid))
        with pytest.raises(ConfigError, match="'fields.r_min' must be "
                                              "below 'fields.r_max'"):
            parse_config(text, "fields")

    def test_device_levels_name_key(self):
        device = dict(DESIGN_DOC["device"], n1=1, n2=1)
        with pytest.raises(ConfigError, match="'device.n2' must exceed"):
            parse_config(json.dumps({"device": device}), "design")

    def test_field_grid_resolved(self):
        scales = windrift.derive_scales(
            windrift.MaterialParams(**FIELDS_DOC["material"]), c_light=2.0)
        cfg = parse_config(json.dumps(dict(FIELDS_DOC, c_light=2.0)),
                           "fields")
        assert (cfg.field_table.r_min, cfg.field_table.r_max) == \
            (scales.xi, 5.0 * scales.delta)
        cfg = parse_config(json.dumps(dict(FIELDS_DOC, fields={
            "r_min": 0.002})), "fields")
        assert cfg.field_table.r_min == 0.002

    def test_step_counts_resolved(self):
        cfg = parse_config(config_text(dt=0.1, total_time=60.04,
                                       burn_in=0.26), "rates")
        assert (cfg.n_steps, cfg.burn_in_steps) == (600, 3)

    @pytest.mark.parametrize("subcommand", ["fields", "design", "selftest"])
    def test_unread_fields_are_none(self, subcommand):
        cfg = parse_config(json.dumps(BASE_DOCS[subcommand]), subcommand)
        for name in ("env", "dt", "total_time", "n_steps", "replicas",
                     "sample_stride", "fit_t_min", "gk_cutoff"):
            assert getattr(cfg, name) is None
        assert (cfg.master_seed, cfg.output_dir) == (0, "windrift_out")


class TestSerialization:
    def test_float_format_roundtrips(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 123456.789):
            assert float(format_float(x)) == x

    def test_special_values(self):
        assert format_float(float("inf")) == '"inf"'
        assert format_float(float("nan")) == '"nan"'

    def test_json_sorted_and_stable(self):
        a = json_text({"b": 1, "a": [1.5, None, True]})
        assert a.index('"a"') < a.index('"b"')
        assert json_text({"b": 1, "a": [1.5, None, True]}) == a

    @pytest.mark.parametrize("columns", [
        [np.linspace(0.0, 1.0, 7), np.random.default_rng(1).normal(size=7)],
        [np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7e308])],
        [np.array([]), np.array([])],
        np.arange(12.0).reshape(3, 4) / 7.0,
        # rows on both sides of a block boundary
        [np.arange(2 * cli.CSV_BLOCK_ROWS + 3) / 3.0]])
    def test_write_csv_matches_savetxt(self, columns, tmp_path):
        k = np.column_stack(columns).shape[1]
        header = [f"c{j}" for j in range(k)]
        write_csv(tmp_path / "a.csv", header, columns)
        np.savetxt(tmp_path / "b.csv", np.column_stack(columns),
                   fmt="%.17g", delimiter=",", header=",".join(header),
                   comments="")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_write_csv_text_memory_is_bounded(self, tmp_path):
        # a long stride-1 trajectory: the formatted text of one block, not
        # the whole table, is held at once (about 60 bytes per value)
        n = 25 * cli.CSV_BLOCK_ROWS
        columns = [np.arange(n) * 0.1,
                   *np.random.default_rng(2).normal(size=(2, n))]
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", ["t", "alpha_x", "alpha_y"],
                      columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = 8 * 3 * n
        assert peak < table_bytes + 100 * 3 * cli.CSV_BLOCK_ROWS


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("rates")
    cfg = parse_config(config_text(), "rates")
    summary = run(cfg, lanes=1, output_dir=out)
    return out, summary


class TestRunRates:
    def test_artifacts_exist(self, run_dir):
        out, _ = run_dir
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.json").exists()

    def test_trajectory_schema(self, run_dir):
        out, _ = run_dir
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,alpha_x,alpha_y"
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0]
        # header + t=0 row + 600 steps sampled at stride 2
        assert len(lines) == 1 + 1 + 300

    def test_summary_contents(self, run_dir):
        _, summary = run_dir
        rates = summary["rates"]
        for axis in ("x", "y"):
            for key in ("msd", "green_kubo", "analytic"):
                assert rates[axis][key]["gamma"] >= 0.0
            assert rates[axis]["predicted"] is None   # fixed counts, no f0
        assert summary["population"]["per_replica_n_v"] == [4, 4, 4, 4]
        assert len(summary["per_replica_rates"]["x"]["msd"]) == 4

    def test_rerun_byte_identical_modulo_timestamp(self, run_dir, tmp_path):
        out, _ = run_dir
        cfg = parse_config(config_text(), "rates")
        run(cfg, lanes=1, output_dir=tmp_path)
        assert read_without_timestamp(tmp_path / "summary.json") == \
            read_without_timestamp(out / "summary.json")
        assert (tmp_path / "trajectory.csv").read_bytes() == \
            (out / "trajectory.csv").read_bytes()

    def test_lane_count_does_not_change_results(self, run_dir, tmp_path):
        out, _ = run_dir
        cfg = parse_config(config_text(), "rates")
        run(cfg, lanes=3, output_dir=tmp_path)
        assert read_without_timestamp(tmp_path / "summary.json") == \
            read_without_timestamp(out / "summary.json")

    def test_summary_matches_stacked_estimators(self, tmp_path):
        # each replica redrawn from its own stream, then one estimator call
        # per axis on all replicas' rows
        cfg = parse_config(config_text(
            geometry={"l_x": 20.0, "l_y": 10.0}, burn_in=5.0, replicas=5,
            population={"mode": "fixed", "n_v": 3, "n_a": 3}), "rates")
        summary = run(cfg, lanes=2, output_dir=tmp_path)
        steps = cfg.burn_in_steps + cfg.n_steps
        results = [run_winding(
            cfg.env, cfg.geometry, 3, 3, cfg.dt, cfg.n_steps,
            normals=collective_normals(substream(cfg.master_seed, r), 6,
                                       steps),
            sample_stride=cfg.sample_stride,
            burn_in_steps=cfg.burn_in_steps) for r in range(5)]
        for i, axis in enumerate(("x", "y")):
            expected = {
                "msd": rate_from_msd(
                    cfg.dt * cfg.sample_stride,
                    [res.alpha[i] for res in results],
                    (cfg.fit_t_min, cfg.fit_t_max), gamma=cfg.env.gamma),
                "green_kubo": rate_from_green_kubo(
                    [res.inc[i] for res in results], cfg.dt, cfg.gk_cutoff)}
            for method, est in expected.items():
                reported = summary["rates"][axis][method]
                assert (reported["gamma"], reported["stderr"]) == \
                    (est.gamma_rate, est.stderr)
                assert summary["per_replica_rates"][axis][method] == \
                    est.per_row.tolist()
            assert summary[f"final_alpha_{axis}"] == \
                [res.final_alpha[i] for res in results]

    def test_seed_changes_results(self, run_dir, tmp_path):
        out, _ = run_dir
        cfg = parse_config(config_text(master_seed=8), "rates")
        run(cfg, lanes=1, output_dir=tmp_path)
        assert read_without_timestamp(tmp_path / "summary.json") != \
            read_without_timestamp(out / "summary.json")


class TestBenchPatchedNames:
    """bench/tracer.py times layers by replacing these module attributes;
    if one is missing, every traced benchmark job fails."""

    @pytest.mark.parametrize("module, name", [
        *(("cli", n) for n in ("substream", "run_replica", "rate_from_msd",
                               "rate_from_green_kubo", "ThreadPoolExecutor",
                               "write_csv", "write_json")),
        *(("ensemble", n) for n in ("substream", "run_replica", "lfilter")),
        ("langevin", "velocity_autocorrelation"),
        ("langevin", "einstein_diffusion_check")])
    def test_name_exists(self, module, name):
        assert callable(getattr(getattr(windrift, module), name))

    def test_lanes_call_estimators_through_cli(self, monkeypatch, tmp_path):
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("rate_from_msd", "rate_from_green_kubo"):
            monkeypatch.setattr(windrift.cli, name,
                                counted(name, getattr(windrift.cli, name)))
        run(parse_config(config_text(), "rates"), lanes=2,
            output_dir=tmp_path)
        # one (x, y) call per estimator and replica
        assert sorted(calls) == ["rate_from_green_kubo"] * 4 \
            + ["rate_from_msd"] * 4

    def test_replica_result_fields_read_by_bench(self):
        # bench/job.py reads the v_y^2 ratio, the series, the final state
        # and the counts; bench/tracer.py the recorded series' sizes
        env = windrift.ThermalEnv(mass=1.0, eta=2.0, temperature=1.0)
        geo = windrift.TorusGeometry(l_x=10.0, l_y=10.0)
        res = windrift.ensemble.run_replica(
            env, geo, 3, 3, 0.05, 300, master_seed=5,
            velocity_series_walkers=6, position_stride=10)
        for name in ("chunk_vy2_sums", "chunk_counts", "vel_series",
                     "positions", "position_times"):
            assert isinstance(getattr(res, name), np.ndarray), name
        assert isinstance(res.state.alpha_x, float)
        assert isinstance(res.state.alpha_y, float)
        assert (res.n_v, res.n_a) == (3, 3)
        # every walker's v_y at every recorded step is in vel_series
        assert res.chunk_vy2_sums.sum() / res.chunk_counts.sum() == \
            pytest.approx(np.mean(res.vel_series ** 2), rel=1e-13)


class TestLaneRows:
    def test_estimators_get_the_engine_rows(self, monkeypatch, tmp_path):
        # a lane runs its replica's run_winding and then both estimators
        # on the same thread; they must get the engine's (x, y) rows
        # themselves, not a stacked copy
        lane, calls = threading.local(), []
        real_winding, real_gk, real_msd = (
            cli.run_winding, cli.rate_from_green_kubo, cli.rate_from_msd)

        def winding(*args, **kwargs):
            lane.res = real_winding(*args, **kwargs)
            return lane.res

        def green_kubo(rows, *args, **kwargs):
            calls.append(("green_kubo", rows is lane.res.inc))
            return real_gk(rows, *args, **kwargs)

        def msd(times, rows, *args, **kwargs):
            calls.append(("msd", rows is lane.res.alpha))
            return real_msd(times, rows, *args, **kwargs)

        monkeypatch.setattr(cli, "run_winding", winding)
        monkeypatch.setattr(cli, "rate_from_green_kubo", green_kubo)
        monkeypatch.setattr(cli, "rate_from_msd", msd)
        run(parse_config(config_text(), "rates"), lanes=2,
            output_dir=tmp_path)
        assert sorted(calls) == [("green_kubo", True)] * 4 \
            + [("msd", True)] * 4


class TestOtherSubcommands:
    def test_boltzmann_population_mode(self, tmp_path):
        cfg = parse_config(config_text(
            population={"mode": "boltzmann", "f0": 0.5},
            geometry={"l_x": 20.0, "l_y": 20.0}), "rates")
        summary = run(cfg, lanes=1, output_dir=tmp_path)
        counts = summary["population"]["per_replica_n_v"]
        assert len(counts) == 4
        assert summary["rates"]["x"]["predicted"]["gamma"] > 0.0
        assert summary["rates"]["x"]["predicted"]["storage_time"] > 0.0

    @pytest.mark.parametrize("f0", [0.5, 800.0])
    def test_summary_tags_rates(self, tmp_path, f0):
        # cli names each rate's method; the closed forms have stderr 0 and
        # the design rate its storage time 1/gamma, "inf" where e^(-f0/T)
        # underflows to a rate of 0 (f0 800 at T 1)
        cfg = parse_config(config_text(
            population={"mode": "mean", "f0": f0}), "rates")
        run(cfg, lanes=1, output_dir=tmp_path)
        rates = json.loads((tmp_path / "summary.json").read_text())["rates"]
        for axis in ("x", "y"):
            assert {key: rate["method"] for key, rate in rates[axis].items()} \
                == {"msd": "MSD", "green_kubo": "GreenKubo",
                    "analytic": "Analytic", "predicted": "Predicted"}
            predicted = rates[axis]["predicted"]
            assert rates[axis]["analytic"]["stderr"] == predicted["stderr"] \
                == 0
            assert predicted["storage_time"] == (
                "inf" if predicted["gamma"] == 0 else 1.0 / predicted["gamma"])
            assert (predicted["gamma"] == 0) == (f0 == 800.0)

    def test_simulate_writes_trajectory(self, tmp_path):
        cfg = parse_config(config_text(), "simulate")
        summary = run(cfg, lanes=1, output_dir=tmp_path)
        assert (tmp_path / "trajectory.csv").exists()
        assert "rates" not in summary

    def test_fields_run(self, tmp_path):
        doc = {"material": {"zeta": 1.0, "a_coeff": 5000.0,
                            "b_coeff": 5000.0, "g_coupling": 1.0,
                            "sigma": 1.0, "d_thickness": 1.0},
               "fields": {"n_points": 16}}
        cfg = parse_config(json.dumps(doc), "fields")
        summary = run(cfg, lanes=1, output_dir=tmp_path)
        lines = (tmp_path / "fields.csv").read_text().splitlines()
        assert lines[0] == "r,B,Ex,Ey,E2"
        assert len(lines) == 17
        assert summary["scales"]["kappa"] == pytest.approx(100.0, rel=1e-12)
        assert summary["regime"]["extreme_type_ii"] is True

    def test_design_run(self, tmp_path):
        doc = {"device": {"r_eff": 0.02, "n1": 0, "n2": 1, "l_x": 0.05,
                          "l_y": 0.001, "epsilon_line": 1.0,
                          "temperature": 1.0}}
        cfg = parse_config(json.dumps(doc), "design")
        summary = run(cfg, lanes=1, output_dir=tmp_path)
        assert summary["level_splitting"]["wavelength_si_mm"] == \
            pytest.approx(0.917, rel=5e-3)
        assert (tmp_path / "design.json").exists()
        text = (tmp_path / "design.json").read_text()
        assert json.loads(text)["equivalence_classes"]["distinct"] is True

    def test_design_infinite_storage_serializes(self, tmp_path):
        # cross-check the "inf" convention through an actual rates summary
        cfg = parse_config(config_text(
            env={"mass": 1.0, "eta": 2.0, "temperature": 0.0},
            population={"mode": "fixed", "n_v": 2, "n_a": 2}), "rates")
        summary = run(cfg, lanes=1, output_dir=tmp_path)
        assert summary["rates"]["x"]["analytic"]["gamma"] == 0.0
        json.loads((tmp_path / "summary.json").read_text())  # valid JSON


class TestMainEntry:
    def test_main_rates_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text())
        code = main(["rates", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out"), "--lanes", "2"])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # the lag products must not sum in an order set by the BLAS threads
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            replicas=2, dt=0.1, total_time=3000.0, sample_stride=5,
            fit={"t_min": 5.0, "t_max": 50.0}, green_kubo_cutoff=5.0))
        src = str(Path(windrift.__file__).parents[1])
        summaries = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-c", "import sys; from windrift.cli import "
                 "main; sys.exit(main(sys.argv[1:]))", "rates", "--config",
                 str(cfg_path), "--out", str(out)],
                env=env, check=True, capture_output=True)
            summaries.append(read_without_timestamp(out / "summary.json"))
        assert summaries[0] == summaries[1]

    def test_simulation_paths_load_no_scipy_submodule(self, tmp_path):
        # only fields and design need scipy.special / scipy.integrate;
        # importing scipy itself loads scipy.version and private modules
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text())
        script = """if True:
            import sys
            from windrift.cli import main
            from windrift import (ThermalEnv, TorusGeometry,
                                  einstein_diffusion_check, run_replica,
                                  velocity_autocorrelation)
            assert main(["rates", "--config", sys.argv[1], "--out",
                         sys.argv[2]]) == 0
            env = ThermalEnv(1.0, 2.0, 1.0)
            res = run_replica(env, TorusGeometry(10.0, 10.0), 2, 2, 0.1,
                              400, velocity_series_walkers=4,
                              position_stride=1)
            einstein_diffusion_check(res.positions, 0.1, env)
            velocity_autocorrelation(res.vel_series.T, 0.1, max_lag=10)
            print(" ".join(sorted(
                name for name in sys.modules
                if name.startswith("scipy.") and name != "scipy.version"
                and not name.split(".")[1].startswith("_"))))
        """
        src = str(Path(windrift.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, str(cfg_path),
             str(tmp_path / "out")],
            env=env, check=True, capture_output=True, text=True)
        assert done.stdout.strip() == ""

    def test_main_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text())
        main(["rates", "--config", str(cfg_path), "--out",
              str(tmp_path / "a")])
        main(["rates", "--config", str(cfg_path), "--seed", "99", "--out",
              str(tmp_path / "b")])
        assert read_without_timestamp(tmp_path / "a" / "summary.json") != \
            read_without_timestamp(tmp_path / "b" / "summary.json")

    def test_main_bad_config_fails_with_diagnostic(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            env={"mass": 1.0, "eta": -1.0, "temperature": 1.0}))
        code = main(["rates", "--config", str(cfg_path)])
        assert code == 2
        assert "eta" in capsys.readouterr().err

    def test_main_too_few_samples_exit_2(self, tmp_path, capsys):
        doc = json.loads(config_text(dt=0.1, total_time=0.5))
        del doc["sample_stride"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["rates", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "sample_stride" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--lanes", "0"),
                                            ("--seed", "-1"),
                                            ("--seed", str(2**64))])
    def test_main_rejects_bad_flag(self, tmp_path, capsys, flag, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text())
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--config", str(cfg_path), "--out",
                  str(tmp_path / "out"), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_main_selftest(self, tmp_path, capsys):
        code = main(["selftest", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
