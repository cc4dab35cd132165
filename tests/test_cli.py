"""CLI: configs, reports, determinism, golden regression, exit codes."""

import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tubelab import cli
from tubelab.cli import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    SCENARIOS,
    freeze,
    main,
    regress,
    run_scenario,
)
from tubelab.dichotomy import decide_dichotomy
from tubelab.functionals import Grid

QUICK_DICHOTOMY = {
    "name": "dich",
    "scenario": "dichotomy",
    "seed": 3,
    "params": {"trials": 25},
}

QUICK_KAKEYA = {
    "name": "kak",
    "scenario": "kakeya",
    "seed": 0,
    "params": {"deltas": [0.0625], "members": ["axes-n2-k2", "bush-n2"]},
}

NAME_RULE = "name must be a file name, not empty, '.', '..' or holding a path separator, got "


class TestConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("x", "nope")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig("x", "dichotomy", params={"bogus": 1})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"name": "x", "scenario": "dichotomy", "extra": 1})

    def test_members_validated(self):
        ok = ExperimentConfig("x", "kakeya", params={"members": ["axes-n2-k2"]})
        assert ok.params["members"] == ["axes-n2-k2"]
        for bad in (["axes-n2-k9", "bush-n7"], "axes-n2-k2", [], ["bush-n2", "nope"]):
            with pytest.raises(ConfigError, match="known members"):
                ExperimentConfig("x", "decompose", params={"members": bad})

    @pytest.mark.parametrize("factor", [16, 0, 1, 4.5, "4", True])
    def test_grid_factor_validated(self, factor):
        with pytest.raises(ConfigError, match="2, 3, 4, 5, 6, 7, 8"):
            ExperimentConfig("x", "sharpness", params={"grid_factor": factor})

    def test_seed_must_be_integral(self):
        base = {"name": "x", "scenario": "dichotomy"}
        assert ExperimentConfig.from_dict(dict(base, seed=3.0)).seed == 3
        for bad in (True, 2.5, "3", None, -1, -1.0):
            with pytest.raises(ConfigError, match="seed must be an integer"):
                ExperimentConfig.from_dict(dict(base, seed=bad))
        with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
            ExperimentConfig("x", "dichotomy", seed=-1)

    def test_defaults_resolved(self):
        cfg = ExperimentConfig("x", "dichotomy", params={"trials": 5})
        resolved = cfg.resolved_params()
        assert resolved["trials"] == 5
        assert resolved["rhos"] == [0.05, 0.1, 0.3]

    def test_params_of_default_shape_accepted(self):
        """An integral float counts as an integer and an int as a number."""
        ExperimentConfig("x", "dichotomy", params={"trials": 2.0, "rhos": [1], "max_directions": 3})
        ExperimentConfig("x", "dimension", params={"families": [{"n": 2.0, "d": 1, "beta": 1, "delta": 0.0625}]})

    def test_params_at_their_range_ends_accepted(self):
        ExperimentConfig("x", "dichotomy", params={"rhos": [1.0], "max_directions": 101})
        ExperimentConfig("x", "decompose", params={"rho": 1.0})
        ExperimentConfig("x", "decompose", params={"deltas": [0.5], "rho": 0.5})
        ExperimentConfig("x", "induction", params={"rho": 0.5})
        ExperimentConfig("x", "induction", params={"deltas": [0.0625], "rho": 0.13})
        ExperimentConfig("x", "kakeya", params={"deltas": [0.5]})
        ExperimentConfig("x", "thin", params={"delta": 0.5})
        ExperimentConfig("x", "dimension", params={"cantor_delta": 0.5, "disk_h": 2.0**-5})
        ExperimentConfig("x", "dimension", params={"families": [{"n": 2, "d": 1, "beta": 1.0, "delta": 0.5}]})
        ExperimentConfig("x", "sharpness", params={"configs": [{"n": 2, "d": 1, "beta": 1, "scales": [0.5, 0.25, 0.125]}]})

    def test_range_keys_name_params(self):
        """Every key of a scenario's `fewest` and `most` names one of its
        params at some depth of its defaults, so none is silently unused."""

        def names(value) -> set:
            if isinstance(value, dict):
                return set(value) | {n for v in value.values() for n in names(v)}
            return {n for v in value for n in names(v)} if isinstance(value, list) else set()

        for scenario, sc in SCENARIOS.items():
            assert set(sc.fewest) | set(sc.most) <= names(sc.defaults), scenario

    @pytest.mark.parametrize("name", ["quick.json", "standard.json"])
    def test_shipped_configs_load(self, name):
        path = Path(__file__).resolve().parents[1] / "configs" / name
        configs = cli._load_config_file(path)
        assert [c.name for c in configs] == [s["name"] for s in json.loads(path.read_text())["scenarios"]]


class TestReports:
    def test_round_trip_lossless(self):
        cfg = ExperimentConfig.from_dict(QUICK_DICHOTOMY)
        rep = run_scenario(cfg)
        again = ExperimentReport.from_json(rep.to_json())
        assert again.payload == rep.payload
        assert again.wall_clock_s == rep.wall_clock_s

    def test_payload_byte_identical_across_reruns(self):
        cfg = ExperimentConfig.from_dict(QUICK_DICHOTOMY)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.payload_json().encode() == b.payload_json().encode()

    def test_degenerate_index_counts_b_trials(self, monkeypatch):
        """values["degenerate_index"] counts the B trials per j*; constants do not carry it."""
        results = []

        def recording(*args):
            results.append(decide_dichotomy(*args))
            return results[-1]

        monkeypatch.setattr(cli, "decide_dichotomy", recording)
        rep = run_scenario(ExperimentConfig.from_dict(QUICK_DICHOTOMY))
        expected = Counter(str(r.degenerate_index) for r in results if r.variant == "B")
        assert len(results) == QUICK_DICHOTOMY["params"]["trials"]
        assert expected and rep.payload["values"]["degenerate_index"] == dict(expected)
        assert not any("degenerate" in key for key in rep.payload["constants"])

    def test_seed_changes_values(self):
        a = run_scenario(ExperimentConfig("x", "dichotomy", 1, {"trials": 25}))
        b = run_scenario(ExperimentConfig("x", "dichotomy", 2, {"trials": 25}))
        assert a.payload["constants"] != b.payload["constants"]

    def test_report_carries_version_and_checks(self):
        rep = run_scenario(ExperimentConfig.from_dict(QUICK_KAKEYA))
        assert rep.payload["version"]
        assert rep.payload["checks"]
        assert rep.passed


class TestDiskRegion:
    """The dimension scenario's disk, tested a slab of grid rows at a time."""

    @staticmethod
    def full_grid_disk(G):
        centers = G.centers_of_linear(np.arange(G.m**2))
        return np.nonzero(np.linalg.norm(centers, axis=1) <= 1.0)[0]

    @pytest.mark.parametrize("h", [2.0**-8, 0.03])
    def test_equals_full_grid_reference(self, h):
        G = Grid(2, h, 1.0)
        if h == 0.03:
            assert G.m % cli._DISK_SLAB_ROWS != 0
        disk = cli._disk_region(G)
        np.testing.assert_array_equal(disk.cells, self.full_grid_disk(G))
        assert disk.cells.dtype == np.int64

    def test_peak_below_full_grid_centers(self):
        # The full grid's centers alone take m^2 x 16 bytes (4 MiB at 2^-8).
        G = Grid(2, 2.0**-8, 1.0)
        tracemalloc.start()
        try:
            cli._disk_region(G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < G.m**2 * 16, f"peak {peak / 2**20:.2f} MiB"


class TestGolden:
    def test_freeze_then_regress_clean(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TUBELAB_GOLDEN_DIR", str(tmp_path))
        rep = run_scenario(ExperimentConfig.from_dict(QUICK_KAKEYA))
        freeze([rep])
        ok, rows = regress([rep])
        assert ok
        assert all(r["status"] == "ok" for r in rows)
        assert all(abs(r["ratio"] - 1.0) < 1e-12 for r in rows)

    def test_drift_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TUBELAB_GOLDEN_DIR", str(tmp_path))
        rep = run_scenario(ExperimentConfig.from_dict(QUICK_KAKEYA))
        freeze([rep])
        drifted = json.loads(rep.payload_json())
        key = next(iter(drifted["constants"]))
        drifted["constants"][key] *= 3.0
        bad = ExperimentReport(payload=drifted, wall_clock_s=0.0)
        ok, rows = regress([bad])
        assert not ok
        assert any(r["status"] == "drift" and r["constant"] == key for r in rows)

    def test_missing_golden_instructs_freeze(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TUBELAB_GOLDEN_DIR", str(tmp_path / "empty"))
        rep = run_scenario(ExperimentConfig.from_dict(QUICK_KAKEYA))
        with pytest.raises(FileNotFoundError, match="freeze"):
            regress([rep])


class TestMain:
    def _config_file(self, tmp_path, scenarios):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": "tubelab-config-1", "scenarios": scenarios}))
        return path

    def test_run_writes_reports_and_exits_zero(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, [QUICK_DICHOTOMY])
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "dich.json").read_text())
        assert report["payload"]["passed"]

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2
        path.write_text(json.dumps({"schema": "wrong", "scenarios": []}))
        assert main(["run", "--config", str(path)]) == 2
        assert not (tmp_path / "reports").exists()
        capsys.readouterr()
        out = tmp_path / "out"
        for data in (
            [1],
            {"schema": "tubelab-config-1", "scenarios": [1]},
            {"schema": "tubelab-config-1", "scenarios": [dict(QUICK_DICHOTOMY, seed="abc")]},
            {"schema": "tubelab-config-1", "scenarios": [dict(QUICK_DICHOTOMY, params=[1, 2])]},
            {"schema": "tubelab-config-1", "scenarios": [dict(QUICK_DICHOTOMY, seed=-1)]},
        ):
            path.write_text(json.dumps(data))
            assert main(["run", "--config", str(path), "--out", str(out)]) == 2, data
            assert "config error:" in capsys.readouterr().err, data
            assert not out.exists()
        path.write_text(json.dumps({"schema": "tubelab-config-1", "scenarios": [QUICK_DICHOTOMY]}))
        assert main(["run", "--config", str(path), "--out", str(out), "--seed", "-1"]) == 2
        assert "config error: seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("parallel", [[], ["--parallel"]])
    def test_scenario_error_exits_two_with_one_line(self, tmp_path, capsys, parallel):
        # The planes generator's tube cap depends on n, d, beta and the scale
        # jointly, so it is checked when the scenario runs.
        config = {"n": 3, "d": 2, "beta": 1.0, "scales": [2.0**-7, 2.0**-6, 2.0**-5]}
        sharp = {"name": "sharp0", "scenario": "sharpness", "seed": 0, "params": {"configs": [config]}}
        cfg = self._config_file(tmp_path, [QUICK_DICHOTOMY, sharp])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), *parallel]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error in scenario sharp0: planes generator would produce ~1474560 tubes (cap 400000); "
            "use a larger delta\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("param", ["n_lines", "seeds", "binomial_trials"])
    def test_thin_counts_below_one_exit_two(self, tmp_path, capsys, param):
        """A thin count of 0 is named in one config error line, not a ZeroDivisionError."""
        thin = {"name": "thin0", "scenario": "thin", "seed": 0, "params": {param: 0}}
        cfg = self._config_file(tmp_path, [thin])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {param} must be an integer >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, params, message",
        [
            ("thin", {"delta": 0}, "delta must be a number > 0, got 0"),
            ("dimension", {"cantor_delta": 0}, "cantor_delta must be a number > 0, got 0"),
            (
                "dimension",
                {"families": [{"n": 2, "d": 1, "beta": 1.0, "delta": 0}]},
                "families[0].delta must be a number > 0, got 0",
            ),
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "beta": 1.0, "scales": [0, 0.125, 0.0625]}]},
                "configs[0].scales[0] must be a number > 0, got 0",
            ),
        ],
        ids=["thin-delta", "cantor-delta", "families-delta", "sharpness-scales"],
    )
    def test_zero_scale_exits_two(self, tmp_path, capsys, scenario, params, message):
        """A scale of 0 is named in one config error line, not a hang or a ZeroDivisionError."""
        cfg = self._config_file(tmp_path, [{"name": "zero", "scenario": scenario, "seed": 0, "params": params}])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"trials": 0}, "trials must be an integer >= 1, got 0"),
            ({"max_directions": 0}, "max_directions must be an integer >= 1, got 0"),
            ({"rhos": []}, "rhos must be a non-empty list, got []"),
        ],
    )
    def test_dichotomy_empty_inputs_exit_two(self, tmp_path, capsys, params, message):
        """No trials, directions or rhos is named in one config error line, not passed vacuously."""
        dich = {"name": "dich0", "scenario": "dichotomy", "seed": 0, "params": params}
        cfg = self._config_file(tmp_path, [dich])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, params, message",
        [
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "beta": 0, "scales": [0.125, 0.0625]}]},
                "configs[0].beta must be a number > 0, got 0",
            ),
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "scales": [0.125, 0.0625]}]},
                "configs[0] must be an object with exactly the keys ['beta', 'd', 'n', 'scales'], "
                "got {'n': 2, 'd': 1, 'scales': [0.125, 0.0625]}",
            ),
            (
                "dimension",
                {"families": [{"n": 2, "d": 1, "beta": 1.0}]},
                "families[0] must be an object with exactly the keys ['beta', 'd', 'delta', 'n'], "
                "got {'n': 2, 'd': 1, 'beta': 1.0}",
            ),
            ("dimension", {"families": 3}, "families must be a non-empty list, got 3"),
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "beta": 1.0, "scales": [0.25, 0.125, 0.0625], "scale": 0.1}]},
                "configs[0] must be an object with exactly the keys ['beta', 'd', 'n', 'scales'], "
                "got {'n': 2, 'd': 1, 'beta': 1.0, 'scales': [0.25, 0.125, 0.0625], 'scale': 0.1}",
            ),
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "beta": 1.0, "scales": 3}]},
                "configs[0].scales must be a non-empty list, got 3",
            ),
            (
                "dimension",
                {"families": [{"n": [2], "d": 1, "beta": 1.0, "delta": 0.0625}]},
                "families[0].n must be an integer >= 1, got [2]",
            ),
        ],
        ids=["beta-zero", "no-beta", "no-delta", "not-a-list", "extra-key", "scales-not-a-list", "n-not-an-integer"],
    )
    def test_bad_nested_entries_exit_two(self, tmp_path, capsys, scenario, params, message):
        """A malformed sharpness or dimension entry is one config error line
        naming its key path, not a traceback or a run that ignores the
        entry's typo."""
        cfg = self._config_file(tmp_path, [{"name": "bad", "scenario": scenario, "seed": 0, "params": params}])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, params, message",
        [
            ("kakeya", {"deltas": 3}, "deltas must be a non-empty list, got 3"),
            ("dichotomy", {"rhos": 3}, "rhos must be a non-empty list, got 3"),
            ("dichotomy", {"trials": 2.5}, "trials must be an integer >= 1, got 2.5"),
            ("thin", {"n_lines": 8.7}, "n_lines must be an integer >= 1, got 8.7"),
            ("induction", {"rho": "x"}, "rho must be a number > 0, got 'x'"),
            ("kakeya", {"deltas": [], "members": ["bush-n2"]}, "deltas must be a non-empty list, got []"),
            ("sharpness", {"configs": []}, "configs must be a non-empty list, got []"),
            ("decompose", {"deltas": []}, "deltas must be a non-empty list, got []"),
            ("dimension", {"families": []}, "families must be a non-empty list, got []"),
            ("dichotomy", {"trials": True}, "trials must be an integer >= 1, got True"),
            (
                "dimension",
                {"families": [{"n": 2, "d": 1, "beta": True, "delta": 0.0625}]},
                "families[0].beta must be a number > 0, got True",
            ),
            ("thin", {"delta": math.nan}, "delta must be a number > 0, got nan"),
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "beta": 1.0, "scales": [0.125, math.nan]}]},
                "configs[0].scales[1] must be a number > 0, got nan",
            ),
            ("decompose", {"rho": -0.25}, "rho must be a number > 0, got -0.25"),
        ],
        ids=[
            "deltas-not-a-list", "rhos-not-a-list", "fractional-trials", "fractional-n-lines", "rho-not-a-number",
            "empty-kakeya-deltas", "empty-configs", "empty-decompose-deltas", "empty-families", "bool-trials",
            "bool-beta", "nan-delta", "nan-scale", "negative-rho",
        ],
    )
    def test_param_of_wrong_type_exits_two(self, tmp_path, capsys, scenario, params, message):
        """A param not of its default's shape (an integer >= 1, a number > 0,
        a non-empty list, an object with the default's keys) is one config
        error line when the config loads, not a traceback, a truncated count,
        a vacuous pass or a failure halfway through a run."""
        cfg = self._config_file(tmp_path, [{"name": "bad", "scenario": scenario, "seed": 0, "params": params}])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, params, message",
        [
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "beta": 1.0, "scales": [0.125, 0.0625]}]},
                "configs[0].scales must hold at least 3 entries (an exponent fit needs at least 3 scales), "
                "got [0.125, 0.0625]",
            ),
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "beta": 1.5, "scales": [0.25, 0.125, 0.0625]}]},
                "configs[0].beta must be at most 1.0 (beta lies in (0, 1]), got 1.5",
            ),
            (
                "dimension",
                {"families": [{"n": 2, "d": 1, "beta": 1.5, "delta": 0.0625}]},
                "families[0].beta must be at most 1.0 (beta lies in (0, 1]), got 1.5",
            ),
            ("decompose", {"rho": 1.5}, "rho must be at most 1.0 (a cap diameter lies in (0, 1]), got 1.5"),
            (
                "induction",
                {"rho": 0.75},
                "rho must be at most 0.5 (a coarsening radius above 1/2 is not supported), got 0.75",
            ),
            ("dichotomy", {"rhos": [0.1, 1.5]}, "rhos[1] must be at most 1.0 (rho lies in (0, 1]), got 1.5"),
            ("kakeya", {"deltas": [0.75]}, "deltas[0] must be at most 0.5 (a scale lies in (0, 1/2]), got 0.75"),
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "beta": 1.0, "scales": [1.0, 0.5, 0.25]}]},
                "configs[0].scales[0] must be at most 0.5 (a scale lies in (0, 1/2]), got 1.0",
            ),
            ("thin", {"delta": 0.75}, "delta must be at most 0.5 (a scale lies in (0, 1/2]), got 0.75"),
            ("dimension", {"cantor_delta": 0.75}, "cantor_delta must be at most 0.5 (a scale lies in (0, 1/2]), got 0.75"),
            (
                "dimension",
                {"families": [{"n": 2, "d": 1, "beta": 1.0, "delta": 0.75}]},
                "families[0].delta must be at most 0.5 (a scale lies in (0, 1/2]), got 0.75",
            ),
            (
                "dimension",
                {"disk_h": 0.1},
                "disk_h must be at most 0.03125 (the disk's grid step is at most its smallest box scale), got 0.1",
            ),
            ("decompose", {"deltas": [0.5], "rho": 0.25}, "deltas[0] must be at most rho, got 0.5 with rho = 0.25"),
            (
                "induction",
                {"deltas": [0.0625], "rho": 0.125},
                "deltas[0] must be below rho/2 (the coarsening's scale condition), got 0.0625 with rho = 0.125",
            ),
            ("dichotomy", {"max_directions": 200}, "max_directions must be at most 101 (N^3 <= WEDGE_TUPLE_LIMIT), got 200"),
            (
                "sharpness",
                {"configs": [{"n": 2, "d": 1, "beta": b, "scales": [0.25, 0.125, 0.0625]} for b in (1.0, 0.5)]},
                "configs[0] and configs[1] share the tag n2d1; one entry per (n, d)",
            ),
            (
                "dimension",
                {"families": [{"n": 2, "d": 1, "beta": b, "delta": 0.0625} for b in (1.0, 0.5)]},
                "families[0] and families[1] share the tag n2d1; one entry per (n, d)",
            ),
        ],
        ids=[
            "two-scales", "sharpness-beta", "dimension-beta", "decompose-rho", "induction-rho", "dichotomy-rhos",
            "kakeya-deltas", "sharpness-scales", "thin-delta", "cantor-delta", "families-delta", "disk-h",
            "decompose-deltas-rho", "induction-deltas-rho", "dichotomy-max-directions", "sharpness-tags",
            "dimension-tags",
        ],
    )
    def test_param_out_of_range_exits_two(self, tmp_path, capsys, monkeypatch, scenario, params, message):
        """A param of the right shape but outside the range its scenario
        supports is one config error line when the config loads, before any
        scenario runs, not an error after the others have run."""
        ran = []
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: ran.append(cfg.name))
        first = {"name": "first", "scenario": "dichotomy", "seed": 0, "params": {"trials": 1}}
        bad = {"name": "bad", "scenario": scenario, "seed": 0, "params": params}
        cfg = self._config_file(tmp_path, [first, bad])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "names, message",
        [
            ([""], f"{NAME_RULE}''"),
            (["."], f"{NAME_RULE}'.'"),
            ([".."], f"{NAME_RULE}'..'"),
            (["a/b"], f"{NAME_RULE}'a/b'"),
            (["../x"], f"{NAME_RULE}'../x'"),
            (["same", "dich", "same"], "scenario names must be unique, as each names its report; repeated: ['same']"),
        ],
        ids=["empty", "dot", "dot-dot", "separator", "parent-dir", "duplicate"],
    )
    def test_bad_report_names_exit_two(self, tmp_path, capsys, names, message):
        """A name that is not one file name, or that two scenarios share, is one
        config error line when the config loads, before any scenario runs."""
        cfg = self._config_file(tmp_path, [dict(QUICK_DICHOTOMY, name=n) for n in names])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_byte_identical_rerun_on_disk(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, [QUICK_DICHOTOMY, QUICK_KAKEYA])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("dich", "kak"):
            pa = json.loads((tmp_path / "a" / f"{name}.json").read_text())["payload"]
            pb = json.loads((tmp_path / "b" / f"{name}.json").read_text())["payload"]
            assert json.dumps(pa, sort_keys=True).encode() == json.dumps(pb, sort_keys=True).encode()

    def test_misspelled_members_exit_two(self, tmp_path, capsys):
        kak = dict(QUICK_KAKEYA, params={"deltas": [0.0625], "members": ["axes-n2k2"]})
        cfg = self._config_file(tmp_path, [kak])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "axes-n2k2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid_h", ["0.3", "0.9", "0", "0.0625", "-0.25"])
    def test_unverified_grid_h_exits_two(self, tmp_path, capsys, grid_h):
        cfg = self._config_file(tmp_path, [QUICK_KAKEYA])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--grid-h", grid_h]) == 2
        assert "1/2, 1/3, 1/4, 1/5, 1/6, 1/7, 1/8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("factor", [16, 0, 1, 4.5])
    def test_unsupported_grid_factor_exits_two(self, tmp_path, capsys, factor):
        kak = dict(QUICK_KAKEYA, params=dict(QUICK_KAKEYA["params"], grid_factor=factor))
        cfg = self._config_file(tmp_path, [kak])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"grid_factor {factor!r}" in err and "2, 3, 4, 5, 6, 7, 8" in err
        assert not out.exists()

    def test_grid_h_sets_grid_factor(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, [QUICK_KAKEYA])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--grid-h", "0.125"]) == 0
        report = json.loads((tmp_path / "a" / "kak.json").read_text())
        assert report["payload"]["config"]["params"]["grid_factor"] == 8

    def test_seed_override(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, [QUICK_DICHOTOMY])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "9"])
        report = json.loads((tmp_path / "a" / "dich.json").read_text())
        assert report["payload"]["config"]["seed"] == 9

    def test_freeze_and_regress_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TUBELAB_GOLDEN_DIR", str(tmp_path / "golden"))
        cfg = self._config_file(tmp_path, [QUICK_KAKEYA])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert main(["regress", str(tmp_path / "out")]) == 2  # no golden yet
        assert main(["freeze", str(tmp_path / "out")]) == 0
        assert main(["regress", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "regression: pass" in out

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_sharpness_csv_export(self, tmp_path, capsys):
        scen = {
            "name": "sharp",
            "scenario": "sharpness",
            "seed": 0,
            "params": {
                "configs": [
                    {"n": 2, "d": 1, "beta": 1.0, "scales": [0.125, 0.0625, 0.03125]}
                ]
            },
        }
        cfg = self._config_file(tmp_path, [scen])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        csv = (tmp_path / "out" / "sharp.n2d1.csv").read_text().splitlines()
        assert csv[0] == "scale,value"
        assert len(csv) == 4
        for line in csv[1:]:
            s, v = line.split(",")
            assert float(s) > 0 and float(v) > 0
