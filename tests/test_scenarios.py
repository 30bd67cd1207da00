import io
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinfp.closed_form import amplitudes
from spinfp.errors import DomainError
from spinfp.observables import observable_table
from spinfp.scenarios import cli
from spinfp.scenarios.config import (
    SCENARIO_PRESETS,
    ConfigError,
    build_config,
    load_config,
    parse_config_text,
    theta_grid,
)
from spinfp.scenarios.states import (
    aligned_family,
    electron_state,
    family_builder,
    impurity_state,
    incident_state,
    one_up_family,
)
from spinfp.scenarios import config as config_mod
from spinfp.scenarios import sweeps
from spinfp.scenarios._format import format_float
from spinfp.scenarios.sweeps import SweepResult, run_sweep, write_csv
from spinfp.scenarios import units
from spinfp.scenarios.units import (
    PhysicalParams,
    convert_units,
    spacing_for_phase,
)

from conftest import child_env
from test_render import CUSTOM_SWEEPS


class TestUnits:
    def test_reference_material_point(self):
        phys = PhysicalParams(0.067, 2.0, 1.0, 50.0)
        params = convert_units(phys)
        assert 0.8 <= params.u <= 1.2
        assert params.u == pytest.approx(0.944, abs=0.01)

    def test_zero_coupling(self):
        phys = PhysicalParams(0.067, 2.0, 0.0, 50.0)
        assert convert_units(phys).u == 0.0

    def test_resonant_spacing_scale(self):
        x0 = spacing_for_phase(0.067, 2.0, math.pi)
        assert 40.0 <= x0 <= 70.0
        # and theta rebuilt from that spacing is pi again
        params = convert_units(PhysicalParams(0.067, 2.0, 1.0, x0))
        assert params.theta == pytest.approx(math.pi, rel=1e-12)

    def test_constants_match_scipy(self):
        constants = pytest.importorskip("scipy.constants")
        assert units.ELEMENTARY_CHARGE == constants.elementary_charge
        assert units.PLANCK == constants.h
        assert units.HBAR == constants.hbar
        assert units.ELECTRON_MASS == constants.m_e

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            PhysicalParams(0.0, 2.0, 1.0, 50.0)
        with pytest.raises(DomainError):
            PhysicalParams(0.067, -2.0, 1.0, 50.0)
        for theta in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="phase theta must be finite and > 0"):
                spacing_for_phase(0.067, 2.0, theta)
        for quantity in (units.wave_number, units.density_of_states):
            with pytest.raises(DomainError, match="mass and energy must be positive"):
                quantity(-1.0, 2.0)


class TestStates:
    def test_product_kets(self):
        np.testing.assert_allclose(impurity_state("du"), [0, 0, 1, 0])
        np.testing.assert_allclose(impurity_state("u,d"), [0, 1, 0, 0])

    def test_comma_kets_are_the_product_kets(self):
        for ket in ("uu", "ud", "du", "dd"):
            for spec in (f"{ket[0]},{ket[1]}", f" {ket[0].upper()},{ket[1].upper()} "):
                assert np.array_equal(impurity_state(spec), impurity_state(ket))

    def test_bell_states(self):
        np.testing.assert_allclose(
            impurity_state("psi-"), np.array([0, 1, -1, 0]) / math.sqrt(2)
        )
        np.testing.assert_allclose(
            impurity_state("psi+"), np.array([0, 1, 1, 0]) / math.sqrt(2)
        )

    def test_one_up_family(self):
        state = impurity_state("family2 theta=0.5 phi=1.25")
        np.testing.assert_allclose(state, one_up_family(0.5, 1.25))
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_aligned_family(self):
        state = impurity_state("uu_dd theta=0.7 phi=3.0")
        np.testing.assert_allclose(state, aligned_family(0.7, 3.0))

    def test_family_requires_both_angles(self):
        with pytest.raises(DomainError):
            impurity_state("family2 theta=0.5")
        with pytest.raises(DomainError):
            impurity_state("family2 theta=0.5 phi=oops")

    def test_unknown_spec(self):
        with pytest.raises(DomainError):
            impurity_state("bell")
        for spec in ("u,,d", ",ud,", "ud,", "u,d,"):  # one comma, between the arrows
            with pytest.raises(DomainError, match="unrecognized impurity state spec"):
                impurity_state(spec)

    @pytest.mark.parametrize("spec", ["psi+ foo", "psi- theta=1", "uu foo"])
    def test_rejects_tokens_after_a_named_state(self, spec):
        with pytest.raises(DomainError, match=repr(spec.split(maxsplit=1)[1])):
            impurity_state(spec)

    def test_rejects_repeated_family_parameter(self):
        with pytest.raises(DomainError, match="repeated family parameter 'theta'"):
            impurity_state("family2 theta=1 phi=2 theta=3")

    def test_electron_states(self):
        np.testing.assert_allclose(electron_state("u"), [1, 0])
        np.testing.assert_allclose(electron_state("down"), [0, 1])
        amps = electron_state("0.6,0.8j")
        np.testing.assert_allclose(amps, [0.6, 0.8j])

    def test_electron_normalization(self):
        amps = electron_state("1,1")
        assert np.linalg.norm(amps) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            electron_state("0,0")

    def test_electron_amplitudes_depend_on_direction_only(self):
        raw = np.array([0.6, 0.8], dtype=complex)
        assert electron_state("0.6,0.8").tobytes() == (raw / np.linalg.norm(raw)).tobytes()
        np.testing.assert_allclose(electron_state("3e-13,4e-13"), [0.6, 0.8], rtol=1e-15)
        diagonal = electron_state("1,1")
        for spec in ("1e-170,1e-170", "1e200,1e200", "1.7e308,1.7e308"):
            np.testing.assert_allclose(electron_state(spec), diagonal, rtol=1e-15)
        assert electron_state("5e-324,0").tobytes() == electron_state("u").tobytes()
        for spec in ("nan,1", "inf,1", "0,-0.0"):
            with pytest.raises(DomainError):
                electron_state(spec)

    def test_incident_state_is_normalized(self):
        amps = incident_state("0.6,0.8", "psi-").amplitudes
        assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-12)


class TestConfig:
    def test_parse_text(self):
        text = "# comment\nscenario = fig3b\n\nu_list = 1, 2\n"
        assert parse_config_text(text) == {"scenario": "fig3b", "u_list": "1, 2"}

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("volume = 11\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("scenario fig3b\n")

    def test_duplicate_key(self):
        text = "scenario = fig3b\nu_steps = 5\n# again\nu_steps = 7\n"
        with pytest.raises(ConfigError, match="line 4: duplicate key 'u_steps', "
                                              "first set on line 2"):
            parse_config_text(text)

    def test_configs_compare_by_identity_and_hash(self):
        # a config holds arrays, so equal settings do not make == elementwise
        cfg, again = build_config({"scenario": "fig7"}), build_config({"scenario": "fig7"})
        assert cfg == cfg and cfg != again
        assert {cfg: 1, again: 2}[cfg] == 1

    def test_preset_defaults(self):
        cfg = build_config({"scenario": "fig3b"})
        assert cfg.kind == "theta"
        assert cfg.impurity_state == "psi-"
        assert cfg.u_values.tolist() == [1.0, 2.0, 10.0]
        assert len(cfg.theta_values) == 2001
        assert cfg.output == "fig3b.csv"

    @pytest.mark.parametrize("scenario", ["fig2a", "fig4", "fig7"])
    def test_grids_are_read_only_float_arrays(self, scenario):
        cfg = build_config({"scenario": scenario})
        for grid in (cfg.u_values, cfg.theta_values, cfg.vartheta_values, cfg.phi_values):
            assert isinstance(grid, np.ndarray) and grid.dtype == np.float64
            assert not grid.flags.writeable

    def test_open_lower_edge(self):
        grid = theta_grid(0.0, 2 * math.pi, 10)
        assert grid[0] > 0.0
        assert grid[-1] == pytest.approx(2 * math.pi)
        closed = theta_grid(1.0, 2.0, 5)
        assert closed[0] == 1.0 and closed[-1] == 2.0

    def test_override_preset(self):
        cfg = build_config(
            {"scenario": "fig3b", "theta_steps": "11", "u_list": "5"}
        )
        assert len(cfg.theta_values) == 11
        assert cfg.u_values == (5.0,)

    def test_grid_cap(self):
        with pytest.raises(ConfigError):
            build_config({"scenario": "fig3b", "theta_steps": str(10**7 + 1)})

    def test_bad_state_caught_early(self):
        with pytest.raises(ConfigError):
            build_config({"scenario": "custom", "impurity_state": "nonsense"})

    @pytest.mark.parametrize("electron, impurity", [
        ("x", "ud"), ("u", "nonsense"), ("x", "nonsense"), ("0,0", "psi+"),
        ("1,nan", "dd"), ("u", "family2 theta=1"), ("u", "ud extra"),
    ])
    def test_state_errors_are_the_parsers_messages(self, electron, impurity):
        with pytest.raises(DomainError) as parsed:
            incident_state(electron, impurity)
        with pytest.raises(ConfigError) as built:
            build_config({"scenario": "custom", "electron_spin": electron,
                          "impurity_state": impurity})
        assert str(built.value) == str(parsed.value)

    @pytest.mark.parametrize("scenario", ["fig2a", "fig7"])
    def test_sweep_composes_its_incident_state_once(self, monkeypatch, scenario):
        # the config checks the two specs; only the sweep composes the 8-vector
        from spinfp.scenarios import states

        compose, calls = states.compose_state, []

        def counting(electron, impurities):
            calls.append(1)
            return compose(electron, impurities)

        monkeypatch.setattr(states, "compose_state", counting)
        result = run_sweep(build_config({"scenario": scenario}))
        assert sum(len(batch) for batch in result.batches()) == result.row_count
        assert len(calls) == 1

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            build_config({"scenario": "fig9"})

    def test_family_preset(self):
        cfg = build_config({"scenario": "fig4"})
        assert cfg.kind == "family"
        assert cfg.theta_values == pytest.approx((math.pi,))
        assert cfg.u_values == (10.0,)
        assert cfg.vartheta_values[0] == 0.0
        assert cfg.vartheta_values[-1] == pytest.approx(2 * math.pi)
        assert cfg.phi_values[-1] == pytest.approx(math.pi)

    def test_family_needs_family_state(self):
        with pytest.raises(ConfigError):
            build_config({"scenario": "fig4", "impurity_state": "ud"})

    @pytest.mark.parametrize("spec", ["family2 foo", "family2 theta=1 phi=2", "uu_dd x"])
    def test_family_rejects_trailing_tokens(self, spec):
        with pytest.raises(ConfigError, match=repr(spec.split(maxsplit=1)[1])):
            build_config({"sweep": "family", "impurity_state": spec})

    def test_coupling_preset(self):
        cfg = build_config({"scenario": "fig7"})
        assert cfg.kind == "coupling"
        assert len(cfg.u_values) == 1000
        assert cfg.u_values[0] == pytest.approx(0.01)
        assert cfg.u_values[-1] == pytest.approx(10.0)

    def test_coupling_range_under_custom_preset(self):
        # the custom preset's u_list must not shadow the config's u range
        cfg = build_config(
            {"sweep": "coupling", "u_min": "0.5", "u_max": "2", "u_steps": "50",
             "impurity_state": "dd"}
        )
        rows = np.asarray(run_sweep(cfg).rows)
        assert len(rows) == 50
        np.testing.assert_array_equal(rows[:, 1], np.linspace(0.5, 2.0, 50))

    def test_coupling_header_echoes_only_coupling_keys(self):
        # the custom preset's u_list and theta_* keys are not read by this grid;
        # theta is, at its default
        cfg = build_config(
            {"sweep": "coupling", "u_min": "0.5", "u_max": "2", "u_steps": "50",
             "impurity_state": "dd"}
        )
        assert [key for key, _ in cfg.echo] == [
            "electron_spin", "impurity_state", "output", "scenario", "sweep",
            "theta", "u_max", "u_min", "u_steps",
        ]
        assert dict(cfg.echo)["theta"] == repr(math.pi)

    def test_family_header_echoes_only_family_keys(self):
        cfg = build_config(
            {"sweep": "family", "impurity_state": "family2", "u_list": "3",
             "phi_steps": "5"}
        )
        assert [key for key, _ in cfg.echo] == [
            "electron_spin", "impurity_state", "output", "phi_steps", "scenario",
            "sweep", "theta", "u_list", "vartheta_steps",
        ]
        assert dict(cfg.echo)["vartheta_steps"] == "161"

    def test_header_echoes_the_grid_that_runs(self):
        # a coupling sweep with its own u_list reads neither the u range nor
        # the preset's theta_* keys; a theta sweep under a family preset
        # echoes the theta grid it runs at its defaults
        cfg = build_config({"scenario": "custom", "sweep": "coupling", "u_list": "1,2",
                            "impurity_state": "dd"})
        assert {"theta", "u_list"} <= dict(cfg.echo).keys()
        assert not {"u_min", "u_max", "u_steps", "theta_steps"} & dict(cfg.echo).keys()
        cfg = build_config({"scenario": "fig4", "sweep": "theta", "impurity_state": "ud"})
        echo = dict(cfg.echo)
        assert (echo["theta_min"], echo["theta_steps"], echo["u_list"]) == ("0", "2001", "10")
        assert len(cfg.theta_values) == 2001 and cfg.u_values == (10.0,)

    @pytest.mark.parametrize(
        "scenario", [name for name in config_mod.SCENARIO_PRESETS if name != "custom"]
    )
    def test_figure_header_echoes_whole_preset(self, scenario):
        cfg = build_config({"scenario": scenario})
        expected = sorted({*config_mod.SCENARIO_PRESETS[scenario], "output", "scenario"})
        assert [key for key, _ in cfg.echo] == expected

    def test_coupling_u_list_from_config(self):
        assert build_config({"scenario": "fig7", "u_list": "1,3"}).u_values.tolist() == [1.0, 3.0]
        with pytest.raises(ConfigError, match="coupling sweep does not read u_steps; "):
            build_config({"scenario": "fig7", "u_list": "1,3", "u_steps": "5"})

    @pytest.mark.parametrize("raw", ["1,,2", "1,"])
    def test_empty_u_list_entry_rejected(self, raw):
        with pytest.raises(ConfigError) as info:
            build_config({"scenario": "fig3b", "u_list": raw})
        assert "u_list" in str(info.value) and repr(raw) in str(info.value)

    @pytest.mark.parametrize(
        "settings,unread",
        [
            ({"sweep": "theta", "impurity_state": "dd", "u_min": "0.1"}, "u_min"),
            ({"scenario": "fig7", "theta_steps": "5"}, "theta_steps"),
            ({"scenario": "fig4", "theta_max": "3"}, "theta_max"),
            ({"scenario": "fig2a", "tehta_steps": "5"}, "tehta_steps"),
        ],
        ids=["theta", "coupling", "family", "typo"],
    )
    def test_unread_key_rejected(self, settings, unread):
        # every key a config sets must be read by its sweep kind
        with pytest.raises(ConfigError, match=f"does not read {unread}; it reads ") as info:
            build_config(settings)
        read = str(info.value).split("it reads ")[1].split(", ")
        assert "output" in read and unread not in read

    def test_grid_cap_is_exact(self):
        per_u = config_mod.GRID_CAP // 4
        assert per_u * 4 == config_mod.GRID_CAP
        cfg = build_config({"scenario": "fig4", "vartheta_steps": str(per_u), "phi_steps": "4"})
        assert len(cfg.vartheta_values) * len(cfg.phi_values) == config_mod.GRID_CAP
        with pytest.raises(ConfigError, match="exceeds cap"):
            build_config({"scenario": "fig4", "vartheta_steps": str(per_u + 1), "phi_steps": "4"})

    def test_grid_cap_checked_before_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid allocated before the cap check")

        monkeypatch.setattr(config_mod, "_closed_grid", refuse)
        monkeypatch.setattr(config_mod, "theta_grid", refuse)
        with pytest.raises(ConfigError, match="exceeds cap"):
            build_config({"scenario": "fig4", "vartheta_steps": "100000", "phi_steps": "101"})
        with pytest.raises(ConfigError, match="exceeds cap"):
            build_config({"scenario": "fig2a", "theta_steps": str(4 * 10**6)})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize(
        "output", ["", ".", "/", "..", "taken", "pipe", "file.txt/x.csv"]
    )
    def test_any_output_is_kept_and_no_file_is_read(self, tmp_path, monkeypatch, output):
        # the output is judged where the CSV is written, by sweeps.output_target
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        (tmp_path / "file.txt").write_text("")
        os.mkfifo(tmp_path / "pipe")

        def no_file(*args, **kwargs):
            raise AssertionError("build_config looked at the file system")

        with monkeypatch.context() as patch:
            for name in ("stat", "lstat", "scandir", "listdir", "open"):
                patch.setattr(os, name, no_file)
            patch.setattr("builtins.open", no_file)
            cfg = build_config({"scenario": "fig7", "u_steps": "3", "output": output})
        assert cfg.output == output and dict(cfg.echo)["output"] == output

    # the output rules of a config, judged by sweeps.output_target; the rest of
    # its table is TestOutputTarget
    @pytest.mark.parametrize("output", ["", ".", "/"])
    def test_output_must_name_a_file(self, tmp_path, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        cfg = build_config({"scenario": "fig7", "output": output})
        with pytest.raises(OSError, match="output") as info:
            sweeps.output_target(cfg.output)
        assert repr(output) in str(info.value)

    @pytest.mark.parametrize(
        "output", ["..", "out", "out/..", "file.txt/x.csv", "file.txt/sub/x.csv"]
    )
    def test_output_naming_a_directory_rejected(self, tmp_path, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "file.txt").write_text("")
        cfg = build_config({"scenario": "fig7", "output": output})
        with pytest.raises(OSError, match="output") as info:
            sweeps.output_target(cfg.output)
        assert repr(output) in str(info.value)

    @pytest.mark.parametrize(
        "settings",
        [{"scenario": "fig3b", "theta_steps": "5", "u_list": "{}"},
         {"scenario": "fig4", "vartheta_steps": "5", "phi_steps": "5", "u_list": "{}"},
         {"scenario": "fig7", "u_steps": "5", "u_min": "{}", "u_max": "1"}],
        ids=["theta", "family", "coupling"],
    )
    def test_negative_zero_coupling_is_written_as_zero(self, tmp_path, settings):
        def data_lines(zero):
            cfg = build_config({k: v.format(zero) for k, v in settings.items()})
            text = write_csv(run_sweep(cfg), tmp_path / "sweep.csv").read_text()
            return [line for line in text.splitlines() if not line.startswith("#")]

        assert data_lines("-0.0") == data_lines("0")

    @pytest.mark.parametrize(
        "settings,expected",
        [
            ({"theta_min": "abc"}, ["theta_min", "'abc'"]),
            ({"theta_max": "inf"}, ["theta_max = 'inf'"]),
            ({"theta_steps": "2.5"}, ["theta_steps", "'2.5'"]),
            ({"theta_steps": "0"}, ["theta_steps = '0'"]),
            ({"u_list": "1,x"}, ["u_list", "'1,x'"]),
            ({"u_list": "1,-2"}, ["u_list '1,-2'", "-2.0"]),
            ({"u_list": "1,nan"}, ["u_list '1,nan'", "nan"]),
            ({"u_list": "1e77"}, ["u_list = 1e+77"]),
            ({"theta_min": "2", "theta_max": "1"}, ["theta_max = 1.0", "theta_min = 2.0"]),
            ({"theta_min": "-1", "theta_max": "1"}, ["theta_min = -1.0"]),
            ({"theta_max": "1e308"}, ["theta_max = 1e+308"]),
            ({"theta_min": "1e-320", "theta_max": "1"}, ["theta_min = 1e-320"]),
            ({"scenario": "fig7", "u_min": "3", "u_max": "1"}, ["u_min = 3.0", "u_max = 1.0"]),
        ],
        ids=["float-syntax", "float-finite", "int-syntax", "int-positive", "u_list-syntax",
             "u_list-negative", "u_list-nan", "u_list-bound", "theta-order", "theta-negative",
             "theta-overflow", "theta-subnormal", "u-range"],
    )
    def test_numeric_error_names_key_and_value(self, settings, expected):
        with pytest.raises(ConfigError) as info:
            build_config({"scenario": "fig3b", **settings})
        for text in expected:
            assert text in str(info.value)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "scenario = fig7\nu_steps = 3\n"
        (tmp_path / "plain.cfg").write_text(text, encoding="utf-8")
        (tmp_path / "bom.cfg").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbfscenario")
        bom, plain = load_config(tmp_path / "bom.cfg"), load_config(tmp_path / "plain.cfg")
        assert bom.echo == plain.echo
        for grid in ("u_values", "theta_values", "vartheta_values", "phi_values"):
            assert np.array_equal(getattr(bom, grid), getattr(plain, grid))


class TestSweeps:
    def test_theta_sweep_rows_and_columns(self):
        cfg = build_config(
            {"scenario": "fig3b", "theta_steps": "40", "u_list": "1,10"}
        )
        result = run_sweep(cfg)
        assert result.columns[:5] == ("theta", "u", "T", "T_up", "T_down")
        assert result.columns[-1] == "R"
        assert len(result.columns) == 5 + 16 + 1
        assert len(result.rows) == 80
        # row-major: coupling u is the outer axis
        assert result.rows[0][1] == 1.0
        assert result.rows[40][1] == 10.0
        arr = np.asarray(result.rows)
        for col in (2, 3, 4):
            assert np.all(arr[:, col] >= 0.0)
            assert np.all(arr[:, col] <= 1.0 + 1e-12)
        # T = 1 at the grid point theta = 2 pi (last of each block)
        assert arr[39, 2] == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(arr[:, 2] + arr[:, 21], 1.0, atol=1e-10)

    def test_results_compare_by_identity_and_hash(self):
        cfg = build_config({"scenario": "fig7", "u_steps": "5"})
        result, again = run_sweep(cfg), run_sweep(cfg)
        assert result == result and result != again
        assert {result: 1, again: 2}[again] == 2

    def test_coupling_sweep_holds_theta_fixed(self):
        cfg = build_config({"scenario": "fig7", "u_steps": "25"})
        result = run_sweep(cfg)
        arr = np.asarray(result.rows)
        assert len(result.rows) == 25
        assert np.all(arr[:, 0] == arr[0, 0])
        assert np.all(np.diff(arr[:, 1]) > 0)
        assert np.max(arr[:, 4]) > 0.2  # T_down crosses 20 percent

    def test_family_sweep_extremes(self):
        cfg = build_config(
            {"scenario": "fig4", "vartheta_steps": "9", "phi_steps": "5"}
        )
        result = run_sweep(cfg)
        assert result.columns[:3] == ("vartheta", "phi", "u")
        arr = np.asarray(result.rows)
        assert len(arr) == 45
        point = arr[
            (np.abs(arr[:, 0] - math.pi / 4) < 1e-12)
            & (np.abs(arr[:, 1] - math.pi) < 1e-12)
        ]
        assert point[0, 3] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("family", ["family2", "uu_dd"])
    def test_family_name_is_case_insensitive(self, family):
        base = {"sweep": "family", "u_list": "1,3", "vartheta_steps": "5", "phi_steps": "3"}
        expected = run_sweep(build_config({**base, "impurity_state": family})).rows
        for spec in (family.upper(), family.capitalize()):
            rows = run_sweep(build_config({**base, "impurity_state": spec})).rows
            assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "settings, lead",
        [  # the lead values of each row, u outermost
            ({"scenario": "fig2a", "theta_steps": "7", "u_list": "1,0.3"},
             lambda c: [(th, u) for u in c.u_values for th in c.theta_values]),
            ({"scenario": "fig7", "u_steps": "9"},
             lambda c: [(th, u) for u in c.u_values for th in c.theta_values]),
            ({"scenario": "fig4", "vartheta_steps": "3", "phi_steps": "5", "u_list": "2,0.1"},
             lambda c: [(vt, ph, u) for u in c.u_values
                        for vt in c.vartheta_values for ph in c.phi_values]),
        ],
        ids=["theta", "coupling", "family"],
    )
    def test_rows_are_one_read_only_float_table(self, settings, lead):
        cfg = build_config(settings)
        result = run_sweep(cfg)
        rows = result.rows
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        assert not rows.flags.writeable
        expected = np.array(lead(cfg))
        assert rows.shape == (len(expected), len(result.columns))
        # the config's grid values, bit for bit
        assert rows[:, :expected.shape[1]].tobytes() == expected.tobytes()

    RERUNS = {**{name: {"scenario": name} for name in ("fig3b", "fig4", "fig7")}, **CUSTOM_SWEEPS}

    @pytest.mark.parametrize("settings", RERUNS.values(), ids=RERUNS.keys())
    def test_reruns_are_byte_identical(self, tmp_path, settings):
        cfg = build_config(settings)
        first = write_csv(run_sweep(cfg), tmp_path / "first.csv").read_bytes()
        assert write_csv(run_sweep(cfg), tmp_path / "second.csv").read_bytes() == first

    @pytest.mark.parametrize(
        "settings",
        [
            {"scenario": "fig2a", "theta_steps": "40", "u_list": "1,2"},
            {"scenario": "fig7", "u_steps": "45"},
            {"scenario": "fig4", "vartheta_steps": "9", "phi_steps": "5", "u_list": "2,10"},
            {"scenario": "fig6", "theta_steps": "30", "u_list": "3", "output": "θ-süß.csv"},
            # several points per row-builder call: 1, 1, 42 and 682 at the chunk sizes
            {"scenario": "fig5", "vartheta_steps": "3", "phi_steps": "2",
             "u_list": "0.5,1,2,3,5,8,10"},
        ],
    )
    def test_output_independent_of_chunk_size(self, tmp_path, monkeypatch, settings):
        name = settings.get("output", "sweep.csv")
        cfg = build_config({**settings, "output": str(tmp_path / name)})
        reference = write_csv(run_sweep(cfg), cfg.output).read_bytes()
        for chunk in (1, 7, 256, 4096):
            monkeypatch.setattr(sweeps, "CHUNK", chunk)
            assert write_csv(run_sweep(cfg), cfg.output).read_bytes() == reference
        # the header echoes the output path in UTF-8; every data line is ASCII
        lines = (tmp_path / name).read_bytes().splitlines()
        header = [ln for ln in lines if ln.startswith(b"#")]
        assert f"# output = {tmp_path / name}".encode("utf-8") in header
        for line in lines[len(header):]:
            line.decode("ascii")

    def test_family_points_share_row_builder_calls(self, monkeypatch):
        # 1,800 u values of one state each: 3 * CHUNK points share each row-builder call
        calls = []

        def counted(*args):
            calls.append(args)
            return observable_table(*args)

        monkeypatch.setattr(sweeps, "observable_table", counted)
        u_list = ",".join(repr(0.01 * k) for k in range(1, 1801))
        result = run_sweep(build_config({
            "scenario": "fig5", "vartheta_steps": "1", "phi_steps": "1", "u_list": u_list}))
        assert len(result.rows) == 1800
        assert len(calls) == math.ceil(1800 / (3 * sweeps.CHUNK))

    @pytest.mark.parametrize(
        "scenario", [name for name in SCENARIO_PRESETS if name.startswith("fig")]
    )
    def test_written_file_is_the_rendered_text(self, tmp_path, scenario, capsys):
        # the CLI writes what write_csv lays out for the same config, byte for byte
        output = tmp_path / "sweep.csv"
        (tmp_path / "sweep.cfg").write_text(f"scenario = {scenario}\noutput = {output}\n")
        assert cli.main(["sweep", "--config", str(tmp_path / "sweep.cfg")]) == 0
        written = output.read_bytes()
        result = run_sweep(build_config({"scenario": scenario, "output": str(output)}))
        assert write_csv(result, output).read_bytes() == written
        assert capsys.readouterr().out == f"wrote {len(result.rows)} rows to {output}\n"

    def test_write_memory_does_not_grow_with_rows(self, tmp_path):
        """The write holds O(CHUNK) bytes: a family table of 3e4 rows (8 MB of
        CSV) and one of 6e4 rows (16 MB) write within the same small peak."""
        def family(u_list):
            return run_sweep(build_config({
                "sweep": "family", "impurity_state": "family2", "electron_spin": "u",
                "u_list": u_list, "vartheta_steps": "241", "phi_steps": "125"}))

        write_csv(family("2"), tmp_path / "warm.csv")  # builds the format tables
        peaks, sizes = [], []
        for u_list in ("2", "2,5"):
            result = family(u_list)
            tracemalloc.start()
            try:
                path = write_csv(result, tmp_path / "sweep.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(path.stat().st_size)
        assert sizes[0] > 7.5e6 and sizes[1] > 15e6
        assert max(peaks) < 4e6
        assert peaks[1] < peaks[0] + 0.25e6

    @pytest.mark.parametrize(
        "settings, sizes",
        [  # 3.0e4 and 1.2e5 family rows; 3,003 and 30,003 theta rows
            ({"sweep": "family", "impurity_state": "family2", "vartheta_steps": "241",
              "phi_steps": "125"}, [{"u_list": "2"}, {"u_list": "2,5,7,9"}]),
            ({"scenario": "fig2a", "u_list": "1,2,10"},
             [{"theta_steps": "1001"}, {"theta_steps": "10001"}]),
        ],
        ids=["family", "theta"],
    )
    def test_sweep_memory_does_not_grow_with_rows(self, tmp_path, settings, sizes):
        """The sweep and its write together hold O(CHUNK) rows: no table and no
        state grid, which at 3e4 family rows alone would take 9 MB."""
        write_csv(run_sweep(build_config({**settings, **sizes[0]})), tmp_path / "warm.csv")
        peaks = []
        for size in sizes:
            cfg = build_config({**settings, **size})
            tracemalloc.start()
            try:
                write_csv(run_sweep(cfg), tmp_path / "sweep.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 3e6
        assert abs(peaks[1] - peaks[0]) < 0.25e6

    @pytest.mark.cap
    def test_cap_size_sweeps_peak_below_150_mb(self, tmp_path):
        """At the 2e6-row cap a theta and a family sweep, each in a child
        interpreter, peak below 150 MB RSS: a float table of 2e6 rows alone is
        350 MB.  A child's ``ru_maxrss`` starts at the peak of the process that
        spawns it, so a small launcher spawns each sweep and prints the
        sweep's own peak from ``os.wait4``; spawned from pytest, tens of MB
        into its run, every child would read at least pytest's peak."""
        launch = ("import os, sys; argv = sys.argv[1:]; "
                  "_, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ), 0); "
                  "print(usage.ru_maxrss); sys.exit(os.waitstatus_to_exitcode(status))")
        cases = {"fig2a": "scenario = fig2a\ntheta_steps = 2000000\nu_list = 2",
                 "fig4": "scenario = fig4\nvartheta_steps = 2000\nphi_steps = 1000"}
        peaks = {}
        for name, settings in cases.items():
            output, cfg_file = tmp_path / f"{name}.csv", tmp_path / f"{name}.cfg"
            cfg_file.write_text(f"{settings}\noutput = {output}\n")
            run = subprocess.run(
                [sys.executable, "-c", launch, sys.executable, "-W", "error::RuntimeWarning",
                 "-m", "spinfp.scenarios.cli", "sweep", "--config", str(cfg_file)],
                env=child_env(), capture_output=True, text=True)
            assert (run.returncode, run.stderr) == (0, ""), run.stderr
            wrote, peak_kb = run.stdout.splitlines()
            assert wrote == f"wrote 2000000 rows to {output}"
            peaks[name] = int(peak_kb) / 1024  # kB on Linux
            output.unlink()  # about 0.8 GB of CSV each
        print(", ".join(f"{name} peaked at {mb:.1f} MB" for name, mb in peaks.items()))
        assert max(peaks.values()) < 150, peaks

    def test_render_matches_format_float(self, tmp_path):
        rng = np.random.default_rng(7)
        special = [0.0, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1.0 / 3.0,
                   -1e300, math.inf, -math.inf, math.nan]
        drawn = rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300)
        values = special + drawn.tolist()
        rows = tuple(tuple(values[i:i + 3]) for i in range(0, len(values) - 2, 3))
        result = SweepResult(header=("# scenario = x",), columns=("a", "b", "c"),
                             batches=lambda: [np.array(rows)], row_count=len(rows))
        expected = ["# scenario = x", "a,b,c"]
        expected += [",".join(format_float(v) for v in row) for row in rows]
        text = write_csv(result, tmp_path / "table.csv").read_bytes().decode("utf-8")
        assert text == "\n".join(expected) + "\n"

    def test_csv_format(self, tmp_path):
        cfg = build_config(
            {
                "scenario": "fig2a",
                "theta_steps": "5",
                "u_list": "2",
                "output": str(tmp_path / "out" / "sweep.csv"),
            }
        )
        path = write_csv(run_sweep(cfg), cfg.output)
        lines = path.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("scenario = fig2a" in ln for ln in header)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0].startswith("theta,u,T,")
        assert len(body) == 1 + 5
        # 17 significant digits survive a round trip
        value = float(body[1].split(",")[2])
        assert f"{value:.17g}" == body[1].split(",")[2]


    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        cfg = build_config({"scenario": "fig2a", "theta_steps": "5", "u_list": "2",
                            "output": str(tmp_path / "sweep.csv")})
        path = write_csv(run_sweep(cfg), cfg.output)
        earlier = path.read_bytes()
        on_disk = []

        class FullAfterFirstChunk(io.FileIO):
            """The disk fills once the header and the first batch of rows are written."""

            def write(self, data):
                if len(on_disk) == 2:
                    on_disk.append(Path(self.name).read_bytes())
                    raise OSError(28, "No space left on device")
                on_disk.append(data)
                return super().write(data)

        monkeypatch.setattr(sweeps, "open", FullAfterFirstChunk, raising=False)
        monkeypatch.setattr(sweeps, "CHUNK", 3)
        wider = build_config({"scenario": "fig2a", "theta_steps": "30", "u_list": "2",
                              "output": str(tmp_path / "sweep.csv")})
        with pytest.raises(OSError, match="No space left"):
            write_csv(run_sweep(wider), wider.output)
        header, first_rows, partial = on_disk
        assert partial == header + first_rows and first_rows.count(b"\n") == 3 * sweeps.CHUNK
        assert path.read_bytes() == earlier
        assert sorted(tmp_path.iterdir()) == [path]


def spanned_states(cfg):
    """Every incident state the sweep spans at a point, in row order (phi the inner axis)."""
    if cfg.kind != "family":
        return np.array([incident_state(cfg.electron_spin, cfg.impurity_state).amplitudes])
    vartheta, phi = np.meshgrid(cfg.vartheta_values, cfg.phi_values, indexing="ij")
    pairs = family_builder(cfg.impurity_state)(vartheta.ravel(), phi.ravel())
    return np.kron([electron_state(cfg.electron_spin)], pairs)


def dense_rows(cfg):
    """The sweep's table by the dense reference: every column of t, r and the states,
    one kernel call and one ``observable_table`` call over the whole grid."""
    chi = spanned_states(cfg)
    u, theta = (a.ravel() for a in np.meshgrid(cfg.u_values, cfg.theta_values, indexing="ij"))
    t, r = amplitudes(u, theta)
    table = observable_table(t[:, None], r[:, None], chi, u[:, None], theta[:, None])
    if cfg.kind == "family":
        vartheta, phi = np.meshgrid(cfg.vartheta_values, cfg.phi_values, indexing="ij")
        lead = (vartheta.ravel(), phi.ravel(), u[:, None])
    else:
        lead = (theta[:, None], u[:, None])
    lead = np.stack([np.broadcast_to(column, table.shape[:2]) for column in lead], axis=-1)
    rows = np.concatenate((lead, table), axis=-1)
    return rows.reshape(-1, rows.shape[-1])


# every figure preset, fig5 with 4,508 states per point (768 does not divide it,
# so the point's last block is short), fig5 with 35 states at 30 points (1,050
# rows: at the production CHUNK a block of 768 rows holds parts of 22 points and
# gathers their matrices), then custom electrons (with entries of -0.0, or
# complex) on a theta, a coupling and both kinds of family sweep, on smaller grids
DENSE_REFERENCE_CONFIGS = {
    **{name: {"scenario": name} for name in SCENARIO_PRESETS if name.startswith("fig")},
    "fig5-4508-states": {"scenario": "fig5", "phi_steps": "28", "u_list": "2"},
    "fig5-35-states-30-points": {
        "scenario": "fig5", "vartheta_steps": "5", "phi_steps": "7",
        "u_list": ",".join(repr(0.5 * k) for k in range(1, 31))},
    **{f"{name}/{electron}": {**settings, "electron_spin": electron}
       for electron in ("0,-1", "-0.6,0.8j", "0.6+0.1j,0.8")
       for name, settings in [
           ("fig2a", {"scenario": "fig2a", "theta_steps": "201"}),
           ("fig6", {"scenario": "fig6", "theta_steps": "201"}),
           ("fig7", {"scenario": "fig7", "u_steps": "300"}),
           ("fig5", {"scenario": "fig5", "vartheta_steps": "21", "phi_steps": "11",
                     "u_list": "2,10"}),
           ("fig5-uu_dd", {"scenario": "fig5", "impurity_state": "uu_dd",
                           "vartheta_steps": "21", "phi_steps": "11", "u_list": "2,10"}),
       ]},
}


def _random_states(n):
    raw = np.random.default_rng(n).standard_normal((n, 16)).view(complex)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


# per case, incident states: electrons 0,-1 and -1,0 (entries of -0.0) with every
# kind of impurity state, random complex states on all eight columns, and the
# states of every figure preset
USED_COLUMN_STATES = {
    **{f"{electron}|{spec}": np.array([incident_state(electron, spec).amplitudes])
       for electron in ("0,-1", "-1,0")
       for spec in ("uu", "ud", "du", "dd", "psi+", "psi-", "uu_dd theta=0.7 phi=2",
                    "family2 theta=0.3 phi=-1")},
    "random": _random_states(5),
    **{name: spanned_states(build_config({"scenario": name}))
       for name in SCENARIO_PRESETS if name.startswith("fig")},
}


class TestUsedColumns:
    """A sweep computes only the product-basis columns its incident states use,
    and writes the bytes of the dense path."""

    def test_some_states_hold_negative_zeros(self):
        parts = np.concatenate([chi for case, chi in USED_COLUMN_STATES.items()
                                if "|" in case]).view(np.float64)
        assert np.any(np.signbit(parts) & (parts == 0.0))

    @pytest.mark.parametrize("case", list(USED_COLUMN_STATES))
    def test_rows_on_the_used_columns_are_the_dense_rows(self, case):
        # observable_table on the columns the states use, of t, r and the states
        chi = USED_COLUMN_STATES[case]
        used = np.flatnonzero(np.any(chi, axis=0))
        assert len(used) == 8 if case == "random" else len(used) <= 4
        rng = np.random.default_rng(11)
        u, theta = rng.uniform(0.01, 20, 6), rng.uniform(0.1, 4 * math.pi, 6)
        u[0], theta[0] = 2.0, math.pi
        t, r = amplitudes(u, theta)
        t_used, r_used = amplitudes(u, theta, used)
        chi_used = chi.take(used, axis=-1)
        # a grid of points times states, as every sweep calls it
        dense = observable_table(t[:, None], r[:, None], chi, u[:, None], theta[:, None])
        got = observable_table(t_used[:, None], r_used[:, None], chi_used, u[:, None],
                               theta[:, None])
        assert got.tobytes() == dense.tobytes()  # -0.0 and 0.0 differ in their bytes
        # one state per point
        s = np.arange(len(u)) % len(chi)
        dense = observable_table(t, r, chi[s], u, theta)
        assert observable_table(t_used, r_used, chi_used[s], u, theta).tobytes() == dense.tobytes()

    @pytest.mark.parametrize(
        "settings",
        [*({"scenario": name} for name in SCENARIO_PRESETS if name.startswith("fig")),
         {"scenario": "fig5", "electron_spin": "0.6+0.1j,0.8"},
         {"scenario": "fig5", "electron_spin": "0.6+0.1j,0.8", "impurity_state": "uu_dd"}],
        ids=lambda settings: "/".join(settings.values()),
    )
    def test_used_columns_cover_every_state(self, monkeypatch, settings):
        kernel, asked = sweeps.amplitudes, []

        def recording(u, theta, columns=slice(None)):
            asked.append(columns)
            return kernel(u, theta, columns)

        monkeypatch.setattr(sweeps, "amplitudes", recording)
        cfg = build_config(settings)
        for _ in run_sweep(cfg).batches():
            pass
        nonzero = np.flatnonzero(np.any(spanned_states(cfg), axis=0))
        assert asked and all(set(nonzero) <= set(columns.tolist()) for columns in asked)

    @pytest.mark.parametrize("name", list(DENSE_REFERENCE_CONFIGS))
    def test_bytes_match_the_dense_reference(self, tmp_path, monkeypatch, name):
        cfg = build_config(DENSE_REFERENCE_CONFIGS[name])
        rows = dense_rows(cfg)
        # small chunks cut the grid builder's blocks and kernel calls most often;
        # the table's bits are compared there, as rendering 3 or 21 rows per
        # call is slow, and the CSV bytes at the sizes a sweep renders in
        for chunk in (1, 7):
            monkeypatch.setattr(sweeps, "CHUNK", chunk)
            batches = list(run_sweep(cfg).batches())
            assert all(1 <= len(batch) <= 3 * chunk for batch in batches)
            table = np.concatenate(batches)
            assert table.shape == rows.shape and table.tobytes() == rows.tobytes()
        result = run_sweep(cfg)
        reference = SweepResult(
            header=result.header, columns=result.columns, row_count=len(rows),
            batches=lambda: (rows[i:i + 768] for i in range(0, len(rows), 768)))
        expected = write_csv(reference, tmp_path / "dense.csv").read_bytes()
        for chunk in (256, 4096):
            monkeypatch.setattr(sweeps, "CHUNK", chunk)
            assert write_csv(run_sweep(cfg), tmp_path / "sweep.csv").read_bytes() == expected


class TestOutputTarget:
    """``sweeps.output_target``, the one check of an output path.

    The config-level rows (``""``, ``.``, ``/``, ``..``, a directory and a path
    under a regular file) are TestConfig's two output tests.
    """

    @staticmethod
    def _tree(root):
        (root / "taken").mkdir()
        (root / "file.txt").write_text("")
        (root / "target.csv").write_text("earlier\n")
        (root / "link.csv").symlink_to("target.csv")
        (root / "dangling.csv").symlink_to("gone.csv")
        (root / "dir-link").symlink_to("taken")
        os.mkfifo(root / "pipe")

    @pytest.mark.parametrize("output", ["pipe", os.devnull, "dir-link"],
                             ids=["fifo", "device", "link-to-directory"])
    def test_refused(self, tmp_path, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        self._tree(tmp_path)
        with pytest.raises(OSError) as info:
            sweeps.output_target(output)
        assert repr(output) in str(info.value)
        assert stat.S_ISFIFO((tmp_path / "pipe").stat().st_mode)

    @pytest.mark.parametrize(
        "output,target",
        [("new.csv", "new.csv"), ("file.txt", "file.txt"), ("a/b/new.csv", "a/b/new.csv"),
         ("link.csv", "target.csv"), ("dangling.csv", "gone.csv")],
        ids=["new-file", "regular-file", "missing-parents", "link-to-file", "dangling-link"],
    )
    def test_resolved_target(self, tmp_path, monkeypatch, output, target):
        monkeypatch.chdir(tmp_path)
        self._tree(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert sweeps.output_target(output) == tmp_path.resolve() / target
        assert sorted(tmp_path.rglob("*")) == before  # nothing is created


class TestCli:
    @pytest.fixture
    def no_sweep(self, monkeypatch):
        """A sweep fails the test: a config error or a refused output comes first."""
        def refuse(cfg):
            raise AssertionError("the sweep ran before the config and output were checked")

        monkeypatch.setattr(cli, "run_sweep", refuse)

    def test_sweep_command(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        out_file = tmp_path / "rows.csv"
        cfg_file.write_text(
            "scenario = fig3b\ntheta_steps = 8\nu_list = 1\n"
            f"output = {out_file}\n"
        )
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 0
        assert out_file.exists()

    def test_sweep_bad_config_exit_code(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("scenario = not-a-scenario\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1

    def test_sweep_missing_config_exit_code(self, tmp_path):
        assert cli.main(["sweep", "--config", str(tmp_path / "gone.cfg")]) == 1

    def test_zero_steps_exit_code(self, tmp_path, monkeypatch, capsys, no_sweep):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("scenario = fig3b\ntheta_steps = 0\noutput = zero.csv\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: theta_steps ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [cfg_file]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_calls_behave_like_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # one process runs a sweep, a config error, an argparse error, --help,
        # convert, then the sweep again: the argparse error and the help read as
        # a fresh interpreter's, and the repeated sweep writes the same bytes
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the children
        children = {argv: subprocess.Popen(
            [sys.executable, "-m", "spinfp.scenarios.cli", argv], env=child_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) for argv in ("sweep", "--help")}
        fresh = {}  # per argv, as call() below reports it
        for argv, child in children.items():
            out, err = child.communicate()
            fresh[argv] = (child.returncode, out, err)

        def call(*argv):
            return cli.main(list(argv)), *capsys.readouterr()

        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"scenario = fig7\nu_steps = 3\noutput = {out_file}\n")
        sweep = ("sweep", "--config", str(cfg_file))
        assert call(*sweep) == (0, f"wrote 3 rows to {out_file}\n", "")
        first = out_file.read_bytes()
        code, out, err = call("sweep", "--config", str(tmp_path / "gone.cfg"))
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        assert fresh["sweep"][0] == 1 and "--config" in fresh["sweep"][2]
        assert call("sweep") == fresh["sweep"]
        assert fresh["--help"][0] == 0 and "usage: spinfp" in fresh["--help"][1]
        assert call("--help") == fresh["--help"]
        code, out, err = call("convert", "--mstar", "0.067", "--energy-mev", "2",
                              "--coupling-evA", "1")
        assert (code, err) == (0, "") and out.startswith("u = 0.94") and out.count("\n") == 4
        assert call(*sweep) == (0, f"wrote 3 rows to {out_file}\n", "")
        assert out_file.read_bytes() == first
        assert sorted(tmp_path.iterdir()) == sorted([cfg_file, out_file])

    @pytest.mark.parametrize("output", ["", ".", "/"])
    def test_output_naming_no_file_exit_code(
        self, tmp_path, monkeypatch, capsys, no_sweep, output
    ):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"scenario = fig7\nu_steps = 3\noutput = {output}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert f"output {output!r}" in err
        assert sorted(tmp_path.iterdir()) == [cfg_file]

    @pytest.mark.parametrize("output", ["..", "out", "file.txt/x.csv"])
    def test_output_naming_a_directory_exit_code(
        self, tmp_path, monkeypatch, capsys, no_sweep, output
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "file.txt").write_text("")
        before = sorted(tmp_path.rglob("*"))
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"scenario = fig7\nu_steps = 3\noutput = {output}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert f"output {output!r}" in err
        assert sorted(tmp_path.rglob("*")) == sorted([*before, cfg_file])
        assert (tmp_path / "file.txt").read_bytes() == b""

    def test_output_naming_a_fifo_is_left_alone(self, tmp_path, capsys, no_sweep):
        # the CSV would be renamed over the FIFO, which stops being one
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"scenario = fig7\nu_steps = 3\noutput = {pipe}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert f"output {str(pipe)!r}" in err
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == sorted([cfg_file, pipe])  # no *.tmp left

    @pytest.mark.parametrize("existing", [True, False], ids=["to-a-file", "dangling"])
    def test_output_naming_a_symlink_writes_its_target(self, tmp_path, capsys, existing):
        target = tmp_path / "target.csv"
        if existing:
            target.write_text("earlier\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"scenario = fig7\nu_steps = 3\noutput = {link}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 0
        assert capsys.readouterr().out == f"wrote 3 rows to {link}\n"
        assert link.is_symlink() and os.readlink(link) == target.name
        reference = tmp_path / "reference.csv"
        write_csv(run_sweep(load_config(cfg_file)), reference)
        assert target.read_bytes() == reference.read_bytes()
        assert sorted(tmp_path.iterdir()) == sorted([cfg_file, link, target, reference])

    @pytest.mark.parametrize("char,lead", [("a", ""), ("é", ""), ("é", "a")],
                             ids=["ascii", "multibyte", "multibyte-shifted"])
    def test_output_name_near_name_max_is_written(
        self, tmp_path, capsys, monkeypatch, char, lead
    ):
        # the temporary sibling adds ".", ".{pid}.tmp" to the name; it is cut
        # to NAME_MAX bytes, which one of the two multibyte names splits mid-character
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        name = lead + char * ((name_max - len(lead) - 4) // len(char.encode())) + ".csv"
        assert name_max - 2 < len(name.encode()) <= name_max
        opened = []

        def recording_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(sweeps, "open", recording_open, raising=False)
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"scenario = fig7\nu_steps = 3\noutput = {tmp_path / name}\n",
                            encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([cfg_file.name, name])
        [sibling] = opened
        suffix = f".{os.getpid()}.tmp"
        assert sibling.endswith(suffix) and ("." + name).startswith(sibling[:-len(suffix)])
        assert name_max - len(char.encode()) < len(os.fsencode(sibling)) <= name_max

    @pytest.mark.parametrize("electron", ["nan,1", "inf,1"])
    @pytest.mark.parametrize("kind", ["family", "theta"])
    def test_non_finite_electron_rejected_at_parse_time(
        self, tmp_path, capsys, kind, electron
    ):
        impurity = "family2" if kind == "family" else "ud"
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(
            f"sweep = {kind}\nimpurity_state = {impurity}\nelectron_spin = {electron}\n"
            f"u_list = 1\noutput = {out_file}\n"
        )
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "impurity", ["psi+ foo", "psi- theta=1", "family2 theta=1 phi=2 theta=3"]
    )
    def test_malformed_impurity_rejected_at_parse_time(self, tmp_path, impurity):
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"impurity_state = {impurity}\noutput = {out_file}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        assert not out_file.exists()

    def test_ket_with_stray_comma_exit_code(self, tmp_path, capsys, no_sweep):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"impurity_state = u,,d\noutput = {tmp_path / 'rows.csv'}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "'u,,d'" in err
        assert sorted(tmp_path.iterdir()) == [cfg_file]

    def test_overflowing_theta_grid_rejected_at_parse_time(self, tmp_path, capsys):
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(
            f"theta_max = 1e308\ntheta_steps = 5\nimpurity_state = ud\noutput = {out_file}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow must not warn
            assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        assert "theta_max = 1e+308" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "settings,key",
        [
            ("impurity_state = ud\ntheta_min = 1e-320\ntheta_max = 1", "theta_min"),
            ("impurity_state = ud\ntheta_min = 0\ntheta_max = 1e-310", "theta_max"),
            ("sweep = family\nimpurity_state = family2\ntheta = 1e-320", "theta"),
            ("scenario = fig7\ntheta = 1e-320", "theta"),
        ],
    )
    def test_subnormal_phase_rejected_at_parse_time(self, tmp_path, capsys, settings, key):
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(f"{settings}\noutput = {out_file}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        assert f"{key} = " in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("sweep", ["impurity_state = ud\ntheta_min = {}\ntheta_steps = 3",
                                       "sweep = family\nimpurity_state = family2\ntheta = {}"])
    def test_smallest_normal_phase_accepted(self, tmp_path, sweep):
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "tiny.cfg"
        grid = "vartheta_steps = 3\nphi_steps = 2\n" if "family" in sweep else ""
        cfg_file.write_text(
            sweep.format(repr(sys.float_info.min)) + "\nu_list = 1e-6,1,1e3\n"
            f"{grid}output = {out_file}\n"
        )
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 0
        assert out_file.exists()

    @pytest.mark.parametrize("kind", ["family", "theta"])
    def test_huge_electron_amplitudes_accepted(self, tmp_path, kind):
        assert electron_state("1e200,1e200").tobytes() == (
            np.array([1, 1], dtype=complex) / math.sqrt(2)
        ).tobytes()
        impurity, grid = (
            ("family2", "vartheta_steps = 3\nphi_steps = 2")
            if kind == "family" else ("ud", "theta_steps = 4")
        )
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(
            f"sweep = {kind}\nimpurity_state = {impurity}\nelectron_spin = 1e200,1e200\n"
            f"u_list = 1\n{grid}\noutput = {out_file}\n"
        )
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 0
        assert out_file.exists()

    @pytest.mark.parametrize(
        "settings,unread",
        [
            ("sweep = theta\nimpurity_state = dd\nu_min = 0.1\nu_max = 5\nu_steps = 50",
             "u_max, u_min, u_steps"),
            ("scenario = fig7\ntheta_min = 1\ntheta_max = 2\ntheta_steps = 3",
             "theta_max, theta_min, theta_steps"),
        ],
        ids=["theta", "coupling"],
    )
    def test_unread_keys_rejected_at_parse_time(self, tmp_path, capsys, settings, unread):
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "unread.cfg"
        cfg_file.write_text(f"{settings}\noutput = {out_file}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        assert f"does not read {unread}; it reads " in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "grid",
        ["u_list = 20\ntheta_min = 1e306\ntheta_max = 1e307",
         "u_list = 1\ntheta_min = 0\ntheta_max = 1e300"],
        ids=["1e307", "1e300"],
    )
    def test_huge_phases_run_without_overflow(self, tmp_path, grid):
        # theta enters the kernel only through e^{-i theta}, so no product
        # of the coupling and the phase can overflow
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(
            f"scenario = fig3b\n{grid}\ntheta_steps = 3\noutput = {out_file}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sweep", "--config", str(cfg_file)]) == 0
        lines = [line for line in out_file.read_text().splitlines() if line[0] != "#"]
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert rows.shape[0] == 3 and np.all(np.isfinite(rows))

    @pytest.mark.parametrize(
        "settings,n_rows",
        [("scenario = fig7\ntheta = 1e308\nu_steps = 5", 5),
         ("scenario = fig3b\ntheta_min = 1e307\ntheta_max = 1.7e308\ntheta_steps = 7", 21)],
        ids=["fig7", "fig3b"],
    )
    def test_every_finite_phase_runs(self, tmp_path, settings, n_rows):
        # e^{-i theta} is formed once and 2 theta never is, so phases up to
        # the largest double stay finite
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(f"{settings}\noutput = {out_file}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 0
        lines = [line for line in out_file.read_text().splitlines() if line[0] != "#"]
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert len(rows) == n_rows and np.all(np.isfinite(rows))
        assert np.all((rows[:, 2] >= 0.0) & (rows[:, 2] <= 1.0))  # T
        np.testing.assert_allclose(rows[:, 2] + rows[:, -1], 1.0, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "settings,n_rows",
        [("scenario = fig2a\nu_list = 1e76\ntheta_min = 1e299\ntheta_max = 1.7e308", 50),
         ("scenario = fig7\nu_min = 1e70\nu_max = 1e76\nu_steps = 50", 50),
         (f"scenario = fig2a\nu_list = 1e-300\ntheta_min = {sys.float_info.min!r}\n"
          "theta_max = 1e-300", 50),
         ("scenario = fig3b\nelectron_spin = 1e308j,1e308", 150)],
        ids=["strong-coupling-largest-phases", "strongest-couplings",
             "weakest-coupling-smallest-phases", "largest-electron-amplitudes"],
    )
    def test_accepted_extremes_run_to_the_end(self, tmp_path, capsys, settings, n_rows):
        # each corner of the accepted domain writes every row, and each row keeps
        # T in [0, 1], T_up + T_down = T and T + R = 1
        out_file = tmp_path / "rows.csv"
        cfg_file = tmp_path / "extreme.cfg"
        steps = "" if "u_steps" in settings else "\ntheta_steps = 50"
        cfg_file.write_text(f"{settings}{steps}\noutput = {out_file}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sweep", "--config", str(cfg_file)]) == 0
        assert capsys.readouterr() == (f"wrote {n_rows} rows to {out_file}\n", "")
        columns, *lines = [ln for ln in out_file.read_text().splitlines() if ln[0] != "#"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        t, t_up, t_down, r = rows.T[[columns.split(",").index(name)
                                     for name in ("T", "T_up", "T_down", "R")]]
        assert len(rows) == n_rows
        assert np.all((t >= -1e-12) & (t <= 1.0 + 1e-12))
        assert np.all(np.abs(t_up + t_down - t) <= 1e-12)
        assert np.all(np.abs(t + r - 1.0) <= 1e-10)

    @pytest.mark.parametrize("scenario,key", [("fig3b", "u_list"), ("fig7", "u_max")])
    def test_coupling_above_the_bound_rejected_at_parse_time(
        self, tmp_path, capsys, scenario, key
    ):
        out_file = tmp_path / "strong.csv"
        cfg_file = tmp_path / "strong.cfg"
        cfg_file.write_text(f"scenario = {scenario}\n{key} = 1e77\noutput = {out_file}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 1
        message = capsys.readouterr().err
        assert f"{key} = 1e+77" in message and "1e+76" in message
        assert not out_file.exists()

    def test_theta_sweep_at_the_coupling_bound(self, tmp_path):
        cfg_file = tmp_path / "strong.cfg"
        cfg_file.write_text(
            f"scenario = fig3b\nu_list = {config_mod._LARGEST_COUPLING!r}\n"
            f"output = {tmp_path / 'strong.csv'}\n"
        )
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 0

    def test_numeric_failure_is_located(self, tmp_path, capsys, monkeypatch):
        # g^4 overflows beyond u of about 1e76; the nan reaches the flux check
        # once the parse-time bound on u is lifted
        monkeypatch.setattr(config_mod, "_LARGEST_COUPLING", math.inf)
        cfg_file = tmp_path / "strong.cfg"
        cfg_file.write_text(
            "scenario = fig7\nu_min = 1e100\nu_max = 1.00001e100\nu_steps = 3\n"
            f"output = {tmp_path / 'strong.csv'}\n"
        )
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 2
        message = capsys.readouterr().err
        assert "u = 1e+100" in message and f"theta = {math.pi!r}" in message
        assert "doublet" in message and "1e-09" in message
        assert "np.float64" not in message

    def test_failure_mid_stream_leaves_the_earlier_file(self, tmp_path, capsys, monkeypatch):
        # the rows of u = 2 start at row 1000, in the second kernel call and batch
        # of 768: the first batch is on disk in the temporary sibling when the nan
        # is found
        output = tmp_path / "sweep.csv"
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"scenario = fig2a\ntheta_steps = 1000\nu_list = 1,2\n"
                            f"output = {output}\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 0
        earlier = output.read_bytes()

        def poisoned(u, theta, columns=slice(None)):
            t, r = kernel(u, theta, columns)
            if np.any(np.asarray(u) == 2.0):
                written.extend(path.stat().st_size for path in tmp_path.glob(".*.tmp"))
            t[np.asarray(u) == 2.0] = np.nan
            return t, r

        kernel, written = sweeps.amplitudes, []
        monkeypatch.setattr(sweeps, "amplitudes", poisoned)
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(cfg_file)]) == cli.EXIT_NUMERIC
        out, err = capsys.readouterr()
        theta = float(load_config(cfg_file).theta_values[0])
        assert out == "" and err.startswith("numeric failure: ")
        assert f"at u = 2.0, theta = {theta!r}" in err
        assert len(written) == 1 and written[0] > 0  # rows were on disk when it failed
        assert output.read_bytes() == earlier
        assert sorted(tmp_path.iterdir()) == [cfg_file, output]

    def test_convert_command(self, capsys):
        code = cli.main(
            ["convert", "--mstar", "0.067", "--energy-mev", "2",
             "--coupling-evA", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines()
        )
        assert 0.8 <= float(values["u"]) <= 1.2
        assert float(values["theta"]) == pytest.approx(math.pi, rel=1e-12)
        assert 40 <= float(values["x0_nm_for_theta_pi"]) <= 70

    def test_convert_negative_zero_coupling_prints_0(self, capsys):
        # as a config's u_list = -0.0 is written as 0
        code = cli.main(["convert", "--mstar", "0.067", "--energy-mev", "2",
                         "--coupling-evA", "-0.0"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "u = 0"

    def test_convert_rejects_bad_input(self):
        code = cli.main(
            ["convert", "--mstar", "-1", "--energy-mev", "2", "--coupling-evA", "1"]
        )
        assert code == 1

    @pytest.mark.parametrize("x0", [[], ["--x0-nm", "50"]], ids=["default-x0", "x0"])
    @pytest.mark.parametrize(  # under- or overflow of the wave number or density of states
        "mstar, energy",
        [("1e-320", "2"), ("0.067", "1e-320"), ("1e300", "1e300"), ("1e300", "1e-300")],
    )
    def test_convert_extreme_magnitudes_name_the_inputs(self, capsys, mstar, energy, x0):
        argv = ["convert", "--mstar", mstar, "--energy-mev", energy, "--coupling-evA", "1"]
        assert cli.main(argv + x0) == 1  # an exception here would fail the test
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"effective_mass = {float(mstar)!r}" in captured.err
        assert f"energy_mev = {float(energy)!r}" in captured.err
        assert "spacing_nm" not in captured.err

    def test_verify_exit_codes(self, monkeypatch, capsys):
        from spinfp.scenarios import verify as verify_mod
        from spinfp.scenarios.verify import CriterionResult

        monkeypatch.setattr(
            verify_mod, "_CRITERIA",
            (lambda: CriterionResult(1, "stub", True, "ok"),),
        )
        assert cli.main(["verify"]) == 0
        monkeypatch.setattr(
            verify_mod, "_CRITERIA",
            (lambda: CriterionResult(1, "stub", False, "bad"),),
        )
        assert cli.main(["verify"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] 1. stub: bad" in out


class TestVerify:
    @pytest.mark.parametrize(
        "criterion,name,limit,printed",
        [("criterion_triple_agreement", "_AGREEMENT_TOL", 1e-20, "(limit 1e-20)"),
         ("criterion_flux_conservation", "_FLUX_TOL", 1e-20, "(limit 1e-20)"),
         ("criterion_singlet_transparency", "_TRANSPARENCY_TOL", 1e-20, "(both > 1 - 1e-20)"),
         ("criterion_recoupling_values", "_RECOUPLING_TOL", 1e-20, "(limit 1e-20)"),
         ("criterion_entanglement_generation", "_T_DOWN_MIN", 0.99, "(need > 0.99 in"),
         ("criterion_units", "_U_RANGE", (2.0, 3.0), "(need [2, 3])"),
         ("criterion_units", "_X0_RANGE_NM", (100.0, 200.0), "(need [100, 200])")],
    )
    def test_printed_limit_is_the_compared_one(self, monkeypatch, criterion, name, limit,
                                               printed):
        # a limit no measurement meets fails the criterion, and the line prints it
        from spinfp.scenarios import verify as verify_mod

        monkeypatch.setattr(verify_mod, name, limit)
        result = getattr(verify_mod, criterion)()
        assert not result.passed and printed in result.details

    @pytest.mark.parametrize(
        "criterion,name,limit",
        [("criterion_transparency_uniqueness", "_ANGLE_TOL", 0.0),
         ("criterion_transparency_uniqueness", "_DET_FORMULA_TOL", 0.0),
         ("criterion_transparency_uniqueness", "_DET_AT_PI_TOL", 0.0),
         ("criterion_transparency_uniqueness", "_DET_OFF_MIN", math.inf),
         ("criterion_conservation_laws", "_COMMUTATOR_TOL", 0.0),
         ("criterion_conservation_laws", "_PAIR_COMMUTATOR_MIN", math.inf),
         ("criterion_entanglement_generation", "_CONCURRENCE_TOL", -1.0),
         ("criterion_entanglement_generation", "_FIDELITY_TOL", -1.0),
         ("criterion_figure_claims", "_UNIT_T_TOL", -1.0),
         ("criterion_figure_claims", "_FIGURE_TOL", -1.0)],
    )
    def test_unprinted_limit_is_the_compared_one(self, monkeypatch, criterion, name, limit):
        # the report prints the measurement only: a limit it cannot meet fails the criterion
        from spinfp.scenarios import verify as verify_mod

        monkeypatch.setattr(verify_mod, name, limit)
        assert not getattr(verify_mod, criterion)().passed

    def test_stack_size_leaves_every_result_alone(self, monkeypatch):
        # criteria 1 and 2 take their 1000 points _STACK at a time, and criterion
        # 5's report forms its operators one at a time: every result, printed
        # digits included, is the one the default stacks give
        from spinfp.scenarios import verify as verify_mod

        checks = (verify_mod.criterion_triple_agreement,
                  verify_mod.criterion_flux_conservation,
                  verify_mod.criterion_conservation_laws)
        expected = [check() for check in checks]
        assert all(result.passed for result in expected)
        kernel, calls = verify_mod.amplitudes, []

        def counting(u, theta):
            calls.append(len(u))
            return kernel(u, theta)

        monkeypatch.setattr(verify_mod, "amplitudes", counting)
        for stack in (7, 64, 1000):
            monkeypatch.setattr(verify_mod, "_STACK", stack)
            calls.clear()
            assert [check() for check in checks] == expected
            assert len(calls) == 2 * math.ceil(1000 / stack) and max(calls) == stack

    def test_verification_peak_below_2_mb(self):
        """``run_verification``'s tracemalloc peak, after a warm-up call, stays below
        2.0e6 B.  Criterion 1's stacks of 256 points held 3.96e6 B; in stacks of
        64 the sweeps' 768-row blocks in criterion 8 set the peak, 1.61e6 B with
        numpy 2.4 on x86-64."""
        from spinfp.scenarios import verify as verify_mod

        assert verify_mod.run_verification(io.StringIO()) == 0  # warm caches
        tracemalloc.start()
        try:
            assert verify_mod.run_verification(io.StringIO()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6

    def test_criterion_4_makes_two_kernel_calls(self, monkeypatch):
        from spinfp import observables
        from spinfp.scenarios import verify as verify_mod

        kernel, calls = observables.amplitudes, []

        def counting(u, theta):
            calls.append(len(u))
            return kernel(u, theta)

        monkeypatch.setattr(observables, "amplitudes", counting)
        result = verify_mod.criterion_transparency_uniqueness()
        assert result.passed, result.details
        assert calls == [9, 100]  # the resonant points, then the drawn ones
        angle = float(result.details.split("subspace angle <= ")[1].split()[0])
        assert angle <= 1e-13  # from sines; a cosine cannot resolve below 1.5e-8

    def test_criterion_8_probes_in_two_grid_builder_calls(self, monkeypatch):
        from spinfp.scenarios import verify as verify_mod

        blocks, calls = verify_mod._blocks, []

        def counting(u_values, theta_values, n_states, states, used):
            calls.append((len(u_values) * len(theta_values), n_states))
            return blocks(u_values, theta_values, n_states, states, used)

        monkeypatch.setattr(verify_mod, "_blocks", counting)
        monkeypatch.setattr(verify_mod, "amplitudes", None)  # no kernel call of its own
        result = verify_mod.criterion_figure_claims()
        assert result.passed, result.details
        # the grid fig2a, fig2b and fig3b share, 3 u times 2,001 phases, times their
        # three states; then the fig3b resonances, then fig6c's 41 phases times 14
        # states at once
        assert calls == [(6003, 3), (6, 1), (41, 14)]

    def test_criterion_8_reads_the_theta_presets_from_one_call(self, monkeypatch):
        from spinfp.scenarios import verify as verify_mod

        curve, curves = verify_mod._curve, []

        def recording(impurity_specs, u_values, thetas):
            curves.append(curve(impurity_specs, u_values, thetas))
            return curves[-1]

        monkeypatch.setattr(verify_mod, "_curve", recording)
        assert verify_mod.criterion_figure_claims().passed
        shared = curves[0]
        assert shared.shape == (3, 6003)
        for row, name in zip(shared, ("fig2a", "fig2b", "fig3b")):
            result = run_sweep(build_config({"scenario": name}))
            expected = result.rows[:, result.columns.index("T")]
            assert np.array_equal(row.view(np.int64), expected.view(np.int64))

    def test_three_states_on_6003_points_take_8_kernel_calls(self, monkeypatch):
        from spinfp.scenarios import verify as verify_mod

        kernel, calls = sweeps.amplitudes, []

        def counting(u, theta, columns=slice(None)):
            calls.append(len(u))
            return kernel(u, theta, columns)

        monkeypatch.setattr(sweeps, "amplitudes", counting)
        cfg = build_config({"scenario": "fig2a"})
        assert verify_mod._curve(["ud", "du", "psi-"], cfg.u_values,
                                 cfg.theta_values).shape == (3, 6003)
        # 768 points, three blocks of 256 points times 3 states, per call
        assert len(calls) == 8 and sum(calls) == 6003 and max(calls) <= 3 * sweeps.CHUNK

    def test_theta_curves_hold_only_t(self):
        """``_curve`` on criterion 8's shared grid keeps T, not the blocks' table: its
        tracemalloc peak stays below the (18009, 20) float table, 2.88 MB, that
        building the whole table took (5.77 MB peak).  It reads 1.55 MB, a margin
        of 1.33 MB, with numpy 2.4 on x86-64."""
        from spinfp.scenarios import verify as verify_mod

        cfgs = [build_config({"scenario": name}) for name in ("fig2a", "fig2b", "fig3b")]
        args = ([cfg.impurity_state for cfg in cfgs], cfgs[0].u_values, cfgs[0].theta_values)
        verify_mod._curve(*args)  # warm caches
        tracemalloc.start()
        try:
            verify_mod._curve(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18009 * 20 * 8

    @pytest.mark.parametrize("scenario, names", [
        ("fig4", ("vartheta", "phi", "T")),
        ("fig5", ("vartheta", "phi", "T", "T_up")),
        ("fig7", ("u", "T_down")),
    ])
    def test_preset_columns_are_the_sweep_columns(self, scenario, names):
        from spinfp.scenarios import verify as verify_mod

        result = run_sweep(build_config({"scenario": scenario}))
        expected = result.rows[:, [result.columns.index(name) for name in names]].T
        got = verify_mod._preset(scenario, *names)
        assert got.shape == expected.shape
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("n", [1, 25, 1000])
    def test_random_points_are_the_uniform_draws(self, n):
        from spinfp.scenarios.verify import _random_points

        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        drawn = _random_points(rng, n)
        expected = reference.uniform((1e-6, 1e-6), (20.0, 2 * math.pi), size=(n, 2))
        assert np.array_equal(drawn.view(np.int64), expected.view(np.int64))
        assert rng.random() == reference.random()  # the stream is where uniform leaves it

    def test_criteria_2_to_4_draw_the_reference_inputs(self, monkeypatch):
        # the reference draws each input one at a time, as the criteria once did
        from spinfp.scenarios import verify as verify_mod
        from spinfp.scenarios.states import bell_pair
        from spinfp.spin_algebra import compose_state

        def unit(rng, n):
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return raw / np.linalg.norm(raw)

        rng = np.random.default_rng(verify_mod._SEED + 1)
        points, states = [], []
        for _ in range(1000):
            points.append(rng.uniform((1e-6, 1e-6), (20.0, 2 * math.pi), size=(1, 2))[0])
            states.append(unit(rng, 8))
        flux_u, flux_theta = np.transpose(points)
        flux_chi = np.asarray(states)

        rng = np.random.default_rng(verify_mod._SEED + 2)
        points = [(u, n * math.pi) for n in (1, 2, 3) for u in (0.5, 1.0, 2.0, 10.0, 100.0)]
        singlet_u, singlet_theta = np.repeat(points, 20, axis=0).T
        singlet_chi = np.asarray(
            [compose_state(unit(rng, 2), bell_pair(-1)).amplitudes for _ in singlet_u]
        )

        rng = np.random.default_rng(verify_mod._SEED + 3)
        points = []
        for _ in range(100):
            theta = rng.uniform(0.05, math.pi - 0.05) + rng.integers(0, 2) * math.pi
            points.append((rng.uniform(0.5, 20.0), theta))
        det_u, det_theta = np.transpose(points)

        handed = {}  # per patched name, each call's arguments and result

        def capture(name):
            function = getattr(verify_mod, name)

            def wrapped(*args):
                handed.setdefault(name, []).append((args, function(*args)))
                return handed[name][-1][1]

            monkeypatch.setattr(verify_mod, name, wrapped)

        # criterion 2 hands its states to np.matmul alone, so its unit rows are read
        for name in ("amplitudes", "observable_table", "det_t_minus_identity", "_unit_rows"):
            capture(name)
        for check in (verify_mod.criterion_flux_conservation,
                      verify_mod.criterion_singlet_transparency,
                      verify_mod.criterion_transparency_uniqueness):
            result = check()
            assert result.passed, result.details

        # criterion 2 calls the kernel once per stack of _STACK points, then criterion 3 once
        *flux_calls, ((u3, theta3), _) = handed["amplitudes"]
        assert [len(args[0]) for args, _ in flux_calls] == [64] * 15 + [40]
        u, theta = (np.concatenate(axis) for axis in zip(*(args for args, _ in flux_calls)))
        (_, _, chi3, u3_table, theta3_table), _ = handed["observable_table"][0]
        (p,), _ = handed["det_t_minus_identity"][0]
        for got, want in [(u, flux_u), (theta, flux_theta), (u3, singlet_u),
                          (theta3, singlet_theta), (u3_table, singlet_u),
                          (theta3_table, singlet_theta), (p.u, det_u), (p.theta, det_theta)]:
            assert np.asarray(got).tobytes() == want.tobytes()
        for got, want in [(handed["_unit_rows"][0][1], flux_chi), (chi3, singlet_chi)]:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15
            assert np.max(np.abs(np.linalg.norm(got, axis=1) - 1.0)) <= 1e-15

    def test_presets_read_beside_a_directory_named_like_their_output(
        self, tmp_path, monkeypatch
    ):
        # verify writes no CSV, so a preset's default output path cannot clash
        from spinfp.scenarios import verify as verify_mod

        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig7.csv").mkdir()
        result = verify_mod.criterion_entanglement_generation()
        assert result.passed, result.details

    def test_fig7_table_is_the_entanglement_scan(self):
        from spinfp.observables import observable_table
        from spinfp.spin_algebra import compose_state
        from spinfp.closed_form import amplitudes

        rows = run_sweep(build_config({"scenario": "fig7"})).rows
        u = np.linspace(0.01, 10, 1000)
        theta = np.full(len(u), math.pi)
        chi = compose_state([1.0, 0.0], [0.0, 0.0, 0.0, 1.0])  # electron up, dd
        t, r = amplitudes(u, theta)
        table = observable_table(t, r, chi.amplitudes[None, :], u, theta)
        assert rows[:, 1].tobytes() == u.tobytes()
        assert rows[:, 4].tobytes() == table[:, 2].tobytes()  # T_down
