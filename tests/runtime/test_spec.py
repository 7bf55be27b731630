"""Tests for sweep specifications: parsing, expansion, task keys."""

import json
import re

import pytest

from repro.runtime.spec import (
    SweepSpec,
    build_config,
    coerce_value,
    parse_base_flag,
    parse_seeds,
    parse_set_flag,
    task_key,
)
from repro.sim.scenario import OnlineDistribution, ScenarioConfig


class TestFlagParsing:
    def test_coercion(self):
        assert coerce_value("3") == 3
        assert coerce_value("0.5") == 0.5
        assert coerce_value("true") is True
        assert coerce_value("false") is False
        assert coerce_value("null") is None
        assert coerce_value("[1, 2]") == [1, 2]
        # A bare word is a string; a quoted one is the same string.
        assert coerce_value("facebook") == "facebook"
        assert coerce_value('"facebook"') == "facebook"
        assert coerce_value('"3"') == "3"
        # No spellings beyond JSON's: these are plain words.
        assert coerce_value("yes") == "yes"
        assert coerce_value("none") == "none"

    def test_set_flag(self):
        key, values = parse_set_flag("altruist_fraction=0.0,0.02,0.05")
        assert key == "altruist_fraction"
        assert values == [0.0, 0.02, 0.05]

    def test_set_flag_malformed(self):
        with pytest.raises(ValueError, match="--set"):
            parse_set_flag("no-equals-sign")

    def test_base_flag(self):
        assert parse_base_flag("scale=0.01") == ("scale", 0.01)

    def test_seeds_list_and_range(self):
        assert parse_seeds("0,1,5") == [0, 1, 5]
        assert parse_seeds("0:4") == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            parse_seeds("4:4")


class TestBuildConfig:
    def test_plain_fields(self):
        config = build_config({"dataset": "epinions", "scale": 0.02, "seed": 7})
        assert config.dataset == "epinions"
        assert config.seed == 7

    def test_enum_coercion(self):
        config = build_config({"online_distribution": "peerson"})
        assert config.online_distribution is OnlineDistribution.PEERSON

    def test_nested_soup_override(self):
        config = build_config({"soup.epsilon": 0.02})
        assert config.soup.epsilon == 0.02

    def test_nested_activity_override(self):
        config = build_config({"activity.peak_per_day": 10.0})
        assert config.activity.peak_per_day == 10.0

    def test_unknown_field_lists_valid_ones(self):
        with pytest.raises(ValueError, match="valid fields"):
            build_config({"does_not_exist": 1})

    def test_unknown_nested_field(self):
        with pytest.raises(ValueError, match="soup"):
            build_config({"soup.nonsense": 1})

    def test_bad_value_fails_at_build_time(self):
        # The satellite contract: bad grids die at spec expansion, not
        # mid-run — ScenarioConfig.validate() fires on construction.
        with pytest.raises(ValueError, match="scale"):
            build_config({"scale": 0})
        with pytest.raises(ValueError, match="n_days"):
            build_config({"n_days": -1})
        with pytest.raises(ValueError, match="altruist"):
            build_config({"altruist_fraction": 1.5})


    def test_tuple_fields_take_lists(self):
        config = build_config({"cdf_snapshot_days": [1, 2], "invariant_names": None})
        assert config.cdf_snapshot_days == (1, 2)
        assert config.invariant_names is None
        # An integer is a number: a float field keeps it as given.
        assert build_config({"scale": 1}).scale == 1


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"check_invariants": "no"}, "check_invariants takes a JSON boolean"),
        ({"repair": 1}, "repair takes a JSON boolean"),
        ({"n_days": "3"}, "n_days takes an integer, got '3'"),
        ({"seed": 1.5}, "seed takes an integer"),
        ({"seed": True}, "seed takes an integer"),
        ({"scale": "0.01"}, "scale takes a number"),
        ({"dataset": 7}, "dataset takes a string"),
        ({"faults": False}, "faults takes a string or null"),
        ({"mirror_request_capacity": "none"}, "takes an integer or null"),
        (
            {"invariant_names": "announced-mirrors-stored"},
            'invariant_names=["announced-mirrors-stored"]',
        ),
        ({"cdf_snapshot_days": 5}, "cdf_snapshot_days=[5]"),
        ({"online_distribution": "zipf"}, "'powerlaw', 'peerson', 'uniform03'"),
        ({"soup.o_max": "3"}, "soup.o_max takes an integer"),
        ({"activity.peak_per_day": None}, "activity.peak_per_day takes a number"),
    ],
)
def test_build_config_refuses_a_value_of_the_wrong_type(overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_config(overrides)


class TestExpansion:
    def test_grid_cross_seeds(self):
        spec = SweepSpec(
            base={"scale": 0.01},
            grid={"dataset": ["facebook", "epinions"]},
            seeds=[0, 1],
        )
        tasks = spec.expand()
        assert len(tasks) == 4
        assert [t.overrides["dataset"] for t in tasks] == [
            "facebook", "facebook", "epinions", "epinions",
        ]
        assert [t.seed for t in tasks] == [0, 1, 0, 1]
        assert [t.index for t in tasks] == [0, 1, 2, 3]

    def test_expansion_is_deterministic(self):
        spec = SweepSpec(
            grid={"altruist_fraction": [0.0, 0.05], "scale": [0.01]}, seeds=[1, 2]
        )
        first = [(t.key, t.overrides) for t in spec.expand()]
        second = [(t.key, t.overrides) for t in spec.expand()]
        assert first == second

    def test_explicit_configs_crossed_with_seeds(self):
        spec = SweepSpec(
            configs=[{"slander_fraction": 0.5}, {"sybil_fraction": 0.5}],
            seeds=[3],
        )
        tasks = spec.expand()
        assert len(tasks) == 2
        assert tasks[0].overrides["slander_fraction"] == 0.5
        assert tasks[1].overrides["sybil_fraction"] == 0.5

    def test_bad_grid_value_fails_at_expansion(self):
        spec = SweepSpec(grid={"scale": [0.01, -1.0]})
        with pytest.raises(ValueError, match="scale"):
            spec.expand()

    def test_duplicate_tasks_rejected(self):
        spec = SweepSpec(configs=[{}, {}], seeds=[0])
        with pytest.raises(ValueError, match="duplicate"):
            spec.expand()

    def test_empty_expansion_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            SweepSpec.from_mapping({"seeds": []})


class TestTaskKeys:
    def test_key_depends_on_config_not_position(self):
        a = SweepSpec(grid={"dataset": ["facebook", "epinions"]}, seeds=[0])
        b = SweepSpec(grid={"dataset": ["epinions", "facebook"]}, seeds=[0])
        keys_a = {t.overrides["dataset"]: t.key for t in a.expand()}
        keys_b = {t.overrides["dataset"]: t.key for t in b.expand()}
        assert keys_a == keys_b

    def test_key_changes_with_any_field(self):
        base = task_key(ScenarioConfig(seed=0))
        assert task_key(ScenarioConfig(seed=1)) != base
        assert task_key(ScenarioConfig(scale=0.03)) != base
        assert task_key(ScenarioConfig(soup=None or ScenarioConfig().soup)) == base

    def test_key_covers_nested_knobs(self):
        plain = task_key(build_config({}))
        tweaked = task_key(build_config({"soup.epsilon": 0.02}))
        assert plain != tweaked


class TestSpecFiles:
    def test_json_round_trip(self, tmp_path):
        spec = SweepSpec(
            name="fig8",
            base={"scale": 0.01, "n_days": 26},
            grid={"altruist_fraction": [0.0, 0.05]},
            seeds=[5, 6],
        )
        path = tmp_path / "fig8.json"
        path.write_text(json.dumps(spec.to_mapping()))
        loaded = SweepSpec.from_file(path)
        assert loaded.to_mapping() == spec.to_mapping()
        assert loaded.spec_hash() == spec.spec_hash()

    def test_toml_spec(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'name = "altruism"\n'
            "seeds = [5, 6]\n"
            "[base]\n"
            'dataset = "facebook"\n'
            "scale = 0.01\n"
            "[grid]\n"
            "altruist_fraction = [0.0, 0.02]\n"
        )
        spec = SweepSpec.from_file(path)
        assert spec.name == "altruism"
        assert spec.grid == {"altruist_fraction": [0.0, 0.02]}
        assert len(spec.expand()) == 4

    def test_file_name_used_when_unnamed(self, tmp_path):
        path = tmp_path / "my-sweep.json"
        path.write_text("{}")
        assert SweepSpec.from_file(path).name == "my-sweep"

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec key"):
            SweepSpec.from_mapping({"grids": {}})
