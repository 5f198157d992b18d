"""Config parsing: schema validation, field-level errors, canonical fixed point."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augpipe import (
    ConfigError,
    CropRandom,
    Elastic,
    Flip,
    OpSpec,
    Pipeline,
    Resize,
    Rotate,
    Scale,
    Skew,
    Zoom,
    canonical_text,
    parse_config,
)
from augpipe.cli import main
from conftest import DIGITS_RECIPE, non_default_spec
from test_golden import CANONICAL_CONFIG

class TestParse:
    def test_digits_recipe(self):
        p = parse_config(json.dumps(DIGITS_RECIPE))
        assert len(p.ops) == 2
        elastic, rotate = p.ops
        assert isinstance(elastic, Elastic)
        assert (elastic.grid_width, elastic.grid_height, elastic.magnitude) == (4, 4, 5)
        assert elastic.probability == 1.0
        assert isinstance(rotate, Rotate)
        assert (rotate.max_left, rotate.max_right) == (10.0, 10.0)
        assert rotate.probability == 0.5
        assert p.master_seed == 0

    def test_empty_operations_is_valid(self):
        p = parse_config('{"version": 1, "operations": []}')
        assert p.ops == ()

    def test_seed_parsed(self):
        p = parse_config('{"version": 1, "seed": 99, "operations": []}')
        assert p.master_seed == 99

    def test_all_ops_parse(self):
        doc = {
            "version": 1,
            "operations": [
                {"op": "rotate", "probability": 1, "max_left_rotation": 5, "max_right_rotation": 5},
                {"op": "rotate_cardinal", "probability": 1, "which": "r90"},
                {"op": "flip", "probability": 1, "axis": "horizontal"},
                {"op": "shear", "probability": 1, "max_angle": 10, "axis": "y"},
                {"op": "skew", "probability": 1, "severity": 0.5, "kind": "left"},
                {"op": "elastic", "probability": 1, "grid_width": 2, "grid_height": 2, "magnitude": 3},
                {"op": "zoom", "probability": 1, "min_factor": 1.0, "max_factor": 1.5},
                {"op": "crop_random", "probability": 1, "area_fraction": 0.8, "resize_back": True},
                {"op": "crop_centre", "probability": 1, "width": 8, "height": 8},
                {"op": "resize", "probability": 1, "width": 16, "height": 16},
                {"op": "scale", "probability": 1, "factor": 0.5},
                {"op": "greyscale", "probability": 1},
                {"op": "invert", "probability": 0.5},
                {"op": "equalize", "probability": 0},
            ],
        }
        p = parse_config(json.dumps(doc))
        assert [s.kind for s in p.ops] == [
            "rotate", "rotate_cardinal", "flip", "shear", "skew", "elastic", "zoom",
            "crop_random", "crop_centre", "resize", "scale", "greyscale", "invert", "equalize",
        ]


class TestErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigError) as info:
            parse_config('{"version": 1,\n  "operations": [}')
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize("text", ["[]", "3", '"config"', "null"])
    def test_root_that_is_not_an_object(self, text):
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            parse_config(text)

    def test_probability_out_of_range_names_field(self):
        doc = {"version": 1, "operations": [
            {"op": "rotate", "probability": 1.5,
             "max_left_rotation": 5, "max_right_rotation": 5}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert "probability" in str(info.value)

    def test_unknown_op(self):
        doc = {"version": 1, "operations": [{"op": "rotete", "probability": 1}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert "rotete" in str(info.value)

    def test_unknown_op_key(self):
        doc = {"version": 1, "operations": [
            {"op": "invert", "probability": 1, "strength": 2}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert "strength" in str(info.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config('{"version": 1, "operations": [], "shuffle": true}')
        assert "shuffle" in str(info.value)

    def test_wrong_version(self):
        with pytest.raises(ConfigError):
            parse_config('{"version": 2, "operations": []}')
        with pytest.raises(ConfigError):
            parse_config('{"operations": []}')

    def test_missing_probability(self):
        doc = {"version": 1, "operations": [{"op": "invert"}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert "probability" in str(info.value)

    def test_missing_required_parameter(self):
        doc = {"version": 1, "operations": [
            {"op": "elastic", "probability": 1, "grid_width": 4, "grid_height": 4}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert "magnitude" in str(info.value)

    def test_non_integer_where_integer_required(self):
        doc = {"version": 1, "operations": [
            {"op": "elastic", "probability": 1,
             "grid_width": 4.5, "grid_height": 4, "magnitude": 5}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert "grid_width" in str(info.value)

    def test_magnitude_beyond_a_64_bit_draw(self):
        # uniform_int(-m, m) needs 2m + 1 <= 2**64 values.
        doc = {"version": 1, "operations": [
            {"op": "elastic", "probability": 1, "grid_width": 2, "grid_height": 2,
             "magnitude": 1 << 63}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert info.value.field == "magnitude"

    def test_bool_is_not_a_number(self):
        doc = {"version": 1, "operations": [
            {"op": "scale", "probability": 1, "factor": True}]}
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_enum_violation_names_field(self):
        doc = {"version": 1, "operations": [
            {"op": "flip", "probability": 1, "axis": "diagonal"}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert "axis" in str(info.value)

    def test_type_error_names_the_list_position(self):
        good = {"op": "rotate", "probability": 1,
                "max_left_rotation": 5, "max_right_rotation": 5}
        doc = {"version": 1, "operations": [good, dict(good, max_left_rotation="5")]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert "operations[1].max_left_rotation must be a number" in str(info.value)
        assert info.value.field == "max_left_rotation"

    def test_range_error_names_the_list_position(self):
        good = {"op": "rotate", "probability": 1,
                "max_left_rotation": 5, "max_right_rotation": 5}
        doc = {"version": 1, "operations": [good, dict(good, max_left_rotation=50)]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value) == "operations[1].max_left_rotation must be in [0, 45], got 50"
        assert info.value.field == "max_left_rotation"

    def test_choice_error_names_the_list_position(self):
        doc = {"version": 1, "operations": [
            {"op": "invert", "probability": 1}, {"op": "flip", "probability": 1, "axis": "z"}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value) == "operations[1].axis must be one of horizontal/vertical/random, got 'z'"
        assert info.value.field == "axis"

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e400", "1" * 400],
                             ids=["inf", "-inf", "nan", "1e400", "int400"])
    @pytest.mark.parametrize("key", ["probability", "max_factor"])
    def test_non_finite_number_names_field(self, key, value):
        entry = {"op": "zoom", "probability": 1, "min_factor": 1, "max_factor": 2}
        text = json.dumps({"version": 1, "operations": [dict(entry, **{key: "X"})]})
        with pytest.raises(ConfigError) as info:
            parse_config(text.replace('"X"', value))
        assert f"operations[0].{key} must be a finite number" in str(info.value)
        assert info.value.field == key

    @pytest.mark.parametrize("name", [["rotate"], {"op": "rotate"}, 3],
                             ids=["list", "object", "number"])
    def test_non_string_op_name(self, name):
        doc = {"version": 1, "operations": [{"op": name, "probability": 1}]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert "unknown operation" in str(info.value)

    def test_seed_type(self):
        with pytest.raises(ConfigError):
            parse_config('{"version": 1, "seed": "abc", "operations": []}')

    def test_nesting_beyond_the_recursion_limit(self):
        depth = 100_000
        with pytest.raises(ConfigError, match="nested too deeply"):
            parse_config('{"version": 1, "operations": ' + "[" * depth + "]" * depth + "}")

    def test_resize_target_beyond_the_output_limit(self):
        entry = {"op": "resize", "probability": 1, "width": 8192, "height": 8192}
        assert parse_config(json.dumps({"version": 1, "operations": [entry]})).ops[0].height == 8192
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"version": 1, "operations": [dict(entry, height=8193)]}))
        assert info.value.field == "width"

    def test_scale_factor_beyond_the_output_limit(self):
        entry = {"op": "scale", "probability": 1, "factor": 8192}
        assert parse_config(json.dumps({"version": 1, "operations": [entry]})).ops[0].factor == 8192
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"version": 1, "operations": [dict(entry, factor=8192.5)]}))
        assert info.value.field == "factor"
        assert "factor must scale a 1x1 image" in str(info.value)


def _key(field):
    return field.metadata.get("key", field.name)


def _declared(rule):
    """(class, field) for each field of a direct OpSpec subclass that
    declares the rule in its metadata."""
    return [pytest.param(cls, f, id=f"{cls.kind}.{f.name}") for cls in OpSpec.__subclasses__()
            for f in dataclasses.fields(cls) if rule in f.metadata]


class TestFieldRules:
    """A spec built in Python obeys the rules a config entry does, and each
    field's declared range and choices are what it accepts."""

    @pytest.mark.parametrize("spec_cls, name, value, message", [
        (Elastic, "grid_width", True, "grid_width must be an integer, got True"),
        (Scale, "factor", True, "factor must be a number, got True"),
        (Rotate, "max_left", "5", "max_left_rotation must be a number, got '5'"),
        (Zoom, "max_factor", float("inf"), "max_factor must be a finite number, got inf"),
        (Zoom, "min_factor", float("-inf"), "min_factor must be a finite number, got -inf"),
        (Rotate, "probability", float("nan"), "probability must be a finite number, got nan"),
        (Skew, "severity", 10**400, f"severity must be a finite number, got {10**400}"),
        (Resize, "width", 8.0, "width must be an integer, got 8.0"),
        (Flip, "axis", 1, "axis must be a string, got 1"),
        (CropRandom, "resize_back", 1, "resize_back must be true or false, got 1"),
    ], ids=["bool-for-int", "bool-for-float", "str-for-float", "inf", "-inf", "nan",
            "int-beyond-float", "float-for-int", "int-for-str", "int-for-bool"])
    def test_library_refuses_what_the_config_refuses(self, spec_cls, name, value, message):
        spec = non_default_spec(spec_cls)
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(spec, **{name: value})
        assert str(info.value) == message
        key = info.value.field
        assert key == message.split()[0]
        entry = json.loads(canonical_text(Pipeline(ops=(spec,))))["operations"][0]
        doc = {"version": 1, "operations": [dict(entry, **{key: value})]}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value) == f"operations[0].{message}"
        assert info.value.field == key

    @pytest.mark.parametrize("spec_cls, kwargs, key", [
        (Rotate, {"probability": 10**5000}, "probability"),
        (Elastic, {"probability": 1, "magnitude": 10**5000}, "magnitude"),
        (Elastic, {"probability": 1, "grid_width": -10**5000}, "grid_width"),
        (Resize, {"probability": 1, "width": 10**5000}, "width"),
    ], ids=["float", "int-above", "int-below", "pixel-budget"])
    def test_int_too_long_to_print_is_described_by_size(self, spec_cls, kwargs, key):
        # str() of an int past sys.get_int_max_str_digits() raises ValueError.
        with pytest.raises(ConfigError) as info:
            spec_cls(**kwargs)
        assert info.value.field == key
        assert "got an integer of about 5000 digits" in str(info.value)

    @pytest.mark.parametrize("spec_cls, field", _declared("range"))
    def test_closed_end_accepted_open_end_refused(self, spec_cls, field):
        bounds = field.metadata["range"]
        spec = non_default_spec(spec_cls)
        for end, bracket in zip(bounds[1:-1].split(","), (bounds[0], bounds[-1])):
            value = float(end)
            if field.type == "int" and math.isfinite(value):
                value = int(value)
            if bracket in "[]":
                assert getattr(dataclasses.replace(spec, **{field.name: value}), field.name) == value
            else:
                with pytest.raises(ConfigError) as info:
                    dataclasses.replace(spec, **{field.name: value})
                assert info.value.field == _key(field)

    @pytest.mark.parametrize("spec_cls, field", _declared("choices"))
    def test_only_declared_choices_accepted(self, spec_cls, field):
        spec = non_default_spec(spec_cls)
        for choice in field.metadata["choices"]:
            assert getattr(dataclasses.replace(spec, **{field.name: choice}), field.name) == choice
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(spec, **{field.name: "diagonal"})
        assert info.value.field == _key(field)

    def test_library_numbers_are_held_as_floats(self):
        spec = Rotate(probability=1, max_left=5, max_right=12)
        assert [type(v) for v in (spec.probability, spec.max_left, spec.max_right)] == [float] * 3
        entry = {"op": "rotate", "probability": 1, "max_left_rotation": 5, "max_right_rotation": 12}
        parsed = parse_config(json.dumps({"version": 1, "operations": [entry]}))
        assert canonical_text(Pipeline(ops=(spec,))) == canonical_text(parsed)


# A string that the fuzz test below turns into an integer literal beyond the
# interpreter's int conversion limit once the document is serialised.
_HUGE_LITERAL = "<huge literal>"
# Values a mutation puts in place of another: every JSON type, numbers far
# outside any parameter's range, non-finite numbers, and the op kinds.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-1000, 1000), st.floats(),
    st.sampled_from([1 << 63, 1 << 64, -(1 << 64), 10**30, 10**400, 1e308, -1e308, 5e-324]),
    st.just(_HUGE_LITERAL),
    st.sampled_from([cls.kind for cls in OpSpec.__subclasses__()]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _containers(node, path=()):
    """Paths to every object and array in a JSON document, the root first."""
    if isinstance(node, (dict, list)):
        yield path
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _containers(child, path + (key,))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_config_is_valid_or_a_config_error(self, data):
        # Mutations of the config that names every op: drop a key or an
        # element, put another value in its place, or nest it one level.
        doc = copy.deepcopy(CANONICAL_CONFIG)
        for _ in range(data.draw(st.integers(1, 4))):
            container = doc
            for key in data.draw(st.sampled_from(list(_containers(doc)))):
                container = container[key]
            if not container:
                continue
            key = data.draw(st.sampled_from(list(container.keys() if isinstance(container, dict)
                                                 else range(len(container)))))
            mutation = data.draw(st.sampled_from(["drop", "swap", "nest"]))
            if mutation == "drop":
                del container[key]
            elif mutation == "swap":
                container[key] = data.draw(_JUNK)
            else:
                container[key] = data.draw(st.sampled_from([[container[key]], {"x": container[key]}]))
        text = json.dumps(doc).replace(json.dumps(_HUGE_LITERAL), "9" * 5000)
        try:
            parse_config(text)
            expected = 0
        except ConfigError:
            expected = 1
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["validate", "--config", str(path)])
        assert code == expected
        assert "Traceback" not in err.getvalue()


class TestCanonical:
    def test_round_trip_is_fixed_point(self):
        p1 = parse_config(json.dumps(DIGITS_RECIPE))
        text = canonical_text(p1)
        p2 = parse_config(text)
        assert p1.ops == p2.ops
        assert canonical_text(p2) == text

    def test_canonical_covers_every_op(self):
        doc = {
            "version": 1,
            "seed": 3,
            "operations": [
                {"op": "skew", "probability": 0.7, "severity": 0.3},
                {"op": "crop_random", "probability": 1, "area_fraction": 0.5},
            ],
        }
        p1 = parse_config(json.dumps(doc))
        p2 = parse_config(canonical_text(p1))
        assert p1 == p2

    @pytest.mark.parametrize("spec_cls", OpSpec.__subclasses__(), ids=lambda c: c.kind)
    def test_every_op_class_round_trips(self, spec_cls):
        # A new op class fails here until its fields admit a non-default
        # spec and the config reads it back.
        spec = non_default_spec(spec_cls)
        values = [getattr(spec, f.name) for f in dataclasses.fields(spec)]
        assert len(set(map(repr, values))) == len(values)
        assert all(value != f.default for value, f in zip(values, dataclasses.fields(spec)))
        pipe = Pipeline(ops=(spec,), master_seed=31)
        assert parse_config(canonical_text(pipe)) == pipe


def _readme_op_rows() -> dict[str, str]:
    """Each kind named in the first cell of README's op table -> the
    parameters cell of its row."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| op | parameters |") + 2  # past the header and its rule
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        _, kinds, parameters, _ = line.split("|")
        for kind in kinds.strip().split(", "):
            rows[kind.strip("`")] = parameters
    return rows


@pytest.mark.parametrize("spec_cls", OpSpec.__subclasses__(), ids=lambda c: c.kind)
def test_readme_op_table_names_every_op_and_key(spec_cls):
    # The README row is the one place to edit for a new op that no other
    # test would miss: each op has a row naming every key but probability.
    rows = _readme_op_rows()
    assert spec_cls.kind in rows, f"README's op table has no row for {spec_cls.kind}"
    keys = [_key(f) for f in dataclasses.fields(spec_cls) if f.name != "probability"]
    assert [key for key in keys if f"`{key}`" not in rows[spec_cls.kind]] == []
