"""The stdlib JSON-Schema subset validator behind the explain-smoke."""

import json
import os

import pytest

from repro.util.jsonschema_lite import SchemaError, validate


class TestTypes:
    def test_matching_scalar_types_pass(self):
        validate("x", {"type": "string"})
        validate(3, {"type": "integer"})
        validate(3.5, {"type": "number"})
        validate(None, {"type": "null"})
        validate(True, {"type": "boolean"})

    def test_mismatch_raises_with_path(self):
        with pytest.raises(SchemaError, match=r"\$: expected string"):
            validate(3, {"type": "string"})

    def test_bool_is_not_an_integer(self):
        # bool subclasses int in Python; JSON keeps them distinct
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})
        with pytest.raises(SchemaError):
            validate(1, {"type": "boolean"})

    def test_integer_counts_as_number(self):
        validate(3, {"type": "number"})

    def test_type_union(self):
        schema = {"type": ["string", "null"]}
        validate("x", schema)
        validate(None, schema)
        with pytest.raises(SchemaError):
            validate(3, schema)


class TestObjects:
    SCHEMA = {
        "type": "object",
        "required": ["op"],
        "properties": {"op": {"type": "string"}, "n": {"type": "integer"}},
        "additionalProperties": False,
    }

    def test_valid_object(self):
        validate({"op": "scan", "n": 2}, self.SCHEMA)

    def test_missing_required(self):
        with pytest.raises(SchemaError, match="missing required property"):
            validate({"n": 2}, self.SCHEMA)

    def test_additional_properties_rejected(self):
        with pytest.raises(SchemaError, match="unexpected property 'rogue'"):
            validate({"op": "scan", "rogue": 1}, self.SCHEMA)

    def test_nested_paths_in_errors(self):
        schema = {
            "type": "object",
            "properties": {
                "kids": {"type": "array", "items": {"type": "string"}}
            },
        }
        with pytest.raises(SchemaError, match=r"\$\.kids\[1\]"):
            validate({"kids": ["ok", 3]}, schema)

    def test_all_violations_reported_together(self):
        with pytest.raises(SchemaError) as exc:
            validate({"n": "two", "rogue": 1}, self.SCHEMA)
        message = str(exc.value)
        assert "missing required" in message
        assert "expected integer" in message
        assert "unexpected property" in message


class TestConstraints:
    def test_enum(self):
        schema = {"enum": ["chunk", "naive"]}
        validate("chunk", schema)
        with pytest.raises(SchemaError, match="not one of"):
            validate("random", schema)

    def test_minimum_maximum(self):
        schema = {"type": "number", "minimum": 0, "maximum": 10}
        validate(0, schema)
        validate(10, schema)
        with pytest.raises(SchemaError, match="< minimum"):
            validate(-1, schema)
        with pytest.raises(SchemaError, match="> maximum"):
            validate(11, schema)

    def test_min_items(self):
        schema = {"type": "array", "minItems": 1}
        validate([1], schema)
        with pytest.raises(SchemaError, match="minItems"):
            validate([], schema)


class TestRefs:
    TREE = {
        "$ref": "#/$defs/node",
        "$defs": {
            "node": {
                "type": "object",
                "required": ["op", "children"],
                "properties": {
                    "op": {"type": "string"},
                    "children": {
                        "type": "array",
                        "items": {"$ref": "#/$defs/node"},
                    },
                },
            }
        },
    }

    def test_recursive_ref_validates_a_tree(self):
        tree = {
            "op": "root",
            "children": [
                {"op": "leaf", "children": []},
                {"op": "mid", "children": [{"op": "leaf", "children": []}]},
            ],
        }
        validate(tree, self.TREE)

    def test_recursive_ref_flags_deep_violation(self):
        bad = {"op": "root", "children": [{"op": 3, "children": []}]}
        with pytest.raises(SchemaError, match=r"children\[0\]\.op"):
            validate(bad, self.TREE)

    def test_unresolvable_ref(self):
        with pytest.raises(SchemaError, match="unresolvable"):
            validate({}, {"$ref": "#/$defs/ghost", "$defs": {}})

    def test_remote_refs_rejected(self):
        with pytest.raises(SchemaError, match="only local"):
            validate({}, {"$ref": "https://example.com/s.json"})


class TestExplainSchema:
    """The checked-in plan schema accepts real EXPLAIN output."""

    SCHEMA_PATH = os.path.join(
        os.path.dirname(__file__),
        "..", "..", "benchmarks", "schemas", "explain_plan.schema.json",
    )

    @pytest.fixture(scope="class")
    def schema(self):
        with open(self.SCHEMA_PATH, encoding="utf-8") as handle:
            return json.load(handle)

    def test_real_explain_payload_validates(self, schema):
        from tests.serve.conftest import CONFIG, fresh_engine
        from repro.olap import ConsolidationQuery

        engine = fresh_engine()
        query = ConsolidationQuery.build(
            CONFIG.name,
            group_by={f"dim{d}": f"h{d}1" for d in range(CONFIG.ndim)},
        )
        validate(engine.explain(query, "array").to_dict(), schema)
        validate(
            engine.explain(query, analyze=True).to_dict(),
            schema,
        )

    def test_schema_rejects_a_mangled_payload(self, schema):
        with pytest.raises(SchemaError):
            validate({"cube": "c"}, schema)
