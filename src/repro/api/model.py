"""The logical model: named cubes, hierarchies, measures, rollups.

The slicer pattern (DataBrewery/cubes): clients speak a *logical* model
— cube names, dimension hierarchies, measure names — and the server
owns the mapping onto the physical layer.  Here a
:class:`LogicalCube` binds one logical name to one loaded engine cube,
declares each dimension's hierarchy path ordered **finest → coarsest**
(the key attribute first, exactly the order
:class:`~repro.olap.model.DimensionDef` stores levels in), and lists
the rollups it declares as the engine's grains.

The model is data, checked in as JSON (``benchmarks/api_model.json``)
and validated on load; ``{scale}`` placeholders in physical cube names
are substituted so one model file serves every benchmark scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ApiModelError, ApiNotFoundError

#: aggregate functions the API accepts (the engine supports more; the
#: API exposes the mergeable family EXPLAIN and the router understand)
API_AGGREGATES = ("sum", "count", "min", "max", "avg")


@dataclass(frozen=True)
class LogicalDimension:
    """One dimension: its name and hierarchy path, finest first."""

    name: str
    #: attribute names finest → coarsest; ``hierarchy[0]`` is the key
    hierarchy: tuple[str, ...]

    def level_index(self, attr: str) -> int:
        """Position of ``attr`` in the hierarchy (0 = finest/key)."""
        try:
            return self.hierarchy.index(attr)
        except ValueError:
            raise ApiNotFoundError(
                f"dimension {self.name!r} has no level {attr!r}; "
                f"hierarchy: {list(self.hierarchy)}"
            ) from None

    @property
    def default_level(self) -> str:
        """The drilldown default: the coarsest hierarchy level."""
        return self.hierarchy[-1]


@dataclass(frozen=True)
class LogicalMeasure:
    """One measure exposed by a logical cube."""

    name: str


@dataclass(frozen=True)
class RollupDecl:
    """One declared rollup grain: ``{dimension: level}`` (dims absent
    from the grain are consolidated away entirely)."""

    name: str
    grain: tuple[tuple[str, str], ...]

    def grain_dict(self) -> dict[str, str]:
        return dict(self.grain)


@dataclass(frozen=True)
class LogicalCube:
    """One logical cube bound to one physical engine cube."""

    name: str
    cube: str  # the physical (engine) cube name
    dimensions: tuple[LogicalDimension, ...]
    measures: tuple[LogicalMeasure, ...]
    rollups: tuple[RollupDecl, ...] = ()
    label: str = ""

    def dimension(self, name: str) -> LogicalDimension:
        for dim in self.dimensions:
            if dim.name == name:
                return dim
        raise ApiNotFoundError(
            f"cube {self.name!r} has no dimension {name!r}; "
            f"dimensions: {[d.name for d in self.dimensions]}"
        )

    def measure(self, name: str) -> LogicalMeasure:
        for measure in self.measures:
            if measure.name == name:
                return measure
        raise ApiNotFoundError(
            f"cube {self.name!r} has no measure {name!r}; "
            f"measures: {[m.name for m in self.measures]}"
        )

    @property
    def default_measure(self) -> str:
        return self.measures[0].name

    def to_dict(self) -> dict:
        """The ``/cube/<name>/model`` payload."""
        return {
            "name": self.name,
            "label": self.label or self.name,
            "cube": self.cube,
            "dimensions": [
                {"name": d.name, "hierarchy": list(d.hierarchy)}
                for d in self.dimensions
            ],
            "measures": [{"name": m.name} for m in self.measures],
            "aggregates": list(API_AGGREGATES),
            "rollups": [
                {"name": r.name, "grain": r.grain_dict()}
                for r in self.rollups
            ],
        }


@dataclass(frozen=True)
class LogicalModel:
    """Every logical cube the API serves, by name."""

    cubes: tuple[LogicalCube, ...] = field(default_factory=tuple)

    def cube(self, name: str) -> LogicalCube:
        for cube in self.cubes:
            if cube.name == name:
                return cube
        raise ApiNotFoundError(
            f"no logical cube named {name!r}; "
            f"cubes: {[c.name for c in self.cubes]}"
        )

    def cube_names(self) -> list[str]:
        return [c.name for c in self.cubes]


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ApiModelError(f"{where}: missing required key {key!r}")
    return mapping[key]


def model_from_dict(payload: dict, scale: str = "small") -> LogicalModel:
    """Build and validate a :class:`LogicalModel` from parsed JSON.

    ``{scale}`` in physical cube names is substituted with ``scale``.
    Validation is structural only — binding against the engine's loaded
    cubes happens when the server compiles a request.
    """
    if not isinstance(payload, dict):
        raise ApiModelError("model document must be a JSON object")
    cubes = []
    for i, raw in enumerate(_require(payload, "cubes", "model")):
        where = f"model cube #{i}"
        name = _require(raw, "name", where)
        dims = []
        for raw_dim in _require(raw, "dimensions", where):
            hierarchy = tuple(_require(raw_dim, "hierarchy", where))
            if not hierarchy:
                raise ApiModelError(f"{where}: empty hierarchy")
            dims.append(
                LogicalDimension(
                    name=_require(raw_dim, "name", where),
                    hierarchy=hierarchy,
                )
            )
        measures = tuple(
            LogicalMeasure(name=_require(m, "name", where))
            for m in _require(raw, "measures", where)
        )
        if not measures:
            raise ApiModelError(f"{where}: at least one measure required")
        dim_names = {d.name for d in dims}
        rollups = []
        for raw_rollup in raw.get("rollups", []):
            rollup_name = _require(raw_rollup, "name", where)
            grain_items = []
            grain = _require(raw_rollup, "grain", where)
            for dim_name, attr in grain.items():
                if dim_name not in dim_names:
                    raise ApiModelError(
                        f"{where}: rollup {rollup_name!r} names unknown "
                        f"dimension {dim_name!r}"
                    )
                grain_items.append((dim_name, attr))
            # canonical dimension order: the cube's declaration order
            order = {d.name: i for i, d in enumerate(dims)}
            grain_items.sort(key=lambda pair: order[pair[0]])
            rollups.append(
                RollupDecl(name=rollup_name, grain=tuple(grain_items))
            )
        cubes.append(
            LogicalCube(
                name=name,
                cube=str(_require(raw, "cube", where)).format(scale=scale),
                dimensions=tuple(dims),
                measures=measures,
                rollups=tuple(rollups),
                label=raw.get("label", ""),
            )
        )
    names = [c.name for c in cubes]
    if len(set(names)) != len(names):
        raise ApiModelError(f"duplicate logical cube names: {names}")
    return LogicalModel(cubes=tuple(cubes))


def load_model(path: str, scale: str = "small") -> LogicalModel:
    """Load and validate a model file (see :func:`model_from_dict`)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ApiModelError(f"cannot read model file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ApiModelError(f"model file {path!r} is not JSON: {exc}") from exc
    return model_from_dict(payload, scale=scale)
