"""Op lists: a pure function of the seed, one multiset of cost classes."""

import collections
import json

import pytest

from benchmarks.e2e.ops import WORKLOADS, make_ops


class FakeCells:
    """Enough of ``oracle.Cells`` for the generators: a 40x40x40x100
    cube whose row ``r`` sits in chunk ``r % 80`` with value ``r % 100 + 1``."""

    dim_sizes = (40, 40, 40, 100)
    n_rows = 640_000

    def chunk_of(self, row):
        return row % 80

    def keys_of(self, row):
        return [row % 40, row // 40 % 40, row // 1600 % 40, row // 64000]

    def value_of(self, row):
        return row % 100 + 1


CELLS = FakeCells()


def as_bytes(ops):
    return json.dumps(ops, sort_keys=True).encode()


def cost_class(op):
    """What an op costs, with everything the seed may vary blanked out:
    which 40-key dimension plays a role, member names, range starts,
    written cells and values."""
    if op["kind"] == "write":
        return ("write",)
    sizes = lambda dims: tuple(sorted(CELLS.dim_sizes[int(d[3:])] for d in dims))
    where = []
    for w in op["where"]:
        span = len(w["values"]) if "values" in w else "range"
        where.append((CELLS.dim_sizes[int(w["dim"][3:])], w["attr"][-1], span))
    return (
        sizes(d for d, _ in op["group_by"]),
        tuple(sorted(attr[-1] if attr[0] == "h" else "key" for _, attr in op["group_by"])),
        tuple(sorted(where)),
        op["aggregate"],
        op.get("method"),
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(workload):
    assert as_bytes(make_ops(workload, 7, CELLS)) == as_bytes(
        make_ops(workload, 7, CELLS)
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_different_list(workload):
    assert as_bytes(make_ops(workload, 7, CELLS)) != as_bytes(
        make_ops(workload, 8, CELLS)
    )


@pytest.mark.parametrize("workload", ["scan_cold", "select_cold", "api_replay"])
def test_every_seed_replays_the_same_cost_classes(workload):
    classes = [
        sorted(map(repr, map(cost_class, make_ops(workload, seed, CELLS))))
        for seed in (1, 2, 3)
    ]
    assert classes[0] == classes[1] == classes[2]


def test_serve_rw_keeps_its_queries_and_its_popularity_profile():
    """The seed decides which query is the popular one — a hit costs the
    same whatever it returns — but not which queries there are, nor how
    many reads the k-th most popular gets."""
    profiles = []
    for seed in (1, 2, 3):
        reads = [op for op in make_ops("serve_rw", seed, CELLS)[:50]]
        by_query = collections.Counter(json.dumps(op, sort_keys=True) for op in reads)
        profiles.append(
            (
                sorted({repr(cost_class(op)) for op in reads}),
                sorted(by_query.values()),
            )
        )
    assert profiles[0] == profiles[1] == profiles[2]
    assert profiles[0][1] == sorted([12, 7, 5, 4, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1])


@pytest.mark.parametrize(
    "workload, reads, writes",
    [("scan_cold", 24, 0), ("select_cold", 80, 0),
     ("serve_rw", 100, 8), ("api_replay", 100, 2)],
)
def test_sizes(workload, reads, writes):
    ops = make_ops(workload, 5, CELLS)
    assert sum(op["kind"] == "read" for op in ops) == reads
    assert sum(op["kind"] == "write" for op in ops) == writes


@pytest.mark.parametrize("workload", ["serve_rw", "api_replay"])
def test_a_pass_ends_with_the_original_values_restored(workload):
    ops = make_ops(workload, 11, CELLS)
    assert ops[-1]["kind"] == "write"
    last, overwritten = {}, set()
    for op in ops:
        if op["kind"] == "write":
            keys = tuple(op["keys"])
            if keys in last:
                overwritten.add(keys)
            last[keys] = op["value"]
    assert overwritten == set(last)  # each cell is written, then restored
    for (k0, k1, k2, k3), value in last.items():
        row = k0 + 40 * k1 + 1600 * k2 + 64000 * k3
        assert value == CELLS.value_of(row)


def test_serve_rw_reads_every_query_in_every_epoch():
    ops = make_ops("serve_rw", 3, CELLS)
    epoch = [op for op in ops[:50]]
    assert all(op["kind"] == "read" for op in epoch)
    distinct = {json.dumps(op, sort_keys=True) for op in epoch}
    assert len(distinct) == 16
    again = {json.dumps(op, sort_keys=True) for op in ops[54:104]}
    assert distinct == again


def test_unknown_workload():
    with pytest.raises(ValueError):
        make_ops("nope", 1, CELLS)
