"""Canonicalization rules of the query fingerprint."""

from repro.olap import ConsolidationQuery, SelectionPredicate
from repro.serve import query_fingerprint


def build(selections=None, group_by=None, **kwargs):
    return ConsolidationQuery.build(
        "cube",
        group_by=group_by or {"dim0": "h01"},
        selections=selections,
        **kwargs,
    )


class TestCanonicalization:
    def test_selection_order_is_ignored(self):
        a = SelectionPredicate.in_list("dim0", "h01", "x")
        b = SelectionPredicate.between("dim1", "d1", 1, 3)
        assert query_fingerprint(build([a, b])) == query_fingerprint(
            build([b, a])
        )

    def test_in_list_value_order_is_ignored(self):
        first = build([SelectionPredicate.in_list("dim0", "h01", "x", "y")])
        second = build([SelectionPredicate.in_list("dim0", "h01", "y", "x")])
        assert query_fingerprint(first) == query_fingerprint(second)

    def test_identical_queries_identical_digests(self):
        assert query_fingerprint(build()) == query_fingerprint(build())

    def test_digest_shape(self):
        digest = query_fingerprint(build())
        assert len(digest) == 32
        int(digest, 16)  # hex


class TestSignificance:
    def test_group_by_order_matters(self):
        # group-by order fixes output column order, so it must not
        # canonicalize away
        a = build(group_by={"dim0": "h01", "dim1": "h11"})
        b = build(group_by={"dim1": "h11", "dim0": "h01"})
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_cube_matters(self):
        a = ConsolidationQuery.build("a", group_by={"dim0": "h01"})
        b = ConsolidationQuery.build("b", group_by={"dim0": "h01"})
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_backend_matters(self):
        base = build()
        fp = query_fingerprint(base)
        assert query_fingerprint(base, "auto") == fp
        assert query_fingerprint(base, "array") != fp

    def test_aggregate_and_measures_matter(self):
        assert query_fingerprint(build(aggregate="max")) != query_fingerprint(
            build()
        )
        assert query_fingerprint(
            build(measures=["volume"])
        ) != query_fingerprint(build())

    def test_range_vs_in_list_differ(self):
        between = build([SelectionPredicate.between("dim0", "h01", "a", "a")])
        in_list = build([SelectionPredicate.in_list("dim0", "h01", "a")])
        assert query_fingerprint(between) != query_fingerprint(in_list)

    def test_range_bounds_matter(self):
        a = build([SelectionPredicate.between("dim0", "d0", 1, 3)])
        b = build([SelectionPredicate.between("dim0", "d0", 1, 4)])
        assert query_fingerprint(a) != query_fingerprint(b)


class _Backend(str):
    """A backend name that also reads as a ``.backend`` attribute, so
    the digests below are checked by one call whether the fingerprint
    takes the name itself or an object carrying it."""

    @property
    def backend(self) -> str:
        return str(self)


class TestPinnedDigests:
    """Literal digests: a change that moves one orphans every cached
    result, plan key and trace attribute that names a query by it."""

    QUERY = ConsolidationQuery.build(
        "sales",
        group_by={"dim0": "h01", "dim1": "h11"},
        selections=[
            SelectionPredicate.in_list("dim2", "h21", "AA2", "AA1"),
            SelectionPredicate.between("dim3", "h31", "AA0", None),
        ],
        aggregate="max",
    )

    def test_default_backend_digest(self):
        assert query_fingerprint(self.QUERY) == "5e261f2719da70040bd23e2ef093f017"

    def test_array_backend_digest(self):
        assert (
            query_fingerprint(self.QUERY, _Backend("array"))
            == "23d45bb0801da3d274a2c61db5b5ad2b"
        )
