"""Tests for the slot-directory page layout."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PageError
from repro.storage import SlottedPage


def fresh_page(size=512):
    return SlottedPage.format(bytearray(size))


class TestBasics:
    def test_insert_get_roundtrip(self):
        page = fresh_page()
        slot = page.insert(b"hello")
        assert slot == 0
        assert page.get(slot) == b"hello"

    def test_slots_are_sequential(self):
        page = fresh_page()
        assert [page.insert(b"x") for _ in range(5)] == list(range(5))
        assert page.nslots == 5

    def test_insert_returns_none_when_full(self):
        page = fresh_page(size=64)
        payload = b"y" * 20
        inserted = 0
        while page.insert(payload) is not None:
            inserted += 1
        assert 0 < inserted < 4
        assert page.insert(b"z" * 60) is None

    def test_zero_length_record(self):
        page = fresh_page()
        slot = page.insert(b"")
        assert page.get(slot) == b""

    def test_delete_and_iterate(self):
        page = fresh_page()
        page.insert(b"a")
        doomed = page.insert(b"b")
        page.insert(b"c")
        page.delete(doomed)
        assert [(s, r) for s, r in page.records()] == [(0, b"a"), (2, b"c")]
        assert page.fixed_records(np.dtype("S1")).tolist() == [b"a", b"c"]

    def test_get_deleted_raises(self):
        page = fresh_page()
        slot = page.insert(b"a")
        page.delete(slot)
        with pytest.raises(PageError):
            page.get(slot)

    def test_double_delete_raises(self):
        page = fresh_page()
        slot = page.insert(b"a")
        page.delete(slot)
        with pytest.raises(PageError):
            page.delete(slot)

    def test_bad_slot_raises(self):
        page = fresh_page()
        with pytest.raises(PageError):
            page.get(0)

    def test_free_space_shrinks_by_payload_plus_slot(self):
        page = fresh_page()
        before = page.free_space()
        page.insert(b"12345")
        assert before - page.free_space() == 5 + 4


@given(st.lists(st.binary(max_size=40), max_size=30))
def test_inserted_records_always_readable(payloads):
    page = fresh_page(size=2048)
    stored = []
    for payload in payloads:
        slot = page.insert(payload)
        if slot is None:
            break
        stored.append((slot, payload))
    for slot, payload in stored:
        assert page.get(slot) == payload
    assert list(page.records()) == stored


@given(
    st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=20),
    st.data(),
)
def test_deletion_only_affects_target(payloads, data):
    page = fresh_page(size=2048)
    slots = [page.insert(p) for p in payloads]
    victim = data.draw(st.integers(min_value=0, max_value=len(slots) - 1))
    page.delete(slots[victim])
    survivors = [
        (s, p) for i, (s, p) in enumerate(zip(slots, payloads)) if i != victim
    ]
    assert list(page.records()) == survivors
