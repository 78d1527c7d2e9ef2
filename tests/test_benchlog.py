"""Mixed-schema guard for the BENCH_campaign.json trajectory loader.

The history file is append-only across PRs, so it permanently holds
rows written before newer knobs existed (e.g. ``batch_sweep`` rows
without ``batch_cext``).  These tests pin the contract the CI
throughput gates rely on: skip-don't-crash on old rows, warn on
unreadable files, refuse future schemas.
"""

import json

import pytest

from repro.benchlog import (
    CURRENT_SCHEMA,
    append_entry,
    has_keys,
    latest_entry,
    load_entries,
)


def write(path, payload):
    path.write_text(json.dumps(payload))


def test_missing_file_is_empty_history(tmp_path):
    assert load_entries(tmp_path / "nope.json") == []
    assert latest_entry(tmp_path / "nope.json", "batch_sweep") is None


def test_bare_object_file_warns_and_returns_empty(tmp_path):
    """A bare JSON object (the retired schema-1 single-payload shape)
    is unreadable history, like any other non-container file."""
    path = tmp_path / "bench.json"
    write(path, {"total_faults": 324, "skipped": {"soft": 10}})
    with pytest.warns(RuntimeWarning, match="no entries list"):
        assert load_entries(path) == []
    with pytest.warns(RuntimeWarning, match="no entries list"):
        assert latest_entry(path, "pruning") is None


def test_latest_entry_skips_rows_missing_required_keys(tmp_path):
    path = tmp_path / "bench.json"
    write(path, {"schema": 2, "entries": [
        # Old batch_sweep row from before the kernel knob existed:
        {"kind": "batch_sweep",
         "injections_per_s": {"scalar": 100.0, "batch": {"256": 900.0}}},
        {"kind": "pruning", "total_faults": 324},
        # Newest batch_sweep row carries the full shape:
        {"kind": "batch_sweep",
         "injections_per_s": {"scalar": 110.0, "batch": {"256": 950.0},
                              "batch_cext": {"256": 4000.0}}},
    ]})
    newest = latest_entry(path, "batch_sweep",
                          require=("injections_per_s.batch_cext.256",))
    assert newest["injections_per_s"]["batch_cext"]["256"] == 4000.0
    # Without the requirement, the same newest row wins.
    assert latest_entry(path, "batch_sweep") is not None
    # Requiring a key only the old row shape lacks falls back past it.
    old_ok = latest_entry(path, "batch_sweep",
                          require=("injections_per_s.batch.256",))
    assert old_ok["injections_per_s"]["batch"]["256"] == 950.0


def test_latest_entry_returns_none_when_no_row_qualifies(tmp_path):
    path = tmp_path / "bench.json"
    write(path, {"schema": 2, "entries": [
        {"kind": "batch_sweep", "injections_per_s": {"scalar": 100.0}},
    ]})
    assert latest_entry(path, "batch_sweep",
                        require=("injections_per_s.batch_cext.256",)) is None
    assert latest_entry(path, "service_bench") is None


def test_future_schema_raises(tmp_path):
    path = tmp_path / "bench.json"
    write(path, {"schema": 99, "entries": [{"kind": "pruning"}]})
    with pytest.raises(ValueError, match="unsupported schema"):
        load_entries(path)


def test_corrupt_or_non_object_file_warns_and_returns_empty(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("{not json")
    with pytest.warns(RuntimeWarning, match="unreadable"):
        assert load_entries(path) == []
    write(path, [1, 2, 3])
    with pytest.warns(RuntimeWarning, match="not a JSON object"):
        assert load_entries(path) == []


def test_non_dict_entries_are_dropped(tmp_path):
    path = tmp_path / "bench.json"
    write(path, {"schema": 2, "entries": [
        "garbage", {"kind": "pruning", "total_faults": 1}, 7,
    ]})
    entries = load_entries(path)
    assert entries == [{"kind": "pruning", "total_faults": 1}]


def test_append_keeps_history_in_current_container(tmp_path):
    path = tmp_path / "bench.json"
    write(path, {"schema": CURRENT_SCHEMA,
                 "entries": [{"kind": "pruning", "total_faults": 324}]})
    entry = append_entry(path, "batch_sweep",
                         {"injections_per_s": {"scalar": 1.0}})
    assert entry["kind"] == "batch_sweep"
    assert entry["timestamp"]
    payload = json.loads(path.read_text())
    assert payload["schema"] == CURRENT_SCHEMA
    kinds = [row["kind"] for row in payload["entries"]]
    assert kinds == ["pruning", "batch_sweep"]
    # Earlier rows are preserved verbatim.
    assert payload["entries"][0]["total_faults"] == 324


def test_has_keys_dotted_paths():
    entry = {"a": {"b": {"c": 1}}, "flat": 2}
    assert has_keys(entry, ())
    assert has_keys(entry, ("a.b.c", "flat"))
    assert not has_keys(entry, ("a.b.missing",))
    assert not has_keys(entry, ("flat.deeper",))
