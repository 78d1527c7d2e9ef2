"""Reading and appending the ``BENCH_campaign.json`` perf trajectory.

The repo-root trajectory file is append-only across PRs, which means
it permanently contains *mixed-shape* rows: early rows without
timestamps, batch rows from before the kernel knob existed (no
``batch_cext``), and so on.  Consumers (the CI throughput gates,
benchmark baselines) must therefore never index blindly into the
newest row shape — this module is the guarded loader they share.

``latest_entry`` walks the history newest-first and returns the first
row of the requested kind that actually carries the required keys,
skipping — not crashing on — older rows that predate a knob.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

#: The container schema version this module reads and writes.
CURRENT_SCHEMA = 2


def load_entries(path: str | Path) -> list[dict]:
    """Load every history entry from a trajectory file.

    The file is the container ``{"schema": 2, "entries": [...]}``.  A
    future container schema raises — silently misreading a newer
    format is how gates pass vacuously — while unreadable files
    (corrupt JSON, or JSON that is not such a container) warn and
    return no history (the gates then fall back to measuring without
    a baseline rather than failing the build on a corrupt artifact).
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        warnings.warn(f"unreadable bench history {path}: {exc}",
                      RuntimeWarning, stacklevel=2)
        return []
    if not isinstance(payload, dict):
        warnings.warn(f"bench history {path} is not a JSON object",
                      RuntimeWarning, stacklevel=2)
        return []
    if not isinstance(payload.get("entries"), list):
        warnings.warn(f"bench history {path} has no entries list",
                      RuntimeWarning, stacklevel=2)
        return []
    schema = payload.get("schema")
    if schema != CURRENT_SCHEMA:
        raise ValueError(
            f"bench history {path} has unsupported schema {schema!r} "
            f"(known: {CURRENT_SCHEMA})")
    return [entry for entry in payload["entries"] if isinstance(entry, dict)]


def has_keys(entry: dict, required: tuple[str, ...]) -> bool:
    """True when every dotted key path resolves inside ``entry``.

    ``"injections_per_s.batch.256"`` checks
    ``entry["injections_per_s"]["batch"]["256"]`` without raising.
    """
    for dotted in required:
        node = entry
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                return False
            node = node[part]
    return True


def latest_entry(path: str | Path, kind: str,
                 require: tuple[str, ...] = ()) -> dict | None:
    """Newest entry of ``kind`` carrying all ``require`` key paths.

    Older rows written before a knob existed (e.g. ``batch_sweep``
    rows without ``injections_per_s.batch_cext``) are skipped instead
    of KeyError-ing, so mixed-schema history files stay loadable
    forever.  Returns None when no row qualifies.
    """
    for entry in reversed(load_entries(path)):
        if entry.get("kind") == kind and has_keys(entry, require):
            return entry
    return None


def append_entry(path: str | Path, kind: str, payload: dict) -> dict:
    """Append one timestamped entry.

    Returns the entry written.  The container is always rewritten at
    :data:`CURRENT_SCHEMA` with the full history.
    """
    path = Path(path)
    entries = load_entries(path)
    entry = {
        "kind": kind,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **payload,
    }
    entries.append(entry)
    path.write_text(json.dumps(
        {"schema": CURRENT_SCHEMA, "entries": entries}, indent=2) + "\n")
    return entry
