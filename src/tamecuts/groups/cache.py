"""Persistent ball cache.

One JSON file per (group-spec hash, radius), named ``<hash>-r<radius>.json``:

    {
      "format_version": 1,
      "group": {...},            # GroupSpec.to_dict()
      "radius": n,
      "member_count": N,
      "members": [[length, payload], ...]
    }

``members`` is in BFS discovery order, so lengths are nondecreasing and
``load`` returns the exact enumeration order of a fresh search
(coset-section tie-breaks included).  Payloads use the per-family canonical
JSON forms of ``FamilyOps.to_payload``; JSON integers are unbounded and
byte-order free, so files are portable across platforms.

Entries are written by ``tamecut ball --write-cache`` and read back only
through ``load``: ``ball()`` always grows its balls and never consults a
cache.  Only ``store`` creates the directory; listing or clearing a missing
one finds no entries.

Writes go through a temporary file and an atomic rename, so concurrent
readers never observe a partial entry; concurrent writers of the same entry
race benignly (last rename wins, contents identical).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .elements import family_ops
from .spec import GroupSpec

FORMAT_VERSION = 1


class BallCache:
    def __init__(self, directory):
        self.directory = Path(directory)

    def path_for(self, group: GroupSpec, radius: int) -> Path:
        return self.directory / f"{group.spec_hash()}-r{radius}.json"

    def load(self, group: GroupSpec, radius: int):
        """(lengths, canonical data tuples) for the exact radius, or None."""
        path = self.path_for(group, radius)
        if not path.exists():
            return None
        try:
            blob = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if blob.get("format_version") != FORMAT_VERSION:
            return None
        if blob.get("group") != group.to_dict() or blob.get("radius") != radius:
            return None
        from_payload = family_ops(group).from_payload
        lengths = [int(ln) for ln, _ in blob["members"]]
        elements = [from_payload(payload) for _, payload in blob["members"]]
        return lengths, elements

    def store(self, group: GroupSpec, radius: int, ball) -> Path:
        path = self.path_for(group, radius)
        if path.exists():
            return path
        to_payload = family_ops(group).to_payload
        members = [[ln, to_payload(x)] for x, ln in ball.data_items()]
        blob = {
            "format_version": FORMAT_VERSION,
            "group": group.to_dict(),
            "radius": radius,
            "member_count": len(members),
            "members": members,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(blob, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path

    def entries(self) -> list[dict]:
        out = []
        for p in sorted(self.directory.glob("*-r*.json")):
            try:
                blob = json.loads(p.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            out.append({
                "file": p.name,
                "group": blob.get("group"),
                "radius": blob.get("radius"),
                "member_count": blob.get("member_count"),
            })
        return out

    def clear(self) -> int:
        n = 0
        for p in self.directory.glob("*-r*.json"):
            p.unlink()
            n += 1
        return n
