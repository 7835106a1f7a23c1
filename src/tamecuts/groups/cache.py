"""Persistent ball cache.

One JSON file per (group-spec hash, radius), named ``<hash>-r<radius>.json``:

    {
      "format_version": 1,
      "group": {...},            # GroupSpec.to_dict()
      "radius": n,
      "member_count": N,
      "members": [[length, data], ...]
    }

``members`` is in BFS discovery order, so lengths are nondecreasing and
``load`` returns the exact enumeration order of a fresh search
(coset-section tie-breaks included).  Each ``data`` is an element's
canonical data tuple as JSON writes it, tuples as arrays, and ``load``
turns the arrays back into tuples; JSON integers are unbounded and
byte-order free, so files are portable across platforms.  A file that is
not such an object, or holds any leaf but an integer, is not an entry:
``load`` returns None for it and ``entries`` skips it; ``load`` also does
for lengths that decrease or leave [0, radius], for data that is not
canonical (the family's row codec does not encode it), for a
``member_count`` other than the number of members, and unless the first
member is the identity at length 0.

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
from operator import index
from pathlib import Path

from .elements import family_ops
from .spec import GroupSpec

FORMAT_VERSION = 1


def _data(value):
    """A JSON value read back as data: arrays become tuples, and any leaf
    but an integer raises TypeError."""
    if type(value) is list:
        return tuple(map(_data, value))
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


def _read(path: Path) -> dict | None:
    """The JSON object in ``path``, or None for an unreadable file or any
    other JSON value."""
    try:
        blob = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError):
        return None
    return blob if isinstance(blob, dict) else None


class BallCache:
    def __init__(self, directory):
        self.directory = Path(directory)

    def path_for(self, group: GroupSpec, radius: int) -> Path:
        return self.directory / f"{group.spec_hash()}-r{radius}.json"

    def load(self, group: GroupSpec, radius: int):
        """(lengths, canonical data tuples) for the exact radius, or None."""
        blob = _read(self.path_for(group, radius))
        if blob is None or blob.get("format_version") != FORMAT_VERSION:
            return None
        if blob.get("group") != group.to_dict() or blob.get("radius") != radius:
            return None
        try:
            members = _data(blob["members"])
            lengths = [index(ln) for ln, _ in members]
            data = [x for _, x in members]
            ops = family_ops(group)
            canonical = None not in map(ops.rows.encode, data)
        except (KeyError, TypeError, ValueError, RecursionError):
            return None
        bounded = [0, *lengths, radius]
        if (not canonical or bounded != sorted(bounded)
                or blob.get("member_count") != len(members)
                or members[:1] != ((0, ops.identity),)):
            return None
        return lengths, data

    def store(self, group: GroupSpec, radius: int, ball) -> Path:
        path = self.path_for(group, radius)
        if path.exists():
            return path
        members = [[ln, x] for x, ln in ball.data_items()]
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
            blob = _read(p)
            if blob is None:
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
