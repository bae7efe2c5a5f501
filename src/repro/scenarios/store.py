"""Structured persistence for scenario results.

Results are JSON documents under ``benchmarks/results/`` with a
versioned schema (``repro.scenario-result/v1``):

.. code-block:: text

    {
      "schema":      "repro.scenario-result/v1",
      "scenario":    registry name,
      "kind":        executor kind,
      "spec":        the full ScenarioSpec (canonical JSON),
      "spec_hash":   16-hex content hash of the spec,
      "backend":     backend that executed the run,
      "rows":        the outcome table (list of flat dicts),
      "summary":     scenario-level aggregates incl. boolean "ok",
      "timings":     {"elapsed_seconds": float},
      "environment": {"python", "implementation", "platform",
                      "numpy", "kernel"},
      "telemetry":   optional repro.telemetry/v1 snapshot
    }

``rows`` + ``spec_hash`` are the *comparable* part; ``timings``,
``environment`` and ``telemetry`` are provenance and excluded from
diffs.  Validation is hand-rolled (no jsonschema dependency in the
image).

A fresh result is built, validated and encoded once
(:meth:`ScenarioResult.persisted`); this store and the SQLite atlas
both write that one text, :func:`dump_payload_text`.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from itertools import chain, islice
from typing import Iterator, Union

from .runner import SCHEMA, ScenarioResult
from .spec import ScenarioError

__all__ = [
    "ResultStore",
    "validate_payload",
    "diff_payloads",
    "comparable",
    "dump_payload_text",
    "write_atomic",
]

_SCALAR = (str, int, float, bool, type(None))
#: The exact types ``json.loads`` and the executors produce for row
#: scalars; rows holding only these skip the per-field loop.
_EXACT_SCALAR = frozenset(_SCALAR)


#: The encoder ``json.dumps(payload, indent=2, sort_keys=True)`` builds
#: (stateless between calls, so one instance serves every dump).
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)
#: Encoder chunks joined at a time by :func:`dump_payload_text`.
_DUMP_BLOCK = 8192


def _join_blocks(chunks: Iterator[str], size: int = _DUMP_BLOCK) -> str:
    """``"".join(chunks)``, holding at most ``size`` chunks at a time."""
    blocks = []
    while block := list(islice(chunks, size)):
        blocks.append("".join(block))
    return "".join(blocks)


def dump_payload_text(payload: dict) -> str:
    """The canonical text of a result payload: what ``ResultStore.save``
    writes and what the atlas keeps in its ``payload`` column, so a
    result stored either way is byte-identical.

    Equal to ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.
    The indenting encoder is pure Python and yields one small string
    per token; ``json.dumps`` lists them all before joining (~7 MB for
    a 0.9 MB payload of 6k rows), this joins them a block at a time."""
    return _join_blocks(chain(_ENCODER.iterencode(payload), ("\n",)))


def _new_file_mode() -> int:
    """The mode ``open()`` would give a new file under this process's
    umask.  Reading the umask means setting it, so it is set to the
    strictest value for that instant: a file another thread creates
    meanwhile can only come out more private, never less."""
    mask = os.umask(0o777)
    os.umask(mask)
    return 0o666 & ~mask


def write_atomic(path: pathlib.Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically: a reader (or a kill)
    mid-write sees either the old complete file or the new complete
    file, never a torn one.  The temp file is unique per call, so two
    concurrent writers of one name never publish or unlink each other's
    half-written file, and it lives next to the target so ``os.replace``
    stays on one filesystem (rename atomicity)."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, _new_file_mode())  # mkstemp creates it 0600
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _rows_exact(rows: list) -> bool:
    """True when every row is a plain dict whose values are exact
    scalars or plain lists of them -- every such row passes the
    per-field loop.  ``False`` decides nothing: the loop then runs and
    gives the verdict and the message (it also accepts subclasses such
    as ``numpy.float64``)."""
    exact = _EXACT_SCALAR
    if not all(type(row) is dict for row in rows):
        return False
    for row in rows:
        if not exact.issuperset(map(type, row.values())):
            for value in row.values():
                if type(value) in exact:
                    continue
                if type(value) is list and exact.issuperset(map(type, value)):
                    continue
                return False
    return True


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(f"invalid scenario result: {message}")


def validate_payload(payload: dict) -> None:
    """Raise :class:`ScenarioError` unless ``payload`` matches the schema."""
    _check(isinstance(payload, dict), "payload is not an object")
    _check(payload.get("schema") == SCHEMA,
           f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}")
    for key, typ in (
        ("scenario", str),
        ("kind", str),
        ("spec", dict),
        ("spec_hash", str),
        ("backend", str),
        ("rows", list),
        ("summary", dict),
        ("timings", dict),
        ("environment", dict),
    ):
        _check(isinstance(payload.get(key), typ),
               f"field {key!r} missing or not a {typ.__name__}")
    _check(len(payload["spec_hash"]) == 16, "spec_hash is not 16 hex chars")
    telemetry = payload.get("telemetry")
    if telemetry is not None:  # optional provenance, schema-checked when present
        from ..telemetry import SCHEMA as TELEMETRY_SCHEMA

        _check(isinstance(telemetry, dict), "telemetry is not an object")
        _check(telemetry.get("schema") == TELEMETRY_SCHEMA,
               f"telemetry schema is {telemetry.get('schema')!r}, "
               f"expected {TELEMETRY_SCHEMA!r}")
        for key in ("counters", "spans", "phases", "events"):
            _check(isinstance(telemetry.get(key), dict),
                   f"telemetry field {key!r} missing or not an object")
    _check("ok" in payload["summary"] and isinstance(payload["summary"]["ok"], bool),
           "summary lacks a boolean 'ok'")
    if _rows_exact(payload["rows"]):
        return
    for idx, row in enumerate(payload["rows"]):
        _check(isinstance(row, dict), f"row {idx} is not an object")
        for key, value in row.items():
            ok = isinstance(value, _SCALAR) or (
                isinstance(value, list) and all(isinstance(v, _SCALAR) for v in value)
            )
            _check(ok, f"row {idx} field {key!r} is not a scalar or scalar list")


def comparable(payload: dict) -> dict:
    """The part of a payload two runs must agree on (no timings/env)."""
    return {
        "scenario": payload["scenario"],
        "kind": payload["kind"],
        "spec_hash": payload["spec_hash"],
        "rows": payload["rows"],
    }


def diff_payloads(a: dict, b: dict) -> list[str]:
    """Human-readable outcome differences between two result payloads.

    Empty list == equivalent results.  Backend, timings and environment
    are provenance, not outcome, and are never reported.
    """
    diffs: list[str] = []
    if a["scenario"] != b["scenario"]:
        diffs.append(f"scenario: {a['scenario']} != {b['scenario']}")
        return diffs
    if a["spec_hash"] != b["spec_hash"]:
        diffs.append(f"spec_hash: {a['spec_hash']} != {b['spec_hash']} "
                     "(the runs had different inputs)")
    ra, rb = a["rows"], b["rows"]
    if len(ra) != len(rb):
        diffs.append(f"row count: {len(ra)} != {len(rb)}")
    for idx, (x, y) in enumerate(zip(ra, rb)):
        if x == y:
            continue
        keys = [k for k in {**x, **y} if x.get(k) != y.get(k)]
        diffs.append(
            f"row {idx}: " + ", ".join(
                f"{k}: {x.get(k)!r} != {y.get(k)!r}" for k in sorted(keys)
            )
        )
    return diffs


class ResultStore:
    """Reads and writes scenario-result JSON under one directory."""

    def __init__(self, root: Union[str, pathlib.Path]):
        self.root = pathlib.Path(root)

    def path_for(self, name: str) -> pathlib.Path:
        """The store file for ``name``; the name must be a bare result
        name, never a path (dots are fine — ``thm31.v2`` is a name,
        but a ``.json`` suffix or a path separator is not)."""
        if "/" in name or "\\" in name or name in ("", ".", ".."):
            raise ScenarioError(
                f"result name {name!r} must not contain path separators; "
                f"pass a path to load()/diff() instead"
            )
        if name.endswith(".json"):
            # A name like "runA.json" would save as runA.json.json and
            # then be irretrievable by name (load() strips the suffix).
            raise ScenarioError(
                f"result name {name!r} must not end with '.json'"
            )
        return self.root / f"{name}.json"

    def save(self, result: ScenarioResult) -> pathlib.Path:
        """Write the result's canonical text (:meth:`ScenarioResult.
        payload_text`, validated once per result) atomically
        (:func:`write_atomic`)."""
        path = self.path_for(result.name)
        text = result.payload_text()
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(path, text)
        return path

    def load(self, name_or_path: Union[str, pathlib.Path]) -> dict:
        """Load a result by store name or by explicit JSON path.

        A string argument is a *name* unless it is a path: it contains a
        path separator, or it ends in ``.json``.  (The old
        ``suffix == ".json"`` test misrouted dotted names to the
        filesystem.)  Path-like strings resolve to an existing file
        first (the README's ``scenarios diff a.json b.json`` flow) and
        fall back to the store root (so ``golden/thm31-sweep`` finds
        ``<root>/golden/thm31-sweep.json`` from any CWD) — never to the
        CWD-dependent double-suffix path ``<root>/<name>.json.json``.
        """
        if isinstance(name_or_path, pathlib.Path):
            path = name_or_path
        elif "/" in (text := str(name_or_path)) or "\\" in text:
            path = pathlib.Path(text)
            if not path.exists():
                rel = text if text.endswith(".json") else f"{text}.json"
                in_store = self.root / rel
                if in_store.exists():
                    path = in_store
        elif text.endswith(".json"):
            explicit = pathlib.Path(text)
            path = explicit if explicit.exists() else self.path_for(text[: -len(".json")])
        else:
            path = self.path_for(text)
        if not path.exists():
            raise ScenarioError(f"no stored result at {path}")
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:
            # Corrupt JSON (torn write from a pre-atomic saver, disk
            # trouble, manual edit): quarantine the file so the next
            # save/run is not poisoned by it, and say exactly where it
            # went.  Saves are atomic, so this should never be ours.
            quarantine = path.with_name(path.name + ".corrupt")
            try:
                os.replace(path, quarantine)
                where = f"; quarantined to {quarantine}"
            except OSError:
                where = ""
            raise ScenarioError(
                f"stored result at {path} is not valid JSON ({exc}){where}"
            ) from None
        validate_payload(payload)
        return payload

    def names(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def diff(
        self,
        a: Union[str, pathlib.Path],
        b: Union[str, pathlib.Path],
    ) -> list[str]:
        return diff_payloads(self.load(a), self.load(b))
