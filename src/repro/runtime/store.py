"""Content-addressed, disk-backed result store for pure harness work.

The paper's checkpoint-recovery and data-diversity techniques persist
the results of expensive pure computations so faults (or reruns) do not
repay the full execution cost; this module applies the same mechanics
to the harness itself.  Every unit the runtime fans out — a seeded
trial, a ``(protector, fault)`` campaign cell, a benchmark file — is a
pure function of its arguments, so its result can be **addressed by
content**: a ``PYTHONHASHSEED``-stable fingerprint of

* the task's qualified name,
* a digest (CRC-32 + SHA-256) of its pickled arguments,
* the seed, and
* a *code version* (a digest of the task's source), so edited code
  invalidates every result it produced.

:class:`ResultStore` is a two-tier cache behind that key:

* **memory tier** — a :class:`~repro.runtime.cache.MemoCache` LRU, so
  repeated lookups within a process never touch disk;
* **disk tier** — an append-only JSONL log indexed by a plain
  ``key -> row`` dict (the first record of a key in log order wins), so
  a disk lookup is one dict probe.  Appends are single ``O_APPEND``
  writes under an advisory ``flock``, so concurrent writers from pool
  workers or parallel CI jobs interleave whole records, never bytes.
  A writer indexes its own append directly, without reading it back:
  under the lock it first indexes any foreign records that landed
  since its last read, then its own rows, so the index keeps log order.
  Readers pick up foreign appends on :meth:`refresh` (called
  automatically on a miss when the log grew).

Caching is **opt-in everywhere** (the ``store=`` knobs on
:class:`~repro.harness.experiment.Experiment`,
:class:`~repro.harness.campaign.FaultCampaign` and ``repro bench
--incremental``): redundancy masks faults by re-executing, and a served
result is never re-voted or re-checked — see docs/PERFORMANCE.md for
the key schema and the invalidation contract.

Hit/miss/bytes accounting flows through an installed telemetry session
as ``repro_runtime_store_*`` counters and ``store.hit`` /
``store.miss`` / ``store.write`` events (surfaced by the SLI report).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import zlib
from json.encoder import encode_basestring_ascii as _json_str
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro._util import stable_int
from repro.observe import current as _telemetry
from repro.runtime.cache import MemoCache

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

__all__ = ["MISS", "CodeDigests", "ResultStore", "args_digest",
           "cached_map", "code_fingerprint", "fingerprint", "source_digest"]

#: Sentinel returned by :meth:`ResultStore.get` on a miss — a stored
#: ``None`` is a legitimate hit.
MISS = object()

#: Pickle protocol pinned for key stability: the digest of the pickled
#: arguments is part of the content address, so it must not change when
#: the interpreter's default protocol does.
_PICKLE_PROTOCOL = 4

#: A log record for the common field types, formatted directly: exactly
#: the bytes ``json.dumps(row, sort_keys=True)`` writes, at a fraction of
#: its cost (the payload is hex, so it needs no escaping).
_LINE = '{"id": %d, "key": %s, "payload": "%s", "seed": %s, "task": %s%s}\n'


def args_digest(args: Any) -> str:
    """A ``PYTHONHASHSEED``-stable digest of pickled arguments.

    CRC-32 plus truncated SHA-256 of the pickled bytes.  Stable for the
    argument shapes harness tasks use (ints, floats, strings, tuples,
    dicts — insertion-ordered); unordered containers such as sets
    pickle in iteration order and are **not** stable keys.
    """
    data = pickle.dumps(args, protocol=_PICKLE_PROTOCOL)
    return (f"{zlib.crc32(data):08x}"
            f"-{hashlib.sha256(data).hexdigest()[:24]}")


def source_digest(fn: Callable) -> str:
    """One callable's part of a :func:`code_fingerprint`: its qualified
    name and a digest of its source.

    Falls back to the compiled bytecode for callables without
    retrievable source (e.g. defined in a REPL) and to the repr for
    builtins.
    """
    try:
        body = inspect.getsource(fn)
    except (OSError, TypeError):
        code = getattr(fn, "__code__", None)
        body = code.co_code.hex() if code is not None else repr(fn)
    name = (f"{getattr(fn, '__module__', '?')}"
            f".{getattr(fn, '__qualname__', type(fn).__name__)}")
    return f"{name}={hashlib.sha256(body.encode('utf-8')).hexdigest()}"


def code_fingerprint(*callables: Callable) -> str:
    """A digest of the *source* of one or more callables.

    Editing a task (or any helper passed alongside it) changes the
    fingerprint and therefore every key derived from it, so stale
    results are never served after a code change.
    """
    return CodeDigests()(*callables)


class CodeDigests:
    """:func:`code_fingerprint` with each callable's
    :func:`source_digest` taken once: ``digests(*callables) ==
    code_fingerprint(*callables)``.

    Owned by one run (a campaign pass, a sharded campaign), never by
    the module, so an edit between runs is still seen.  Entries hold
    their callable, so its ``id`` cannot be reused while memoised.
    """

    def __init__(self) -> None:
        self._parts: Dict[int, Tuple[Callable, str]] = {}

    def __call__(self, *callables: Callable) -> str:
        parts = []
        for fn in callables:
            entry = self._parts.get(id(fn))
            if entry is None:
                entry = self._parts[id(fn)] = (fn, source_digest(fn))
            parts.append(entry[1])
        return hashlib.sha256("|".join(parts).encode("utf-8")
                              ).hexdigest()[:16]


def fingerprint(task_name: str, digest: str, seed: Optional[int],
                code: str) -> str:
    """The content address: task x args-digest x seed x code version."""
    raw = f"{task_name}|{digest}|{seed}|{code}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def _batch_size(trials: Any) -> int:
    """The trials a record is served as: its ``trials`` field when that
    is an int above 1, else 1 (a scalar record)."""
    return trials if isinstance(trials, int) and trials > 1 else 1


class ResultStore:
    """A two-tier (memory LRU + disk JSONL) content-addressed store.

    Args:
        path: The append-only JSONL log file (created on first write;
            parent directories are created eagerly).
        name: Label on the ``repro_runtime_store_*`` metrics and
            ``store.*`` events this store emits.
        memory_entries: LRU capacity of the in-memory front tier.
        quiet: Suppress the store's telemetry (``repro_runtime_store_*``
            counters and ``store.*`` events).  Python-side counters and
            :meth:`stats` still accumulate.  The shard checkpoint store
            runs quiet because its traffic differs between an
            interrupted-and-resumed campaign and an uninterrupted one —
            traffic that, published, would reach the SLI store table
            and break the report's interrupted-vs-uninterrupted
            byte-identity (see :mod:`repro.harness.shard`).

    Values are pickled; anything the parallel runtime can ship across a
    process pool stores fine.  Two stores (or two processes) may share
    one path: writes append whole records under an advisory lock, and
    a reader that misses re-reads any bytes appended since its last
    load before declaring the miss.  When two records share a key, the
    first in log order is served, by every store on the path.
    """

    def __init__(self, path: Union[str, os.PathLike], name: str = "results",
                 memory_entries: Optional[int] = 1024,
                 quiet: bool = False) -> None:
        self.path = os.fspath(path)
        self.name = name
        self.quiet = quiet
        self.memory = MemoCache(name=f"{name}-mem",
                                max_entries=memory_entries, quiet=quiet)
        #: ``key -> (hex payload, trials)`` of every indexed record.
        self._rows: Dict[str, Tuple[str, int]] = {}
        #: Bytes of the log consumed into the index so far.
        self._offset = 0
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Trials served/stored through batch records (a scalar record
        #: counts 1; a batch record counts its batch size), so the SLI
        #: store-traffic table can report per-batch hit accounting.
        self.trials_served = 0
        self.trials_stored = 0
        #: Records written through :meth:`put_many` (one flock'd append
        #: per batch, rather than one per record).
        self.puts_batched = 0
        #: Log lines that failed to parse (skipped, never fatal).
        self.corrupt_lines = 0
        self.entries = 0
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.refresh()

    def __len__(self) -> int:
        return self.entries

    # -- keys --------------------------------------------------------------

    def key(self, task: Union[str, Callable], args: Any = (),
            seed: Optional[int] = None, code: Optional[str] = None) -> str:
        """The content address for ``task(*args)`` at ``seed``.

        ``task`` may be a callable (its qualified name is used, and its
        :func:`code_fingerprint` when ``code`` is not given) or a plain
        string name (then ``code`` defaults to empty — pass one
        explicitly to get invalidation-on-change).  Callers keying many
        seeds of one task can compute :func:`args_digest` once and call
        :func:`fingerprint` per seed; the keys are the same.
        """
        if callable(task):
            name = (f"{getattr(task, '__module__', '?')}"
                    f".{getattr(task, '__qualname__', repr(task))}")
            if code is None:
                code = code_fingerprint(task)
        else:
            name = task
            code = code or ""
        return fingerprint(name, args_digest(args), seed, code)

    # -- the two-tier lookup ----------------------------------------------

    def get(self, key: str) -> Any:
        """The stored value for ``key``, or :data:`MISS` — the one-key
        :meth:`get_many`."""
        return self.get_many((key,))[key]

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]:
        """``{key: value-or-MISS}`` for every key, with at most one log
        refresh.

        Memory tier first, per key; then every remaining key is
        resolved against the index, refreshed once from the log if any
        key is missing and another writer has appended since the last
        read.  A disk hit is promoted into the memory tier.
        """
        out: Dict[str, Any] = {}
        wanted: Dict[str, None] = {}  # insertion-ordered key set
        tel = self._session()
        for key in keys:
            if key in out or key in wanted:
                continue
            value = self.memory.get(key, default=MISS)
            if value is not MISS:
                self._record_hit(tel, key, "memory")
                out[key] = value
            else:
                wanted[key] = None
        if not wanted:
            return out
        rows = self._rows
        if (any(key not in rows for key in wanted)
                and self._log_grew()):
            self.refresh()
        for key in wanted:
            row = rows.get(key)
            if row is None:
                self._record_miss(tel)
                out[key] = MISS
            else:
                out[key] = self._load_row(tel, key, row)
        return out

    def _load_row(self, tel: Any, key: str, row: Tuple[str, int]) -> Any:
        """Decode a disk row, promote it into memory, account the hit."""
        payload = bytes.fromhex(row[0])
        self.bytes_read += len(payload)
        value = pickle.loads(payload)
        self.memory.put(key, value)
        if tel is not None:
            tel.metrics.inc("repro_runtime_store_bytes_read_total",
                            len(payload), store=self.name)
        self._record_hit(tel, key, "disk", len(payload))
        return value

    def put(self, key: str, value: Any, task: str = "?",
            seed: Optional[int] = None, trials: int = 1) -> None:
        """Persist ``value`` under ``key`` (append + index + memory).

        ``trials`` labels batch records with the number of trials the
        one record carries (1 for scalar records); it is persisted in
        the row, so later readers — including other processes — account
        batch hits as ``trials`` served, and ``store.hit`` /
        ``store.write`` events carry ``trials=`` for the SLI
        store-traffic table.
        """
        self._write([self._stage(key, value, task, seed, trials)])

    def put_many(self, entries: Sequence[Dict[str, Any]]) -> None:
        """Persist many records with **one** flock'd append.

        Each entry is a dict with ``key`` and ``value`` plus the
        optional :meth:`put` fields ``task``/``seed``/``trials``.  The
        whole batch lands as a single ``O_APPEND`` write under one
        advisory lock — so a shard checkpoint (the shard record plus
        its cell records) or a batched experiment's miss tail pays one
        lock round-trip, not N.  Per-record accounting (counters,
        ``store.write`` events) is identical to N scalar puts;
        :attr:`puts_batched` counts the records that took this path.
        """
        staged = [self._stage(entry["key"], entry["value"],
                              entry.get("task", "?"), entry.get("seed"),
                              int(entry.get("trials", 1)))
                  for entry in entries]
        if staged:
            self._write(staged)
            self.puts_batched += len(staged)

    @staticmethod
    def _stage(key: str, value: Any, task: str, seed: Optional[int],
               trials: int) -> Tuple[str, Any, int, str, bytes]:
        """One record as ``(key, value, trials, hex payload, JSONL
        line)``."""
        payload = pickle.dumps(value, protocol=_PICKLE_PROTOCOL).hex()
        record_id = stable_int(key, modulo=2 ** 62)
        if (type(key) is str and type(task) is str
                and (seed is None or type(seed) is int)
                and type(trials) is int):
            line = _LINE % (record_id, _json_str(key), payload,
                            "null" if seed is None else seed,
                            _json_str(task),
                            "" if trials == 1 else f', "trials": {trials}')
        else:
            row = {"id": record_id, "key": key, "task": task,
                   "seed": seed, "payload": payload}
            if trials != 1:
                row["trials"] = trials
            line = json.dumps(row, sort_keys=True) + "\n"
        return key, value, trials, payload, line.encode("utf-8")

    def _write(self, staged: List[Tuple[str, Any, int, str, bytes]]
               ) -> None:
        """Append staged records, index them, promote and account them.

        Under the lock: write the batch, index any foreign records that
        precede it in the log, then index the staged rows as built — no
        read-back, no re-parse.  If the bytes before the append end in a
        torn record (a writer that skipped the lock), the append glued
        onto it, so the log is re-read from the last offset instead,
        exactly as :meth:`refresh` would.
        """
        data = b"".join(record[4] for record in staged)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        rows = self._rows
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            written = os.write(fd, data)
            end = os.lseek(fd, 0, os.SEEK_CUR)
            if written == len(data) and self._catch_up(end - written):
                for key, _, trials, payload, _ in staged:
                    if key not in rows:
                        rows[key] = (payload, _batch_size(trials))
                        self.entries += 1
                self._offset = end
            else:
                self.refresh()
        finally:
            os.close(fd)
        tel = self._session()
        for key, value, trials, payload, line in staged:
            # The memory tier mirrors the index: a record that lost to
            # an earlier one with the same key is not promoted.
            row = rows.get(key)
            if row is not None and row[0] == payload:
                self.memory.put(key, value)
            self.writes += 1
            self.bytes_written += len(line)
            self.trials_stored += trials
            if tel is None:
                continue
            tel.metrics.inc("repro_runtime_store_writes_total", 1.0,
                            store=self.name)
            tel.metrics.inc("repro_runtime_store_bytes_written_total",
                            len(line), store=self.name)
            tel.metrics.inc("repro_runtime_store_trials_stored_total",
                            trials, store=self.name)
            event: Dict[str, Any] = {"bytes": len(line)}
            if trials > 1:
                event["trials"] = trials
            tel.publish("store.write", store=self.name, **event)

    def get_or_call(self, fn: Callable, *args: Any,
                    seed: Optional[int] = None,
                    code: Optional[str] = None,
                    task_name: Optional[str] = None) -> Any:
        """``fn(*args)``, served from the store when already computed."""
        key = self.key(task_name if task_name is not None else fn,
                       args, seed=seed,
                       code=code if code is not None
                       else code_fingerprint(fn))
        task = task_name or getattr(fn, "__qualname__", repr(fn))
        [value] = cached_map(self, [args], lambda _: key,
                             lambda units: [fn(*unit) for unit in units],
                             lambda _: {"task": task, "seed": seed})
        return value

    # -- disk log ----------------------------------------------------------

    def refresh(self) -> int:
        """Replay log bytes appended since the last read; returns the
        number of new entries indexed."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return 0
        if size <= self._offset:
            return 0
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        # Consume only whole lines; a torn trailing record (possible
        # only on non-POSIX appends) is left for the next refresh.
        end = data.rfind(b"\n") + 1
        if end == 0:
            return 0
        self._offset += end
        return self._consume(data[:end])

    def _catch_up(self, start: int) -> bool:
        """Index the foreign records between the last read and ``start``
        (where this writer's append begins).  False, consuming nothing,
        when those bytes do not end on a record boundary."""
        if start == self._offset:
            return True
        if start < self._offset:
            return False
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read(start - self._offset)
        if len(data) != start - self._offset or not data.endswith(b"\n"):
            return False
        self._offset = start
        self._consume(data)
        return True

    def _consume(self, data: bytes) -> int:
        """Index every line of ``data`` (whole records); duplicates (the
        same key computed by two writers) keep the first record and are
        not an error.  Returns the number of new entries."""
        rows = self._rows
        added = 0
        for raw in data.splitlines():
            try:
                row = json.loads(raw)
                key = row["key"]
                payload = row["payload"]
                if not isinstance(key, str) or not isinstance(payload, str):
                    raise ValueError("not a store record")
            except (ValueError, TypeError, KeyError):
                self.corrupt_lines += 1
                continue
            if key in rows:
                continue
            rows[key] = (payload, _batch_size(row.get("trials")))
            added += 1
        self.entries += added
        return added

    def _log_grew(self) -> bool:
        try:
            return os.path.getsize(self.path) > self._offset
        except OSError:
            return False

    # -- accounting --------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """The counters as a flat dict (reports, assertions, bench)."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "entries": self.entries,
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
                "trials_served": self.trials_served,
                "trials_stored": self.trials_stored,
                "puts_batched": self.puts_batched,
                "corrupt_lines": self.corrupt_lines,
                "hit_rate": round(self.hit_rate, 4),
                "memory": self.memory.stats()}

    def _session(self) -> Any:
        """The telemetry session to account into, or ``None`` when the
        store is quiet or telemetry is off — looked up once per call,
        not once per counter."""
        if self.quiet:
            return None
        tel = _telemetry()
        return tel if tel.enabled else None

    def _record_hit(self, tel: Any, key: str, tier: str,
                    bytes_read: int = 0) -> None:
        self.hits += 1
        row = self._rows.get(key)
        trials = row[1] if row is not None else 1
        self.trials_served += trials
        if tel is None:
            return
        tel.metrics.inc("repro_runtime_store_hits_total", 1.0,
                        store=self.name)
        tel.metrics.inc("repro_runtime_store_trials_served_total", trials,
                        store=self.name)
        payload: Dict[str, Any] = {"tier": tier}
        if bytes_read:
            payload["bytes"] = bytes_read
        if trials > 1:
            payload["trials"] = trials
        tel.publish("store.hit", store=self.name, **payload)

    def _record_miss(self, tel: Any) -> None:
        self.misses += 1
        if tel is not None:
            tel.metrics.inc("repro_runtime_store_misses_total", 1.0,
                            store=self.name)
            tel.publish("store.miss", store=self.name)


def cached_map(store: Optional[ResultStore], units: Sequence[Any],
               key: Callable[[Any], str],
               run: Callable[[Sequence[Any]], Sequence[Any]],
               meta: Callable[[Any], Dict[str, Any]]) -> List[Any]:
    """``run(units)``, with every unit already in ``store`` served from
    it — the one compute-on-miss loop of the harness.

    Derives each unit's ``key`` once, looks them all up with one
    :meth:`~ResultStore.get_many`, hands the misses (in unit order,
    duplicates included) to one ``run`` call — skipped when every unit
    hits — and persists them with one :meth:`~ResultStore.put_many`,
    each record carrying ``meta(unit)``'s ``task``/``seed``/``trials``
    fields.  Returns the values in unit order.  With no ``store`` it is
    plain ``run(units)``.
    """
    if store is None:
        return run(units)
    keys = [key(unit) for unit in units]
    found = store.get_many(keys)
    out = [found[k] for k in keys]
    missing = [index for index, value in enumerate(out) if value is MISS]
    if missing:
        computed = iter(run([units[index] for index in missing]))
        for index in missing:
            out[index] = next(computed)
    store.put_many([{"key": keys[index], "value": out[index],
                     **meta(units[index])} for index in missing])
    return out
