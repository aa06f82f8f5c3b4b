"""ResultStore's key index: first record wins, whoever writes it.

A store indexes its own appends without reading them back, so the
index a writer holds must always equal the one a fresh reader builds
from the log.  These tests drive two stores on one path through
alternating ``put`` / ``put_many`` calls with overlapping keys — with
and without a foreign writer that leaves a torn record — and compare
each writer against a freshly opened ``ResultStore(path)`` after every
step.  They also pin the duplicate rule on the ``key`` (not on the
``id`` hash the log carries).
"""

import copy
import inspect
import json
import pickle
import random

import pytest

from repro._util import stable_int
from repro.harness.experiment import Experiment
from repro.runtime.store import MISS, ResultStore, code_fingerprint

KEYS = [f"key-{i}" for i in range(12)]


def _line(key, value, record_id):
    """A hand-written log record with a chosen ``id``."""
    row = {"id": record_id, "key": key,
           "payload": pickle.dumps(value, protocol=4).hex(),
           "seed": None, "task": "hand"}
    return (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")


def _assert_matches_fresh(path, writer, other, written):
    """Every store serves what a fresh reader serves, and the fresh
    reader serves the first record of each key in log order.

    The writer has just indexed its own append, so it must match the
    fresh reader without a refresh.  The other store is checked through
    a copy: a lookup that misses refreshes the store, and the original
    must stay behind the log so its next write has foreign records to
    index first.
    """
    fresh = ResultStore(path, name="fresh")
    assert writer.entries == fresh.entries
    assert writer.corrupt_lines == fresh.corrupt_lines
    other = copy.deepcopy(other)
    for key in KEYS:
        expected = fresh.get(key)
        if key in written:
            assert expected == written[key]
        else:
            assert expected is MISS
        assert writer.get(key) == expected, (writer.name, key)
        assert other.get(key) == expected, (other.name, key)
    other.refresh()
    assert other.entries == fresh.entries
    assert other.corrupt_lines == fresh.corrupt_lines


def _interleave(path, steps, rng, torn_at=()):
    """Alternate two writers over overlapping keys; ``torn_at`` names
    the steps before which a foreign writer appends half a record with
    no newline.  Returns ``key -> first value`` for the keys whose first
    record is known to have survived."""
    stores = [ResultStore(path, name="a"), ResultStore(path, name="b")]
    written = {}
    for step in range(steps):
        if step in torn_at:
            line = _line("torn", ("torn", step), 1)
            with open(path, "ab") as handle:
                handle.write(line[:len(line) // 2])
        store, other = stores[step % 2], stores[1 - step % 2]
        batch = rng.sample(KEYS, rng.randint(1, 4))
        values = {key: (store.name, step, key) for key in batch}
        if len(batch) == 1 and rng.random() < 0.5:
            [key] = batch
            store.put(key, values[key], task="t")
        else:
            store.put_many([{"key": key, "value": values[key], "task": "t"}
                            for key in batch])
        if step in torn_at:
            # The first record of this append glued onto the torn one.
            batch = batch[1:]
        for key in batch:
            written.setdefault(key, values[key])
        _assert_matches_fresh(path, store, other, written)
    return written


class TestFirstRecordWins:
    def test_colliding_ids_with_different_keys_are_both_served(
            self, tmp_path):
        path = tmp_path / "ids.jsonl"
        path.write_bytes(_line("alpha", "first", 7)
                         + _line("beta", "second", 7))
        store = ResultStore(path)
        assert store.get("alpha") == "first"
        assert store.get("beta") == "second"
        assert store.entries == 2
        assert store.corrupt_lines == 0

    def test_duplicate_keys_keep_the_first_record(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_bytes(_line("alpha", "first", 1)
                         + _line("alpha", "second", 2))
        store = ResultStore(path)
        assert store.get("alpha") == "first"
        assert store.entries == 1

    def test_a_stale_writer_serves_the_earlier_record(self, tmp_path):
        path = tmp_path / "stale.jsonl"
        a = ResultStore(path, name="a")
        b = ResultStore(path, name="b")
        a.put("k", "from-a")
        b.put("k", "from-b")  # b had not seen a's record
        assert b.get("k") == "from-a"
        assert b.entries == 1
        # Duplicates inside one batch: the first entry wins too.
        b.put_many([{"key": "j", "value": 1}, {"key": "j", "value": 2}])
        assert b.get("j") == 1
        assert ResultStore(path).get("j") == 1

    def test_writer_and_reader_agree_on_served_trials(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        writer = ResultStore(path, name="w", memory_entries=1)
        for key, trials in (("zero", 0), ("one", 1), ("four", 4)):
            writer.put(key, key, trials=trials)
        reader = ResultStore(path, name="r")
        for key in ("zero", "one", "four"):
            writer.get(key)
            reader.get(key)
        assert writer.trials_served == reader.trials_served == 6

    def test_store_has_no_engine_knob(self):
        assert "engine" not in inspect.signature(ResultStore).parameters


class TestInterleavedWriters:
    def test_alternating_writers_match_a_fresh_reader(self, tmp_path):
        rng = random.Random(11)
        written = _interleave(tmp_path / "mix.jsonl", 24, rng)
        assert len(written) > 8

    def test_a_torn_foreign_tail_is_handled_like_a_reader(self, tmp_path):
        rng = random.Random(5)
        path = tmp_path / "torn.jsonl"
        _interleave(path, 12, rng, torn_at=(3, 8))
        assert ResultStore(path).corrupt_lines == 2

    def test_a_torn_tail_at_the_end_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "tail.jsonl"
        a = ResultStore(path, name="a")
        a.put_many([{"key": "x", "value": 1}, {"key": "y", "value": 2}])
        line = _line("z", 3, 9)
        with open(path, "ab") as handle:
            handle.write(line[:10])
        b = ResultStore(path, name="b")
        assert (b.entries, b.corrupt_lines) == (2, 0)
        assert b.get("z") is MISS
        with open(path, "ab") as handle:
            handle.write(line[10:])
        assert a.get("z") == 3 and b.get("z") == 3
        assert a.entries == b.entries == 3


class TestLineEncoding:
    @pytest.mark.parametrize("key, task, seed, trials", [
        ("k", "t", 3, 1),
        ("k", "t", None, 64),
        ("k\u00e9\"\\\n", "t\u2603\t", -7, 2),
        ("k", "t", True, 1),
        ("k", "t", 2.5, 1),
        ("k", "t", 0, 0),
    ])
    def test_lines_equal_sorted_json_dumps(self, key, task, seed, trials):
        value = {"v": [1, 2.5, "x"]}
        *_, payload, line = ResultStore._stage(key, value, task, seed,
                                               trials)
        row = {"id": stable_int(key, modulo=2 ** 62), "key": key,
               "task": task, "seed": seed, "payload": payload}
        if trials != 1:
            row["trials"] = trials
        assert line == (json.dumps(row, sort_keys=True) + "\n").encode()
        assert pickle.loads(bytes.fromhex(payload)) == value


class TestExperimentKeys:
    def test_hoisted_digest_keys_equal_store_keys(self, tmp_path):
        def trial(seed):
            return {"v": float(seed)}

        store = ResultStore(tmp_path / "e.jsonl")
        Experiment("keys", trial, range(5), instrument=False,
                   store=store).run()
        task = f"{trial.__module__}.{trial.__qualname__}"
        for seed in range(5):
            key = store.key(task, (False,), seed=seed,
                            code=code_fingerprint(trial))
            assert store.get(key).seed == seed
        assert store.entries == 5
