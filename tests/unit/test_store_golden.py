"""Golden bytes of the result-store log.

The digests below were recorded before the store's write and lookup
paths were reworked (a key dict instead of an engine index, appends
indexed without re-reading the log, a hoisted per-run args digest).
None of those changes may alter a byte on disk, so this module is the
oracle for that promise: the JSONL an :class:`Experiment` writes on a
fresh store (scalar and ``batch=64``), the checkpoint log of a sharded
``repro campaign`` (run whole, and interrupted then resumed), and the
telemetry a store-backed experiment publishes must hash exactly as they
did, with the same ``bytes_written``.

If a deliberate format change lands, regenerate the digests with
``PYTHONPATH=src python -m tests.unit.test_store_golden`` (from the repo
root, so the trial keeps its ``tests.unit.test_store_golden`` module
name) and say why in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

from repro import observe
from repro.cli import main
from repro.harness.experiment import Experiment
from repro.runtime.store import ResultStore

SEEDS = tuple(range(100, 300))
BATCH = 64

GOLDEN = {
    "experiment.scalar": (
        "a245a96d9f7a2b29d896690d47097c5f444c6579182540e3e752ca4f5957b7b8",
        90040),
    "experiment.batched": (
        "e51831525018aa130589070ccd2b1342aecc4115ebe6358e1e9fca54cd595fd8",
        16606),
    "campaign.shards": (
        "67b5d33427126e84cef342b09cacd1be6d2455daeb413d7fadbccac8a6647499",
        174386),
    "campaign.resumed": (
        "67b5d33427126e84cef342b09cacd1be6d2455daeb413d7fadbccac8a6647499",
        174386),
    "experiment.telemetry": (
        "604aae77b121c9f1ebe89ee52c7e9f8fe9874602303c219c3ec04bc2d794ac79",
        27342),
}


def golden_trial(seed: int) -> dict:
    """A small seeded trial with two metrics."""
    rng = random.Random(seed)
    failures = sum(rng.random() < 0.2 for _ in range(3))
    return {"ok": 1.0 if failures <= 1 else 0.0,
            "failures": float(failures)}


def _sha_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _experiment_log(directory: str, name: str, **knobs):
    """Run one experiment on a fresh store; ``(sha256, bytes_written)``
    of its log."""
    path = os.path.join(directory, f"{name}.jsonl")
    store = ResultStore(path, name=name)
    experiment = Experiment(name, golden_trial, SEEDS, store=store,
                            **knobs)
    if "batch" in knobs:
        experiment.run_batches()
    else:
        experiment.run()
    assert store.stats()["bytes_written"] == os.path.getsize(path)
    return _sha_file(path), store.stats()["bytes_written"]


def _campaign(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        main(["campaign", "--requests", "12", "--seed", "7",
              "--shards", "5", "--format", "json", *argv])


def _campaign_log(directory: str, name: str, interrupt: bool):
    path = os.path.join(directory, f"{name}.jsonl")
    if interrupt:
        _campaign("--store", path, "--max-shards", "2")
        _campaign("--store", path, "--resume")
    else:
        _campaign("--store", path)
    return _sha_file(path), os.path.getsize(path)


def _telemetry(directory: str):
    """Digest of everything a store-backed experiment publishes: a cold
    pass (misses and writes), a warm pass (memory hits) and a pass on a
    freshly opened store (disk hits), scalar and batched."""
    path = os.path.join(directory, "telemetry.jsonl")
    with observe.session() as tel:
        store = ResultStore(path, name="golden")
        for _ in range(2):
            Experiment("t", golden_trial, SEEDS[:40], store=store).run()
            Experiment("t", golden_trial, SEEDS[:40], batch=16,
                       store=store).run_batches()
        reopened = ResultStore(path, name="golden")
        Experiment("t", golden_trial, SEEDS[:50], store=reopened).run()
        Experiment("t", golden_trial, SEEDS[:40], batch=16,
                   store=reopened).run_batches()
    text = "\n".join([json.dumps(tel.bus.snapshot(), sort_keys=True),
                      tel.metrics.render_prometheus()])
    return (hashlib.sha256(text.encode("utf-8")).hexdigest(),
            store.bytes_written + reopened.bytes_written)


def digests() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        return {
            "experiment.scalar": _experiment_log(directory, "scalar"),
            "experiment.batched": _experiment_log(directory, "batched",
                                                  batch=BATCH),
            "campaign.shards": _campaign_log(directory, "shards", False),
            "campaign.resumed": _campaign_log(directory, "resumed", True),
            "experiment.telemetry": _telemetry(directory),
        }


def test_experiment_logs_are_byte_identical(tmp_path):
    assert _experiment_log(str(tmp_path), "scalar") == \
        GOLDEN["experiment.scalar"]
    assert _experiment_log(str(tmp_path), "batched", batch=BATCH) == \
        GOLDEN["experiment.batched"]


def test_shard_checkpoint_logs_are_byte_identical(tmp_path):
    assert _campaign_log(str(tmp_path), "shards", False) == \
        GOLDEN["campaign.shards"]
    assert _campaign_log(str(tmp_path), "resumed", True) == \
        GOLDEN["campaign.resumed"]


def test_store_telemetry_is_byte_identical(tmp_path):
    assert _telemetry(str(tmp_path)) == GOLDEN["experiment.telemetry"]


if __name__ == "__main__":
    # Re-import under the package name so the trial's module (part of
    # every store key) matches what the test run sees.
    from tests.unit import test_store_golden

    for name, value in test_store_golden.digests().items():
        print(f"    {name!r}: {value!r},")
