"""The three measured stages: a campaign, a trials experiment, a resume.

Each stage builds its inputs from a seed, computes a reference output
once before anything is timed (:meth:`prepare`), and then runs timed
operations (:meth:`run_op`) whose outputs are checked against that
reference.  A stage only calls the program's public API: ``repro.cli``'s
``main`` for the campaign, :class:`~repro.harness.experiment.Experiment`
for the trials and :class:`~repro.harness.shard.ShardedCampaign` for the
resume.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import itertools
import json
import os
import random
import shutil

from repro import observe
from repro.adjudicators import PredicateAcceptanceTest
from repro.cli import main as cli_main
from repro.components.library import diverse_versions
from repro.components.version import Version
from repro.faults.development import Bohrbug, Heisenbug, InputRegion
from repro.faults.environmental import LoadBug, OverflowBug
from repro.harness.campaign import FaultCampaign
from repro.harness.experiment import Experiment
from repro.harness.shard import ShardedCampaign
from repro.runtime.store import ResultStore
from repro.techniques import (EnvironmentPerturbation, NVersionProgramming,
                              RecoveryBlocks)
from yardstick import pooled_reference_time

#: Requests per cell of the demo matrix.  At 250 a telemetry-off pass
#: takes ~0.15 s and a telemetry-on pass ~0.5 s on a 2-CPU host, so one
#: run collects a dozen or more samples of each.
CAMPAIGN_REQUESTS = 250

#: Seeds per trials pass, and the batch size of the batched pass.
TRIALS = 8000
BATCH = 64

#: The resume grid: 7 protectors plus the unprotected baseline, times 8
#: faults, is 64 cells; the interrupted run stops after half the shards.
GRID_REQUESTS = 24
SHARDS = 16
HALF = SHARDS // 2


class CheckFailed(Exception):
    """An operation's output differs from its reference."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def nvp_trial(seed: int) -> dict:
    """One request against three independently failing versions (the
    paper's 2k+1 claim at k=1): majority voting survives at most one
    failure.  Cheap on purpose, so the harness's per-trial overhead
    dominates the trials stage."""
    rng = random.Random(seed)
    failures = sum(rng.random() < 0.1 for _ in range(3))
    return {"nvp_ok": 1.0 if failures <= 1 else 0.0,
            "failures": float(failures)}


class Accounting:
    """Running totals of the result-store and shard counters of the
    operations, for the ledger; a store with skipped (corrupt) log lines
    fails the operation that used it."""

    STORE = ("hits", "misses", "bytes_read", "bytes_written",
             "corrupt_lines")
    SHARDS = ("shards_served", "shards_executed", "deltas_folded")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.STORE + self.SHARDS, 0)

    def store(self, store: ResultStore) -> None:
        stats = store.stats()
        for name in self.STORE:
            self.counts[name] += stats[name]
        check(stats["corrupt_lines"] == 0,
              f"store {store.path} skipped {stats['corrupt_lines']} lines")

    def shards(self, sharded: ShardedCampaign) -> None:
        for name in self.SHARDS:
            self.counts[name] += getattr(sharded.stats, name)


class CampaignStage:
    """The 16-cell demo matrix of ``repro campaign``, run in process:
    the text path (telemetry off) and the ``--format json`` report path
    (a telemetry session with an SLI monitor attached)."""

    name = "campaign"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        base = ["campaign", "--requests", str(CAMPAIGN_REQUESTS),
                "--seed", str(seed)]
        self.text_argv = base
        self.json_argv = base + ["--format", "json"]
        self.cells = 0

    def size(self) -> str:
        return (f"{self.cells} cells x {CAMPAIGN_REQUESTS} requests, "
                f"campaign seed {self.seed}")

    def prepare(self) -> None:
        """Run both paths once with the cells captured: they must agree
        cell for cell, and their bytes become the reference."""
        captured = []
        original = FaultCampaign.run

        def capture(campaign):
            cells = original(campaign)
            captured.append(list(cells))
            return cells

        FaultCampaign.run = capture
        try:
            text = _cli(self.text_argv)
            document = _cli(self.json_argv)
        finally:
            FaultCampaign.run = original
        plain, observed = captured
        check(plain == observed, "telemetry changed the campaign cells")
        check(json.loads(document)["cells"] ==
              [dataclasses.asdict(cell) for cell in observed],
              "the json report does not carry the measured cells")
        self.cells = len(plain)
        self.reference = (text, document)

    def run_op(self, timer, accounting: Accounting) -> None:
        text = timer("campaign.off", lambda: _cli(self.text_argv))
        document = timer("campaign.on", lambda: _cli(self.json_argv))
        check(text == self.reference[0], "text report bytes changed")
        check(document == self.reference[1], "json report bytes changed")

    def metrics(self, median) -> dict:
        work = self.cells * CAMPAIGN_REQUESTS
        return {"campaign_rps": work / median("campaign.off"),
                "campaign_observed_rps": work / median("campaign.on")}


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(list(argv))
    check(status == 0, f"repro {' '.join(argv)} exited {status}")
    return out.getvalue()


class TrialsStage:
    """An :class:`Experiment` of :func:`nvp_trial` on a warm process
    pool, with a fresh result store per pass: the scalar path, then the
    batch kernel (twice)."""

    name = "trials"

    def __init__(self, seed: int, workdir: str, workers: int) -> None:
        self.seeds = tuple(range(seed, seed + TRIALS))
        self.workdir = workdir
        self.workers = workers
        self._paths = itertools.count()
        # The pool's workers do much of the work, on the other CPUs, so
        # the pass is scaled by their speed as well as this process's.
        self.yardstick = functools.partial(pooled_reference_time, workers)

    def size(self) -> str:
        return (f"{TRIALS} seeds from {self.seeds[0]}, batch {BATCH}, "
                f"{self.workers} process workers")

    def prepare(self) -> None:
        self.reference = _canonical(
            Experiment("reference", nvp_trial, self.seeds).summary())

    def _pass(self, **knobs):
        """One experiment on a fresh store; returns (summary, store)."""
        path = os.path.join(self.workdir, f"trials-{next(self._paths)}.jsonl")
        store = ResultStore(path, name="trials")
        experiment = Experiment("trials", nvp_trial, self.seeds,
                                workers=self.workers, backend="process",
                                store=store, **knobs)
        results = (experiment.run_batches() if "batch" in knobs
                   else experiment.run())
        return experiment.summary(results), store

    def run_op(self, timer, accounting: Accounting) -> None:
        # Two batched passes to the scalar one: a batched pass is a third
        # as long and pool scheduling makes it noisier, so it needs more
        # samples for a steady median.
        for label, knobs in (("trials.scalar", {}),
                             ("trials.batched", {"batch": BATCH}),
                             ("trials.batched", {"batch": BATCH})):
            summary, store = timer(label, lambda: self._pass(**knobs),
                                   self.yardstick)
            accounting.store(store)
            os.unlink(store.path)
            check(_canonical(summary) == self.reference,
                  f"{label} summary differs from the serial reference")

    def metrics(self, median) -> dict:
        return {"trials_tps": TRIALS / median("trials.scalar"),
                "batched_tps": TRIALS / median("trials.batched")}


def _canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


def _oracle(x):
    return x + 1


def _nvp(versions):
    def protector(faulty, env):
        healthy = diverse_versions(_oracle, versions - 1, 0.0, seed=1)
        injected = Version("injected", impl=lambda x: faulty(x, env=env))
        nvp = NVersionProgramming([injected, *healthy])
        return lambda x: nvp.execute(x, env=env)
    return protector


def _recovery_blocks(faulty, env):
    rb = RecoveryBlocks(
        [Version("primary", impl=lambda x: faulty(x, env=env)),
         Version("alternate", impl=_oracle)],
        PredicateAcceptanceTest(lambda a, v: v == _oracle(a[0])))
    return lambda x: rb.execute(x)


def _rx(faulty, env):
    return EnvironmentPerturbation(
        lambda x, env=None: faulty(x, env=env), env).execute


def _retry(attempts):
    def protector(faulty, env):
        def call(x):
            for attempt in range(attempts):
                try:
                    return faulty(x, env=env)
                except Exception:
                    if attempt == attempts - 1:
                        raise
        return call
    return protector


def resume_grid(seed: int) -> FaultCampaign:
    """The 64-cell resume grid (the baseline is added by the campaign)."""
    return FaultCampaign(
        {"N-version (3)": _nvp(3), "N-version (5)": _nvp(5),
         "recovery blocks": _recovery_blocks, "RX perturbation": _rx,
         "retry-2": _retry(2), "retry-3": _retry(3), "retry-5": _retry(5)},
        {"Bohrbug": lambda: Bohrbug("b", region=InputRegion(0, 10 ** 9)),
         "Bohrbug-low": lambda: Bohrbug("bl", region=InputRegion(0, 8)),
         "Heisenbug-0.2": lambda: Heisenbug("h2", probability=0.2),
         "Heisenbug-0.5": lambda: Heisenbug("h5", probability=0.5),
         "Heisenbug-0.8": lambda: Heisenbug("h8", probability=0.8),
         "overflow": lambda: OverflowBug("o", overflow_cells=4,
                                         trigger_modulo=1),
         "load-0.5": lambda: LoadBug("l5", probability=0.5),
         "load-0.9": lambda: LoadBug("l9", probability=0.9)},
        oracle=_oracle, requests=GRID_REQUESTS, seed=seed)


class ResumeStage:
    """A :class:`ShardedCampaign` over the resume grid with a quiet
    checkpoint store: interrupted after half the shards (once per run),
    resumed to completion, then replayed whole from the full store."""

    name = "resume"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.campaign = resume_grid(seed)
        self.workdir = workdir
        self._paths = itertools.count()

    def size(self) -> str:
        cells = len(self.campaign.pairs())
        return (f"{cells} cells x {GRID_REQUESTS} requests in {SHARDS} "
                f"shards, grid seed {self.seed}")

    def prepare(self) -> None:
        """The uninterrupted report without a store, and the checkpoint
        log of one run interrupted after half the shards, which every
        operation resumes a copy of."""
        self.reference = _report(ShardedCampaign(self.campaign, SHARDS))
        self.half_log = os.path.join(self.workdir, "resume-half.jsonl")
        _, interrupted, store = self._run(self.half_log, max_shards=HALF)
        check(store.corrupt_lines == 0, "the interrupted log is corrupt")
        check(interrupted.stats.truncated
              and interrupted.stats.shards_executed == HALF,
              "the interrupted run did not stop after half the shards")

    def _run(self, path, **knobs):
        """One sharded run on the checkpoint log at ``path``; returns
        (report, sharded run, store)."""
        store = ResultStore(path, name="resume", quiet=True)
        sharded = ShardedCampaign(self.campaign, SHARDS, store=store,
                                  **knobs)
        return _report(sharded), sharded, store

    def run_op(self, timer, accounting: Accounting) -> None:
        path = os.path.join(self.workdir, f"resume-{next(self._paths)}.jsonl")
        shutil.copyfile(self.half_log, path)
        for label in ("resume.resume", "resume.replay"):
            report, sharded, store = timer(
                label, lambda: self._run(path, resume=True))
            accounting.store(store)
            accounting.shards(sharded)
            check(report == self.reference,
                  f"{label} report differs from the uninterrupted run")
            served = HALF if label == "resume.resume" else SHARDS
            check(sharded.stats.shards_served == served,
                  f"{label} served {sharded.stats.shards_served} shards, "
                  f"not {served}")
        os.unlink(path)

    def metrics(self, median) -> dict:
        return {"resume_s": median("resume.resume"),
                "replay_s": median("resume.replay")}


def _report(sharded: ShardedCampaign) -> str:
    """The campaign report document (cells plus the SLI section), as
    ``repro campaign --format json`` builds it."""
    with observe.session() as telemetry:
        monitor = observe.SliMonitor(telemetry.bus)
        cells = sharded.run()
    document = {"cells": [dataclasses.asdict(cell) for cell in cells],
                "sli": monitor.as_dict()}
    return json.dumps(document, sort_keys=True, indent=2, default=str)
