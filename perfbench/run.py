"""The repository benchmark: campaign, trials and resume workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 35 --trace 0

Every run measures all three stages of :mod:`stages`, because every run
reports every end-to-end metric; the workload names the stage that gets
half of the run's operations.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs each operation untraced and then traced and
prints the per-layer ledger of :mod:`ledger`.  The last line of standard
output is one JSON object; the exit status is 1 when any check failed.
See NOTES.md in this directory.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from yardstick import REFERENCE_S, reference_time, timed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

STAGES = ("campaign", "trials", "resume")

#: See :func:`steady_exec`.
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000

#: Printed after a metric's unit.
REMARKS = {"pmap.pickled_bytes": " (computed from the pickled sizes of "
                                 "the task, items and results)"}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

IMPORT_PROBE = ("import time; start = time.perf_counter(); import repro; "
                "print(time.perf_counter() - start)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=STAGES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Timer:
    """Times passes by label.

    Before each pass the garbage collector runs, so every pass starts
    from the same collector state, and the reference time is taken just
    before and just after it (by default :func:`reference_time`; a pass
    spread over the pool passes :func:`pooled_reference_time`).
    :meth:`median` reports a pass's time scaled to a host whose
    reference time is ``REFERENCE_S``: on a shared host whose speed
    drifts by a quarter within seconds, that cancels most of the drift.
    With a ledger, each pass is an operation id of its spans.
    """

    def __init__(self, ledger=None) -> None:
        self.ledger = ledger
        self.samples = collections.defaultdict(list)
        self.scaled = collections.defaultdict(list)

    def __call__(self, label, fn, reference=reference_time):
        gc.collect()
        before = reference()
        if self.ledger is not None:
            self.ledger.begin_pass(label)
        value, seconds = timed(fn)
        if self.ledger is not None:
            self.ledger.end_pass()
        after = reference()
        self.samples[label].append(seconds)
        self.scaled[label].append(seconds * 2 * REFERENCE_S
                                  / (before + after))
        return value

    def median(self, label) -> float:
        return statistics.median(self.scaled[label])

    def total(self, which="samples") -> float:
        """Measured (or ``"scaled"``) seconds over every pass."""
        return sum(sum(values) for values in getattr(self, which).values())

    def scale(self, label=None) -> float:
        """Scaled over measured seconds, of one label or of all."""
        if label is None:
            return self.total("scaled") / self.total()
        return sum(self.scaled[label]) / sum(self.samples[label])


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    ``(percent, value)``, or ``None`` below eleven samples."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    rank = len(ordered) - 11
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def describe(label, samples, scaled) -> str:
    """One timing line: the measured median, the tail percentile and the
    sample count, then the median scaled to the reference host."""
    line = (f"  {label:<20} n={len(samples):<3} "
            f"median={statistics.median(samples):.6f} s")
    found = tail(samples)
    line += (f"  p{found[0]:.1f}={found[1]:.6f} s" if found is not None
             else "  (no tail: under 11 samples)")
    return line + f"  scaled median={statistics.median(scaled):.6f} s"


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its live children (the
    pool workers), from ``VmHWM``."""
    def hwm_kib(pid):
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    pids = [os.getpid()]
    pids += [child.pid for child in multiprocessing.active_children()]
    return sum(hwm_kib(pid) for pid in pids) / 1024.0


def build_stages(seed, workdir, workers):
    """Derive each stage's inputs from the one seed: the campaign seed,
    the first seed of the experiment's range and the shard grid seed."""
    import stages

    rng = random.Random(seed)
    return {
        "campaign": stages.CampaignStage(rng.randrange(1, 10 ** 6)),
        "trials": stages.TrialsStage(rng.randrange(1, 10 ** 9), workdir,
                                     workers),
        "resume": stages.ResumeStage(rng.randrange(1, 10 ** 6), workdir),
    }


def set_up(args, workdir, workers):
    """Set up ``SETUP_REPEATS`` times: import ``repro`` in a fresh
    interpreter, build the inputs, and spawn and warm a fresh pool.
    Returns the last stages, each part's times scaled like
    :class:`Timer`'s, and the measured and scaled totals."""
    from repro.runtime.pmap import ParallelMap
    from repro.runtime.pool import shutdown_pools
    from stages import nvp_trial

    def prewarm():
        shutdown_pools(wait=True)
        pool = ParallelMap(workers=workers, backend="process")
        pool.prewarm()
        pool.map(nvp_trial, range(workers), chunk_size=1)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timings = collections.defaultdict(list)
    measured = []
    for _ in range(SETUP_REPEATS):
        before = reference_time()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                               cwd=ROOT, env=env, capture_output=True,
                               text=True, check=True, timeout=120)
        built, build_s = timed(
            lambda: build_stages(args.seed, workdir, workers))
        prewarm_s = timed(prewarm)[1]
        scale = 2 * REFERENCE_S / (before + reference_time())
        parts = {"import": float(probe.stdout), "build": build_s,
                 "prewarm": prewarm_s}
        for part, seconds in parts.items():
            timings[part].append(seconds * scale)
        measured.append(sum(parts.values()))
    scaled = [sum(parts) for parts in zip(*timings.values())]
    return built, timings, measured, scaled


def cycle(workload):
    """One round of operations: the workload's stage every other op."""
    others = [name for name in STAGES if name != workload]
    return [workload, others[0], workload, others[1]]


class Run:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, stage, timer, accounting) -> None:
        self.attempted += 1
        try:
            stage.run_op(timer, accounting)
        except Exception:
            self.failed += 1
            print(f"perfbench: {stage.name} operation failed:",
                  file=sys.stderr)
            traceback.print_exc()


def measure(args, built, run):
    """``--trace 0``: operations in ``cycle`` order until the time is up
    (and at least one full cycle)."""
    from stages import Accounting

    timer, accounting = Timer(), Accounting()
    order = cycle(args.workload)
    deadline = time.perf_counter() + args.seconds
    while run.attempted < len(order) or time.perf_counter() < deadline:
        run.op(built[order[run.attempted % len(order)]], timer, accounting)
    return timer


def measure_traced(args, built, run):
    """``--trace 1``: whole cycles until the time is up, each operation
    run untraced and then traced."""
    from ledger import Ledger
    from stages import Accounting

    ledger = Ledger()
    plain, traced = Timer(), Timer(ledger)
    accounting = Accounting()
    cycles = 0
    start = time.perf_counter()
    # Whole cycles only, and none that would end past the time: a
    # traced cycle takes several seconds.
    while cycles == 0 or (time.perf_counter() - start) * (cycles + 1) \
            <= args.seconds * cycles:
        for name in cycle(args.workload):
            run.op(built[name], plain, Accounting())
            ledger.install()
            try:
                run.op(built[name], traced, accounting)
            finally:
                ledger.uninstall()
        cycles += 1
    return ledger, plain, traced, accounting, cycles


def layer_metrics(folded, ledger, plain, traced, accounting, cycles,
                  timings):
    """The per-layer ledger, per cycle of the workload's operations."""
    from ledger import HOOK_LAYER

    sites, layer_self = folded["sites"], folded["layers"]
    # Ledger times are measured seconds of the traced passes; report them
    # scaled like the end-to-end times.
    scale = traced.scale()

    def calls(site, key="calls"):
        return sites.get(site, {}).get(key, 0) / cycles

    def incl(site):
        return sites.get(site, {}).get("incl", 0.0) * scale / cycles

    def own(layer):
        return layer_self.get(layer, 0.0) * scale / cycles

    counts = accounting.counts
    unit_runs = sum(row["calls"] for name, row in sites.items()
                    if row["layer"] == "patterns" and name.endswith(".run"))
    executes = sites.get("RedundancyPattern.execute", {}).get("calls", 0)
    lookups = counts["hits"] + counts["misses"]
    attributed = scale * sum(seconds for layer, seconds in layer_self.items()
                             if layer != HOOK_LAYER)
    return {
        "faults.calls": calls("FaultyFunction.__call__"),
        "faults.raised": calls("FaultyFunction.__call__", "errors"),
        "faults.self_s": own("faults"),
        "environment.self_s": own("environment"),
        "patterns.executes": executes / cycles,
        "patterns.unit_runs": unit_runs / cycles,
        "patterns.runs_per_execute": unit_runs / executes if executes else 0.0,
        "patterns.self_s": own("patterns"),
        "adjudicators.calls": folded["outer"].get("adjudicators", 0) / cycles,
        "adjudicators.self_s": own("adjudicators"),
        "observe.publish_calls": calls("EventBus.publish"),
        "observe.inc_calls": calls("MetricsRegistry.inc"),
        "observe.span_calls": calls("Tracer.start"),
        "observe.self_s": own("observe"),
        "observe.share": own("observe") * cycles / plain.total("scaled"),
        "observe.overhead_ratio": (plain.median("campaign.on")
                                   / plain.median("campaign.off")),
        "observe.merge_calls": calls("Telemetry.merge"),
        "observe.merge_s": incl("Telemetry.merge"),
        "pmap.map_s": incl("ParallelMap.map"),
        "pmap.chunks": ledger.pool["chunks"] / cycles,
        "pmap.serial_retries": ledger.pool["serial_retries"] / cycles,
        "pmap.timeouts": ledger.pool["timeouts"] / cycles,
        "pmap.pickled_bytes": ledger.pickled_bytes / cycles,
        "runtime.self_s": own("runtime"),
        "store.key_s": incl("ResultStore.key"),
        "store.get_many_s": incl("ResultStore.get_many"),
        "store.put_many_s": incl("ResultStore.put_many"),
        "store.refresh_s": incl("ResultStore.refresh"),
        "store.self_s": own("store"),
        "store.hit_ratio": counts["hits"] / lookups if lookups else 0.0,
        "store.bytes_written": counts["bytes_written"] / cycles,
        "store.bytes_read": counts["bytes_read"] / cycles,
        "store.corrupt_lines": counts["corrupt_lines"] / cycles,
        "harness.summarize_s": incl("harness.experiment.summarize"),
        "harness.self_s": own("harness"),
        "shard.plan_s": incl("ShardPlan.build"),
        "shard.shards_served": counts["shards_served"] / cycles,
        "shard.shards_executed": counts["shards_executed"] / cycles,
        "shard.deltas_folded": counts["deltas_folded"] / cycles,
        "cli.self_s": own("cli"),
        "setup.import_s": statistics.median(timings["import"]),
        "setup.prewarm_s": statistics.median(timings["prewarm"]),
        "trace.overhead_s": (traced.total("scaled") - plain.total("scaled"))
                            / cycles,
        "trace.unattributed_s": (plain.total("scaled") - attributed) / cycles,
    }


def trace_workload(args, built, run, timings) -> dict:
    """The traced run: measure, fold and write the spans, print the
    ledger by pass; returns the per-layer metrics."""
    from ledger import LAYERS

    ledger, plain, traced, accounting, cycles = measure_traced(
        args, built, run)
    # The tracing overhead of each label: the traced passes' time less
    # the untraced passes' time at the traced passes' host speed.
    folded = ledger.fold({
        label: sum(seconds * (1 - plain_scaled / traced_scaled)
                   for seconds, plain_scaled, traced_scaled in zip(
                       traced.samples[label], plain.scaled[label],
                       traced.scaled[label]))
        for label in traced.samples})
    path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    written = ledger.write(str(path))
    print(f"traced {cycles} cycles; {written} spans written to {path}")
    print("tracing cost taken back out per span: " + ", ".join(
        f"{label} {cost * 1e9:.0f} ns"
        for label, cost in sorted(folded["span_cost"].items())))
    for label in sorted(traced.samples):
        print(describe(label + " +t", traced.samples[label],
                       traced.scaled[label]))
    print("self seconds per traced pass, by layer (scaled):")
    print(" " * 18 + "".join(f"{layer[:10]:>11}" for layer in LAYERS))
    for label, per_layer in sorted(folded["passes"].items()):
        factor = traced.scale(label) / len(traced.samples[label])
        print(f"  {label:<16}" + "".join(
            f"{per_layer.get(layer, 0.0) * factor:>11.5f}"
            for layer in LAYERS))
    # Is the telemetry-on pass slower because of the observe layer?
    # Compare the layer's self time per traced on-pass with the mean
    # untraced on-minus-off gap, both scaled.
    passes = len(plain.samples["campaign.on"])
    observed = (folded["passes"]["campaign.on"].get("observe", 0.0)
                * traced.scale("campaign.on"))
    gap = sum(plain.scaled["campaign.on"]) - sum(plain.scaled["campaign.off"])
    print(f"campaign: observe self time per traced on-pass "
          f"{observed / passes:.6f} s; untraced on-off gap "
          f"{gap / passes:.6f} s ({observed / gap:.0%})")
    return layer_metrics(folded, ledger, plain, traced, accounting, cycles,
                         timings)


def host() -> str:
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()}"
            f" platform={platform.platform()}")


def steady_exec(argv) -> None:
    """Run this script again, once, with string hashing seeded and
    address-space randomisation off.

    Both are randomised per process by default, and on a 2-CPU host
    they alone moved the program's speed by up to 15% between runs of
    the same inputs.  The program's outputs depend on neither, so every
    run uses the same hash seed and memory layout and runs differ only
    by their inputs and the host.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona >= 0:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass  # not Linux: keep the layout, still fix the hash seed
    script = str(pathlib.Path(__file__).resolve())
    os.execve(sys.executable,
              [sys.executable, script, *(argv or sys.argv[1:])],
              dict(os.environ, PYTHONHASHSEED=HASH_SEED))


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        steady_exec(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro  # noqa: F401 - the untimed first import writes bytecode
    from repro.runtime.pool import shutdown_pools

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        return run_workload(args, spec, workdir)
    finally:
        shutdown_pools(wait=True)
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, spec, workdir) -> int:
    workers = min(2, os.cpu_count() or 1)
    print(host())
    built, timings, setup_measured, setup_scaled = set_up(
        args, workdir, workers)
    run = Run()
    for stage in built.values():
        try:
            stage.prepare()
        except Exception:
            run.failed += 1
            print(f"perfbench: {stage.name} reference failed:",
                  file=sys.stderr)
            traceback.print_exc()
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"order: {' '.join(cycle(args.workload))}")
    for stage in built.values():
        print(f"  {stage.name}: {stage.size()}")
    if run.failed:
        return report(run, {}, spec, "end_to_end")

    if args.trace:
        values = trace_workload(args, built, run, timings)
        return report(run, values, spec, "per_layer")

    timer = measure(args, built, run)
    values = {"setup_s": statistics.median(setup_scaled),
              "peak_rss_mib": peak_rss_mib()}
    for stage in built.values():
        values.update(stage.metrics(timer.median))
    print("timings:")
    for label in sorted(timer.samples):
        print(describe(label, timer.samples[label], timer.scaled[label]))
    print(describe("setup", setup_measured, setup_scaled))
    return report(run, values, spec, "end_to_end")


def report(run, values, spec, kind) -> int:
    """Print every metric of ``kind`` and the closing JSON line."""
    correct = run.failed == 0
    metrics = {}
    if correct:
        for entry in spec[kind]:
            metrics[entry["name"]] = {"value": values[entry["name"]],
                                      "unit": entry["unit"]}
            print(f"  {entry['name']:<26} {values[entry['name']]:.6g} "
                  f"{entry['unit']}{REMARKS.get(entry['name'], '')}")
    print(f"operations: {run.attempted} attempted, {run.failed} failed, "
          f"error_rate {run.failed / max(run.attempted, 1):.6g}")
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
