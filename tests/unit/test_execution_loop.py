"""The harness's one execution loop: ``cached_map``, the shared pool
dispatch, and per-run source digests.

``cached_map`` is the only compute-on-miss loop over a result store
(experiments, batched experiments, campaign matrices, single cells and
``get_or_call`` all go through it); ``dispatch`` is the only "inline or
pooled" decision; ``CodeDigests`` reads each source once per run.
"""

import collections
import inspect

from repro import observe
from repro.environment import SimEnvironment
from repro.harness.experiment import Experiment
from repro.harness.shard import ShardedCampaign
from repro.observe.stream import TelemetryStream
from repro.runtime.store import ResultStore, cached_map
from tests.unit.test_parallel_harness import CAMPAIGN_KWARGS
from tests.unit.test_shard import build_campaign

#: Pool self-metrics are backend-dependent by design; the byte-identity
#: contract covers the workload series only.
EXCLUDE = ("repro_runtime_",)


def _key(unit):
    return f"unit-{unit}"


def _meta(unit):
    return {"task": "unit", "seed": unit}


class Recorder:
    """A ``run`` that doubles its units and records every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, units):
        self.calls.append(list(units))
        return [unit * 2 for unit in units]


def counted(store):
    """Count ``get_many`` / ``put_many`` calls on one store."""
    counts = collections.Counter()
    for name in ("get_many", "put_many"):
        method = getattr(store, name)

        def wrapper(*args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)
        setattr(store, name, wrapper)
    return counts


class TestCachedMap:
    def test_no_store_passes_through(self):
        run = Recorder()
        units = [3, 1, 2]
        assert cached_map(None, units, _key, run, _meta) == [6, 2, 4]
        assert run.calls == [[3, 1, 2]]

    def test_partial_hits_keep_unit_order(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.put(_key(2), "stored-2")
        store.put(_key(4), "stored-4")
        run = Recorder()
        out = cached_map(store, [1, 2, 3, 4, 5], _key, run, _meta)
        assert out == [2, "stored-2", 6, "stored-4", 10]
        assert run.calls == [[1, 3, 5]]
        assert store.get(_key(3)) == 6

    def test_duplicate_units_all_run_and_first_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        run = Recorder()
        assert cached_map(store, [7, 7, 8], _key, run, _meta) == [14, 14, 16]
        assert run.calls == [[7, 7, 8]]
        stats = store.stats()
        assert (stats["writes"], stats["entries"]) == (3, 2)

    def test_run_is_not_called_when_every_unit_hits(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        cached_map(store, [1, 2], _key, Recorder(), _meta)
        run = Recorder()
        assert cached_map(store, [2, 1], _key, run, _meta) == [4, 2]
        assert run.calls == []
        assert store.stats()["writes"] == 2

    def test_empty_units_write_nothing(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        run = Recorder()
        assert cached_map(store, [], _key, run, _meta) == []
        assert run.calls == []
        assert store.stats()["writes"] == 0
        assert not path.exists()

    def test_one_get_many_and_one_put_many_per_call(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.put(_key(1), 2)
        counts = counted(store)
        before = store.puts_batched
        cached_map(store, [0, 1, 2, 3], _key, Recorder(), _meta)
        assert counts == {"get_many": 1, "put_many": 1}
        assert store.puts_batched - before == 3
        cached_map(store, [0, 1, 2, 3], _key, Recorder(), _meta)
        assert counts == {"get_many": 2, "put_many": 2}
        assert store.puts_batched - before == 3

    def test_records_carry_meta_fields(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        cached_map(store, [5], _key, Recorder(),
                   lambda unit: {"task": "t", "seed": unit, "trials": 4})
        assert store.stats()["trials_stored"] == 4
        fresh = ResultStore(tmp_path / "s.jsonl")
        assert fresh.get(_key(5)) == 10
        assert fresh.stats()["trials_served"] == 4


# -- the shared dispatch ------------------------------------------------


def stream_trial(seed):
    """A telemetry-rich pure trial with dyadic costs only."""
    env = SimEnvironment(seed=seed)
    tel = observe.current()
    if tel.enabled:
        tel.bind_clock(env.clock)
        tel.count("loop_trials_total")
        with tel.span("loop.trial", cost=1.0):
            tel.publish("loop.tick", seed=seed)
            env.clock.advance(0.5)
    return {"value": float(seed * 2)}


def _workload(tel):
    """The workload series of one session (pool self-metrics aside)."""
    return (tel.metrics.render_prometheus(exclude=EXCLUDE),
            [span.to_dict() for span in tel.tracer.spans],
            [(e.topic, e.time, e.seq, e.payload) for e in tel.bus.history])


class TestDispatch:
    def test_inline_run_batches_keeps_its_stream(self):
        def run(stream):
            experiment = Experiment(name="e", trial=stream_trial,
                                    seeds=range(8), batch=4, stream=stream)
            with observe.session() as tel:
                batches = experiment.run_batches()
            return experiment, batches, tel

        live = observe.Telemetry()
        streamed, batches, tel = run(TelemetryStream(every=1, live=live))
        plain, plain_batches, plain_tel = run(None)
        assert streamed.pool_stats.streamed_chunks == 1
        # One delta per batch (every=1 item) plus the final tail delta.
        assert streamed.pool_stats.deltas_merged == 3
        assert plain.pool_stats is None
        assert repr(batches) == repr(plain_batches)
        assert _workload(tel) == _workload(plain_tel)
        assert live.metrics.value("loop_trials_total") == 8


# -- per-run source digests ---------------------------------------------


def count_getsource(monkeypatch):
    """Count ``inspect.getsource`` calls per callable."""
    counts = collections.Counter()
    real = inspect.getsource

    def getsource(obj):
        counts[(getattr(obj, "__module__", None),
                getattr(obj, "__qualname__", repr(obj)))] += 1
        return real(obj)
    monkeypatch.setattr(inspect, "getsource", getsource)
    return counts


class TestSourceDigestsPerRun:
    def test_store_backed_campaign_reads_each_source_once(
            self, tmp_path, monkeypatch):
        from repro.harness.campaign import FaultCampaign

        counts = count_getsource(monkeypatch)
        store = ResultStore(tmp_path / "c.jsonl")
        cells = FaultCampaign(**CAMPAIGN_KWARGS, store=store).run()
        assert len(cells) == 4
        assert counts and max(counts.values()) == 1, counts

    def test_checkpointed_sharded_campaign_reads_each_source_once(
            self, tmp_path, monkeypatch):
        counts = count_getsource(monkeypatch)
        store = ResultStore(tmp_path / "c.jsonl", quiet=True)
        sharded = ShardedCampaign(build_campaign(), shards=3, store=store)
        assert len(sharded.run()) == 6
        assert sharded.stats.shards_checkpointed == 3
        assert counts and max(counts.values()) == 1, counts
