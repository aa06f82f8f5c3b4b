"""Golden bytes of the enabled telemetry path.

The digests below were recorded before the observe hot path was
reworked (per-topic bus routes, bound counter handles, slotted spans,
tuple flight-recorder records).  Every one of those changes is meant to
make telemetry cheaper without changing a byte of what it produces, so
this module is the oracle for that promise: the demo campaign's JSON
report, and one traced session's span JSONL, Prometheus dump, bus
snapshot and flight-recorder dump, must hash exactly as they did.

If a deliberate output change lands, regenerate the digests with
``PYTHONPATH=src python tests/unit/test_observe_golden.py`` and say
why in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from repro import observe
from repro.cli import main
from repro.observe.flightrec import FlightRecorder

#: Scenarios folded into the golden session (``lint`` is left out: its
#: counts follow the package's own source, which changes with edits).
SCENARIOS = ("nvp", "recovery-blocks", "self-checking", "microreboot",
             "checkpoint", "replicas", "rejuvenation")
REQUESTS = 25
SEED = 7

GOLDEN = {
    "campaign_json":
        "41f66cc3bc02b8744cd4947accfd4392e54bab8df5d65e5cc3d1d2b7d3c15c73",
    "session.spans":
        "39b5baadb6939834557e1fda1978e91264056091a12943af62e0b04dafea4716",
    "session.prometheus":
        "8804a4d4a10943ab2569d8cde7c35a2e7636c3ba81c2c82d42376f7feea1cf3c",
    "session.events":
        "fc29f4ed79fe609ddf2eba291841255c7f45db795133c93b5bc2857efcf83c72",
    "session.flightrec":
        "007c4044dededfd99d21b2de0913ae0092006647c8257249ded7e4e0704dd735",
    "merged.spans":
        "39b5baadb6939834557e1fda1978e91264056091a12943af62e0b04dafea4716",
    "merged.prometheus":
        "8804a4d4a10943ab2569d8cde7c35a2e7636c3ba81c2c82d42376f7feea1cf3c",
    "merged.events":
        "fc29f4ed79fe609ddf2eba291841255c7f45db795133c93b5bc2857efcf83c72",
    "merged.delivered":
        "6d70bb7633fc903645dac232e24bd32129099c645e57015b331e3c2dc1847564",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _flightrec_bytes(recorder: FlightRecorder) -> str:
    """``dump_jsonl`` with the recording pid zeroed (the only field that
    differs between processes)."""
    header, *records = recorder.dump_jsonl("golden", case=SEED).split("\n")
    document = json.loads(header)
    document["flightrec"]["pid"] = 0
    return "\n".join([json.dumps(document, sort_keys=True), *records])


def _outputs(tel) -> dict:
    return {
        "spans": _sha(tel.tracer.export_jsonl()),
        "prometheus": _sha(tel.metrics.render_prometheus()),
        "events": _sha(json.dumps(tel.bus.snapshot(), sort_keys=True)),
    }


def session_digests() -> dict:
    """Digests of one traced session over :data:`SCENARIOS`, and of a
    fresh session that merged its snapshot (subscribers attached, so
    the merge redelivers every retained event)."""
    from repro.harness.scenarios import SCENARIOS as REGISTRY

    recorder = FlightRecorder(capacity=512)
    with observe.session() as tel:
        recorder.attach(tel)
        for name in SCENARIOS:
            REGISTRY[name](REQUESTS, SEED)
    out = {f"session.{key}": value for key, value in _outputs(tel).items()}
    out["session.flightrec"] = _sha(_flightrec_bytes(recorder))

    merged = observe.Telemetry()
    monitor = observe.SliMonitor(merged.bus)
    seen = []
    subscriptions = [merged.bus.subscribe(topic, lambda e: seen.append(
        (e.topic, e.seq)))
        for topic in ("*", "unit.*", "fault.injected", "reboot")]
    merged.merge(tel.snapshot())
    out.update({f"merged.{key}": value
                for key, value in _outputs(merged).items()})
    out["merged.delivered"] = _sha(json.dumps(
        [seen, [s.delivered for s in subscriptions],
         json.loads(json.dumps(monitor.as_dict(), sort_keys=True,
                               default=str))],
        sort_keys=True, default=str))
    return out


def campaign_digest() -> str:
    """Digest of ``repro campaign --format json --requests 40 --seed 7``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["campaign", "--format", "json", "--requests", "40",
                     "--seed", str(SEED)]) == 0
    return _sha(out.getvalue())


def test_campaign_json_report_bytes():
    assert campaign_digest() == GOLDEN["campaign_json"]


def test_session_outputs_bytes():
    digests = session_digests()
    assert digests == {key: value for key, value in GOLDEN.items()
                       if key != "campaign_json"}


if __name__ == "__main__":  # pragma: no cover - digest regeneration
    print(json.dumps({"campaign_json": campaign_digest(),
                      **session_digests()}, indent=4))
