"""Canonical traced workloads for ``repro trace`` and ``repro metrics``.

Each scenario is a small, seeded, self-contained workload over one (or
several) techniques, built so that running it inside a telemetry
session produces a representative trace: nested spans down to
``unit.run``/``adjudicate``, fault-injection events, and a populated
metrics registry.  Scenarios bind the installed telemetry session to
their environment's virtual clock, so span timestamps are virtual time.

The mapping from scenario name to the experiment it miniaturises:

* ``nvp`` / ``recovery-blocks`` / ``self-checking`` — the C3
  cost/efficacy trio, individually;
* ``c3`` — all three C3 techniques over the same request stream;
* ``microreboot`` — the C5 crash/reboot loop;
* ``checkpoint`` — C13 checkpoint-recovery over a faulty step sequence;
* ``replicas`` — C7 process replicas under an attack mix;
* ``rejuvenation`` — C4-style scheduled rejuvenation under aging load;
* ``lint`` — the static analyser over repro's own source, so lint
  runs surface in ``repro metrics`` like any other workload.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro import observe

#: ``scenario(requests, seed) -> {metric: value}`` registry, populated
#: by :func:`_scenario`.
SCENARIOS: Dict[str, Callable[[int, int], Dict[str, Any]]] = {}


def _scenario(name: str):
    def register(func):
        SCENARIOS[name] = func
        return func
    return register


def run_scenario_task(task) -> Dict[str, Any]:
    """Pool task: run one scenario from a ``(name, requests, seed)``
    triple and return ``{"scenario": name, **metrics}``.

    Module-level and closure-free, so ``repro report --workers N``
    can fan scenarios out over a process pool; each worker's telemetry
    (spans, metrics, SLI-feeding events) rides home on the pool's
    snapshot/merge protocol.
    """
    name, requests, seed = task
    metrics = SCENARIOS[name](requests, seed)
    return {"scenario": name, **metrics}


def _oracle(x):
    return x * 3


def _rename_pattern(technique, name: str) -> None:
    """Label a technique's pattern (spans and stats-fed metrics) by
    scenario name instead of the generic engine class name."""
    technique.pattern.name = name
    technique.pattern.stats.owner = name


def _bind_env(seed: int):
    from repro.environment import SimEnvironment

    env = SimEnvironment(seed=seed)
    tel = observe.current()
    if tel.enabled:
        tel.bind_clock(env.clock)
    return env


@_scenario("nvp")
def nvp_scenario(requests: int, seed: int) -> Dict[str, Any]:
    """3-version programming with majority voting (Figure 1a)."""
    from repro.components.library import diverse_versions
    from repro.exceptions import RedundancyError
    from repro.techniques.nvp import NVersionProgramming

    env = _bind_env(seed)
    nvp = NVersionProgramming(
        diverse_versions(_oracle, 3, 0.1, seed=seed))
    _rename_pattern(nvp, "nvp")
    correct = 0
    for x in range(requests):
        try:
            correct += nvp.execute(x, env=env) == _oracle(x)
        except RedundancyError:
            pass
    return {"requests": requests, "correct": correct,
            **nvp.stats.as_dict()}


@_scenario("recovery-blocks")
def recovery_blocks_scenario(requests: int, seed: int) -> Dict[str, Any]:
    """Recovery blocks guarded by an oracle acceptance test (Figure 1c)."""
    from repro.adjudicators.acceptance import PredicateAcceptanceTest
    from repro.components.library import diverse_versions
    from repro.exceptions import RedundancyError
    from repro.techniques.recovery_blocks import RecoveryBlocks

    env = _bind_env(seed)
    rb = RecoveryBlocks(
        diverse_versions(_oracle, 3, 0.1, seed=seed),
        PredicateAcceptanceTest(lambda args, v: v == _oracle(args[0]),
                                name="oracle-check"))
    _rename_pattern(rb, "recovery-blocks")
    correct = 0
    for x in range(requests):
        try:
            correct += rb.execute(x, env=env) == _oracle(x)
        except RedundancyError:
            pass
    return {"requests": requests, "correct": correct,
            **rb.stats.as_dict()}


@_scenario("self-checking")
def self_checking_scenario(requests: int, seed: int) -> Dict[str, Any]:
    """Self-checking components — hot spares (Figure 1b)."""
    from repro.adjudicators.acceptance import PredicateAcceptanceTest
    from repro.components.library import diverse_versions
    from repro.exceptions import RedundancyError
    from repro.techniques.self_checking import SelfCheckingProgramming

    env = _bind_env(seed)
    scp = SelfCheckingProgramming.with_acceptance_tests(
        diverse_versions(_oracle, 3, 0.1, seed=seed),
        PredicateAcceptanceTest(lambda args, v: v == _oracle(args[0]),
                                name="oracle-check"))
    _rename_pattern(scp, "self-checking")
    correct = 0
    for x in range(requests):
        try:
            correct += scp.execute(x, env=env) == _oracle(x)
        except RedundancyError:
            pass
    return {"requests": requests, "correct": correct,
            **scp.stats.as_dict()}


@_scenario("c3")
def c3_scenario(requests: int, seed: int) -> Dict[str, Any]:
    """The full C3 trio (NVP, recovery blocks, self-checking)."""
    out: Dict[str, Any] = {}
    for name in ("nvp", "recovery-blocks", "self-checking"):
        metrics = SCENARIOS[name](requests, seed)
        out[f"{name}.correct"] = metrics["correct"]
        out[f"{name}.executions"] = metrics["executions"]
        out[f"{name}.adjudication_cost"] = metrics["adjudication_cost"]
    out["requests"] = requests
    return out


@_scenario("microreboot")
def microreboot_scenario(requests: int, seed: int) -> Dict[str, Any]:
    """A crashing component recovered by micro-reboots (C5)."""
    from repro.components.component import RestartableComponent
    from repro.environment import SimEnvironment
    from repro.faults.development import Heisenbug
    from repro.techniques.microreboot import MicroReboot, ModularApplication

    env = _bind_env(seed)

    def handler(component, request, _env):
        component.state["served"] = component.state.data.get("served", 0) + 1
        return component.state["served"]

    cart = RestartableComponent(
        "cart", handler, initializer=lambda: {"served": 0},
        faults=[Heisenbug("cart-crash", probability=0.08)],
        restart_cost=SimEnvironment.MICRO_REBOOT_COST)
    catalog = RestartableComponent(
        "catalog", handler, initializer=lambda: {"served": 0},
        restart_cost=SimEnvironment.MICRO_REBOOT_COST)
    manager = MicroReboot(ModularApplication([cart, catalog]), env=env,
                          scope="micro")
    for i in range(requests):
        manager.handle("cart", i)
        manager.handle("catalog", i)
    return {"requests": manager.stats.requests,
            "served": manager.stats.served,
            "reboots": manager.stats.reboots,
            "downtime": manager.stats.downtime,
            "virtual_time": env.clock.now}


@_scenario("checkpoint")
def checkpoint_scenario(requests: int, seed: int) -> Dict[str, Any]:
    """Checkpoint-recovery over Heisenbug-prone steps (C13)."""
    from repro.exceptions import HeisenbugFailure
    from repro.techniques.checkpoint_recovery import CheckpointRecovery

    env = _bind_env(seed)

    def step(step_env):
        step_env.do_work(1.0)
        if step_env.chance(0.05):
            raise HeisenbugFailure("transient step failure")

    recovery = CheckpointRecovery(env, interval=5)
    report = recovery.run([step] * requests)
    return {"steps": requests, "completed": report.completed,
            "steps_done": report.steps_done,
            "rollbacks": report.rollbacks,
            "checkpoints": recovery.total_checkpoints,
            "virtual_time": report.virtual_time}


@_scenario("replicas")
def replicas_scenario(requests: int, seed: int) -> Dict[str, Any]:
    """Process replicas serving a benign/attack mix (C7)."""
    from repro.harness.workload import attack_mix
    from repro.techniques.process_replicas import ProcessReplicas

    _bind_env(seed)
    replicas = ProcessReplicas(variants=2)
    attacks = max(1, requests // 10)
    detections = 0
    for request in attack_mix(benign=requests - attacks, attacks=attacks,
                              seed=seed):
        verdict = replicas.serve_verdict(request)
        detections += verdict.attack_detected
    return {"requests": replicas.requests, "attacks": attacks,
            "detections": detections}


@_scenario("lint")
def lint_scenario(requests: int, seed: int) -> Dict[str, Any]:
    """Self-lint: the static analyser over repro's own package.

    A lint run is already deterministic, so ``requests`` and ``seed``
    are accepted for the scenario contract but unused.  The engine
    feeds the installed telemetry session (files scanned, findings per
    rule, suppressions, duration), making ``repro metrics lint`` the
    observability surface for static analysis.
    """
    import os

    import repro
    from repro.lint import build_engine

    report = build_engine().run(
        [os.path.dirname(os.path.abspath(repro.__file__))])
    severities = report.counts_by_severity()
    return {"files": report.files,
            "findings": len(report.findings),
            "pragma_suppressed": report.pragma_suppressed,
            **{f"severity.{name}": count
               for name, count in sorted(severities.items())},
            **{f"rule.{rule}": count
               for rule, count in report.counts_by_rule().items()}}


@_scenario("rejuvenation")
def rejuvenation_scenario(requests: int, seed: int) -> Dict[str, Any]:
    """Scheduled rejuvenation under aging load (C4)."""
    from repro.exceptions import AgingFailure
    from repro.faults.development import AgingBug
    from repro.faults.injector import FaultyFunction
    from repro.techniques.rejuvenation import Rejuvenation, RejuvenationPolicy

    env = _bind_env(seed)
    service = FaultyFunction(
        _oracle, faults=[AgingBug("slow-leak", max_probability=0.5,
                                  age_to_saturation=50.0)],
        name="aging-service", cost=1.0)
    rejuvenation = Rejuvenation(env, RejuvenationPolicy(max_age=30.0))
    failures = 0
    for x in range(requests):
        rejuvenation.maybe_rejuvenate()
        try:
            service(x, env=env)
        except AgingFailure:
            failures += 1
    return {"requests": requests, "failures": failures,
            "rejuvenations": rejuvenation.rejuvenations,
            "virtual_time": env.clock.now}
