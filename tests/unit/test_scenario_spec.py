"""Scenario spec compilation: the chaos matrix must fail loudly.

A scenario is plain data, and a typo in that data must never silently
weaken the scenario it describes (PROTOCOLS.md §15).  These tests pin
the validation surface: unknown keys, unknown event types and checks,
bad parameter values, and cross-section references (events naming
machines the topology never builds).
"""

import json

import pytest

from repro.scenario import (
    ScenarioSpecError,
    load_spec,
    spec_from_dict,
)


def minimal(**overrides):
    data = {"name": "t"}
    data.update(overrides)
    return data


# -- shape and defaults ------------------------------------------------------


def test_minimal_spec_gets_defaults():
    spec = spec_from_dict({"name": "t"})
    assert spec.name == "t"
    assert spec.seed == 2026
    assert spec.topology.servers == 1
    assert spec.workload.clients == 4
    assert spec.workload.phases[0].name == "main"
    assert spec.events == ()
    assert spec.assertions == ()


def test_spec_needs_a_name():
    with pytest.raises(ScenarioSpecError, match="needs a name"):
        spec_from_dict({"seed": 7})


def test_spec_must_be_a_mapping():
    with pytest.raises(ScenarioSpecError, match="must be a mapping"):
        spec_from_dict(["not", "a", "dict"])


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioSpecError, match="workloads"):
        spec_from_dict(minimal(workloads={}))  # typo'd section name


def test_unknown_topology_key_rejected():
    with pytest.raises(ScenarioSpecError, match="serverz"):
        spec_from_dict(minimal(topology={"serverz": 3}))


def test_unknown_workload_key_rejected():
    with pytest.raises(ScenarioSpecError, match="think"):
        spec_from_dict(minimal(workload={"think": 0.01}))


def test_non_numeric_field_rejected():
    with pytest.raises(ScenarioSpecError, match="must be a number"):
        spec_from_dict(minimal(topology={"servers": "two"}))


def test_below_minimum_rejected():
    with pytest.raises(ScenarioSpecError, match=">= 1"):
        spec_from_dict(minimal(topology={"servers": 0}))


# -- phases ------------------------------------------------------------------


def test_phase_needs_name_and_ops():
    with pytest.raises(ScenarioSpecError, match="ops_per_client"):
        spec_from_dict(minimal(workload={"phases": [{"name": "p"}]}))


def test_phase_names_must_be_unique():
    phases = [{"name": "p", "ops_per_client": 1},
              {"name": "p", "ops_per_client": 2}]
    with pytest.raises(ScenarioSpecError, match="unique"):
        spec_from_dict(minimal(workload={"phases": phases}))


def test_phase_mix_weights_validated():
    phases = [{"name": "p", "ops_per_client": 1,
               "mix": {"getattr": 0.0, "read": 0.0, "write": 0.0}}]
    with pytest.raises(ScenarioSpecError):
        spec_from_dict(minimal(workload={"phases": phases}))


def test_phase_mix_unknown_op_rejected():
    phases = [{"name": "p", "ops_per_client": 1, "mix": {"readdir": 1.0}}]
    with pytest.raises(ScenarioSpecError, match="readdir"):
        spec_from_dict(minimal(workload={"phases": phases}))


# -- events ------------------------------------------------------------------


def test_unknown_event_type_rejected():
    with pytest.raises(ScenarioSpecError, match="unknown event type"):
        spec_from_dict(minimal(events=[{"at": 0.1, "type": "meteor"}]))


def test_event_needs_a_time():
    with pytest.raises(ScenarioSpecError, match="'at' time"):
        spec_from_dict(minimal(events=[{"type": "crash"}]))


def test_event_unknown_param_rejected():
    events = [{"at": 0.1, "type": "crash", "server": "primary",
               "retry_after": 0.2}]  # typo'd restart_after
    with pytest.raises(ScenarioSpecError, match="retry_after"):
        spec_from_dict(minimal(events=events))


def test_events_sorted_by_time():
    events = [{"at": 0.5, "type": "crash", "server": "primary"},
              {"at": 0.1, "type": "restart", "server": "primary"}]
    spec = spec_from_dict(minimal(events=events))
    assert [event.at for event in spec.events] == [0.1, 0.5]


# -- cross-section references ------------------------------------------------


def test_event_naming_unknown_server_rejected():
    events = [{"at": 0.1, "type": "crash", "server": "s7"}]
    with pytest.raises(ScenarioSpecError, match="unknown server 's7'"):
        spec_from_dict(minimal(events=events))


def test_extra_server_aliases_resolve():
    spec = spec_from_dict(minimal(
        topology={"extra_servers": 2, "kernel_clients": 1, "names": 1},
        events=[{"at": 0.1, "type": "crash", "server": "x1"}],
    ))
    assert spec.events[0].params["server"] == "x1"


def test_control_tick_needs_a_control_plane():
    events = [{"at": 0.1, "type": "control_tick"}]
    with pytest.raises(ScenarioSpecError, match="topology.control"):
        spec_from_dict(minimal(events=events))


def test_revoke_needs_targets():
    events = [{"at": 0.1, "type": "revoke"}]
    with pytest.raises(ScenarioSpecError, match="extra_servers"):
        spec_from_dict(minimal(events=events))


def test_crash_point_on_unknown_server_rejected():
    topology = {"crash_points": [
        {"server": "ghost", "point": "lease-fanout"}]}
    with pytest.raises(ScenarioSpecError, match="ghost"):
        spec_from_dict(minimal(topology=topology))


def test_mirrors_need_names():
    with pytest.raises(ScenarioSpecError, match="no namespace to mirror"):
        spec_from_dict(minimal(topology={"mirrors": 1,
                                         "kernel_clients": 1}))


def test_names_need_kernel_clients():
    with pytest.raises(ScenarioSpecError, match="kernel_clients"):
        spec_from_dict(minimal(topology={"names": 1}))


def test_link_profile_for_unknown_host_rejected():
    with pytest.raises(ScenarioSpecError, match="unknown host"):
        spec_from_dict(minimal(links={"nowhere": {"latency": 0.01}}))


def test_link_profile_unknown_knob_rejected():
    with pytest.raises(ScenarioSpecError, match="jitter"):
        spec_from_dict(minimal(links={"primary": {"jitter": 0.01}}))


# -- assertions --------------------------------------------------------------


def test_unknown_check_rejected():
    with pytest.raises(ScenarioSpecError, match="unknown check"):
        spec_from_dict(minimal(assertions=[{"check": "vibes"}]))


def test_assertion_unknown_param_rejected():
    assertions = [{"check": "drain", "strict": True}]
    with pytest.raises(ScenarioSpecError, match="strict"):
        spec_from_dict(minimal(assertions=assertions))


def test_drain_reports_a_failed_task_readably():
    """A non-daemon task that raised fails ``drain`` with its exception,
    instead of the check itself dying on an attribute Task lacks."""
    from types import SimpleNamespace

    from repro.scenario.assertions import CHECKS
    from repro.sim.clock import Clock
    from repro.sim.sched import Scheduler, Sleep

    scheduler = Scheduler(Clock(), seed=0)

    def boom():
        yield Sleep(0.01)
        raise ValueError("disk on fire")

    scheduler.spawn(boom(), name="writer")
    scheduler.spawn(boom(), name="helper", daemon=True)
    runtime = SimpleNamespace(blocked=scheduler.run(), scheduler=scheduler)
    failures = CHECKS["drain"].fn(runtime, {})
    assert failures == ["task 'writer' died: ValueError('disk on fire')"]


# -- file loading ------------------------------------------------------------


def test_load_spec_roundtrips_json(tmp_path):
    data = minimal(
        seed=7,
        topology={"servers": 2},
        events=[{"at": 0.1, "type": "crash", "server": "s1",
                 "restart_after": 0.05}],
        assertions=[{"check": "drain"}],
    )
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    spec = load_spec(str(path))
    assert spec.seed == 7
    assert spec.topology.servers == 2
    assert spec.events[0].params == {"server": "s1", "restart_after": 0.05}
    assert spec.assertions[0].check == "drain"


def test_load_spec_bad_json_is_a_spec_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioSpecError):
        load_spec(str(path))


def test_shipped_library_loads_and_validates():
    from repro.scenario import load_library

    library = load_library()
    assert len(library) >= 6
    for name, spec in library.items():
        assert spec.name == name
        assert spec.assertions, f"{name} asserts nothing"
