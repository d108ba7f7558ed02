"""Scheduler: the enabled table picks exactly what the two-pass algorithm
picked, is rebuilt whenever it may be stale, and a test leaves no
reference cycle that keeps its backend alive."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmbt import explorer
from netmbt.efsm import (
    Action,
    ModelInstance,
    Transition,
    define_model,
    enabled_transitions,
)
from netmbt.explorer import EnabledTable, SuiteConfig, pick_next, run_single_test
from netmbt.models import MODEL_REGISTRY
from netmbt.portman import PortPool
from netmbt.rng import SeededRng, derive_seed

NOOP = Action(lambda ctx: None)
WEIGHTS = (0.1, 0.3, 0.5, 1.0, 2.0, 3.0)


def reference_pick(instances, rng):
    """The scheduler before the enabled table: collect the pairs and their
    total, draw once, then walk the running sum to the first one past the
    point."""
    pairs = []
    total = 0.0
    for inst in instances:
        if not inst.alive:
            continue
        for t in enabled_transitions(inst):
            pairs.append((inst, t))
            total += t.weight
    if not pairs:
        return None
    point = (rng.next_u64() / (1 << 64)) * total
    acc = 0.0
    for pair in pairs:
        acc += pair[1].weight
        if point < acc:
            return pair
    return pairs[-1]


class FixedRng:
    """Stands in for SeededRng where a test needs a given draw."""

    def __init__(self, value: int):
        self.value = value

    def next_u64(self) -> int:
        return self.value


def _gate(j):
    return lambda v: v["open"][j]


@st.composite
def instance_sets(draw):
    """Instances with mixed weights, some dead, some with guarded transitions."""
    instances = []
    for k in range(draw(st.integers(0, 6))):
        n = draw(st.integers(0, 6))
        weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n))
        guarded = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        transitions = [
            Transition("s", "s", f"t{j}", NOOP, weight=w, guard=_gate(j) if g else None)
            for j, (w, g) in enumerate(zip(weights, guarded))
        ]
        spec = define_model(f"m{k}", "s", transitions, states=["s", "dead"])
        inst = ModelInstance(k + 1, spec, {"open": draw(st.lists(st.booleans(), min_size=n,
                                                                 max_size=n))})
        if draw(st.booleans()) and draw(st.booleans()):
            inst.current = "dead"
        instances.append(inst)
    return instances


class TestPickEquivalence:
    @given(instances=instance_sets(), seed=st.integers(0, (1 << 64) - 1),
           picks=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_same_pair_and_rng_state_as_two_pass_reference(self, instances, seed, picks):
        ours, ref = SeededRng(seed), SeededRng(seed)
        table = EnabledTable(instances)
        for _ in range(picks):
            state = ours._state
            expected = reference_pick(instances, ref)
            assert pick_next(instances, ours) == expected
            assert ours._state == ref._state
            # A table built once and kept picks the same pair.
            assert pick_next(instances, SeededRng(state), table) == expected

    @pytest.mark.parametrize("draw", [0, 1 << 63, (1 << 64) - 1])
    @pytest.mark.parametrize("weights", [(0.1, 0.3, 0.5), (3.0, 0.1), (0.1,) * 7])
    def test_extreme_draws_including_the_fall_back_to_the_last_pair(self, draw, weights):
        spec = define_model("m", "s", [Transition("s", "s", f"t{j}", NOOP, weight=w)
                                       for j, w in enumerate(weights)])
        instances = [ModelInstance(1, spec, {}), ModelInstance(2, spec, {})]
        assert pick_next(instances, FixedRng(draw)) == reference_pick(instances, FixedRng(draw))

    def test_duplicate_instances_count_twice_as_before(self):
        spec = define_model("m", "s", [Transition("s", "s", "a", NOOP),
                                       Transition("s", "s", "b", NOOP, weight=0.5)])
        inst = ModelInstance(1, spec, {})
        for seed in range(50):
            assert pick_next([inst, inst], SeededRng(seed)) == reference_pick(
                [inst, inst], SeededRng(seed))


# ---------------------------------------------------------------------------
# The run loop keeps the table only while it is exact
# ---------------------------------------------------------------------------


def _run(spec, max_steps=12, seed=3):
    config = SuiteConfig(seed=seed, max_steps_per_test=max_steps)
    result = run_single_test(spec, config, derive_seed(seed, 0), 0, PortPool(20000, 20010))
    fired = [(r.model, r.label) for r in result.trace.steps if r.label != "<init>"]
    return fired, result


def _counting_enabled(monkeypatch):
    calls = []

    def counted(inst):
        calls.append(inst.spec.name)
        return enabled_transitions(inst)

    monkeypatch.setattr(explorer, "enabled_transitions", counted)
    return calls


class TestTableInvalidation:
    def test_guard_flipped_inside_a_self_loop_holds_at_the_next_pick(self):
        def flip(value):
            def fn(ctx):
                ctx.vars["open"] = value
            return Action(fn)

        spec = define_model("gate", "s", [
            Transition("s", "s", "open", flip(True), guard=lambda v: not v.get("open")),
            Transition("s", "s", "shut", flip(False), guard=lambda v: v.get("open", False)),
        ])
        steps, result = _run(spec)
        assert result.passed
        assert [label for _, label in steps] == ["open", "shut"] * 6

    def test_child_launched_from_a_self_loop_is_schedulable_at_the_next_pick(self):
        child = define_model("child", "ready", [
            Transition("ready", "done", "go", NOOP, weight=1e9),
        ])

        def spawn(ctx):
            ctx.launch(child)

        parent = define_model("parent", "s", [
            Transition("s", "s", "spawn", Action(spawn), weight=0.001),
        ])
        steps, result = _run(parent)
        assert result.passed
        # Only a fresh child can outweigh the parent, and each child fires once.
        assert steps == [("parent", "spawn"), ("child", "go")] * 6

    def test_state_change_rebuilds_only_the_fired_instance(self, monkeypatch):
        spec = define_model("mover", "a", [
            Transition("a", "b", "move", NOOP),
            Transition("b", "b", "stay", NOOP),
        ])
        calls = _counting_enabled(monkeypatch)
        steps, result = _run(spec, max_steps=10)
        assert [label for _, label in steps] == ["move"] + ["stay"] * 9
        # One enumeration to build the table, one after the move; the nine
        # self-loops reuse it.
        assert calls == ["mover", "mover"]

    def test_guarded_state_rebuilds_the_whole_table_at_every_pick(self, monkeypatch):
        guarded = define_model("guarded", "s", [
            Transition("s", "s", "tick", NOOP, guard=lambda v: True),
        ])

        def spawn(ctx):
            ctx.launch(guarded)

        root = define_model("root", "s", [
            Transition("s", "t", "spawn", Action(spawn)),
            Transition("t", "t", "idle", NOOP),
        ])
        calls = _counting_enabled(monkeypatch)
        steps, result = _run(root, max_steps=6)
        assert result.passed and steps[0] == ("root", "spawn")
        # Build, refresh after the launch (the refreshed table serves the
        # second pick), then both instances again at each of the four later
        # picks.
        assert len(calls) == 1 + 2 + 2 * 4

    def test_bundled_models_reuse_the_table_on_most_steps(self, monkeypatch):
        calls = _counting_enabled(monkeypatch)
        config = SuiteConfig(seed=11)
        pool = PortPool(20000, 29999)
        fired = 0
        for i in range(30):
            fired += run_single_test(MODEL_REGISTRY["server-main"], config,
                                     derive_seed(11, i), i, pool).fired
            pool.next_test()
        assert 0 < len(calls) < fired / 2


# ---------------------------------------------------------------------------
# No per-test reference cycles
# ---------------------------------------------------------------------------


def test_backends_die_with_their_test_without_the_cycle_collector(monkeypatch):
    refs = []
    make = explorer._make_backend

    def tracked(config, test_seed):
        backend = make(config, test_seed)
        refs.append(weakref.ref(backend))
        return backend

    monkeypatch.setattr(explorer, "_make_backend", tracked)
    config = SuiteConfig(seed=8)
    pool = PortPool(20000, 29999)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(20):
            run_single_test(MODEL_REGISTRY["server-main"], config, derive_seed(8, i), i, pool)
            pool.next_test()
        alive = sum(ref() is not None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()
    assert len(refs) == 20
    assert alive == 0
