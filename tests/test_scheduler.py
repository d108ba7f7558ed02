"""Scheduler: the enabled table picks exactly what the two-pass algorithm
picked, is rebuilt whenever it may be stale, and a test leaves no
reference cycle that keeps its backend alive."""

from __future__ import annotations

import gc
import weakref
from itertools import accumulate, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmbt import explorer
from netmbt.efsm import (
    INIT_LABEL,
    ModelInstance,
    Transition,
    define_model,
    enabled_transitions,
)
from netmbt.explorer import EnabledTable, SuiteConfig, pick_next, run_single_test
from netmbt.models import MODEL_REGISTRY
from netmbt.rng import SeededRng, derive_seed


def NOOP(inst, env):
    return None


WEIGHTS = (0.1, 0.3, 0.5, 1.0, 2.0, 3.0)


def reference_pick(instances, rng):
    """The scheduler before the enabled table: collect the pairs and their
    total, draw once, then walk the running sum to the first one past the
    point."""
    pairs = []
    total = 0.0
    for inst in instances:
        for t in enabled_transitions(inst):  # none for a dead instance
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


class ReferenceEnabledTable:
    """The enabled table before it was flattened: one (pairs, weights) group
    per instance, each group's first index in ``starts``, and sums rebuilt
    from the fired instance's group on."""

    def __init__(self, instances):
        self.groups = [self._group(inst) for inst in instances]
        self.starts, self.pairs, self.accs = [], [], []
        self._accumulate(0)

    @staticmethod
    def _group(inst):
        weights = inst.spec.weights[inst.current]
        return (tuple(zip(repeat(inst), enabled_transitions(inst))), weights) if weights else ((), ())

    def refresh(self, instances, fired):
        groups = self.groups
        k = instances.index(fired)
        groups[k] = self._group(fired)
        groups.extend(map(self._group, instances[len(groups):]))
        self._accumulate(k)

    def _accumulate(self, k):
        starts, pairs, accs = self.starts, self.pairs, self.accs
        start = starts[k] if starts else 0
        del starts[k:], pairs[start:]
        weights = []
        for group_pairs, group_weights in self.groups[k:]:
            starts.append(len(pairs))
            pairs += group_pairs
            weights += group_weights
        if start:
            accs[start - 1:] = accumulate(weights, initial=accs[start - 1])
        else:
            accs[:] = accumulate(weights)


class FixedRng:
    """Stands in for SeededRng where a test needs a given draw."""

    def __init__(self, value: int):
        self.value = value

    def next_u64(self) -> int:
        return self.value


@st.composite
def instance_sets(draw):
    """Instances with mixed weights, some dead."""
    instances = []
    for k in range(draw(st.integers(0, 6))):
        n = draw(st.integers(0, 6))
        weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n))
        transitions = [Transition("s", "s", f"t{j}", NOOP, weight=w)
                       for j, w in enumerate(weights)]
        spec = define_model(f"m{k}", "s", transitions, states=["s", "dead"])
        inst = ModelInstance(k + 1, spec, {})
        if draw(st.booleans()) and draw(st.booleans()):
            inst.current = "dead"
        instances.append(inst)
    return instances


class TestPickEquivalence:
    @given(instances=instance_sets(), seed=st.integers(0, (1 << 64) - 1),
           picks=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_same_pair_and_rng_state_as_two_pass_reference(self, instances, seed, picks):
        # Three streams in lockstep: the reference's, ours, and a twin that
        # picks with a kept table.
        ours, ref, twin = SeededRng(seed), SeededRng(seed), SeededRng(seed)
        table = EnabledTable(instances)
        for _ in range(picks):
            expected = reference_pick(instances, ref)
            assert pick_next(EnabledTable(instances), ours) == expected
            # A table built once and kept picks the same pair.
            assert pick_next(table, twin) == expected
            # Each pick took as many draws as the reference's: one, or none
            # when no pair is enabled.
            assert ours.next_u64() == ref.next_u64() == twin.next_u64()

    @pytest.mark.parametrize("draw", [0, 1 << 63, (1 << 64) - 1])
    @pytest.mark.parametrize("weights", [(0.1, 0.3, 0.5), (3.0, 0.1), (0.1,) * 7])
    def test_extreme_draws_including_the_fall_back_to_the_last_pair(self, draw, weights):
        spec = define_model("m", "s", [Transition("s", "s", f"t{j}", NOOP, weight=w)
                                       for j, w in enumerate(weights)])
        instances = [ModelInstance(1, spec, {}), ModelInstance(2, spec, {})]
        assert pick_next(EnabledTable(instances), FixedRng(draw)) == reference_pick(
            instances, FixedRng(draw))

    def test_duplicate_instances_count_twice_as_before(self):
        spec = define_model("m", "s", [Transition("s", "s", "a", NOOP),
                                       Transition("s", "s", "b", NOOP, weight=0.5)])
        inst = ModelInstance(1, spec, {})
        for seed in range(50):
            assert pick_next(EnabledTable([inst, inst]), SeededRng(seed)) == reference_pick(
                [inst, inst], SeededRng(seed))


@st.composite
def models(draw, name):
    """A model over three live states and a dead one, with mixed weights."""
    states = ["s0", "s1", "s2", "dead"]
    transitions = [
        Transition(source, draw(st.sampled_from(states)), f"{source}t{j}", NOOP,
                   weight=draw(st.sampled_from(WEIGHTS)))
        for source in states[:3]
        for j in range(draw(st.integers(0, 4)))
    ]
    return define_model(name, "s0", transitions, states=states)


def _hex(accs):
    return [acc.hex() for acc in accs]


class TestDrawScaling:
    """pick_next turns a draw u into a point in [0, 1) as u * 2.0**-64, which
    is u / 2**64 bit for bit: scaling by a power of two commutes with
    rounding to nearest."""

    def test_product_equals_quotient(self):
        rng = SeededRng(11)
        draws = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**64 - 1]
        draws += (rng.next_u64() for _ in range(100_000))
        assert [u * 2.0**-64 for u in draws] == [u / 2**64 for u in draws]


class TestIncrementalRefresh:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_kept_table_equals_a_fresh_one_bit_for_bit(self, data):
        specs = [data.draw(models(f"m{k}")) for k in range(3)]

        def launch():
            instances.append(ModelInstance(len(instances) + 1,
                                           data.draw(st.sampled_from(specs)), {}))

        instances: list[ModelInstance] = []
        for _ in range(data.draw(st.integers(1, 4))):
            launch()
        table = EnabledTable(instances)
        for _ in range(data.draw(st.integers(1, 12))):
            fired = data.draw(st.sampled_from(instances))
            fired.current = data.draw(st.sampled_from(fired.spec.states))
            for _ in range(data.draw(st.integers(0, 2))):
                launch()
            table.refresh(instances, fired)
            fresh = EnabledTable(instances)
            assert table.pairs == fresh.pairs
            assert table.sizes == fresh.sizes
            assert _hex(table.accs) == _hex(fresh.accs)
            # ... and both equal one running sum from 0.0, pair by pair.
            acc, expected = 0.0, []
            for _, t in fresh.pairs:
                acc += t.weight
                expected.append(acc)
            assert _hex(table.accs) == _hex(expected)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_flat_table_equals_the_grouped_reference(self, data):
        """Random launches and state changes, dead states and moves between
        states with different pair counts included: after every refresh the
        flat table holds the very pairs of the grouped reference table, and
        sums equal to the last bit."""
        specs = [data.draw(models(f"m{k}")) for k in range(3)]

        def launch():
            instances.append(ModelInstance(len(instances) + 1,
                                           data.draw(st.sampled_from(specs)), {}))

        def assert_same(table, ref):
            assert len(table.pairs) == len(ref.pairs)
            for (inst, t), (ref_inst, ref_t) in zip(table.pairs, ref.pairs):
                assert inst is ref_inst and t is ref_t
            assert _hex(table.accs) == _hex(ref.accs)
            assert table.sizes == [len(g) for g, _ in ref.groups]

        instances: list[ModelInstance] = []
        for _ in range(data.draw(st.integers(1, 4))):
            launch()
        table, ref = EnabledTable(instances), ReferenceEnabledTable(instances)
        assert_same(table, ref)
        for _ in range(data.draw(st.integers(1, 16))):
            fired = data.draw(st.sampled_from(instances))
            fired.current = data.draw(st.sampled_from(fired.spec.states))
            for _ in range(data.draw(st.integers(0, 2))):
                launch()
            table.refresh(instances, fired)
            ref.refresh(instances, fired)
            assert_same(table, ref)


# ---------------------------------------------------------------------------
# The run loop keeps the table only while it is exact
# ---------------------------------------------------------------------------


def _run(spec, max_steps=12, seed=3):
    config = SuiteConfig(seed=seed, max_steps_per_test=max_steps)
    result = run_single_test(spec, config, derive_seed(seed, 0), 0, None)
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
    def test_child_launched_from_a_self_loop_is_schedulable_at_the_next_pick(self):
        child = define_model("child", "ready", [
            Transition("ready", "done", "go", NOOP, weight=1e9),
        ])

        def spawn(inst, env):
            env.launch(child, {})

        parent = define_model("parent", "s", [
            Transition("s", "s", "spawn", spawn, weight=0.001),
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

    def test_refresh_enumerates_only_the_fired_instance_and_new_children(self, monkeypatch):
        spec = define_model("m", "a", [Transition("a", "b", "go", NOOP),
                                       Transition("b", "b", "stay", NOOP)],
                            states=["a", "b", "dead"])
        instances = [ModelInstance(i, spec, {}) for i in (1, 2, 3)]
        table = EnabledTable(instances)
        calls = _counting_enabled(monkeypatch)
        instances[1].current = "b"
        instances.append(ModelInstance(4, spec, {}))
        table.refresh(instances, instances[1])
        assert calls == ["m", "m"]
        assert table.sizes == [1, 1, 1, 1]
        assert [(inst.id, t.label) for inst, t in table.pairs] == [
            (1, "go"), (2, "stay"), (3, "go"), (4, "go")]
        # A dead instance is not enumerated and has no pairs.
        instances[0].current = "dead"
        table.refresh(instances, instances[0])
        assert calls == ["m", "m"]
        assert table.sizes == [0, 1, 1, 1]
        assert [inst.id for inst, _ in table.pairs] == [2, 3, 4]

    def test_bundled_models_reuse_the_table_on_most_steps(self, monkeypatch):
        calls = _counting_enabled(monkeypatch)
        config = SuiteConfig(seed=11)
        fired = 0
        for i in range(30):
            steps = run_single_test(MODEL_REGISTRY["server-main"], config,
                                    derive_seed(11, i), i, None).trace.steps
            fired += sum(r.label != INIT_LABEL for r in steps)
        assert 0 < len(calls) < fired / 2


# ---------------------------------------------------------------------------
# No per-test reference cycles
# ---------------------------------------------------------------------------


def test_backends_die_with_their_test_without_the_cycle_collector(monkeypatch):
    # Channels hold no keys and a connection's ends hold no link to each
    # other, so reference counting alone frees every test: the collector,
    # run after the tests, finds nothing.
    refs = []
    make = explorer._make_backend

    def tracked(config, test_seed, pool):
        backend = make(config, test_seed, pool)
        refs.append(weakref.ref(backend))
        return backend

    monkeypatch.setattr(explorer, "_make_backend", tracked)
    runs = [(model, SuiteConfig(seed=8, backend=backend))
            for model, backend in [("server-main", "sim"), ("minimalist", "sim"),
                                   ("server-main", "real")]]
    pools = [explorer.port_pool(config) for _, config in runs]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for (model, config), pool in zip(runs, pools):
            for i in range(20):
                run_single_test(MODEL_REGISTRY[model], config, derive_seed(8, i), i, pool)
        alive = sum(ref() is not None for ref in refs)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert len(refs) == 60
    assert alive == 0
    assert unreachable == 0
