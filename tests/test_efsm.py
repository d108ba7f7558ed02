"""Engine semantics: model validation, instantiation, enabledness, stepping."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmbt.efsm import (
    ModelInstance,
    Transition,
    define_model,
    enabled_transitions,
    fire_transition,
    instantiate,
)
from netmbt.errors import (AdapterError, BackendError, ErrorKind, PropertyViolation, SpecError,
                           WatchdogTimeout)
from netmbt.rng import SeededRng


def NOOP(inst, env):
    return None


def make_env(rng=None, launch=None):
    """The least an action's ``env`` carries: an rng and a launcher."""
    return SimpleNamespace(rng=rng or SeededRng(0), launch=launch or (lambda s, a: None))


class TestDefineModel:
    def test_degenerate_model_has_one_state(self):
        spec = define_model("empty", "s0", [])
        assert spec.states == ("s0",)
        assert spec.transitions == ()

    def test_dangling_target_with_explicit_states(self):
        with pytest.raises(SpecError, match="dangling"):
            define_model("m", "a", [Transition("a", "X", "go", NOOP)], states=["a", "b"])

    def test_dangling_override_target(self):
        t = Transition("a", "a", "go", NOOP,
                       exception_overrides={ErrorKind.CLOSED_CHANNEL: "nowhere"})
        with pytest.raises(SpecError, match="dangling"):
            define_model("m", "a", [t], states=["a"])

    def test_duplicate_source_label(self):
        ts = [Transition("a", "a", "go", NOOP), Transition("a", "b", "go", NOOP)]
        with pytest.raises(SpecError, match="duplicate transition label 'go'"):
            define_model("m", "a", ts)

    def test_same_label_different_sources_is_rejected(self):
        # Traces and coverage name a transition by its label alone, so two
        # "go" edges would count as one transition fired of two.
        ts = [Transition("a", "b", "go", NOOP), Transition("b", "a", "go", NOOP)]
        with pytest.raises(SpecError, match="duplicate transition label 'go'"):
            define_model("m", "a", ts)

    def test_init_label_is_reserved(self):
        # "<init>" records a launch; coverage never counts it as fired.
        with pytest.raises(SpecError, match="'<init>' is reserved"):
            define_model("m", "a", [Transition("a", "a", "<init>", NOOP)])

    def test_non_positive_weight(self):
        with pytest.raises(SpecError, match="weight"):
            define_model("m", "a", [Transition("a", "a", "go", NOOP, weight=0)])

    @pytest.mark.parametrize("branches, match", [
        ({"x y": "a"}, "outcome tag"),
        ({"": "a"}, "outcome tag"),
        ({"x": "nowhere"}, "dangling"),
    ])
    def test_branch_tags_and_targets_checked(self, branches, match):
        t = Transition("a", "a", "go", NOOP, outcome_branches=branches)
        with pytest.raises(SpecError, match=match):
            define_model("m", "a", [t], states=["a"])

    def test_labels_with_spaces_rejected(self):
        with pytest.raises(SpecError):
            define_model("m", "a", [Transition("a", "a", "g o", NOOP)])

    def test_states_auto_collected_in_reference_order(self):
        ts = [Transition("a", "b", "ab", NOOP), Transition("b", "c", "bc", NOOP)]
        assert define_model("m", "a", ts).states == ("a", "b", "c")


class TestInstantiate:
    def test_constructor_runs_before_return(self):
        ran = []
        spec = define_model("m", "s", [], lambda inst, env: ran.append(True))
        instantiate(spec, 1, {}, make_env())
        assert ran == [True]

    def test_args_become_vars(self):
        spec = define_model("m", "s", [])
        inst = instantiate(spec, 1, {"port": 1234}, make_env())
        assert inst.vars["port"] == 1234

    def test_empty_spec_is_dead_on_arrival(self):
        spec = define_model("m", "s", [])
        assert enabled_transitions(instantiate(spec, 1, {}, make_env())) == ()

    def test_unmapped_constructor_error_is_violation(self):
        def boom(inst, env):
            raise AdapterError(ErrorKind.CONNECTION_REFUSED)

        spec = define_model("m", "s", [], boom)
        with pytest.raises(PropertyViolation, match="constructor"):
            instantiate(spec, 1, {}, make_env())


class TestEnabledTransitions:
    def test_declaration_order(self):
        ts = [Transition("s", "s", f"t{i}", NOOP) for i in range(3)]
        inst = ModelInstance(1, define_model("m", "s", ts), {})
        assert [t.label for t in enabled_transitions(inst)] == ["t0", "t1", "t2"]

    def test_enabled_set_is_the_compiled_state_table(self):
        ts = [Transition("a", "b", "go", NOOP, weight=0.5), Transition("b", "b", "stay", NOOP),
              Transition("a", "a", "spin", NOOP, weight=2.0)]
        spec = define_model("m", "a", ts, states=["a", "b", "c"])
        assert spec.outgoing == {"a": (ts[0], ts[2]), "b": (ts[1],), "c": ()}
        assert spec.weights == {"a": (0.5, 2.0), "b": (1.0,), "c": ()}
        inst = ModelInstance(1, spec, {})
        assert enabled_transitions(inst) is spec.outgoing["a"]

    def test_dead_states_have_no_transitions(self):
        spec = define_model("m", "a", [Transition("a", "b", "go", NOOP)])
        inst = ModelInstance(1, spec, {})
        assert enabled_transitions(inst)
        inst.current = "b"
        assert enabled_transitions(inst) == ()


class TestFireTransition:
    """Each path of the step-result table: ``(outcome, violation)`` and the
    state the instance is left in."""

    @staticmethod
    def fire(transition, **vars):
        spec = define_model("m", "a", [transition])
        inst = ModelInstance(1, spec, vars)
        return fire_transition(inst, spec.transitions[0], make_env()), inst.current

    def test_plain_target(self):
        assert self.fire(Transition("a", "b", "go", NOOP)) == (("-", None), "b")

    def test_outcome_tag_routes_to_branch(self):
        t = Transition("a", "a", "try", lambda inst, env: inst.vars["tag"],
                       outcome_branches={"hit": "won", "miss": "a"})
        assert self.fire(t, tag="hit") == (("hit", None), "won")
        assert self.fire(t, tag="miss") == (("miss", None), "a")

    def test_undeclared_tag_is_violation(self):
        t = Transition("a", "b", "try", lambda inst, env: "other", outcome_branches={"hit": "b"})
        assert self.fire(t) == (("-", "m.try emitted undeclared outcome tag 'other'"), "a")

    def test_tag_without_branches_is_violation(self):
        t = Transition("a", "b", "try", lambda inst, env: "hit")
        assert self.fire(t) == (("-", "m.try emitted undeclared outcome tag 'hit'"), "a")

    def test_tagged_action_must_emit(self):
        t = Transition("a", "b", "try", NOOP, outcome_branches={"hit": "b"})
        assert self.fire(t) == (("-", "m.try declared outcome tags but emitted none"), "a")

    def test_mapped_error_takes_override_and_completes(self):
        def boom(inst, env):
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "late read")

        t = Transition("a", "b", "go", boom,
                       exception_overrides={ErrorKind.CLOSED_CHANNEL: "err"})
        assert self.fire(t) == (("ClosedChannelError", None), "err")

    def test_unmapped_error_is_violation_and_state_unchanged(self):
        def boom(inst, env):
            raise AdapterError(ErrorKind.PEER_CLOSED)

        t = Transition("a", "b", "go", boom,
                       exception_overrides={ErrorKind.CLOSED_CHANNEL: "err"})
        assert self.fire(t) == (
            ("PeerClosedError", "unexpected exception in m.go: PeerClosedError"), "a"
        )

    def test_require_failure_is_violation(self):
        def check(inst, env):
            raise PropertyViolation("the oracle said no")

        assert self.fire(Transition("a", "b", "go", check)) == (
            ("-", "m.go: the oracle said no"), "a"
        )

    def test_unclassified_exception_is_violation_and_state_unchanged(self):
        def bug(inst, env):
            raise KeyError("conn")

        assert self.fire(Transition("a", "b", "go", bug)) == (
            ("-", "unclassified KeyError: 'conn'"), "a"
        )

    def test_watchdog_timeout_is_violation_and_state_unchanged(self):
        def stuck(inst, env):
            raise WatchdogTimeout("accept blocked for 5.0s")

        assert self.fire(Transition("a", "b", "go", stuck)) == (
            ("-", "watchdog: m.go: accept blocked for 5.0s"), "a"
        )

    def test_backend_error_propagates(self):
        def unusable(inst, env):
            raise BackendError("no loopback")

        with pytest.raises(BackendError, match="no loopback"):
            self.fire(Transition("a", "b", "go", unusable))

    def test_step_determinism(self):
        t = Transition("a", "a", "try", lambda inst, env: ("hit" if env.rng.below(2) else "miss"),
                       outcome_branches={"hit": "won", "miss": "a"})
        spec = define_model("m", "a", [t])
        results = []
        for _ in range(2):
            inst = ModelInstance(1, spec, {})
            rng = SeededRng(31337)
            outs = []
            for _ in range(20):
                inst.current = "a"
                outs.append(fire_transition(inst, spec.transitions[0],
                                            make_env(rng=rng))[0])
            results.append(outs)
        assert results[0] == results[1]

    def test_launch_runs_child_constructor_inside_action(self):
        events = []
        child = define_model("child", "c", [], lambda inst, env: events.append("child-ctor"))

        def parent_action(inst, env):
            events.append("before")
            env.launch(child, {})
            events.append("after")

        spec = define_model("m", "a", [Transition("a", "a", "go", parent_action)])
        inst = ModelInstance(1, spec, {})
        children = []

        def launch(s, args):
            children.append(instantiate(s, 2, args, env))
            return children[-1]

        env = make_env(launch=launch)
        out = fire_transition(inst, spec.transitions[0], env)
        assert out == ("-", None)
        assert events == ["before", "child-ctor", "after"]
        assert [c.spec.name for c in children] == ["child"]


class TestStructuralFuzz:
    """Injected dangling references must always be rejected."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_dangling_reference_always_specerror(self, data):
        n_states = data.draw(st.integers(2, 6))
        states = [f"s{i}" for i in range(n_states)]
        n_trans = data.draw(st.integers(1, 8))
        transitions = []
        for i in range(n_trans):
            src = states[data.draw(st.integers(0, n_states - 1))]
            dst = states[data.draw(st.integers(0, n_states - 1))]
            transitions.append(Transition(src, dst, f"t{i}", NOOP))
        # sanity: the clean version validates
        define_model("ok", states[0], transitions, states=states)
        # now break one reference
        victim = data.draw(st.integers(0, n_trans - 1))
        broken = list(transitions)
        t = broken[victim]
        broken[victim] = Transition(t.source, "___nowhere___", t.label, t.action)
        with pytest.raises(SpecError):
            define_model("bad", states[0], broken, states=states)
