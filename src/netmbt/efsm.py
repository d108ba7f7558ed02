"""Extended finite-state machine definitions and single-step execution.

A model is a set of named states plus weighted transitions whose actions
run against the system under test.  An action is a plain function
``fn(inst, env)`` of the firing ModelInstance (its ``vars`` and ``id``) and
the test runner's per-test ``env``; it returns None or one outcome tag, and
the keys of the transition's ``outcome_branches`` are its tags, each naming
the state that tag leads to.  Actions may raise PropertyViolation, may
signal classified errors (redirected through per-transition exception
overrides), and may launch child model instances through ``env.launch``,
whose constructors (plain functions of the same shape) run synchronously
at launch time.  A label names one transition of its model, as traces and
coverage do; ``<init>`` is reserved for the record of a launch.

Enabledness is static: every transition leaving an instance's current state
is enabled, whatever its variables hold.  define_model() therefore
compiles each state's transitions and weights into tuples once, and the
scheduler only enumerates an instance again after it changed state.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from .errors import (AdapterError, BackendError, ErrorKind, PropertyViolation, SpecError,
                     WatchdogTimeout)

ActionFn = Callable[["ModelInstance", Any], Optional[str]]
INIT_LABEL = "<init>"  # the label of a launch's trace record


class Transition:
    """A weighted edge, enabled whenever its instance is in ``source``.
    ``action`` returns None, which leads to ``target``, or one of the keys
    of ``outcome_branches``, which leads to the state that key maps to."""

    __slots__ = ("source", "target", "label", "action", "weight",
                 "exception_overrides", "outcome_branches")

    def __init__(self, source: str, target: str, label: str, action: ActionFn,
                 weight: float = 1.0, exception_overrides: dict[ErrorKind, str] | None = None,
                 outcome_branches: dict[str, str] | None = None):
        self.source = source
        self.target = target
        self.label = label
        self.action = action
        self.weight = weight
        self.exception_overrides = {} if exception_overrides is None else exception_overrides
        self.outcome_branches = outcome_branches


class ModelSpec:
    """Validated model definition; construct through define_model().
    ``outgoing`` and ``weights`` map every state to its transitions and
    their weights, in declaration order."""

    __slots__ = ("name", "initial", "states", "transitions", "constructor",
                 "outgoing", "weights")

    def __init__(self, name: str, initial: str, states: tuple[str, ...],
                 transitions: tuple[Transition, ...], constructor: ActionFn | None,
                 outgoing: dict[str, tuple[Transition, ...]],
                 weights: dict[str, tuple[float, ...]]):
        self.name = name
        self.initial = initial
        self.states = states
        self.transitions = transitions
        self.constructor = constructor
        self.outgoing = outgoing
        self.weights = weights


def _check_identifier(kind: str, value: str) -> None:
    if not value or any(ch.isspace() for ch in value):
        raise SpecError(f"{kind} must be a non-empty token without spaces: {value!r}")


def define_model(
    name: str,
    initial: str,
    transitions: list[Transition],
    constructor: ActionFn | None = None,
    *,
    states: list[str] | None = None,
) -> ModelSpec:
    """Validate and freeze a model definition.

    When ``states`` is omitted, the declared state set is the initial state
    plus every state referenced by a transition (sources, targets, exception
    overrides, outcome branches).  When given explicitly, every reference
    must resolve into it, and a dangling reference is a SpecError.
    """
    _check_identifier("model name", name)
    _check_identifier("state", initial)

    referenced: list[str] = [initial]

    def ref(state: str) -> str:
        _check_identifier("state", state)
        if state not in referenced:
            referenced.append(state)
        return state

    labels: set[str] = set()
    for t in transitions:
        _check_identifier("transition label", t.label)
        ref(t.source)
        ref(t.target)
        if t.label == INIT_LABEL:
            raise SpecError(f"{name}: transition label {INIT_LABEL!r} is reserved")
        if t.label in labels:
            raise SpecError(f"{name}: duplicate transition label {t.label!r}")
        labels.add(t.label)
        if not (t.weight > 0):
            raise SpecError(f"{name}: transition {t.label!r} has non-positive weight")
        for kind, target in t.exception_overrides.items():
            if not isinstance(kind, ErrorKind):
                raise SpecError(f"{name}: override key {kind!r} is not an ErrorKind")
            ref(target)
        for tag, target in (t.outcome_branches or {}).items():
            _check_identifier("outcome tag", tag)
            ref(target)

    if states is None:
        declared = tuple(referenced)
    else:
        declared = tuple(states)
        for s in declared:
            _check_identifier("state", s)
        missing = [s for s in referenced if s not in declared]
        if missing:
            raise SpecError(f"{name}: dangling state reference(s): {missing}")

    outgoing: dict[str, list[Transition]] = {s: [] for s in declared}
    for t in transitions:
        outgoing[t.source].append(t)

    return ModelSpec(
        name=name,
        initial=initial,
        states=declared,
        transitions=tuple(transitions),
        constructor=constructor,
        outgoing={s: tuple(ts) for s, ts in outgoing.items()},
        weights={s: tuple(t.weight for t in ts) for s, ts in outgoing.items()},
    )


class ModelInstance:
    """A live execution of a ModelSpec: current state plus local variables."""

    __slots__ = ("id", "spec", "current", "vars")

    def __init__(self, instance_id: int, spec: ModelSpec, args: Mapping[str, Any]):
        self.id = instance_id
        self.spec = spec
        self.current = spec.initial
        self.vars: dict[str, Any] = dict(args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.spec.name}#{self.id} @{self.current}>"


def instantiate(
    spec: ModelSpec, instance_id: int, args: Mapping[str, Any], env: Any
) -> ModelInstance:
    """Create an instance and run its constructor action synchronously on
    ``env``.  A classified error from the constructor, or an outcome tag,
    fails the test as a PropertyViolation.
    """
    inst = ModelInstance(instance_id, spec, args)
    if spec.constructor is None:
        return inst
    try:
        tag = spec.constructor(inst, env)
    except AdapterError as exc:
        raise PropertyViolation(f"constructor of {spec.name} raised unexpected {exc}") from exc
    if tag is not None:
        raise PropertyViolation(
            f"constructor of {spec.name} returned unexpected outcome tag {tag!r}"
        )
    return inst


def enabled_transitions(instance: ModelInstance) -> tuple[Transition, ...]:
    """Transitions leaving the current state, in declaration order."""
    return instance.spec.outgoing[instance.current]


def _name(instance: ModelInstance, transition: Transition) -> str:
    """``model.label``, for violation messages."""
    return f"{instance.spec.name}.{transition.label}"


def failure_message(exc: Exception, where: str) -> str:
    """The verdict message of a test that ``exc`` ends; ``where`` prefixes a
    PropertyViolation's or a WatchdogTimeout's text.  A BackendError is raised
    again, because it means no test can run."""
    if isinstance(exc, PropertyViolation):
        return f"{where}{exc}"
    if isinstance(exc, WatchdogTimeout):
        return f"watchdog: {where}{exc}"
    if isinstance(exc, BackendError):
        raise exc
    # A model bug or an unclassified OS error fails this test only.
    return f"unclassified {type(exc).__name__}: {exc}"


def fire_transition(
    instance: ModelInstance, transition: Transition, env: Any
) -> tuple[str, str | None]:
    """Execute one transition, ``transition.action(instance, env)``, and
    resolve the resulting state.

    Resolution order: a classified error takes the exception override (or is
    a violation when unmapped); an emitted tag takes its declared branch;
    otherwise the transition's static target applies.  Returns ``(outcome,
    violation)``: the step's trace field (the tag, the ErrorKind value, or
    "-") and the violation message, or None when the step completed.  On a
    violation the state is unchanged.  Any other exception is worded by
    failure_message(), which lets only a BackendError propagate.
    """
    try:
        tag = transition.action(instance, env)
    except AdapterError as exc:
        target = transition.exception_overrides.get(exc.kind)
        if target is None:
            return exc.kind._value_, f"unexpected exception in {_name(instance, transition)}: {exc}"
        instance.current = target
        return exc.kind._value_, None
    except Exception as exc:
        return "-", failure_message(exc, f"{_name(instance, transition)}: ")

    branches = transition.outcome_branches
    if tag is None:
        if branches:
            return "-", f"{_name(instance, transition)} declared outcome tags but emitted none"
        instance.current = transition.target
        return "-", None
    target = branches.get(tag) if branches else None
    if target is None:
        return "-", f"{_name(instance, transition)} emitted undeclared outcome tag {tag!r}"
    instance.current = target
    return tag, None
