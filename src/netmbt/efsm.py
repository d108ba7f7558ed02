"""Extended finite-state machine definitions and single-step execution.

A model is a set of named states plus guarded, weighted transitions whose
actions run against the system under test.  Actions may assert oracle
conditions, may signal classified errors (redirected through per-transition
exception overrides), may emit an outcome tag (routed through declared
outcome branches), and may launch child model instances whose constructors
run synchronously at launch time.

Guards are pure predicates over instance-local variables; all side effects
belong to actions.  That split keeps transition enumeration repeatable,
which the replay machinery relies on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from .errors import AdapterError, ErrorKind, PropertyViolation, SpecError
from .rng import SeededRng
from .rng import maybe as _maybe

Guard = Callable[[dict], bool]
ActionFn = Callable[["ActionContext"], Optional[str]]


@dataclass(frozen=True)
class Action:
    """Executable transition body.

    ``fn`` receives an ActionContext.  An action with a non-empty ``tags``
    set must return one of those tags on every run; an action with no tags
    must return None.  The tag set is what lets model validation check that
    outcome branches are total.
    """

    fn: ActionFn
    tags: frozenset[str] = frozenset()


NO_OP = Action(lambda ctx: None)


@dataclass(eq=False)
class Transition:
    source: str
    target: str
    label: str
    action: Action = NO_OP
    guard: Guard | None = None
    weight: float = 1.0
    exception_overrides: dict[ErrorKind, str] = field(default_factory=dict)
    outcome_branches: dict[str, str] | None = None


@dataclass(eq=False)
class ModelSpec:
    """Validated model definition; construct through define_model()."""

    name: str
    initial: str
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    constructor: Action
    constructor_overrides: dict[ErrorKind, str]
    outgoing: dict[str, tuple[Transition, ...]]


def _check_identifier(kind: str, value: str) -> None:
    if not value or any(ch.isspace() for ch in value):
        raise SpecError(f"{kind} must be a non-empty token without spaces: {value!r}")


def define_model(
    name: str,
    initial: str,
    transitions: list[Transition],
    constructor: Action = NO_OP,
    *,
    states: list[str] | None = None,
    constructor_overrides: Mapping[ErrorKind, str] | None = None,
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

    seen_labels: set[tuple[str, str]] = set()
    for t in transitions:
        _check_identifier("transition label", t.label)
        ref(t.source)
        ref(t.target)
        key = (t.source, t.label)
        if key in seen_labels:
            raise SpecError(f"{name}: duplicate transition {t.label!r} from {t.source!r}")
        seen_labels.add(key)
        if not (t.weight > 0):
            raise SpecError(f"{name}: transition {t.label!r} has non-positive weight")
        for kind, target in t.exception_overrides.items():
            if not isinstance(kind, ErrorKind):
                raise SpecError(f"{name}: override key {kind!r} is not an ErrorKind")
            ref(target)
        tags = t.action.tags
        for tag in tags:
            _check_identifier("outcome tag", tag)
        if tags:
            if t.outcome_branches is None:
                raise SpecError(
                    f"{name}: transition {t.label!r} has a tagged action but no outcome branches"
                )
            if set(t.outcome_branches) != set(tags):
                raise SpecError(
                    f"{name}: outcome branches of {t.label!r} do not cover the action's tag set"
                )
            for target in t.outcome_branches.values():
                ref(target)
        elif t.outcome_branches is not None:
            raise SpecError(
                f"{name}: transition {t.label!r} declares branches but its action emits no tags"
            )

    ctor_overrides = dict(constructor_overrides or {})
    for kind, target in ctor_overrides.items():
        ref(target)
    if constructor.tags:
        raise SpecError(f"{name}: constructor actions may not declare outcome tags")

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
        constructor_overrides=ctor_overrides,
        outgoing={s: tuple(ts) for s, ts in outgoing.items()},
    )


class ModelInstance:
    """A live execution of a ModelSpec: current state plus local variables."""

    __slots__ = ("id", "spec", "current", "vars", "ctor_error")

    def __init__(self, instance_id: int, spec: ModelSpec, args: Mapping[str, Any]):
        self.id = instance_id
        self.spec = spec
        self.current = spec.initial
        self.vars: dict[str, Any] = dict(args)
        self.ctor_error: ErrorKind | None = None

    @property
    def alive(self) -> bool:
        """Dead means parked in a state with no way out."""
        return bool(self.spec.outgoing.get(self.current))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.spec.name}#{self.id} @{self.current}>"


class StepKind(enum.Enum):
    COMPLETED = "completed"
    VIOLATION = "violation"


@dataclass(frozen=True)
class StepOutcome:
    kind: StepKind
    target: str | None = None
    message: str | None = None
    raised_error: ErrorKind | None = None
    outcome_tag: str | None = None


class ActionContext:
    """Services visible to a model action (and to constructor actions).

    ``env`` is an opaque namespace supplied by the test runner; the bundled
    models expect it to carry the network backend, the oracle ledger, the
    port allocator, and tuning knobs.
    """

    __slots__ = ("instance", "vars", "rng", "env", "_launcher")

    def __init__(self, instance: ModelInstance, rng: SeededRng, env: Any, launcher):
        self.instance = instance
        self.vars = instance.vars
        self.rng = rng
        self.env = env
        self._launcher = launcher

    def launch(self, spec: ModelSpec, args: Mapping[str, Any] | None = None) -> ModelInstance:
        """Instantiate a child model now; its constructor has completed when
        this returns, so its effects (e.g. a connect) are already visible."""
        return self._launcher(spec, dict(args or {}))

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            raise PropertyViolation(message)

    def maybe(self, probability: float) -> bool:
        return _maybe(self.rng, probability)


def instantiate(
    spec: ModelSpec,
    instance_id: int,
    args: Mapping[str, Any],
    make_ctx: Callable[[ModelInstance], ActionContext],
) -> ModelInstance:
    """Create an instance and run its constructor action synchronously.

    A classified error from the constructor lands the instance in the
    mapped override state when one is declared; otherwise it aborts the
    test as a PropertyViolation.
    """
    inst = ModelInstance(instance_id, spec, args)
    ctx = make_ctx(inst)
    try:
        tag = spec.constructor.fn(ctx)
    except AdapterError as exc:
        target = spec.constructor_overrides.get(exc.kind)
        if target is None:
            raise PropertyViolation(
                f"constructor of {spec.name} raised unexpected {exc}"
            ) from exc
        inst.current = target
        inst.ctor_error = exc.kind
        return inst
    if tag is not None:
        raise PropertyViolation(
            f"constructor of {spec.name} returned unexpected outcome tag {tag!r}"
        )
    return inst


def enabled_transitions(instance: ModelInstance) -> list[Transition]:
    """Transitions leaving the current state whose guard holds, in
    declaration order.  A guard that raises is a property violation."""
    out = []
    for t in instance.spec.outgoing.get(instance.current, ()):
        if t.guard is None:
            out.append(t)
        else:
            try:
                ok = t.guard(instance.vars)
            except Exception as exc:
                raise PropertyViolation(
                    f"guard of {instance.spec.name}.{t.label} raised {exc!r}"
                ) from exc
            if ok:
                out.append(t)
    return out


def _name(instance: ModelInstance, transition: Transition) -> str:
    """``model.label``, for violation messages."""
    return f"{instance.spec.name}.{transition.label}"


def fire_transition(
    instance: ModelInstance, transition: Transition, ctx: ActionContext
) -> StepOutcome:
    """Execute one transition and resolve the resulting state.

    Resolution order: a classified error takes the exception override (or is
    a violation when unmapped); an emitted tag takes its declared branch;
    otherwise the transition's static target applies.  WatchdogTimeout is
    deliberately not handled here - the explorer turns it into a verdict.
    """
    try:
        tag = transition.action.fn(ctx)
    except AdapterError as exc:
        target = transition.exception_overrides.get(exc.kind)
        if target is None:
            return StepOutcome(
                StepKind.VIOLATION,
                message=f"unexpected exception in {_name(instance, transition)}: {exc}",
                raised_error=exc.kind,
            )
        instance.current = target
        return StepOutcome(StepKind.COMPLETED, target=target, raised_error=exc.kind)
    except PropertyViolation as exc:
        return StepOutcome(StepKind.VIOLATION, message=f"{_name(instance, transition)}: {exc}")

    if tag is not None:
        if tag not in transition.action.tags:
            return StepOutcome(
                StepKind.VIOLATION,
                message=f"{_name(instance, transition)} emitted undeclared outcome tag {tag!r}",
            )
        target = transition.outcome_branches[tag]  # total by validation
    else:
        if transition.action.tags:
            return StepOutcome(
                StepKind.VIOLATION,
                message=f"{_name(instance, transition)} declared outcome tags but emitted none",
            )
        target = transition.target
    instance.current = target
    return StepOutcome(StepKind.COMPLETED, target=target, outcome_tag=tag)
