"""netmbt: model-based testing of a TCP socket API.

Extended finite-state machine models drive randomized, replayable test
cases against either real loopback sockets or a deterministic in-memory
network simulation, checking per-connection byte-accounting oracles.
"""

from .adapter import EOF, Interest, NetworkBackend, ReadResult
from .efsm import (
    ActionContext,
    ModelInstance,
    ModelSpec,
    Transition,
    define_model,
    enabled_transitions,
    fire_transition,
    instantiate,
)
from .errors import (
    AdapterError,
    BackendError,
    ConfigError,
    DivergenceError,
    ErrorKind,
    PoolExhaustedError,
    PropertyViolation,
    SpecError,
    WatchdogTimeout,
)
from .explorer import (
    ModelCoverage,
    StepRecord,
    SuiteConfig,
    SuiteReport,
    TestResult,
    Trace,
    coverage_from_traces,
    export_dot,
    format_report,
    parse_traces,
    pick_next,
    replay,
    run_single_test,
    run_suite,
    serialize_trace,
)
from .models import MODEL_REGISTRY, OracleLedger, ROOT_MODELS
from .portman import PortPool
from .realnet import RealBackend
from .rng import SeededRng, derive_seed, maybe
from .simnet import FaultKind, FaultSpec, LatencyModel, SimBackend

__version__ = "0.1.0"
