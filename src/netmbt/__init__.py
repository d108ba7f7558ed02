"""netmbt: model-based testing of a TCP socket API.

Extended finite-state machine models drive randomized, replayable test
cases against either real loopback sockets or a deterministic in-memory
network simulation, checking per-connection byte-accounting oracles.
"""

__version__ = "0.1.0"
