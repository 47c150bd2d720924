"""repro -- a reproduction of *Separating Agreement from Execution for
Byzantine Fault Tolerant Services* (Yin, Martin, Venkataramani, Alvisi,
Dahlin; SOSP 2003).

The package implements, in simulation:

* a BASE/PBFT-style Byzantine **agreement** library (``repro.agreement``),
* the paper's **separated architecture**: agreement nodes host message
  queues, ``2g + 1`` execution replicas process ordered requests
  (``repro.core``; its deployment is the one-shard case of the sharded
  builder in ``repro.sharding``),
* the **privacy firewall** filter array (``repro.firewall``),
* the substrates those need: a discrete-event simulator (``repro.sim``), an
  unreliable network (``repro.net``), cryptographic primitives with a cost
  model (``repro.crypto``), replicated applications (``repro.apps``), and the
  workloads, fault injectors, and analysis used to reproduce every figure and
  table of the paper's evaluation (``repro.workloads``, ``repro.faults``,
  ``repro.analysis``).

Quickstart::

    from repro import SystemConfig, SeparatedSystem
    from repro.apps.counter import CounterService, increment

    system = SeparatedSystem(SystemConfig.separate_different_mac(), CounterService)
    record = system.invoke(increment(5))
    print(record.result.value, record.latency_ms)
"""

from .config import (
    AuthenticationScheme,
    CryptoCosts,
    Deployment,
    NetworkConfig,
    ObservabilityConfig,
    ShardingConfig,
    SystemConfig,
    TimerConfig,
)
from .core import (
    ClientNode,
    CompletedRequest,
    CoupledSystem,
    UnreplicatedSystem,
)
from .errors import (
    CertificateError,
    ConfigurationError,
    CryptoError,
    LivenessTimeoutError,
    ProtocolError,
    ReproError,
    VerificationError,
)
from .sharding import ExecutionNode, SeparatedSystem, ShardedSystem
from .statemachine import NonDetInput, Operation, OperationResult, StateMachine

__version__ = "1.0.0"

__all__ = [
    "AuthenticationScheme",
    "CryptoCosts",
    "Deployment",
    "NetworkConfig",
    "ObservabilityConfig",
    "ShardingConfig",
    "SystemConfig",
    "TimerConfig",
    "ShardedSystem",
    "ClientNode",
    "CompletedRequest",
    "CoupledSystem",
    "ExecutionNode",
    "SeparatedSystem",
    "UnreplicatedSystem",
    "CertificateError",
    "ConfigurationError",
    "CryptoError",
    "LivenessTimeoutError",
    "ProtocolError",
    "ReproError",
    "VerificationError",
    "NonDetInput",
    "Operation",
    "OperationResult",
    "StateMachine",
    "__version__",
]
