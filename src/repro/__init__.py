"""repro — a reproduction of *funcX: A Federated Function Serving Fabric
for Science* (Chard et al., HPDC 2020).

The package builds the full system from scratch on two fabrics:

* a **live fabric** (:class:`repro.fabric.LocalDeployment`) where real
  worker threads execute real Python functions through the complete
  service → forwarder → agent → manager → worker pipeline; and
* a **simulated fabric** (:mod:`repro.sim`) — a discrete-event simulator
  driving the same protocol logic at supercomputer scale (131k workers).

Quickstart::

    from repro import LocalDeployment

    def double(x):
        return 2 * x

    with LocalDeployment() as dep:
        fc = dep.client()
        ep = dep.create_endpoint("laptop", nodes=1)
        fid = fc.register_function(double)
        task = fc.run(fid, ep, 21)
        print(fc.wait_for(task))   # -> 42
"""

from repro.accounting import UsageLedger
from repro.core.client import FuncXClient
from repro.core.executor import FuncXExecutor
from repro.core.futures import FuncXFuture
from repro.core.service import FuncXService, ServiceConfig
from repro.core.tasks import Task, TaskState
from repro.endpoint.config import EndpointConfig
from repro.endpoint.endpoint import Endpoint
from repro.core.rest import RestApi
from repro.fabric import DeploymentTimings, LocalDeployment
from repro.federation import FederatedExecutor
from repro.metrics.registry import MetricsRegistry
from repro.monitoring import Dashboard, TaskEventLog
from repro.serialize import FuncXSerializer

__version__ = "1.0.0"

__all__ = [
    "FuncXClient",
    "FuncXExecutor",
    "FuncXFuture",
    "FuncXService",
    "ServiceConfig",
    "Task",
    "TaskState",
    "EndpointConfig",
    "Endpoint",
    "LocalDeployment",
    "DeploymentTimings",
    "FuncXSerializer",
    "RestApi",
    "FederatedExecutor",
    "UsageLedger",
    "TaskEventLog",
    "Dashboard",
    "MetricsRegistry",
    "__version__",
]
