"""repro — a reproduction of *funcX: A Federated Function Serving Fabric
for Science* (Chard et al., HPDC 2020).

The package builds the full system from scratch on two fabrics:

* a **live fabric** (:class:`repro.fabric.LocalDeployment`) where real
  worker threads execute real Python functions through the complete
  service → forwarder → agent → manager → worker pipeline; and
* a **simulated fabric** (:mod:`repro.sim`) — a discrete-event simulator
  driving the same protocol logic at supercomputer scale (131k workers).

Its names resolve on first use, so a simulation never loads the live fabric.

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

from importlib import import_module

__version__ = "1.0.0"

_EXPORTS = {
    "FuncXClient": "repro.core.client",
    "FuncXExecutor": "repro.core.executor",
    "FuncXFuture": "repro.core.futures",
    "FuncXService": "repro.core.service",
    "ServiceConfig": "repro.core.service",
    "Task": "repro.core.tasks",
    "TaskState": "repro.core.tasks",
    "EndpointConfig": "repro.endpoint.config",
    "Endpoint": "repro.endpoint.endpoint",
    "LocalDeployment": "repro.fabric",
    "DeploymentTimings": "repro.fabric",
    "FuncXSerializer": "repro.serialize",
    "RestApi": "repro.core.rest",
    "FederatedExecutor": "repro.federation",
    "UsageLedger": "repro.accounting",
    "TaskEventLog": "repro.monitoring",
    "Dashboard": "repro.monitoring",
    "MetricsRegistry": "repro.metrics.registry",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(_EXPORTS[name]), name)
    return value


def __dir__() -> list[str]:
    return __all__
