"""Unit tests for the LocalDeployment assembly and Endpoint lifecycle."""

from __future__ import annotations

import time

import pytest

from repro import DeploymentTimings, EndpointConfig, LocalDeployment
from repro.core.service import ServiceConfig


class TestDeploymentAssembly:
    def test_client_reuses_identity(self):
        with LocalDeployment() as dep:
            a = dep.client("alice")
            b = dep.client("alice")
            assert a.identity.identity_id == b.identity.identity_id
            c = dep.client("carol")
            assert c.identity.identity_id != a.identity.identity_id

    def test_endpoint_listing_and_handles(self):
        with LocalDeployment() as dep:
            ep1 = dep.create_endpoint("a", nodes=1, start=False)
            ep2 = dep.create_endpoint("b", nodes=1, start=False)
            assert dep.endpoints() == sorted([ep1, ep2])
            assert dep.endpoint(ep1).endpoint_id == ep1
            assert dep.forwarder(ep2).endpoint_id == ep2

    def test_unstarted_endpoint_queues_tasks(self):
        with LocalDeployment() as dep:
            client = dep.client()
            ep = dep.create_endpoint("lazy", nodes=1, start=False)
            fid = client.register_function(lambda x: x)
            task_id = client.run(fid, ep, 1)
            from repro.core.tasks import TaskState

            assert client.get_status(task_id) is TaskState.QUEUED

    def test_endpoints_are_auth_native_clients(self):
        with LocalDeployment() as dep:
            dep.create_endpoint("secured", nodes=1, start=False)
            record = dep.service.endpoints.all()[0]
            owner = dep.auth.get_identity(record.owner_id)
            assert owner.provider == "funcx-endpoint"

    def test_service_overhead_wired_from_timings(self):
        timings = DeploymentTimings(service_overhead=0.02)
        with LocalDeployment(timings=timings) as dep:
            assert dep.service.config.request_overhead == 0.02

    def test_custom_service_config_preserved(self):
        config = ServiceConfig(payload_limit=1024)
        with LocalDeployment(service_config=config) as dep:
            assert dep.service.config.payload_limit == 1024

    def test_create_endpoint_after_shutdown_rejected(self):
        dep = LocalDeployment()
        dep.shutdown()
        with pytest.raises(RuntimeError):
            dep.create_endpoint("late", nodes=1)

    def test_shutdown_idempotent(self):
        dep = LocalDeployment()
        dep.create_endpoint("e", nodes=1)
        dep.shutdown()
        dep.shutdown()

    def test_drain_empty_endpoint(self):
        with LocalDeployment() as dep:
            ep = dep.create_endpoint("e", nodes=1)
            assert dep.drain(ep, timeout=2.0)

    def test_drain_waits_for_outstanding(self):
        with LocalDeployment() as dep:
            client = dep.client()
            ep = dep.create_endpoint("e", nodes=1)
            import repro.workloads as w

            fid = client.register_function(w.make_sleep_function(0.3))
            client.submit(fid, ep)
            assert not dep.drain(ep, timeout=0.05)
            assert dep.drain(ep, timeout=10.0)


class TestEndpointLifecycle:
    def test_wait_ready(self):
        with LocalDeployment() as dep:
            ep_id = dep.create_endpoint("e", nodes=2)
            endpoint = dep.endpoint(ep_id)
            assert endpoint.wait_ready(timeout=5.0)
            assert endpoint.agent.total_capacity() > 0

    def test_double_start_rejected(self):
        with LocalDeployment() as dep:
            ep_id = dep.create_endpoint("e", nodes=1)
            with pytest.raises(RuntimeError):
                dep.endpoint(ep_id).start()

    def test_total_workers(self):
        with LocalDeployment() as dep:
            ep_id = dep.create_endpoint(
                "e", nodes=3, config=EndpointConfig(workers_per_node=2)
            )
            assert dep.endpoint(ep_id).total_workers == 6

    def test_scale_in_unknown_manager(self):
        with LocalDeployment() as dep:
            ep_id = dep.create_endpoint("e", nodes=1)
            assert not dep.endpoint(ep_id).scale_in("nope")

    def test_kill_unknown_manager(self):
        with LocalDeployment() as dep:
            ep_id = dep.create_endpoint("e", nodes=1)
            with pytest.raises(KeyError):
                dep.endpoint(ep_id).kill_manager("ghost")

    def test_restart_manager_adds_capacity(self):
        with LocalDeployment() as dep:
            ep_id = dep.create_endpoint("e", nodes=1)
            endpoint = dep.endpoint(ep_id)
            before = endpoint.total_workers
            endpoint.restart_manager()
            assert endpoint.total_workers == before + endpoint.config.workers_per_node


class TestClientEdgeCases:
    def test_wait_for_timeout(self):
        from repro.errors import TaskPending

        with LocalDeployment() as dep:
            client = dep.client()
            ep = dep.create_endpoint("e", nodes=1, start=False)  # never runs
            fid = client.register_function(lambda x: x)
            task_id = client.run(fid, ep, 1)
            with pytest.raises(TaskPending):
                client.wait_for(task_id, timeout=0.3)

    def test_update_function_new_body_served(self):
        with LocalDeployment() as dep:
            client = dep.client()
            ep = dep.create_endpoint("e", nodes=1)

            def v1(x):
                return x + 1

            def v2(x):
                return x + 100

            fid = client.register_function(v1)
            assert client.wait_for(client.run(fid, ep, 1), timeout=15) == 2
            version = client.update_function(fid, v2)
            assert version == 2
            assert client.wait_for(client.run(fid, ep, 1), timeout=15) == 101

    def test_register_endpoint_via_client(self):
        from repro.auth.scopes import Scope

        with LocalDeployment() as dep:
            identity = dep.auth.register_identity("admin")
            from repro.core.client import FuncXClient

            client = FuncXClient(dep.service, identity,
                                 scopes=[Scope.REGISTER_ENDPOINT, Scope.MONITOR])
            ep_id = client.register_endpoint("registered-via-sdk")
            assert dep.service.endpoints.get(ep_id).name == "registered-via-sdk"

    def test_map_empty_iterator(self):
        with LocalDeployment() as dep:
            client = dep.client()
            ep = dep.create_endpoint("e", nodes=1)
            fid = client.register_function(lambda x: x)
            result = client.map(fid, [], ep, batch_size=4)
            assert result.batch_count == 0
            assert result.result(timeout=5) == []


class TestTopLevelApi:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points_present(self):
        import repro

        for name in ("LocalDeployment", "FuncXClient", "FederatedExecutor",
                     "UsageLedger", "TaskEventLog", "Dashboard", "RestApi"):
            assert name in repro.__all__

    def test_importing_the_package_or_the_simulator_loads_no_fabric(self):
        """``import repro`` resolves its names on first use, so it loads
        no other ``repro`` module, and the simulator stands alone."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "import repro\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.')]\n"
            "assert not loaded, loaded\n"
            "assert set(repro.__all__) <= set(dir(repro))\n"
            "from repro.sim import SimFabric\n"
            "from repro.sim.platform import CORI\n"
            "for name in ('core', 'endpoint', 'fabric', 'providers',\n"
            "             'accounting', 'federation'):\n"
            "    assert 'repro.' + name not in sys.modules, name\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_a_deployment_that_sees_no_array_never_imports_numpy(self):
        """Importing the fabric, standing a deployment up and running a
        task load no NumPy: the statistics helpers import it on first
        use and ``NumpyMethod`` asks ``sys.modules`` before it does."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "import repro.fabric\n"
            "from repro.fabric import LocalDeployment\n"
            "def inc(x):\n"
            "    return x + 1\n"
            "with LocalDeployment() as deployment:\n"
            "    client = deployment.client()\n"
            "    endpoint = deployment.create_endpoint('e', nodes=1)\n"
            "    executor = client.executor(endpoint)\n"
            "    assert executor.submit(inc, 1).result(timeout=30) == 2\n"
            "    executor.shutdown()\n"
            "assert 'numpy' not in sys.modules\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_reading_a_deployments_metrics_never_imports_numpy(self):
        """Histogram summaries are computed without NumPy, so a
        deployment's metrics export as snapshot, text and JSON-lines
        after client and executor tasks with NumPy never imported."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import os, sys, tempfile\n"
            "from repro.fabric import LocalDeployment\n"
            "def inc(x):\n"
            "    return x + 1\n"
            "with LocalDeployment() as deployment:\n"
            "    client = deployment.client()\n"
            "    endpoint = deployment.create_endpoint('e', nodes=1)\n"
            "    function_id = client.register_function(inc)\n"
            "    for i in range(5):\n"
            "        assert client.submit(function_id, endpoint, i)"
            ".result(timeout=30) == i + 1\n"
            "    with client.executor(endpoint) as executor:\n"
            "        futures = [executor.submit(inc, i) for i in range(5)]\n"
            "        assert [f.result(timeout=30) for f in futures] == "
            "[1, 2, 3, 4, 5]\n"
            "    metrics = deployment.metrics\n"
            "    records = metrics.snapshot()\n"
            "    summarized = [r for r in records if r.get('p99') is not None]\n"
            "    assert summarized, records\n"
            "    assert 'task.total_seconds' in metrics.render_text()\n"
            "    with tempfile.TemporaryDirectory() as scratch:\n"
            "        path = os.path.join(scratch, 'metrics.jsonl')\n"
            "        assert metrics.dump_jsonl(path) == len(records)\n"
            "assert 'numpy' not in sys.modules\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
