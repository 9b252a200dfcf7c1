"""Usage accounting (paper §2 "Billing" requirement, §6 challenge 3).

"The coarse allocation models employed by research infrastructure does
not map well to fine grain and short duration function usage, work is
needed to support accounting and billing models to track usage on a
per-user and per-function basis."

:class:`UsageLedger` implements that tracking: it subscribes to the
service's task-completion stream and aggregates invocations, execution
seconds, and failures per user, per function, and per endpoint — the
granularity a facility would bill against.  Charges can be converted to
core-seconds against an allocation budget.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from repro.core.service import FuncXService
from repro.core.tasks import TaskState


@dataclass
class UsageRecord:
    """Aggregated usage for one accounting key."""

    invocations: int = 0
    failures: int = 0
    memo_hits: int = 0
    execution_seconds: float = 0.0

    def charge(self, other_execution: float, failed: bool, memo: bool) -> None:
        self.invocations += 1
        if failed:
            self.failures += 1
        if memo:
            self.memo_hits += 1
        else:
            self.execution_seconds += other_execution

    @property
    def success_rate(self) -> float:
        if self.invocations == 0:
            return 1.0
        return 1.0 - self.failures / self.invocations


@dataclass
class AllocationBudget:
    """A facility allocation in core-seconds."""

    total_core_seconds: float
    used_core_seconds: float = 0.0

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_core_seconds - self.used_core_seconds)

    @property
    def exhausted(self) -> bool:
        return self.used_core_seconds >= self.total_core_seconds


class UsageLedger:
    """Per-user / per-function / per-endpoint usage tracking.

    Attach to a live service with :meth:`attach`; every terminal task is
    charged automatically.  The simulated fabric can charge records
    directly via :meth:`charge`.

    Parameters
    ----------
    cores_per_task:
        Cores a task occupies while executing (workers are single-core in
        both the paper's deployments and this reproduction).
    """

    def __init__(self, cores_per_task: float = 1.0):
        self.cores_per_task = cores_per_task
        self._lock = threading.Lock()
        self.by_user: dict[str, UsageRecord] = {}
        self.by_function: dict[str, UsageRecord] = {}
        self.by_endpoint: dict[str, UsageRecord] = {}
        self._budgets: dict[str, AllocationBudget] = {}
        self._subscription: int | None = None
        self._service: FuncXService | None = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, service: FuncXService) -> None:
        """Start charging every terminal task of ``service``."""
        if self._service is not None:
            raise RuntimeError("ledger already attached")
        self._service = service

        def on_event(_source: str, kind: str, fields: dict) -> None:
            if kind != "tasks.terminal":
                return
            for task in fields["tasks"]:
                if task.state is TaskState.CANCELLED:
                    continue  # never ran to an outcome: nothing to bill
                self.charge(
                    user_id=task.owner_id,
                    function_id=task.function_id,
                    endpoint_id=task.endpoint_id,
                    execution_seconds=task.execution_time,
                    failed=task.state is TaskState.FAILED,
                    memo_hit=task.memo_hit,
                )

        self._subscription = service.events.subscribe(on_event)

    def detach(self) -> None:
        if self._service is not None and self._subscription is not None:
            self._service.events.unsubscribe(self._subscription)
        self._service = None
        self._subscription = None

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def charge(
        self,
        user_id: str,
        function_id: str,
        endpoint_id: str,
        execution_seconds: float,
        failed: bool = False,
        memo_hit: bool = False,
    ) -> None:
        with self._lock:
            for table, key in (
                (self.by_user, user_id),
                (self.by_function, function_id),
                (self.by_endpoint, endpoint_id),
            ):
                table.setdefault(key, UsageRecord()).charge(
                    execution_seconds, failed, memo_hit
                )
            budget = self._budgets.get(endpoint_id)
            if budget is not None and not memo_hit:
                budget.used_core_seconds += execution_seconds * self.cores_per_task

    # ------------------------------------------------------------------
    # budgets
    # ------------------------------------------------------------------
    def set_allocation(self, endpoint_id: str, core_seconds: float) -> AllocationBudget:
        budget = AllocationBudget(total_core_seconds=core_seconds)
        with self._lock:
            self._budgets[endpoint_id] = budget
        return budget

    def allocation(self, endpoint_id: str) -> AllocationBudget | None:
        with self._lock:
            return self._budgets.get(endpoint_id)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def user_usage(self, user_id: str) -> UsageRecord:
        with self._lock:
            return self.by_user.get(user_id, UsageRecord())

    def function_usage(self, function_id: str) -> UsageRecord:
        with self._lock:
            return self.by_function.get(function_id, UsageRecord())

    def endpoint_usage(self, endpoint_id: str) -> UsageRecord:
        with self._lock:
            return self.by_endpoint.get(endpoint_id, UsageRecord())

    def top_users(self, n: int = 10) -> list[tuple[str, UsageRecord]]:
        """Heaviest users by execution seconds."""
        with self._lock:
            ranked = sorted(
                self.by_user.items(),
                key=lambda kv: kv[1].execution_seconds,
                reverse=True,
            )
        return ranked[:n]

    def statement(self) -> str:
        """A human-readable usage statement."""
        lines = ["usage statement", "=" * 60]
        with self._lock:
            for title, table in (
                ("per user", self.by_user),
                ("per function", self.by_function),
                ("per endpoint", self.by_endpoint),
            ):
                lines.append(f"-- {title} --")
                for key, record in sorted(table.items()):
                    lines.append(
                        f"  {key[:16]:<18s} invocations={record.invocations:<6d} "
                        f"exec={record.execution_seconds:9.3f}s "
                        f"failures={record.failures} memo_hits={record.memo_hits}"
                    )
        return "\n".join(lines)
