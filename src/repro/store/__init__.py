"""In-memory data store (AWS ElastiCache Redis substitute).

The funcX service keeps one task queue per endpoint in Redis and lets
monitors follow task state (paper section 4.1).  This package provides
thread-safe equivalents of those two (task records live in
:mod:`repro.core.shard`, functions in :mod:`repro.core.registry`):

* :class:`ReliableQueue` — FIFO queue with lease/ack semantics giving the
  at-least-once delivery the hierarchical queueing architecture requires;
  its lease table, keyed by task id, is the service's one record of
  what is in flight.
* :class:`PubSub` — exact-topic fan-out, kept for a benchmark drive;
  monitors subscribe to the deployment's event spine instead.
"""

from repro.store.queues import Lease, ReliableQueue
from repro.store.pubsub import PubSub

__all__ = ["ReliableQueue", "Lease", "PubSub"]
