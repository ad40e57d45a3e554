"""repro.flow — end-to-end flow control, admission, and priority.

Three cooperating mechanisms keep an overloaded CLAM deployment
bounded and responsive instead of slow everywhere:

- **credits** (:class:`CreditGate` / :class:`CreditLedger`) bound what
  one producer may have in flight on a stream — batched calls toward a
  server, upcalls toward a client;
- **admission** (:class:`TokenBucket`, :class:`ConcurrencyLimit`,
  :class:`DeadlineAware`, :class:`AdmissionChain`) sheds work the
  server cannot serve usefully, before execution, with a retryable
  :class:`~repro.errors.ServerOverloadedError` and a ``retry_after_ms``
  hint;
- **priority** (:class:`PriorityClass`, :class:`PriorityMailbox`,
  :func:`priority_scope`) lets urgent traffic (interactive upcalls)
  jump queues without starving deferred traffic (batched posts).

See ``docs/FLOW.md`` for the design walk-through and
``examples/overload_demo.py`` for the whole stack under overload.
"""

from repro.flow.admission import (
    AdmissionChain,
    AdmissionPolicy,
    AdmissionRequest,
    ConcurrencyLimit,
    DeadlineAware,
    TokenBucket,
    overloaded,
    pack_retry_after,
    parse_retry_after,
)
from repro.flow.bounded import POLICIES, BoundedQueue, Outcome
from repro.flow.controller import ChannelFlow, FlowController
from repro.flow.credits import (
    DEFAULT_PROBE_INTERVAL,
    DEFAULT_WINDOW_BYTES,
    DEFAULT_WINDOW_MSGS,
    MESSAGE_OVERHEAD,
    CreditGate,
    CreditLedger,
    message_cost,
)
from repro.flow.priority import (
    DEFAULT_WEIGHTS,
    PriorityClass,
    PriorityMailbox,
    classify,
    current_priority,
    priority_scope,
    wire_priority,
)

__all__ = [
    "AdmissionChain",
    "AdmissionPolicy",
    "AdmissionRequest",
    "BoundedQueue",
    "ChannelFlow",
    "ConcurrencyLimit",
    "CreditGate",
    "CreditLedger",
    "DEFAULT_PROBE_INTERVAL",
    "DEFAULT_WEIGHTS",
    "DEFAULT_WINDOW_BYTES",
    "DEFAULT_WINDOW_MSGS",
    "DeadlineAware",
    "FlowController",
    "MESSAGE_OVERHEAD",
    "Outcome",
    "POLICIES",
    "PriorityClass",
    "PriorityMailbox",
    "TokenBucket",
    "classify",
    "current_priority",
    "message_cost",
    "overloaded",
    "pack_retry_after",
    "parse_retry_after",
    "priority_scope",
    "wire_priority",
]
