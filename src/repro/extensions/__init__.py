"""§6 extensions: profiling, FIFO locks, update-mode coherence, plus the
§4.2 IPI message-passing path."""

from .fifolock import fifo_grants, make_fifo_block
from .messaging import Mailbox, ReceivedMessage, open_mailboxes, send_message
# canonical home is repro.profiling; re-exported here for the §6 grouping
from ..profiling.memory import MemoryProfiler, overflow_worker_sets, profile_blocks
from .update import make_update_block, updates_propagated

__all__ = [
    "Mailbox",
    "MemoryProfiler",
    "ReceivedMessage",
    "fifo_grants",
    "make_fifo_block",
    "make_update_block",
    "open_mailboxes",
    "overflow_worker_sets",
    "profile_blocks",
    "send_message",
    "updates_propagated",
]
