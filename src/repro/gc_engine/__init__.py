"""Garbage collection: version-chain pruning and epoch protection.

Section 3.3's two-phase design: a GC pass first *unlinks* delta records that
no active transaction can see (truncating each chain exactly once), then
*deallocates* them one epoch later, once every transaction alive at unlink
time has finished.  The same deferred-action mechanism generalizes to the
transformation pipeline's memory reclamation (Section 4.4).
"""

from repro.gc_engine.epoch import DeferredActionQueue
from repro.gc_engine.collector import GarbageCollector

__all__ = ["DeferredActionQueue", "GarbageCollector"]
