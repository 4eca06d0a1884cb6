"""Hot→cold block transformation (Section 4).

The pipeline of Figure 8: the garbage collector's pass over undo records
feeds the :class:`AccessObserver`, which queues blocks that have not been
modified for a threshold number of GC epochs.  The :class:`BlockTransformer`
pulls from the queue and runs the two-phase algorithm — a transactional
*compaction* that eliminates slot gaps with a provably near-optimal number
of tuple movements, then a short exclusive *gather* that copies varlen
values into canonical Arrow buffers (or dictionary-compresses them), after
which the block is FROZEN and readable in place.
"""

from repro.transform.access_observer import AccessObserver, TransformQueue
from repro.transform.compaction import (
    CompactionPlan,
    execute_compaction,
    plan_compaction,
    plan_compaction_optimal,
)
from repro.transform.gather import gather_block
from repro.transform.dictionary import dictionary_compress_block
from repro.transform.arrow_view import (
    block_to_record_batch,
    frozen_batch,
    table_schema,
)
from repro.transform.transformer import (
    BlockTransformer,
    inplace_transform,
    snapshot_transform,
)

__all__ = [
    "AccessObserver",
    "BlockTransformer",
    "CompactionPlan",
    "TransformQueue",
    "block_to_record_batch",
    "dictionary_compress_block",
    "execute_compaction",
    "frozen_batch",
    "gather_block",
    "inplace_transform",
    "plan_compaction",
    "plan_compaction_optimal",
    "snapshot_transform",
    "table_schema",
]
