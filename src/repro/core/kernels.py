"""Arc-expansion kernels: the DP hot path, batched and allocation-free.

``core/expand.py``'s per-arc dynamic program is the single hottest loop in
every search, and most of its cost is interpreter dispatch around tiny NumPy
calls: a fresh candidate array per column, two full reductions over the same
data, mask writes into arrays that are about to be discarded.  Two kernels
share one contract here:

:class:`BatchedKernel` (the production kernel)
    Frontier-batched expansion over preallocated per-query scratch (the
    :class:`~repro.core.expand.ExpansionContext` owns it).  The search
    driver hands it a *frontier*: several VIABLE nodes popped together, each
    with its sibling set.  Every child arc of every frontier parent becomes
    one row of a lockstep DP, seeded by its own parent's column: each step
    computes the next column of every live row as one 2-D update, so the
    interpreter overhead of a step is paid once for all rows.  Rows whose
    column prunes out entirely, and rows whose arc ends, are finished and
    compacted out; the rest advance to the next symbol of their own arc.
    Pruning uses a *fused-limit* mask: the three rules ``new <= 0``,
    ``new + h <= max_score`` and ``new + h < min_score`` are, elementwise,
    exactly ``new <= max(0, cutoff - h)`` with ``cutoff = max(max_score,
    min_score - 1)`` (per row, since every row has its own running
    maximum).  The early-termination test likewise collapses to "did every
    cell prune?", because any survivor has ``bound > cutoff >= max_score``
    and ``bound >= min_score``, so neither termination branch can fire.
    That fusion only holds with all three Section 3.2 rules on and no
    per-rule tally, so this kernel implements exactly that configuration.

:class:`ReferenceKernel`
    The original implementation, verbatim
    (:func:`~repro.core.expand.expand_arc_reference`), run parent by parent
    and arc by arc.  Slower; it is the parity oracle, and it runs every
    other configuration (a rule switched off, or ``track_pruning``) -- the
    pruning ablation included.

:class:`~repro.core.oasis.OasisSearch` picks between them from its
configuration.  The production kernel is parity-gated against the
reference: byte-identical hits, node states and ``columns_expanded``
(``tests/test_kernel_parity.py``).

Purity contract: kernels never allocate arrays and never touch
tracer/metrics inside their step loops -- scratch comes from the
:class:`~repro.core.expand.ExpansionContext` -- enforced by the
``kernel-purity`` analysis rule over this file.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.expand import ExpansionContext, expand_arc_reference
from repro.core.search_node import (
    NodeState,
    PRUNED,
    SearchNode,
    make_terminal_node,
)

#: One child of a VIABLE node, as the search driver hands it to a kernel:
#: ``(tree node handle, arc symbol codes, is-leaf flag)``.
Sibling = Tuple[object, np.ndarray, bool]
#: VIABLE parents expanded in one kernel call, each with its sibling set.
Frontier = Sequence[Tuple[SearchNode, Iterable[Sibling]]]


class ExpansionKernel:
    """One strategy for running Algorithm 3 over a frontier of VIABLE nodes.

    ``expand_arc`` expands a single arc; ``expand_children`` receives a
    frontier -- ``(parent, siblings)`` pairs, each sibling set lazily
    iterable, so non-batching kernels preserve the child-by-child cursor
    access pattern -- and returns one :class:`SearchNode` per child,
    *parent by parent, in child order*: the driver's enqueue counter, and
    with it the heap tie-break order, depends on that.
    """

    name = ""
    #: Whether the kernel honours every pruning configuration (any rule
    #: switched off, per-rule tallies).  A kernel that does not implements
    #: the paper's all-rules, untracked search only.
    general = False

    def expand_arc(
        self,
        parent: SearchNode,
        tree_node,
        arc_symbols: np.ndarray,
        is_leaf: bool,
        context: ExpansionContext,
    ) -> SearchNode:
        raise NotImplementedError

    def expand_children(
        self, frontier: Frontier, context: ExpansionContext
    ) -> List[SearchNode]:
        return [
            self.expand_arc(parent, tree_node, arc_symbols, is_leaf, context)
            for parent, siblings in frontier
            for tree_node, arc_symbols, is_leaf in siblings
        ]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _viable_node(tree_node, column, bound, heuristic, max_score, best, depth):
    """A row whose arc ended with live cells: the one copy of its column."""
    np.add(column, heuristic, out=bound)
    return SearchNode(
        tree_node=tree_node,
        column=column.copy(),
        max_score=max_score,
        f=int(np.maximum.reduce(bound)),
        b=best,
        state=NodeState.VIABLE,
        depth=depth,
    )


class BatchedKernel(ExpansionKernel):
    """Frontier-batched expansion: every child arc of every parent in lockstep.

    Row ``r`` carries one child arc, its parent's column as the seed, and its
    own running maximum (``max_score``) and best-ending score (``b``).  Step
    ``k`` computes column ``k`` of every live row at once.  Valid for the
    all-rules, untracked configuration only (``general`` is False).
    """

    name = "batched"

    def expand_arc(
        self,
        parent: SearchNode,
        tree_node,
        arc_symbols: np.ndarray,
        is_leaf: bool,
        context: ExpansionContext,
    ) -> SearchNode:
        # A one-row frontier through the same lockstep DP.
        return self.expand_children(
            [(parent, [(tree_node, arc_symbols, is_leaf)])], context
        )[0]

    def expand_children(
        self, frontier: Frontier, context: ExpansionContext
    ) -> List[SearchNode]:
        parents: List[SearchNode] = []
        arcs: List[np.ndarray] = []
        # Per row: (output slot, tree node, is-leaf flag, parent depth, arc
        # length).
        rows: List[tuple] = []
        origins: List[int] = []
        for parent, siblings in frontier:
            if parent.column is None:
                raise ValueError("cannot expand below a node whose column was discarded")
            for tree_node, arc_symbols, is_leaf in siblings:
                rows.append(
                    (len(rows), tree_node, is_leaf, parent.depth, len(arc_symbols))
                )
                arcs.append(arc_symbols)
                origins.append(len(parents))
            parents.append(parent)
        live = len(rows)
        nodes: List[SearchNode] = [None] * live  # type: ignore[list-item]
        if not live:
            return nodes
        context.reserve_frontier(live, len(parents))

        gap = context.gap_penalty
        heuristic = context.heuristic
        min_score = context.min_score
        profile = context.profile
        offsets = context._offsets
        read, write = context.frontier_columns
        work = context.frontier_work
        mask = context.frontier_mask
        done = context.frontier_done
        symbols, index = context.frontier_index
        peak, best, column_best, cutoff = context.frontier_scores

        # Seed every row with its parent's column and running maximum.
        seeds = context.frontier_parent_columns
        maxima = context.frontier_parent_max
        for position, parent in enumerate(parents):
            seeds[position] = parent.column
            maxima[position] = parent.max_score
        origin = index[:live]
        origin[:] = origins
        seeds.take(origin, axis=0, out=read[:live])
        maxima.take(origin, out=peak[:live])
        best[:live] = PRUNED

        step = 0
        next_end = min(map(len, arcs))
        while live:
            for row, arc in enumerate(arcs):
                symbols[row] = arc[step]
            old = read[:live]
            new = write[:live]
            limit = work[:live]
            row_peak = peak[:live]
            row_best = best[:live]
            row_cutoff = cutoff[:live]
            row_mask = mask[:live]
            row_done = done[:live]

            # Candidate columns: diagonal (substitution) vs horizontal
            # (deletion) terms, then row 0, where only a deletion from the
            # previous row-0 entry is possible -- no reset to zero.
            profile.take(symbols[:live], axis=0, out=new[:, 1:])
            np.add(new[:, 1:], old[:, :-1], out=new[:, 1:])
            np.add(old, gap, out=limit)
            np.maximum(new[:, 1:], limit[:, 1:], out=new[:, 1:])
            new[:, 0] = limit[:, 0]
            # Vertical (insertion) dependency, per row:
            #   new[i] = max(candidate[i], new[i-1] + gap)
            #          = max_{k <= i} (candidate[k] + gap * (i - k))
            np.subtract(new, offsets, out=new)
            np.maximum.accumulate(new, axis=1, out=new)
            np.add(new, offsets, out=new)
            context.columns_expanded += live

            np.maximum.reduce(new, axis=1, out=column_best[:live])
            np.maximum(row_peak, column_best[:live], out=row_peak)
            np.maximum(row_best, column_best[:live], out=row_best)

            # --- Alignment pruning (Section 3.2) ----------------------- #
            # Fused mask: non-positive | dominated | hopeless collapses to
            # one comparison against ``max(0, cutoff - heuristic)`` with the
            # row's own cutoff.  A row is finished when everything pruned:
            # any survivor has bound > cutoff >= max_score and bound >=
            # min_score, so neither termination branch can fire for it.
            np.maximum(row_peak, min_score - 1, out=row_cutoff)
            np.subtract(row_cutoff[:, None], heuristic, out=limit)
            np.maximum(limit, 0, out=limit)
            np.less_equal(new, limit, out=row_mask)
            np.logical_and.reduce(row_mask, axis=1, out=row_done)
            np.copyto(new, PRUNED, where=row_mask)
            step += 1

            if step < next_end and not np.logical_or.reduce(row_done):
                read, write = write, read
                continue
            # Finish the rows that pruned out or reached the end of their
            # arc; compact the survivors into ``read``, keeping row order.
            keep: List[int] = []
            finished = row_done.tolist()
            peaks = row_peak.tolist()
            for row, (slot, tree_node, is_leaf, depth, length) in enumerate(rows):
                if finished[row] or (is_leaf and length == step):
                    # Pruned out, or a leaf: nothing below can improve the
                    # path, whose strongest alignment is already known.
                    nodes[slot] = make_terminal_node(
                        tree_node, peaks[row], min_score, depth + step
                    )
                elif length == step:
                    nodes[slot] = _viable_node(
                        tree_node,
                        new[row],
                        limit[row],
                        heuristic,
                        peaks[row],
                        int(row_best[row]),
                        depth + step,
                    )
                else:
                    keep.append(row)
            live = len(keep)
            if live:
                survivors = index[:live]
                survivors[:] = keep
                new.take(survivors, axis=0, out=read[:live])
                row_peak.take(survivors, out=peak[:live])
                row_best.take(survivors, out=best[:live])
                arcs = [arcs[row] for row in keep]
                rows = [rows[row] for row in keep]
                next_end = min(map(len, arcs))
        return nodes


class ReferenceKernel(ExpansionKernel):
    """The original per-column implementation, unmodified (the parity oracle)."""

    name = "reference"
    general = True

    def expand_arc(
        self,
        parent: SearchNode,
        tree_node,
        arc_symbols: np.ndarray,
        is_leaf: bool,
        context: ExpansionContext,
    ) -> SearchNode:
        return expand_arc_reference(parent, tree_node, arc_symbols, is_leaf, context)


def get_kernel() -> ExpansionKernel:
    """A new instance of the production kernel."""
    return BatchedKernel()
