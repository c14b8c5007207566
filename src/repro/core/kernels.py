"""Arc-expansion kernels: the DP hot path, batched and allocation-free.

``core/expand.py``'s per-arc dynamic program is the single hottest loop in
every search, and most of its cost is interpreter dispatch around tiny NumPy
calls: a fresh candidate array per column, two full reductions over the same
data, mask writes into arrays that are about to be discarded.  Two kernels
share one contract here:

:class:`BatchedKernel` (the production kernel)
    Sibling-batched expansion over preallocated per-query scratch (the
    :class:`~repro.core.expand.ExpansionContext` owns it).  A node's children
    all start with distinct arc symbols, so when a VIABLE node is expanded
    the first DP column of *every* child arc is computed as one 2-D
    vectorised update.  Most arcs die within their first column, so the
    common case finishes inside the batch; survivors continue through a
    per-arc column loop with ``out=`` ufunc forms and ping-pong column
    buffers, so a parent's column is never mutated.  Pruning uses a
    *fused-limit* mask: the three rules ``new <= 0``,
    ``new + h <= max_score`` and ``new + h < min_score`` are, elementwise,
    exactly ``new <= max(0, cutoff - h)`` with ``cutoff = max(max_score,
    min_score - 1)``, so one comparison against a cached limit vector
    (recomputed only when the path's ``max_score`` rises) replaces the
    per-column bound array and both of its comparisons.  The
    early-termination test likewise collapses to "did every cell prune?",
    because any survivor has ``bound > cutoff >= max_score`` and
    ``bound >= min_score``, so neither termination branch can fire.  That
    fusion only holds with all three Section 3.2 rules on and no per-rule
    tally, so this kernel implements exactly that configuration.

:class:`ReferenceKernel`
    The original implementation, verbatim
    (:func:`~repro.core.expand.expand_arc_reference`).  Slower; it is the
    parity oracle, and it runs every other configuration (a rule switched
    off, or ``track_pruning``) -- the pruning ablation included.

:class:`~repro.core.oasis.OasisSearch` picks between them from its
configuration.  The production kernel is parity-gated against the
reference: byte-identical hits, node states and ``columns_expanded``
(``tests/test_kernel_parity.py``).

Purity contract: kernels never allocate arrays and never touch
tracer/metrics inside their column loops -- scratch comes from the
:class:`~repro.core.expand.ExpansionContext` -- enforced by the
``kernel-purity`` analysis rule over this file.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

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


class ExpansionKernel:
    """One strategy for running Algorithm 3 over a node's children.

    ``expand_arc`` expands a single arc; ``expand_children`` receives the
    whole sibling set of a VIABLE node at once (lazily iterable, so
    non-batching kernels preserve the child-by-child cursor access pattern)
    and returns one :class:`SearchNode` per child, *in child order* -- the
    driver's enqueue counter, and with it the heap tie-break order, depends
    on that.
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
        self,
        parent: SearchNode,
        siblings: Iterable[Sibling],
        context: ExpansionContext,
    ) -> List[SearchNode]:
        return [
            self.expand_arc(parent, tree_node, arc_symbols, is_leaf, context)
            for tree_node, arc_symbols, is_leaf in siblings
        ]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _expand_columns(
    tree_node,
    column: np.ndarray,
    arc_symbols: np.ndarray,
    start: int,
    is_leaf: bool,
    max_score: int,
    best_ending_here: int,
    depth: int,
    context: ExpansionContext,
) -> SearchNode:
    """The scratch-buffer column loop, from ``arc_symbols[start:]``.

    ``column`` seeds the DP and is strictly read-only here: it is either the
    parent node's column (``start=0``) or a row of the batch scratch holding
    an already-computed-and-masked first column (batch survivors,
    ``start=1``).  All writes go to the context's ping-pong column scratch,
    and the surviving column is copied out exactly once, on a VIABLE return.
    """
    gap = context.gap_penalty
    heuristic = context.heuristic
    min_score = context.min_score
    profile = context.profile
    offsets = context._offsets
    limit = context.scratch_limit
    mask = context.scratch_mask
    row = context.scratch_row

    read = column
    write = context.scratch_col_a
    other = context.scratch_col_b
    for index in range(start, len(arc_symbols)):
        symbol = arc_symbols[index]
        depth += 1
        substitution = profile[symbol]

        # Candidate column, straight into the write buffer: diagonal
        # (substitution) vs horizontal (deletion) terms, then row 0, where
        # only a deletion from the previous row-0 entry is possible -- no
        # reset to zero.
        np.add(read, gap, out=row)
        np.add(read[:-1], substitution, out=write[1:])
        np.maximum(write[1:], row[1:], out=write[1:])
        write[0] = row[0]
        # Vertical (insertion) dependency, in place:
        #   new[i] = max(candidate[i], new[i-1] + gap)
        #          = max_{k <= i} (candidate[k] + gap * (i - k))
        np.subtract(write, offsets, out=write)
        np.maximum.accumulate(write, out=write)
        np.add(write, offsets, out=write)
        context.columns_expanded += 1

        column_best = int(np.maximum.reduce(write))
        if column_best > max_score:
            max_score = column_best
        if column_best > best_ending_here:
            best_ending_here = column_best

        # --- Alignment pruning (Section 3.2) --------------------------- #
        # Fused mask: non-positive | dominated | hopeless collapses to one
        # comparison against ``max(0, cutoff - heuristic)`` (exactly the
        # reference's three rules: new <= 0, new + h <= max_score,
        # new + h < min_score), a vector that only changes when the path's
        # max_score rises.  The early-termination test collapses to "did
        # everything prune?": any survivor has bound > cutoff >= max_score
        # and bound >= min_score, so neither termination branch can fire and
        # the bound's numeric value is never needed; no survivor terminates
        # with f = max_score.
        cutoff = max_score if max_score >= min_score - 1 else min_score - 1
        if cutoff != context.fast_cutoff:
            np.subtract(cutoff, heuristic, out=limit)
            np.maximum(limit, 0, out=limit)
            context.fast_cutoff = cutoff
        np.less_equal(write, limit, out=mask)
        if np.logical_and.reduce(mask):
            return make_terminal_node(tree_node, max_score, min_score, depth)
        write[mask] = PRUNED

        read = write
        write = other if write is context.scratch_col_a else context.scratch_col_a

    # All arc symbols processed and the node is still promising.
    if is_leaf:
        # No further expansion is possible below a leaf: the strongest
        # alignment along this path is whatever has been found already.
        return make_terminal_node(tree_node, max_score, min_score, depth)
    bound = context.scratch_bound
    np.add(read, heuristic, out=bound)
    return SearchNode(
        tree_node=tree_node,
        column=read.copy(),
        max_score=max_score,
        f=int(bound.max()),
        b=best_ending_here,
        state=NodeState.VIABLE,
        depth=depth,
    )


class BatchedKernel(ExpansionKernel):
    """Sibling-batched expansion: one 2-D update for every child's first column.

    Children of one suffix-tree node start with pairwise distinct symbols, so
    the sibling set stacks into at most ``symbol_count`` rows, every row
    seeded by the *same* parent column -- the whole first-column fan is one
    broadcasted candidate computation, one ``axis=1`` running-maximum, one
    2-D prune mask.  Children whose first column prunes out entirely (the
    common case: most arcs die immediately) are finished without ever
    leaving the batch; survivors continue through the column loop for
    ``arc_symbols[1:]``.  Valid for the all-rules, untracked configuration
    only (``general`` is False).
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
        # A single arc has nothing to batch; run the column loop directly.
        column = parent.column
        if column is None:
            raise ValueError("cannot expand below a node whose column was discarded")
        return _expand_columns(
            tree_node,
            column,
            arc_symbols,
            0,
            is_leaf,
            parent.max_score,
            PRUNED,
            parent.depth,
            context,
        )

    def expand_children(
        self,
        parent: SearchNode,
        siblings: Iterable[Sibling],
        context: ExpansionContext,
    ) -> List[SearchNode]:
        children = list(siblings)
        count = len(children)
        if count < 2 or count > context.batch_symbols.shape[0]:
            # Nothing to batch (or a cursor with duplicate first symbols
            # overflowing the scratch -- impossible for real suffix trees,
            # but fall back rather than corrupt).
            return [
                self.expand_arc(parent, tree_node, arc_symbols, is_leaf, context)
                for tree_node, arc_symbols, is_leaf in children
            ]
        column = parent.column
        if column is None:
            raise ValueError("cannot expand below a node whose column was discarded")

        gap = context.gap_penalty
        heuristic = context.heuristic
        min_score = context.min_score
        offsets = context._offsets
        depth = parent.depth + 1

        symbols = context.batch_symbols[:count]
        for index, (tree_node, arc_symbols, is_leaf) in enumerate(children):
            symbols[index] = arc_symbols[0]
        substitution = context.batch_profile[:count]
        np.take(context.profile, symbols, axis=0, out=substitution)

        # First DP column of every child arc, one 2-D update: each row is
        # the reference candidate/running-maximum computation, broadcast
        # against the shared parent column.
        new = context.batch_columns[:count]
        row = context.scratch_row
        np.add(column, gap, out=row)
        np.add(substitution, column[:-1], out=new[:, 1:])
        np.maximum(new[:, 1:], row[1:], out=new[:, 1:])
        new[:, 0] = row[0]
        np.subtract(new, offsets, out=new)
        np.maximum.accumulate(new, axis=1, out=new)
        np.add(new, offsets, out=new)
        context.columns_expanded += count

        best = context.batch_best[:count]
        np.maximum.reduce(new, axis=1, out=best)
        peak = context.batch_max[:count]
        np.maximum(best, parent.max_score, out=peak)

        # Per-row fused mask against the per-row cutoff (see the column
        # loop: the bound's value is only needed for rows that survive, and
        # those continue below).  When no row beat the parent's running
        # maximum -- the common case by far -- every row's cutoff *is* the
        # parent cutoff, so the cached 1-D limit vector broadcasts over the
        # whole batch and the per-row limit matrix is never materialised.
        mask = context.batch_mask[:count]
        if int(np.maximum.reduce(best)) <= parent.max_score:
            cutoff = (
                parent.max_score
                if parent.max_score >= min_score - 1
                else min_score - 1
            )
            limit = context.scratch_limit
            if cutoff != context.fast_cutoff:
                np.subtract(cutoff, heuristic, out=limit)
                np.maximum(limit, 0, out=limit)
                context.fast_cutoff = cutoff
            np.less_equal(new, limit, out=mask)
        else:
            cutoffs = context.batch_cutoff[:count]
            np.maximum(peak, min_score - 1, out=cutoffs)
            limits = context.batch_limit[:count]
            np.subtract(cutoffs[:, None], heuristic, out=limits)
            np.maximum(limits, 0, out=limits)
            np.less_equal(new, limits, out=mask)
        done = context.batch_done[:count]
        np.logical_and.reduce(mask, axis=1, out=done)
        nodes: List[SearchNode] = []
        for index, (tree_node, arc_symbols, is_leaf) in enumerate(children):
            if done[index]:
                nodes.append(
                    make_terminal_node(tree_node, int(peak[index]), min_score, depth)
                )
                continue
            survivor = new[index]
            survivor[mask[index]] = PRUNED
            nodes.append(
                _expand_columns(
                    tree_node,
                    survivor,
                    arc_symbols,
                    1,
                    is_leaf,
                    int(peak[index]),
                    int(best[index]),
                    depth,
                    context,
                )
            )
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
