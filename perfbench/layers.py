"""Per-layer timing for the traced benchmark run, kept outside the program.

A :class:`LayerClock` replaces a layer's public functions with timed
wrappers for as long as it is installed, then puts the originals back.  The
program itself carries no tracing: every number here is measured at the
boundary where one layer calls into another.

Self time is nesting-aware.  The search driver hands the kernel a *lazy*
sibling iterable, so cursor calls run inside ``expand_children``; a layer's
self time is its calls' wall time minus the time of the calls nested in them
that belong to another layer.  A call nested in a call of the same layer
(``sequences_below`` walking ``children``) is neither counted again nor
subtracted.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core.kernels import get_kernel
from repro.sharding.engine import ShardedQueryExecution
from repro.storage import builder as storage_builder
from repro.storage.disk_tree import DiskSuffixTree
from repro.suffixtree.generalized import GeneralizedSuffixTree
from repro.suffixtree.partitioned import PartitionedTreeBuilder

#: The cursor calls the search driver and the kernels make.
CURSOR_CALLS = ("children", "arc_symbols", "is_leaf", "sequences_below")


class LayerClock:
    """Accumulates self time and call counts per layer name."""

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Hits handed to the sharded merge, and hits it kept.
        self.merge_shipped = 0
        self.merge_kept = 0
        # One frame per active timed call: [layer, seconds of nested calls].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, bool, object]] = []

    def timed(self, layer: str, function: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                self.calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack and stack[-1][0] == layer:
                    # Same-layer nesting: the outer call accounts for it.
                    stack[-1][1] += frame[1]
                else:
                    self.self_seconds[layer] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed

        return wrapper

    def _patch(self, owner: object, name: str, replacement: Callable) -> None:
        own = isinstance(owner, type) and name in owner.__dict__
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, own or not isinstance(owner, type), original))
        setattr(owner, name, replacement)

    def wrap(self, owner: object, name: str, layer: str) -> None:
        """Time ``owner.name`` (a module function or a class attribute)."""
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):
            self._patch(owner, name, classmethod(self.timed(layer, raw.__func__)))
        else:
            self._patch(owner, name, self.timed(layer, raw))

    def _wrap_merge(self) -> None:
        original = ShardedQueryExecution._merge_hits

        def merge_hits(execution, shard_results):
            self.merge_shipped += sum(len(result.hits) for result in shard_results)
            kept = original(execution, shard_results)
            self.merge_kept += len(kept)
            return kept

        self._patch(ShardedQueryExecution, "_merge_hits", merge_hits)

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerClock"]:
        """Time every probed layer while the block runs."""
        self.wrap(GeneralizedSuffixTree, "build", "suffixtree.build")
        self.wrap(PartitionedTreeBuilder, "build", "suffixtree.build")
        self.wrap(storage_builder, "build_disk_image", "storage.image_build")
        self.wrap(DiskSuffixTree, "__init__", "storage.open")
        for cursor_type in (GeneralizedSuffixTree, DiskSuffixTree):
            for name in CURSOR_CALLS:
                self.wrap(cursor_type, name, "storage.cursor")
        # The engines resolve the default kernel themselves; time that class.
        self.wrap(type(get_kernel()), "expand_children", "kernel")
        self._wrap_merge()
        try:
            yield self
        finally:
            while self._patches:
                owner, name, restore, original = self._patches.pop()
                if restore:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)
