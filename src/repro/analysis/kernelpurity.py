"""Kernel-purity rule: the DP hot loops neither allocate nor emit telemetry.

The expansion kernels in ``repro.core.kernels`` exist to strip per-column
interpreter overhead out of the hottest loop in every search.  Two easy ways
to quietly reintroduce it are (1) allocating a NumPy array per iteration
(``np.empty_like`` alone accounted for 307k calls in the pre-kernel
profile) and (2) calling into the tracer/metrics machinery from inside the
column loop (the telemetry contract everywhere else is "nothing in the
per-node loop").  Scratch comes from the
:class:`~repro.core.expand.ExpansionContext`, which owns one preallocated
set of buffers per query; telemetry stays at the driver level.

This rule makes both properties mechanical: inside any ``for``/``while``
loop of a function in ``repro.core.kernels``, array-allocating NumPy calls
(``np.empty``/``np.zeros``/``np.ones``/``np.full`` and their ``*_like``
forms, ``np.arange``/``np.array``/``np.copy``, the joining calls
``np.stack``/``np.concatenate``/``np.vstack``/``np.hstack`` -- the natural
way to gather a frontier's parent columns, and a fresh array every step --
and the ``.copy()`` method) and ``tracer``/``metrics`` attribute access are
violations.
Outside loops they are fine.  The rule is lexical: the production kernel
copies a VIABLE child's surviving column exactly once, when its arc
finishes, in a helper its step loop calls -- one copy per result is the
design, not a leak.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.framework import ModuleInfo, Rule, Violation

#: Modules whose functions are held to the purity contract.
KERNEL_MODULES: Tuple[str, ...] = ("repro.core.kernels",)

#: NumPy callables that allocate a fresh array.
ALLOCATORS: Tuple[str, ...] = (
    "empty",
    "zeros",
    "ones",
    "full",
    "empty_like",
    "zeros_like",
    "ones_like",
    "full_like",
    "arange",
    "array",
    "copy",
    "stack",
    "concatenate",
    "vstack",
    "hstack",
)

#: Attribute names whose presence inside a kernel loop means telemetry.
TELEMETRY_ATTRIBUTES: Tuple[str, ...] = ("tracer", "metrics", "flight")


class KernelPurityRule(Rule):
    """Kernel column loops must not allocate arrays or touch telemetry."""

    rule_id = "kernel-purity"
    description = (
        "expansion-kernel loops (repro.core.kernels) must not allocate "
        "arrays (np.empty/zeros/*_like/stack/concatenate/.copy) or touch "
        "tracer/metrics -- "
        "scratch comes preallocated from ExpansionContext, telemetry stays "
        "in the driver"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if module.name not in KERNEL_MODULES:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleInfo, function: ast.AST
    ) -> Iterator[Violation]:
        for body_node in ast.iter_child_nodes(function):
            if isinstance(body_node, (ast.For, ast.While)):
                yield from self._check_loop(module, body_node)
            elif not isinstance(body_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Loops can hide anywhere (with-blocks, try, conditionals);
                # only nested function definitions restart the analysis with
                # their own loop nesting.
                yield from self._check_function(module, body_node)

    def _check_loop(self, module: ModuleInfo, loop: ast.AST) -> Iterator[Violation]:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                allocator = self._allocator_name(node.func)
                if allocator is not None:
                    yield self.violation(
                        module,
                        node,
                        f"{allocator} allocates inside a kernel loop; use a "
                        "preallocated ExpansionContext scratch buffer "
                        "(out= ufunc forms) instead",
                    )
            if isinstance(node, ast.Attribute) and node.attr in TELEMETRY_ATTRIBUTES:
                yield self.violation(
                    module,
                    node,
                    f"`.{node.attr}` access inside a kernel loop; telemetry "
                    "belongs in the search driver, never in the DP hot path",
                )

    @staticmethod
    def _allocator_name(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
                and func.attr in ALLOCATORS
            ):
                return f"{func.value.id}.{func.attr}()"
            if func.attr == "copy":
                # Any `.copy()` method call: arrays are the only thing kernels
                # hold, and copying one allocates.
                return ".copy()"
        return None
