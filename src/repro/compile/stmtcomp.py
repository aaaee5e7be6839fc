"""Compiled IR statements, whole kernels and state collectors.

``compile_stmt`` flattens a statement tree once into a single
``compile()``-ed function (:mod:`repro.compile.codegen`) that mirrors
:func:`repro.semantics.exec.execute_statement` exactly: the same
evaluation order (store indices before the stored value), the same
Fortran post-loop counter semantics, the same iteration budget and the
same exception types and messages.

``CompiledCollector`` is the compiled twin of the bounded verifier's
reachable-state collector: it executes a kernel concretely while
snapshotting the state at every cut point (top of each loop iteration,
loop exit, kernel entry/exit), in exactly the interpreter's order.

``CompiledRecordingExecutor`` drives symbolic execution: per-node
closures around compiled straight-line statements, recording the
scalar environment at the top of every loop iteration.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.ir import nodes as ir
from repro.semantics.state import State, require_int
from repro.compile.exprcomp import compile_ir_expr

StmtFn = Callable[[State], None]

_STMT_CACHE: Dict[int, Tuple[ir.Stmt, StmtFn]] = {}
_CACHE_MAX = 1 << 14


def clear_stmt_cache() -> None:
    """Drop memoised compiled statements (tests / cache hygiene)."""
    _STMT_CACHE.clear()


def compile_stmt(stmt: ir.Stmt) -> StmtFn:
    """Compile one IR statement to a ``state -> None`` function."""
    hit = _STMT_CACHE.get(id(stmt))
    if hit is not None:
        return hit[1]
    from repro.compile.codegen import gen_stmt_fn

    fn = gen_stmt_fn(stmt)
    if len(_STMT_CACHE) >= _CACHE_MAX:
        _STMT_CACHE.clear()
    _STMT_CACHE[id(stmt)] = (stmt, fn)
    return fn


class CompiledRecordingExecutor:
    """Compiled twin of ``symbolic.interpreter._RecordingExecutor``.

    Executes a kernel (concrete integer bounds, symbolic arrays) while
    recording a scalar-environment snapshot at the top of every loop
    iteration, with the interpreter's loop-id assignment, shared
    iteration budget and exception behaviour.
    """

    def __init__(self, kernel: ir.Kernel, max_iterations=None):
        from repro.ir.analysis import collect_loops, loop_counters
        from repro.symbolic.interpreter import SYMBOLIC_EXECUTION_BUDGET

        if max_iterations is None:
            max_iterations = SYMBOLIC_EXECUTION_BUDGET

        self.kernel = kernel
        self.max_iterations = max_iterations
        self._counter_names = frozenset(loop_counters(kernel))
        loop_ids: Dict[int, str] = {}
        counts: Dict[str, int] = {}
        for loop in collect_loops(kernel.body):
            count = counts.get(loop.counter, 0)
            counts[loop.counter] = count + 1
            loop_ids[id(loop)] = loop.counter if count == 0 else f"{loop.counter}#{count}"
        self._loop_ids = loop_ids
        self._run = self._compile(kernel.body)

    def run(self, state: State, record) -> State:
        """Execute the body; ``record(loop_id, state)`` fires per iteration."""
        budget = [0]
        self._run(state, record, budget)
        return state

    def _compile(self, stmt: ir.Stmt):
        from repro.symbolic.interpreter import SymbolicExecutionError

        if isinstance(stmt, ir.Block):
            body = tuple(self._compile(inner) for inner in stmt.statements)

            def run_block(state, record, budget, _body=body):
                for fn in _body:
                    fn(state, record, budget)

            return run_block
        if isinstance(stmt, ir.Loop):
            counter = stmt.counter
            step = stmt.step
            descending = step < 0
            if step == 0:
                def run_zero_step(state, record, budget):
                    raise SymbolicExecutionError("loop step must be non-zero")

                return run_zero_step
            loop_id = self._loop_ids[id(stmt)]
            lower_fn = compile_ir_expr(stmt.lower)
            upper_fn = compile_ir_expr(stmt.upper)
            body_fn = self._compile(stmt.body)
            limit = self.max_iterations

            def run_loop(
                state,
                record,
                budget,
                _counter=counter,
                _step=step,
                _descending=descending,
                _loop_id=loop_id,
                _lower=lower_fn,
                _upper=upper_fn,
                _body=body_fn,
                _limit=limit,
            ):
                value = require_int(_lower(state), context="loop lower bound")
                upper = require_int(_upper(state), context="loop upper bound")
                while value >= upper if _descending else value <= upper:
                    state.scalars[_counter] = value
                    record(_loop_id, state)
                    _body(state, record, budget)
                    value += _step
                    budget[0] += 1
                    if budget[0] > _limit:
                        raise SymbolicExecutionError(
                            "symbolic execution exceeded the iteration budget"
                        )
                state.scalars[_counter] = value

            return run_loop
        if isinstance(stmt, ir.If):
            def run_if(state, record, budget):
                raise SymbolicExecutionError(
                    "kernels with conditionals are not executed symbolically "
                    "by the default pipeline"
                )

            return run_if
        if isinstance(stmt, (ir.Assign, ir.ArrayStore)):
            plain = compile_stmt(stmt)

            def run_plain(state, record, budget, _plain=plain):
                _plain(state)

            return run_plain

        def run_unknown(state, record, budget, _stmt=stmt):
            raise SymbolicExecutionError(f"cannot execute statement {_stmt!r}")

        return run_unknown


class CompiledCollector:
    """Compiled twin of the verifier's reachable-state collector.

    Mirrors :class:`repro.verification.bounded._ReachableStateCollector`:
    the same cut points, the same snapshot order, the same (context-free)
    ``require_int`` coercions on loop bounds, and no iteration budget.
    """

    def __init__(self, kernel: ir.Kernel):
        from repro.compile.codegen import gen_collector_fn

        self.kernel = kernel
        self._run = gen_collector_fn(kernel.body)

    def collect(self, state: State, limit: Optional[int] = None) -> List[State]:
        from repro.verification.bounded import REACHABLE_STATE_LIMIT

        if limit is None:
            limit = REACHABLE_STATE_LIMIT
        states: List[State] = []

        def snapshot(current: State) -> None:
            if len(states) < limit:
                states.append(current.copy())

        snapshot(state)
        self._run(state, snapshot)
        snapshot(state)
        return states
