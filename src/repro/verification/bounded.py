"""Random and bounded-symbolic checking of candidate summaries."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.ir import nodes as ir
from repro.ir.analysis import collect_loops, loop_counters
from repro.predicates.evaluate import (
    PredicateEvalError,
    evaluate_invariant,
    iterate_assignments,
)
from repro.predicates.language import Invariant
from repro.semantics.evalexpr import EvalError, eval_ir_expr, eval_sym_expr
from repro.semantics.exec import ExecutionError, loop_counter_values
from repro.semantics.state import ArrayValue, State, fresh_symbolic_array, require_int
from repro.symbolic.expr import Expr, sym
from repro.symbolic.interpreter import (
    SymbolicExecutionError,
    choose_integer_environments,
)
from repro.vcgen.hoare import CandidateSummary, VCClause, VCProblem


@dataclass
class VerificationResult:
    """Outcome of a (bounded) verification run."""

    ok: bool
    failed_clause: Optional[str] = None
    counterexample: Optional[State] = None
    states_checked: int = 0
    non_vacuous_checks: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def make_concrete_state(
    kernel: ir.Kernel,
    int_env: Dict[str, int],
    rng: random.Random,
    field_values: bool = True,
) -> State:
    """A random concrete initial state for the kernel.

    Integer inputs come from ``int_env``; float scalars and array cells
    are drawn from GF(7) when ``field_values`` is set (the synthesis
    float model), from small floats otherwise.
    """
    # Imported here to avoid a circular import with the synthesis package,
    # whose CEGIS driver depends on this verifier.
    from repro.synthesis.floatmodel import Mod7

    state = State(scalars=dict(int_env))

    def draw():
        if field_values:
            return Mod7(rng.randrange(7))
        return round(rng.uniform(-4, 4), 3)

    for decl in kernel.scalars:
        if decl.name in state.scalars:
            continue
        if decl.scalar_type == "integer":
            state.scalars[decl.name] = rng.randint(0, 4)
        else:
            state.scalars[decl.name] = draw()
    for decl in kernel.arrays:
        values: Dict[Tuple[int, ...], object] = {}

        def default(arr_name, idx, _values=values):
            if idx not in _values:
                _values[idx] = draw()
            return _values[idx]

        state.arrays[decl.name] = ArrayValue(decl.name, default=default)
    return state


# Snapshot cap for reachable-state collection; shared with the compiled
# collector (:mod:`repro.compile`).
REACHABLE_STATE_LIMIT = 512


class _ReachableStateCollector:
    """Execute a kernel concretely, recording the state at every cut point.

    Cut points are the program points where the VC's invariants are
    asserted: the top of every loop iteration, loop exit, and kernel
    exit.  The recorded states are genuine reachable states, so any VC
    clause that fails on one of them witnesses a real bug in the
    candidate summary.
    """

    def __init__(self, kernel: ir.Kernel, limit: int = REACHABLE_STATE_LIMIT):
        self.kernel = kernel
        self.limit = limit
        self.states: List[State] = []

    def run(self, state: State) -> List[State]:
        self._snapshot(state)
        self._execute(self.kernel.body, state)
        self._snapshot(state)
        return self.states

    def _snapshot(self, state: State) -> None:
        if len(self.states) < self.limit:
            self.states.append(state.copy())

    def _execute(self, stmt: ir.Stmt, state: State) -> None:
        from repro.semantics.exec import execute_statement

        if isinstance(stmt, ir.Block):
            for inner in stmt.statements:
                self._execute(inner, state)
            return
        if isinstance(stmt, ir.Loop):
            lower = require_int(eval_ir_expr(stmt.lower, state))
            upper = require_int(eval_ir_expr(stmt.upper, state))
            step = stmt.step
            if step == 0:
                raise ExecutionError("loop step must be non-zero")
            counter = lower
            while counter <= upper if step > 0 else counter >= upper:
                state.set_scalar(stmt.counter, counter)
                self._snapshot(state)
                self._execute(stmt.body, state)
                counter += step
            state.set_scalar(stmt.counter, counter)
            self._snapshot(state)
            return
        execute_statement(stmt, state)


class BoundedVerifier:
    """The checking hierarchy: random concrete search plus bounded symbolic proof.

    ``compile_options`` selects the evaluation backend: when enabled
    (the default) the kernel, the VC clauses and every candidate
    formula are compiled once (:mod:`repro.compile`) and the
    checks run through the compiled forms; when disabled everything
    goes through the original tree-walking interpreters.  Both
    backends are bit-identical by construction.
    """

    def __init__(
        self,
        vc: VCProblem,
        environments: Optional[List[Dict[str, int]]] = None,
        num_environments: int = 2,
        env_high: int = 4,
        max_counter_combos: int = 600,
        seed: int = 0,
        compile_options=None,
    ):
        from repro.compile import CompileOptions, CompiledCollector, CompiledVC

        self.vc = vc
        self.kernel = vc.kernel
        self.seed = seed
        self.compile_options = CompileOptions.coerce(compile_options)
        self._compiled_vc = None
        self._compiled_collector = None
        if self.compile_options.enabled:
            self._compiled_vc = CompiledVC(vc)
            self._compiled_collector = CompiledCollector(self.kernel)
        # Deep loop nests (5-D kernels, multi-level tiling) explode the number
        # of counter combinations; scale the sampling budget down so the
        # per-kernel verification cost stays roughly constant.
        depth_penalty = 4 ** max(0, len(vc.loops) - 3)
        self.max_counter_combos = max(60, max_counter_combos // depth_penalty)
        if environments is None:
            try:
                environments = choose_integer_environments(
                    self.kernel, count=num_environments, seed=seed, high=env_high
                )
            except SymbolicExecutionError:
                environments = choose_integer_environments(
                    self.kernel, count=1, seed=seed, high=env_high + 2
                )
        self.environments = environments

    # ------------------------------------------------------------------
    # Tier 1: random concrete counterexample search
    # ------------------------------------------------------------------
    def quick_check(
        self,
        candidate: CandidateSummary,
        samples: int = 3,
        rng: Optional[random.Random] = None,
    ) -> Optional[State]:
        """Search for a counterexample among reachable concrete states."""
        rng = rng or random.Random(self.seed + 17)
        check = self._compiled_vc.check if self._compiled_vc is not None else self.vc.check
        for _ in range(samples):
            env = rng.choice(self.environments)
            initial = make_concrete_state(self.kernel, env, rng, field_values=True)
            try:
                if self._compiled_collector is not None:
                    states = self._compiled_collector.collect(initial.copy())
                else:
                    states = _ReachableStateCollector(self.kernel).run(initial.copy())
            except (ExecutionError, EvalError, TypeError):
                continue
            for state in states:
                failed = check(state, candidate)
                if failed is not None:
                    return state
        return None

    # ------------------------------------------------------------------
    # Tier 2: bounded symbolic verification
    # ------------------------------------------------------------------
    def verify(self, candidate: CandidateSummary, thorough: bool = True) -> VerificationResult:
        """Check every clause on every premise-canonical symbolic state."""
        states_checked = 0
        non_vacuous = 0
        environments = self.environments if thorough else self.environments[:1]
        clauses = (
            self._compiled_vc.clauses if self._compiled_vc is not None else self.vc.clauses
        )
        for env in environments:
            combos = list(self._counter_combinations(env))
            if len(combos) > self.max_counter_combos:
                rng = random.Random(self.seed + 99)
                combos = rng.sample(combos, self.max_counter_combos)
            for counters in combos:
                for clause in clauses:
                    compiled = self._compiled_vc is not None
                    source_clause = clause.clause if compiled else clause
                    state = self._premise_state(source_clause, candidate, env, counters)
                    if state is None:
                        continue
                    states_checked += 1
                    try:
                        if compiled:
                            # The compiled clause exposes the conclusion
                            # separately, so the premises are evaluated
                            # exactly once per state.
                            premised = clause.premises_hold(state, candidate)
                            if premised:
                                non_vacuous += 1
                            ok = (not premised) or clause.holds_after_premises(
                                state, candidate
                            )
                        else:
                            if clause._premises_hold(state, candidate):
                                non_vacuous += 1
                            ok = clause.holds(state, candidate)
                        if not ok:
                            return VerificationResult(
                                ok=False,
                                failed_clause=clause.name,
                                counterexample=state,
                                states_checked=states_checked,
                                non_vacuous_checks=non_vacuous,
                            )
                    except (PredicateEvalError, ExecutionError, EvalError, TypeError) as exc:
                        return VerificationResult(
                            ok=False,
                            failed_clause=f"{clause.name} (evaluation error: {exc})",
                            counterexample=state,
                            states_checked=states_checked,
                            non_vacuous_checks=non_vacuous,
                        )
        return VerificationResult(
            ok=True,
            states_checked=states_checked,
            non_vacuous_checks=non_vacuous,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _counter_combinations(self, env: Dict[str, int]) -> Iterator[Dict[str, int]]:
        """Enumerate loop-counter assignments within (and one past) their ranges."""
        loops = [info.loop for info in self.vc.loops]

        def rec(index: int, current: Dict[str, int]) -> Iterator[Dict[str, int]]:
            if index == len(loops):
                yield dict(current)
                return
            loop = loops[index]
            state = State(scalars={**env, **current})
            try:
                lower = require_int(eval_ir_expr(loop.lower, state))
                upper = require_int(eval_ir_expr(loop.upper, state))
            except (EvalError, TypeError, KeyError):
                # Bounds depend on a counter we have not fixed (or on missing
                # data); fall back to a small window around zero.
                lower, upper = 0, 2
            # Exact Fortran trip semantics: every value the body sees plus
            # the exit value.  The previous ``range(lower, upper + step + 1,
            # step)`` enumeration agreed with this for non-degenerate
            # positive-step loops, but dropped the exit state entirely for
            # loops whose range is empty by more than one step (``upper <
            # lower - step``) and walked the wrong direction for negative
            # steps.
            values = loop_counter_values(lower, upper, loop.step)
            for value in values:
                current[loop.counter] = value
                yield from rec(index + 1, current)
            current.pop(loop.counter, None)

        yield from rec(0, {})

    def _premise_state(
        self,
        clause: VCClause,
        candidate: CandidateSummary,
        env: Dict[str, int],
        counters: Dict[str, int],
    ) -> Optional[State]:
        """The most general symbolic state satisfying the clause's premises.

        Returns ``None`` when the premises are unsatisfiable for this
        counter assignment (the clause holds vacuously there) or when a
        satisfying state cannot be constructed.
        """
        state = State()
        state.scalars.update(env)
        state.scalars.update(counters)
        for decl in self.kernel.scalars:
            if decl.name not in state.scalars:
                state.scalars[decl.name] = sym(decl.name)
        for decl in self.kernel.arrays:
            state.arrays[decl.name] = fresh_symbolic_array(decl.name)

        for assumption in clause.assumptions:
            if assumption.kind == "pre":
                # Assumptions and non-degenerate bounds are properties of the
                # integer environment alone; reuse the clause's own check.
                continue
            if assumption.kind in {"loop_cond", "loop_exit"}:
                loop = assumption.loop
                assert loop is not None
                try:
                    counter = require_int(state.scalar(loop.counter))
                    upper = require_int(self._eval_loop_upper(loop, state))
                except (KeyError, EvalError, TypeError):
                    return None
                in_range = counter <= upper
                if assumption.kind == "loop_cond" and not in_range:
                    return None
                if assumption.kind == "loop_exit" and in_range:
                    return None
                continue
            if assumption.kind == "inv":
                invariant = candidate.invariants.get(assumption.loop_id or "")
                if invariant is None:
                    return None
                if not self._instantiate_invariant(invariant, state):
                    return None
        return state

    def _eval_loop_upper(self, loop: ir.Loop, state: State):
        if self.compile_options.enabled:
            from repro.compile import compile_ir_expr

            return compile_ir_expr(loop.upper)(state)
        return eval_ir_expr(loop.upper, state)

    def _instantiate_invariant(self, invariant: Invariant, state: State) -> bool:
        """Mutate ``state`` so it satisfies ``invariant``; False when impossible."""
        if self.compile_options.enabled:
            from repro.compile import compile_invariant_instantiator

            return compile_invariant_instantiator(invariant)(state)
        from repro.semantics.evalexpr import compare_values

        for ineq in invariant.inequalities:
            try:
                left = eval_sym_expr(sym(ineq.var), state, {})
                right = eval_sym_expr(ineq.upper, state, {})
                op = "<" if ineq.strict else "<="
                if not compare_values(op, left, right):
                    return False
            except (EvalError, TypeError):
                return False
        for eq in invariant.equalities:
            try:
                state.set_scalar(eq.var, eval_sym_expr(eq.rhs, state, {}))
            except (EvalError, TypeError):
                return False
        for conjunct in invariant.conjuncts:
            try:
                for assignment in iterate_assignments(conjunct.bounds, state, {}):
                    indices = tuple(
                        require_int(eval_sym_expr(i, state, assignment))
                        for i in conjunct.out_eq.indices
                    )
                    value = eval_sym_expr(conjunct.out_eq.rhs, state, assignment)
                    state.array(conjunct.out_eq.array).store(indices, value)
            except (PredicateEvalError, EvalError, TypeError):
                return False
        return True
