"""Evaluation of predicate-language formulas on program states.

Quantified constraints are evaluated by enumerating every assignment of
the quantified index variables within their (concrete) bounds and
checking the ``outEq`` body under each assignment.  This is exactly the
finite quantifier instantiation the paper relies on: quantifiers range
over array indices, and any concrete state fixes the index domain.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.predicates.language import (
    Bound,
    Invariant,
    OutEq,
    Postcondition,
    QuantifiedConstraint,
    ScalarInequality,
)
from repro.semantics.evalexpr import EvalError, compare_values, eval_sym_expr
from repro.semantics.state import State, Value, require_int, value_equal
from repro.symbolic.expr import Call, Expr


class PredicateEvalError(Exception):
    """Raised when a predicate cannot be evaluated (unbound symbol, symbolic bound...)."""


def _bound_range(bound: Bound, state: State, bindings: Mapping[str, Value]) -> range:
    """Concrete integer range described by one quantifier bound."""
    try:
        lower = require_int(eval_sym_expr(bound.lower, state, bindings), context="quantifier lower bound")
        upper = require_int(eval_sym_expr(bound.upper, state, bindings), context="quantifier upper bound")
    except (EvalError, TypeError) as exc:
        raise PredicateEvalError(str(exc)) from exc
    start = lower + 1 if bound.lower_strict else lower
    stop = upper if bound.upper_strict else upper + 1
    return range(start, stop)


def iterate_assignments(
    bounds: Tuple[Bound, ...],
    state: State,
    bindings: Optional[Mapping[str, Value]] = None,
) -> Iterator[Dict[str, int]]:
    """Yield every assignment of the quantified variables within their bounds.

    Later bounds may refer to earlier quantified variables (the inner
    invariant of the running example bounds ``j'`` by the outer loop's
    ``j``), so assignments are built left to right.
    """
    bindings = dict(bindings or {})

    def rec(index: int, current: Dict[str, int]) -> Iterator[Dict[str, int]]:
        if index == len(bounds):
            yield dict(current)
            return
        bound = bounds[index]
        merged = {**bindings, **current}
        for value in _bound_range(bound, state, merged):
            current[bound.var] = value
            yield from rec(index + 1, current)
        current.pop(bound.var, None)

    yield from rec(0, {})


def _check_out_eq(
    out_eq: OutEq,
    state: State,
    bindings: Mapping[str, Value],
) -> bool:
    try:
        indices = tuple(
            require_int(eval_sym_expr(i, state, bindings), context=f"index of {out_eq.array}")
            for i in out_eq.indices
        )
        actual = state.array(out_eq.array).load(indices)
        expected = eval_sym_expr(out_eq.rhs, state, bindings)
    except (EvalError, TypeError) as exc:
        raise PredicateEvalError(str(exc)) from exc
    return value_equal(actual, expected)


def evaluate_quantified(
    constraint: QuantifiedConstraint,
    state: State,
    bindings: Optional[Mapping[str, Value]] = None,
) -> bool:
    """Evaluate ``forall bounds. [guard ->] outEq`` on a state."""
    bindings = bindings or {}
    for assignment in iterate_assignments(constraint.bounds, state, bindings):
        merged = {**bindings, **assignment}
        if constraint.guard is not None:
            guard_value = _evaluate_guard(constraint.guard, state, merged)
            if not guard_value:
                continue
        if not _check_out_eq(constraint.out_eq, state, merged):
            return False
    return True


# Guard comparisons are encoded as Call nodes with these function names;
# the compiled evaluator (:mod:`repro.compile.codegen`) imports this
# mapping so interpreter and compiled guards can never drift apart.
GUARD_OPS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "/="}


def _evaluate_guard(guard: Expr, state: State, bindings: Mapping[str, Value]) -> bool:
    """Evaluate a guard expression (a comparison encoded as a Call node)."""
    if isinstance(guard, Call) and guard.func in GUARD_OPS:
        left = eval_sym_expr(guard.args[0], state, bindings)
        right = eval_sym_expr(guard.args[1], state, bindings)
        try:
            return compare_values(GUARD_OPS[guard.func], left, right)
        except EvalError as exc:
            raise PredicateEvalError(str(exc)) from exc
    raise PredicateEvalError(f"unsupported guard expression {guard!r}")


def evaluate_postcondition(post: Postcondition, state: State) -> bool:
    """True when every conjunct of the postcondition holds on ``state``."""
    return all(evaluate_quantified(c, state) for c in post.conjuncts)


def _check_inequality(ineq: ScalarInequality, state: State) -> bool:
    try:
        left = eval_sym_expr(_var(ineq.var), state, {})
        right = eval_sym_expr(ineq.upper, state, {})
        op = "<" if ineq.strict else "<="
        return compare_values(op, left, right)
    except (EvalError, TypeError) as exc:
        raise PredicateEvalError(str(exc)) from exc


def _var(name: str) -> Expr:
    from repro.symbolic.expr import sym

    return sym(name)


def evaluate_invariant(invariant: Invariant, state: State) -> bool:
    """True when the invariant (scalar and quantified conjuncts) holds."""
    for ineq in invariant.inequalities:
        if not _check_inequality(ineq, state):
            return False
    for eq in invariant.equalities:
        try:
            left = state.scalar(eq.var)
            right = eval_sym_expr(eq.rhs, state, {})
        except (KeyError, EvalError, TypeError) as exc:
            raise PredicateEvalError(str(exc)) from exc
        if not value_equal(left, right):
            return False
    return all(evaluate_quantified(c, state) for c in invariant.conjuncts)
