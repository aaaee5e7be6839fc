"""Compiled predicate-language formulas.

Compiled twins of :mod:`repro.predicates.evaluate`: a candidate's
postcondition and invariants are compiled once per candidate, then
evaluated against many states (the CEGIS example set, the reachable
states of the random checker, the bounded verifier's premise-canonical
states).  Quantifier enumeration, guard handling, error wrapping and
the ``value_equal`` comparison are replicated exactly — only the
per-node tree dispatch is compiled away.

A quantified constraint is *tiered*: its first few evaluations run on
the interpreter (:func:`repro.predicates.evaluate.evaluate_quantified`),
and only a formula that stays hot is flattened into one ``compile()``-ed
function (:mod:`repro.compile.codegen`).  Most CEGIS candidates die
after a handful of evaluations, so they never pay for ``compile()``.

Compiled formulas are memoised per formula identity, and quantified
constraints per identity of their hash-consed parts, so structurally
equal constraints of different candidates share one tier counter and
one compiled function.  The tables are cleared deterministically at a
size threshold so month-long batch runs stay bounded.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.predicates.evaluate import PredicateEvalError, evaluate_quantified
from repro.predicates.language import Invariant, Postcondition, QuantifiedConstraint
from repro.semantics.numeric import EvalError, compare_values
from repro.semantics.state import (
    State,
    Value,
    value_equal_interned as value_equal,
)
from repro.compile.exprcomp import compile_sym_expr

StatePredicate = Callable[[State], bool]

_CACHE_MAX = 1 << 13

# Keyed by id(formula); the stored formula reference keeps the id stable.
# Quantified constraints are keyed by their parts (see _quantified_key).
_QUANT_CACHE: Dict[tuple, Tuple[QuantifiedConstraint, Callable]] = {}
_INV_CACHE: Dict[int, Tuple[Invariant, StatePredicate]] = {}
_POST_CACHE: Dict[int, Tuple[Postcondition, StatePredicate]] = {}
_INST_CACHE: Dict[int, Tuple[Invariant, StatePredicate]] = {}


def clear_pred_caches() -> None:
    """Drop memoised compiled predicates (tests / cache hygiene)."""
    _QUANT_CACHE.clear()
    _INV_CACHE.clear()
    _POST_CACHE.clear()
    _INST_CACHE.clear()


# ---------------------------------------------------------------------------
# Quantified constraints
# ---------------------------------------------------------------------------

def _quantified_key(constraint: QuantifiedConstraint) -> tuple:
    """The identities of a constraint's hash-consed expressions.

    Constraints themselves are not interned, but their expressions are,
    so structurally equal constraints of different CEGIS candidates get
    one key, and share one compiled function and one tier counter.  The
    cached constraint keeps the nodes, and so their ids, alive.
    """
    out_eq = constraint.out_eq
    return (
        tuple((b.var, id(b.lower), id(b.upper), b.lower_strict, b.upper_strict)
              for b in constraint.bounds),
        id(constraint.guard),
        out_eq.array,
        tuple(map(id, out_eq.indices)),
        id(out_eq.rhs),
    )


def compile_quantified(
    constraint: QuantifiedConstraint,
) -> Callable[[State, Optional[Mapping[str, Value]]], bool]:
    """Compile ``forall bounds. [guard ->] outEq`` to a state predicate."""
    key = _quantified_key(constraint)
    hit = _QUANT_CACHE.get(key)
    if hit is not None:
        return hit[1]
    from repro.compile.codegen import gen_quantified_fn

    fn = _tiered(
        partial(evaluate_quantified, constraint),
        lambda: gen_quantified_fn(constraint),
    )
    if len(_QUANT_CACHE) >= _CACHE_MAX:
        _QUANT_CACHE.clear()
    _QUANT_CACHE[key] = (constraint, fn)
    return fn


# Calls before a formula is worth flattening into one code object:
# most CEGIS candidates die after a handful of evaluations (replay or the
# first failing reachable state), so paying ``compile()`` per candidate
# would dominate; the few verify-bound formulas are evaluated against
# hundreds of states and repay the upgrade immediately.
_CODEGEN_THRESHOLD = 8


def _tiered(cold_fn, upgrade):
    """Run ``cold_fn`` until hot, then swap in ``upgrade()`` (equivalent)."""
    box = [0, None]

    def run(state, bindings=None):
        fn = box[1]
        if fn is not None:
            return fn(state, bindings)
        box[0] += 1
        if box[0] >= _CODEGEN_THRESHOLD:
            box[1] = upgrade()
        return cold_fn(state, bindings)

    return run


# ---------------------------------------------------------------------------
# Postconditions and invariants
# ---------------------------------------------------------------------------

def compile_postcondition(post: Postcondition) -> StatePredicate:
    """Compiled twin of ``predicates.evaluate.evaluate_postcondition``."""
    hit = _POST_CACHE.get(id(post))
    if hit is not None:
        return hit[1]
    fn = _build_postcondition(post)
    if len(_POST_CACHE) >= _CACHE_MAX:
        _POST_CACHE.clear()
    _POST_CACHE[id(post)] = (post, fn)
    return fn


def _build_postcondition(post: Postcondition) -> StatePredicate:
    conjunct_fns = tuple(compile_quantified(c) for c in post.conjuncts)
    if len(conjunct_fns) == 1:
        (fn0,) = conjunct_fns

        def run_one(state, _fn0=fn0):
            return _fn0(state)

        return run_one

    def run(state, _fns=conjunct_fns):
        for fn in _fns:
            if not fn(state):
                return False
        return True

    return run


def compile_invariant(invariant: Invariant) -> StatePredicate:
    """Compiled twin of ``predicates.evaluate.evaluate_invariant``."""
    hit = _INV_CACHE.get(id(invariant))
    if hit is not None:
        return hit[1]
    fn = _build_invariant(invariant)
    if len(_INV_CACHE) >= _CACHE_MAX:
        _INV_CACHE.clear()
    _INV_CACHE[id(invariant)] = (invariant, fn)
    return fn


def _compile_inequality(ineq) -> StatePredicate:
    var_fn = _var_lookup(ineq.var)
    upper_fn = compile_sym_expr(ineq.upper)
    op = "<" if ineq.strict else "<="

    def run(state, _var=var_fn, _upper=upper_fn, _op=op):
        try:
            left = _var(state)
            right = _upper(state, _EMPTY_BINDINGS)
            return compare_values(_op, left, right)
        except (EvalError, TypeError) as exc:
            raise PredicateEvalError(str(exc)) from exc

    return run


_EMPTY_BINDINGS: Dict[str, Value] = {}


def _var_lookup(name: str):
    """Scalar lookup matching ``eval_sym_expr(sym(name), state, {})``."""

    def run(state, _name=name):
        try:
            return state.scalar(_name)
        except KeyError as exc:
            raise EvalError(str(exc)) from exc

    return run


def _build_invariant(invariant: Invariant) -> StatePredicate:
    inequality_fns = tuple(_compile_inequality(ineq) for ineq in invariant.inequalities)
    equality_fns = tuple(
        (eq.var, compile_sym_expr(eq.rhs)) for eq in invariant.equalities
    )
    conjunct_fns = tuple(compile_quantified(c) for c in invariant.conjuncts)

    def run(state):
        for fn in inequality_fns:
            if not fn(state):
                return False
        for var, rhs_fn in equality_fns:
            try:
                left = state.scalar(var)
                right = rhs_fn(state, _EMPTY_BINDINGS)
            except (KeyError, EvalError, TypeError) as exc:
                raise PredicateEvalError(str(exc)) from exc
            if not value_equal(left, right):
                return False
        for fn in conjunct_fns:
            if not fn(state):
                return False
        return True

    return run


# ---------------------------------------------------------------------------
# Invariant instantiation (bounded verifier premise states)
# ---------------------------------------------------------------------------

def compile_invariant_instantiator(invariant: Invariant) -> StatePredicate:
    """Compiled twin of ``BoundedVerifier._instantiate_invariant``.

    Mutates the state so it satisfies the invariant; returns ``False``
    when impossible.  Error handling matches the interpreted method
    (failures are absorbed, not raised).
    """
    hit = _INST_CACHE.get(id(invariant))
    if hit is not None:
        return hit[1]
    fn = _build_instantiator(invariant)
    if len(_INST_CACHE) >= _CACHE_MAX:
        _INST_CACHE.clear()
    _INST_CACHE[id(invariant)] = (invariant, fn)
    return fn


def _build_instantiator(invariant: Invariant) -> StatePredicate:
    from repro.compile.codegen import gen_conjunct_store_fn

    ineq_parts = tuple(
        (_var_lookup(ineq.var), compile_sym_expr(ineq.upper), "<" if ineq.strict else "<=")
        for ineq in invariant.inequalities
    )
    equality_fns = tuple(
        (eq.var, compile_sym_expr(eq.rhs)) for eq in invariant.equalities
    )
    store_fns = tuple(gen_conjunct_store_fn(conjunct) for conjunct in invariant.conjuncts)

    def run(state):
        for var_fn, upper_fn, op in ineq_parts:
            try:
                left = var_fn(state)
                right = upper_fn(state, _EMPTY_BINDINGS)
                if not compare_values(op, left, right):
                    return False
            except (EvalError, TypeError):
                return False
        for var, rhs_fn in equality_fns:
            try:
                state.set_scalar(var, rhs_fn(state, _EMPTY_BINDINGS))
            except (EvalError, TypeError):
                return False
        for fn in store_fns:
            try:
                fn(state)
            except (PredicateEvalError, EvalError, TypeError):
                return False
        return True

    return run
