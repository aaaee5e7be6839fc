"""Compiled-vs-interpreted equivalence for the compiled evaluation layer.

The compiled evaluators (:mod:`repro.compile`) must be *bit-identical*
to the tree-walking interpreters: same values (including ``Fraction``
vs ``float`` behaviour and GF(7) field elements), same exception types
and messages (division by zero, unbound scalars, symbolic indices), in
both tiers of a quantified constraint (interpreter while cold,
``compile()``-ed source once hot).  The properties are checked on
random expressions, on every suite kernel's executable body, and
end-to-end through ``synthesize_kernel``.
"""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.fingerprint import CODE_VERSION
from repro.compile import (
    CompileOptions,
    CompiledCollector,
    CompiledVC,
    compile_ir_expr,
    compile_stmt,
    compile_sym_expr,
)
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.ir import nodes as ir
from repro.semantics.evalexpr import EvalError, eval_ir_expr, eval_sym_expr
from repro.semantics.exec import execute_statement
from repro.semantics.numeric import coerce_number, compare_values
from repro.semantics.state import ArrayValue, State, constant_array, function_array
from repro.suites.registry import all_cases
from repro.symbolic.expr import (
    Add,
    ArrayCell,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Sub,
    Sym,
    cell,
    sym,
)
from repro.synthesis.cegis import synthesis_config, synthesize_kernel
from repro.synthesis.floatmodel import Mod7
from repro.vcgen.hoare import generate_vc

INTERPRETED = CompileOptions(enabled=False)


def kernel_from_source(source: str):
    return lower_candidate(identify_candidates(parse_source(source)).candidates[0])


RUNNING_EXAMPLE = """
procedure sten(imin,imax,jmin,jmax,a,b)
real (kind=8), dimension(imin:imax,jmin:jmax) :: a
real (kind=8), dimension(imin:imax,jmin:jmax) :: b
do j=jmin,jmax
t = b(imin, j)
do i=imin+1,imax
q = b(i,j)
a(i,j) = q + t
t = q
enddo
enddo
end procedure
"""


def outcome(fn):
    """Result or (exception type, message) — the unit of equivalence."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - parity includes the type
        return ("err", type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Random symbolic expressions
# ---------------------------------------------------------------------------

SYM_NAMES = ("i", "j", "n", "w", "missing")
BOUND_NAMES = ("q1", "q2")


def _leaves():
    consts = st.one_of(
        st.integers(-6, 6).map(lambda n: Const(Fraction(n))),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).map(Const),
        st.floats(-8, 8, allow_nan=False, allow_infinity=False, width=32).map(
            lambda f: Const(float(f))
        ),
    )
    syms = st.sampled_from(SYM_NAMES + BOUND_NAMES).map(Sym)
    return st.one_of(consts, syms)


def _compose(children):
    index = st.integers(-2, 3).map(lambda n: Const(Fraction(n)))
    indexed = st.one_of(index, st.sampled_from(BOUND_NAMES).map(Sym))
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        st.tuples(children, children).map(lambda t: Div(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(["a", "b"]), indexed, indexed).map(
            lambda t: ArrayCell(t[0], (t[1], t[2]))
        ),
        st.tuples(st.sampled_from(["sqrt", "abs", "min", "nosuchfn"]), children).map(
            lambda t: Call(t[0], (t[1], t[1]) if t[0] == "min" else (t[1],))
        ),
    )


sym_exprs = st.recursive(_leaves(), _compose, max_leaves=12)


def _make_state() -> State:
    state = State(
        scalars={
            "i": 2,
            "j": 3,
            "n": Fraction(5, 2),
            "w": Mod7(3),
        }
    )
    state.arrays["a"] = function_array("a", lambda idx: Mod7(sum(idx) % 7))
    state.arrays["b"] = constant_array("b", Fraction(1, 3))
    return state


BINDINGS = {"q1": 1, "q2": -2}


@settings(max_examples=300, deadline=None)
@given(expr=sym_exprs)
def test_sym_expr_backends_match_interpreter(expr):
    state = _make_state()
    reference = outcome(lambda: eval_sym_expr(expr, state, BINDINGS))
    fn = compile_sym_expr(expr)
    assert outcome(lambda: fn(state, BINDINGS)) == reference


@settings(max_examples=150, deadline=None)
@given(expr=sym_exprs)
def test_sym_expr_matches_on_symbolic_state(expr):
    # Fully symbolic arrays/scalars: results are hash-consed Expr trees,
    # so equality below is structural equality of the built expressions.
    state = State(scalars={"i": 2, "j": 0, "n": sym("n"), "w": sym("w")})
    reference = outcome(lambda: eval_sym_expr(expr, state, BINDINGS))
    fn = compile_sym_expr(expr)
    assert outcome(lambda: fn(state, BINDINGS)) == reference


class TestSymEdgeCases:
    def test_division_by_zero_parity(self):
        expr = Div(Sym("i"), Sub(Sym("j"), Sym("j")))
        state = State(scalars={"i": 4, "j": 7})
        reference = outcome(lambda: eval_sym_expr(expr, state, {}))
        assert reference[0] == "err" and reference[1] == "ZeroDivisionError"
        fn = compile_sym_expr(expr)
        assert outcome(lambda: fn(state, {})) == reference

    def test_unbound_scalar_message_parity(self):
        expr = Add(Sym("nope"), Const(Fraction(1)))
        state = State()
        reference = outcome(lambda: eval_sym_expr(expr, state, {}))
        assert reference[0] == "err" and reference[1] == "EvalError"
        fn = compile_sym_expr(expr)
        assert outcome(lambda: fn(state, {})) == reference

    def test_fraction_const_normalises_to_int(self):
        fn = compile_sym_expr(Const(Fraction(4)))
        value = fn(State(), {})
        assert value == 4 and type(value) is int

    def test_float_vs_fraction_division(self):
        state = State(scalars={"x": 1, "y": 3})
        exact = Div(Sym("x"), Sym("y"))
        assert compile_sym_expr(exact)(state, {}) == Fraction(1, 3)
        state_float = State(scalars={"x": 1.0, "y": 3})
        interp = eval_sym_expr(exact, state_float, {})
        value = compile_sym_expr(exact)(state_float, {})
        assert value == interp and type(value) is float

    def test_symbolic_index_error_parity(self):
        expr = ArrayCell("a", (Sym("k"),))
        state = State(scalars={"k": sym("k")})
        reference = outcome(lambda: eval_sym_expr(expr, state, {}))
        assert reference[0] == "err" and reference[1] == "TypeError"
        fn = compile_sym_expr(expr)
        assert outcome(lambda: fn(state, {})) == reference


# ---------------------------------------------------------------------------
# IR expressions and statements
# ---------------------------------------------------------------------------

def _random_ir_expr(rng: random.Random, depth: int = 3) -> ir.ValueExpr:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return ir.IntConst(rng.randint(-5, 5))
        if choice == 1:
            return ir.RealConst(round(rng.uniform(-3, 3), 2))
        if choice == 2:
            return ir.VarRef(rng.choice(["i", "j", "n", "w"]))
        return ir.ArrayLoad("b", (ir.VarRef("i"),))
    choice = rng.randrange(6)
    if choice < 4:
        op = "+-*/"[choice]
        return ir.BinOp(op, _random_ir_expr(rng, depth - 1), _random_ir_expr(rng, depth - 1))
    if choice == 4:
        return ir.UnaryOp("-", _random_ir_expr(rng, depth - 1))
    return ir.FuncCall("abs", (_random_ir_expr(rng, depth - 1),))


def test_ir_expr_backends_match_interpreter():
    rng = random.Random(7)
    for _ in range(300):
        expr = _random_ir_expr(rng)
        state = State(scalars={"i": 1, "j": -2, "n": Fraction(3, 2), "w": 0.75})
        state.arrays["b"] = function_array("b", lambda idx: Fraction(idx[0] + 2, 3))
        reference = outcome(lambda: eval_ir_expr(expr, state))
        fn = compile_ir_expr(expr)
        assert outcome(lambda: fn(state)) == reference


def _states_equal(left: State, right: State) -> bool:
    if left.scalars != right.scalars:
        return False
    if set(left.arrays) != set(right.arrays):
        return False
    for name in left.arrays:
        if left.arrays[name].cells != right.arrays[name].cells:
            return False
    return True


def _concrete_state(kernel, seed: int) -> State:
    rng = random.Random(seed)
    state = State()
    for decl in kernel.scalars:
        if decl.scalar_type == "integer":
            state.scalars[decl.name] = rng.randint(1, 4)
        else:
            state.scalars[decl.name] = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
    for decl in kernel.arrays:
        state.arrays[decl.name] = function_array(
            decl.name, lambda idx: Fraction((sum(idx) * 7 + 3) % 11, 2)
        )
    return state


def test_every_suite_kernel_executes_identically():
    checked = 0
    for case in all_cases():
        report = identify_candidates(parse_source(case.source))
        if not report.candidates:
            continue
        try:
            kernel = lower_candidate(report.candidates[0])
        except Exception:
            continue
        interp_state = _concrete_state(kernel, seed=11)
        compiled_state = _concrete_state(kernel, seed=11)
        reference = outcome(lambda: execute_statement(kernel.body, interp_state))
        fn = compile_stmt(kernel.body)
        result = outcome(lambda: fn(compiled_state))
        assert result[0] == reference[0], f"{case.name}: {result} vs {reference}"
        if reference[0] == "err":
            assert result[1:] == reference[1:], case.name
        else:
            assert _states_equal(interp_state, compiled_state), case.name
        checked += 1
    assert checked >= 50  # the sweep must actually cover the registry


def test_collector_matches_interpreted_collector():
    from repro.verification.bounded import _ReachableStateCollector

    kernel = kernel_from_source(RUNNING_EXAMPLE)
    interp_states = _ReachableStateCollector(kernel).run(_concrete_state(kernel, 3))
    compiled_states = CompiledCollector(kernel).collect(_concrete_state(kernel, 3))
    assert len(interp_states) == len(compiled_states)
    for left, right in zip(interp_states, compiled_states):
        assert _states_equal(left, right)


# ---------------------------------------------------------------------------
# Tiered quantified constraints
# ---------------------------------------------------------------------------

def _tier_state(kind: str, n: int) -> State:
    """A state on which ``forall q in [lo, n]. q >= k -> a(q) == b(q) + k``
    (with ``k = 2`` bound by the caller) holds, fails, or cannot be
    evaluated, depending on ``kind``."""
    state = State(scalars={"lo": 1, "n": n})
    state.arrays["b"] = function_array("b", lambda idx: Fraction(idx[0], 3))
    broken = 3 if kind == "fails" else None
    state.arrays["a"] = function_array(
        "a", lambda idx: Fraction(idx[0], 3) + (3 if idx[0] == broken else 2)
    )
    if kind == "unbound":
        del state.scalars["n"]
    elif kind == "fractional":
        state.scalars["lo"] = Fraction(1, 2)
    elif kind == "symbolic":
        state.scalars["n"] = sym("n")
    return state


def test_quantified_tiers_match_interpreter(monkeypatch):
    from repro.compile import clear_compile_caches, codegen, compile_quantified
    from repro.compile.predcomp import _CODEGEN_THRESHOLD
    from repro.predicates.evaluate import evaluate_quantified
    from repro.predicates.language import Bound, OutEq, QuantifiedConstraint

    upgrades = []
    real_gen = codegen.gen_quantified_fn

    def counting_gen(constraint):
        upgrades.append(constraint)
        return real_gen(constraint)

    monkeypatch.setattr(codegen, "gen_quantified_fn", counting_gen)
    clear_compile_caches()
    constraint = QuantifiedConstraint(
        bounds=(Bound("q", Sym("lo"), Sym("n")),),
        out_eq=OutEq("a", (Sym("q"),), Add(ArrayCell("b", (Sym("q"),)), Sym("k"))),
        guard=Call("ge", (Sym("q"), Sym("k"))),
    )
    bindings = {"k": 2}
    kinds = ["holds", "fails", "unbound", "holds", "fractional", "symbolic"]
    states = [
        _tier_state(kinds[i % len(kinds)], 3 + i % 4)
        for i in range(3 * _CODEGEN_THRESHOLD)
    ]

    fn = compile_quantified(constraint)
    results = []
    for index, state in enumerate(states):
        reference = outcome(lambda: evaluate_quantified(constraint, state, bindings))
        assert outcome(lambda: fn(state, bindings)) == reference, index
        results.append(reference)

    assert upgrades == [constraint]  # exactly one switch to the hot tier
    cold, hot = results[:_CODEGEN_THRESHOLD], results[_CODEGEN_THRESHOLD:]
    for tier in (cold, hot):
        assert ("ok", True) in tier and ("ok", False) in tier
        assert {r[1] for r in tier if r[0] == "err"} == {"PredicateEvalError"}


def test_structurally_equal_constraints_share_one_compiled_function():
    from repro.compile import clear_compile_caches, compile_quantified
    from repro.predicates.language import Bound, OutEq, QuantifiedConstraint

    def constraint(scale):
        return QuantifiedConstraint(
            bounds=(Bound("q", Const(Fraction(1)), Sym("n")),),
            out_eq=OutEq("a", (Sym("q"),), Mul(Const(scale), ArrayCell("b", (Sym("q"),)))),
        )

    clear_compile_caches()
    first = constraint(Fraction(2))
    assert compile_quantified(constraint(Fraction(2))) is compile_quantified(first)
    # Const(2.0) equals Const(Fraction(2)) structurally but is a distinct
    # interned node with different arithmetic: it must not share.
    assert constraint(2.0) == first
    assert compile_quantified(constraint(2.0)) is not compile_quantified(first)


# ---------------------------------------------------------------------------
# Whole-pipeline equivalence
# ---------------------------------------------------------------------------

class TestSynthesisEquivalence:
    def test_running_example_identical_result(self):
        from repro.cache.serialize import result_to_payload

        compiled = synthesize_kernel(kernel_from_source(RUNNING_EXAMPLE), seed=1)
        interpreted = synthesize_kernel(
            kernel_from_source(RUNNING_EXAMPLE), seed=1, compile_options=INTERPRETED
        )
        left = result_to_payload(compiled)
        right = result_to_payload(interpreted)
        left.pop("synthesis_time"), right.pop("synthesis_time")
        assert left == right

    def test_compiled_vc_check_matches_interpreted(self):
        kernel = kernel_from_source(RUNNING_EXAMPLE)
        result = synthesize_kernel(kernel, seed=1)
        vc = generate_vc(kernel)
        compiled_vc = CompiledVC(vc)
        for seed in range(6):
            state = _concrete_state(kernel, seed)
            assert compiled_vc.check(state, result.candidate) == vc.check(
                state, result.candidate
            )


# ---------------------------------------------------------------------------
# Cache fingerprints and options plumbing
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_code_version_bumped_for_compile_layer(self):
        # stng-cache-2 added the compile section; stng-cache-3 invalidated
        # entries verified under flooring (pre-truncation) MOD semantics;
        # stng-cache-4 invalidated entries recorded before the exact
        # trip-count enumeration and the Tier-3 inductive prover.
        assert CODE_VERSION == "stng-cache-4"

    def test_config_contains_compile_options(self):
        config = synthesis_config(
            trials=2,
            seed=0,
            max_candidates=10,
            quick_samples=2,
            verifier_environments=1,
            strategies=["dense"],
            compile_options=CompileOptions(),
        )
        assert config["compile"]["enabled"] is True

    def test_toggling_compilation_changes_fingerprint(self):
        from repro.cache.fingerprint import fingerprint_synthesis

        kernel = kernel_from_source(RUNNING_EXAMPLE)
        base = dict(trials=2, seed=0, max_candidates=10, quick_samples=2,
                    verifier_environments=1, strategies=["dense"])
        on = fingerprint_synthesis(
            kernel, synthesis_config(**base, compile_options=CompileOptions())
        )
        off = fingerprint_synthesis(
            kernel, synthesis_config(**base, compile_options=INTERPRETED)
        )
        assert on != off

    def test_pipeline_options_coerce_mapping(self):
        from dataclasses import asdict

        from repro.pipeline import PipelineOptions

        options = PipelineOptions(compile_options=CompileOptions(enabled=False))
        rebuilt = PipelineOptions(**asdict(options))
        assert rebuilt.compile_options == CompileOptions(enabled=False)
        assert isinstance(rebuilt.compile_options, CompileOptions)


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

class TestHashConsing:
    def test_structurally_equal_nodes_are_identical(self):
        left = cell("b", sym("i") - 1, "j") + cell("b", sym("i"), "j")
        right = cell("b", sym("i") - 1, "j") + cell("b", sym("i"), "j")
        assert left is right

    def test_pickle_reinterns(self):
        expr = cell("a", sym("i") + 1) * Const(Fraction(3, 2))
        clone = pickle.loads(pickle.dumps(expr))
        assert clone is expr

    def test_numeric_types_stay_distinct(self):
        exact = Const(Fraction(2))
        inexact = Const(2.0)
        assert exact == inexact  # structural equality is unchanged
        assert exact is not inexact
        assert repr(exact) == "2" and repr(inexact) == "2.0"

    def test_signed_zero_consts_stay_distinct(self):
        assert Const(0.0) is not Const(-0.0)

    def test_cached_walk_and_symbols(self):
        expr = (sym("i") + sym("j")) * cell("b", sym("i"))
        assert list(expr.walk()) == list(expr.walk())
        assert expr.symbols() == frozenset({"i", "j"})
        assert expr.arrays() == frozenset({"b"})
        assert expr.size() == 6

    def test_simplify_memo_does_not_conflate_numeric_twins(self):
        # Const(0.1) and Const(Fraction(0.1)) compare equal structurally
        # but canonicalise differently (limit_denominator vs exact); the
        # memo must be identity-keyed so warm order cannot leak one
        # twin's canonical form to the other.
        from repro.symbolic.simplify import simplify

        inexact = sym("x") + Const(0.1)
        exact = sym("x") + Const(Fraction(0.1))
        assert inexact == exact and inexact is not exact
        warm_first = simplify(inexact)
        assert simplify(exact) != warm_first

    def test_shared_numeric_coercion(self):
        # The satellite refactor: one coercion helper for both paths.
        assert coerce_number(Const(Fraction(3)) + Const(Fraction(4))) == 7
        assert compare_values("<", Fraction(1, 2), 0.75)
        with pytest.raises(EvalError):
            coerce_number(sym("x") + 1)
