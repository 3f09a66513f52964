"""Differential tests for comparisons decided on codes.

Encoded plans, pinned probes and the chase's disjunct kernels compile
every comparison through one code-level compiler
(:func:`repro.relational.query._compile_comparison`): ``=``/``!=``
compare codes, order operators read the pool's cached typed keys.  The
oracle here is the decoded :meth:`Comparison.evaluate`, with its
``TypingError`` counting as "does not hold", over a grid of all six
operators, every value kind (int, float, bool, str, the equal numerics
``1``/``1.0``/``True``, nulls) and literals on either side.
"""

import itertools

import pytest

from repro.chase.compiled import _DisjunctKernel
from repro.errors import ChaseError, TypingError
from repro.logic.atoms import Atom, Comparison, Conjunction
from repro.logic.dependencies import Disjunct
from repro.logic.terms import Constant, Null, Variable
from repro.relational.kernel import ColumnarInstance, TermPool
from repro.relational.query import compile_query

OPS = ("=", "!=", "<", "<=", ">", ">=")

VALUES = (
    Constant(1),
    Constant(1.0),
    Constant(True),
    Constant(0),
    Constant(False),
    Constant(2),
    Constant(2.5),
    Constant(-3),
    Constant("a"),
    Constant("b"),
    Constant("1"),
    Constant(""),
    Null(0),
    Null(1),
)

X, Y, T, U = Variable("x"), Variable("y"), Variable("t"), Variable("u")


def holds(op, left, right) -> bool:
    try:
        return Comparison(op, left, right).evaluate()
    except TypingError:
        return False


def tagged_store(pool):
    """``R(tag, value)`` for every grid value: the tag keeps the equal
    numerics (one term, one code) on separate rows."""
    store = ColumnarInstance(pool=pool)
    for i, value in enumerate(VALUES):
        store.add(Atom("R", (Constant(f"v{i}"), value)))
    return store


def tag_index(store, code) -> int:
    return int(store.decode_term(code).value[1:])


class TestCodeEqualityIsTermEquality:
    def test_equal_numerics_share_one_code(self):
        pool = TermPool()
        codes = {pool.encode(Constant(v)) for v in (1, 1.0, True)}
        assert len(codes) == 1
        assert Constant(1) == Constant(1.0) == Constant(True)

    def test_code_equality_matches_term_equality_on_the_grid(self):
        pool = TermPool()
        for left, right in itertools.product(VALUES, repeat=2):
            assert (pool.encode(left) == pool.encode(right)) == (left == right), (
                left,
                right,
            )

    def test_str_never_shares_a_code_with_a_number(self):
        pool = TermPool()
        assert pool.encode(Constant("1")) != pool.encode(Constant(1))


class TestStepComparisons:
    """Comparisons checked inside a join step of an encoded plan."""

    @pytest.mark.parametrize("op", OPS)
    def test_variable_against_variable(self, op):
        pool = TermPool()
        store = tagged_store(pool)
        body = Conjunction(
            atoms=(Atom("R", (T, X)), Atom("R", (U, Y))),
            comparisons=(Comparison(op, X, Y),),
        )
        plan = compile_query(body).encoded(pool)
        assert any(step.comparisons for step in plan.steps)
        t, u = plan.slot_of[T], plan.slot_of[U]
        got = {
            (tag_index(store, row[t]), tag_index(store, row[u]))
            for row in plan.rows(store)
        }
        expected = {
            (i, j)
            for (i, left), (j, right) in itertools.product(
                enumerate(VALUES), repeat=2
            )
            if holds(op, left, right)
        }
        assert got == expected

    @pytest.mark.parametrize("literal_on_left", [False, True])
    @pytest.mark.parametrize("op", OPS)
    def test_variable_against_literal(self, op, literal_on_left):
        pool = TermPool()
        store = tagged_store(pool)
        for literal in VALUES:
            comparison = (
                Comparison(op, literal, X)
                if literal_on_left
                else Comparison(op, X, literal)
            )
            body = Conjunction(
                atoms=(Atom("R", (T, X)),), comparisons=(comparison,)
            )
            plan = compile_query(body).encoded(pool)
            t = plan.slot_of[T]
            got = {tag_index(store, row[t]) for row in plan.rows(store)}
            expected = {
                i
                for i, value in enumerate(VALUES)
                if (
                    holds(op, literal, value)
                    if literal_on_left
                    else holds(op, value, literal)
                )
            }
            assert got == expected, (op, literal)


class TestSeedComparisons:
    """Comparisons over seeded variables, checked before any join."""

    @pytest.mark.parametrize("op", OPS)
    def test_seeded_pair(self, op):
        pool = TermPool()
        store = ColumnarInstance(pool=pool)
        body = Conjunction(comparisons=(Comparison(op, X, Y),))
        query = compile_query(body, {X, Y})
        plan = query.encoded(pool)
        assert len(plan.seed_comparisons) == 1
        check = plan.seed_comparisons[0]
        for left, right in itertools.product(VALUES, repeat=2):
            values = [0] * plan.width
            values[plan.slot_of[X]] = pool.encode(left)
            values[plan.slot_of[Y]] = pool.encode(right)
            expected = holds(op, left, right)
            assert check(values) == expected, (left, op, right)
            assert query.exists(store, {X: left, Y: right}) == expected

    @pytest.mark.parametrize("op", OPS)
    def test_ground_comparison_is_decided_at_compile_time(self, op):
        pool = TermPool()
        for left, right in itertools.product(VALUES, repeat=2):
            body = Conjunction(comparisons=(Comparison(op, left, right),))
            plan = compile_query(body).encoded(pool)
            assert plan.seed_comparisons[0](()) == holds(op, left, right)

    @pytest.mark.parametrize("op", OPS)
    def test_pinned_single_probe_reads_the_outer_row(self, op):
        """``R(x), x op y`` seeded with x and y is a single-probe plan:
        its pinned probe checks the seed comparison on the outer row's
        codes (laid out differently from the plan's slots) and then
        tests index membership."""
        pool = TermPool()
        store = ColumnarInstance(pool=pool)
        for value in VALUES:
            store.add(Atom("R", (value,)))
        body = Conjunction(
            atoms=(Atom("R", (X,)),), comparisons=(Comparison(op, X, Y),)
        )
        plan = compile_query(body, {X, Y}).encoded(pool)
        assert plan._single_probe
        outer = (Variable("pad"), Y, X)
        probe = plan.probe(store, plan.fill_for(outer))
        for left, right in itertools.product(VALUES, repeat=2):
            row = (0, pool.encode(right), pool.encode(left))
            assert probe(row) == holds(op, left, right), (left, op, right)


class TestDisjunctKernel:
    """The chase's disjunct comparisons over premise rows."""

    @pytest.mark.parametrize("op", OPS)
    def test_variable_and_literal_operands(self, op):
        pool = TermPool()
        slot_of = {X: 0, Y: 1}
        for left, right in itertools.product(VALUES, repeat=2):
            row = (pool.encode(left), pool.encode(right))
            comparisons = (
                Comparison(op, X, Y),
                Comparison(op, X, right),
                Comparison(op, left, Y),
            )
            kernel = _DisjunctKernel(
                Disjunct(comparisons=comparisons), slot_of, pool
            )
            expected = holds(op, left, right)
            for comparison, check in kernel.comparisons:
                assert check(row) == expected, (comparison, left, right)

    def test_unbound_variable_fails_when_fired(self):
        pool = TermPool()
        kernel = _DisjunctKernel(
            Disjunct(comparisons=(Comparison("<", X, Variable("z")),)),
            {X: 0},
            pool,
        )
        _comparison, check = kernel.comparisons[0]
        with pytest.raises(ChaseError, match="unbound variable z"):
            check((pool.encode(Constant(1)),))


class TestAdoptedEntries:
    """A forked replica's pool receives the parent's entries through
    ``adopt_entries``; its typed keys must line up code for code."""

    def test_adopted_pool_carries_typed_keys(self):
        parent = TermPool()
        for value in VALUES:
            parent.encode(value)
        replica = TermPool()
        replica.adopt_entries(replica.snapshot_mark, parent.entries_since(1))
        assert replica.typed_keys == parent.typed_keys

    @pytest.mark.parametrize("op", OPS)
    def test_comparisons_on_adopted_codes(self, op):
        parent = TermPool()
        codes = [parent.encode(value) for value in VALUES]
        replica = TermPool()
        replica.adopt_entries(replica.snapshot_mark, parent.entries_since(1))
        slot_of = {X: 0, Y: 1}
        step = compile_query(
            Conjunction(comparisons=(Comparison(op, X, Y),)), {X, Y}
        ).encoded(replica)
        kernel = _DisjunctKernel(
            Disjunct(comparisons=(Comparison(op, X, Y),)), slot_of, replica
        )
        _comparison, kernel_check = kernel.comparisons[0]
        for (left, lcode), (right, rcode) in itertools.product(
            zip(VALUES, codes), repeat=2
        ):
            values = [0] * step.width
            values[step.slot_of[X]] = lcode
            values[step.slot_of[Y]] = rcode
            expected = holds(op, left, right)
            assert step.seed_comparisons[0](values) == expected
            assert kernel_check((lcode, rcode)) == expected


class TestLiteralsAreNotInterned:
    """Compiling a comparison against a literal reads its typed key and
    leaves the pool alone: no growth, and no first-interned-wins decode
    of a later equal numeric."""

    @pytest.mark.parametrize("op", OPS)
    def test_compiling_leaves_the_pool_unchanged(self, op):
        pool = TermPool()
        before = len(pool)
        for literal in (Constant(True), Constant(7.5), Constant("q")):
            body = Conjunction(
                atoms=(Atom("R", (T, X)),),
                comparisons=(Comparison(op, X, literal),),
            )
            plan = compile_query(body).encoded(pool)
            assert plan.steps[0].comparisons
            _DisjunctKernel(
                Disjunct(comparisons=(Comparison(op, literal, X),)),
                {X: 0},
                pool,
            )
        assert len(pool) == before

    def test_literal_matches_rows_interned_after_compiling(self):
        pool = TermPool()
        body = Conjunction(
            atoms=(Atom("R", (T, X)),),
            comparisons=(Comparison("=", X, Constant(True)),),
        )
        plan = compile_query(body).encoded(pool)
        store = ColumnarInstance(pool=pool)
        store.add(Atom("R", (Constant("a"), Constant(1))))
        store.add(Atom("R", (Constant("b"), Constant("1"))))
        rows = list(plan.rows(store))
        assert [store.decode_term(row[plan.slot_of[T]]) for row in rows] == [
            Constant("a")
        ]
        # The row still renders as the value it was added with.
        assert str(store.decode_term(rows[0][plan.slot_of[X]])) == "1"


class TestRowReader:
    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((), ()),
            (((True, 2),), (12,)),
            (((True, 2), (True, 0)), (12, 10)),
            (((False, 7),), (7,)),
            (((True, 1), (False, -3), (True, 1)), (11, -3, 11)),
        ],
    )
    def test_builds_a_code_tuple(self, parts, expected):
        from repro.relational.query import _row_reader

        for row in ((10, 11, 12), [10, 11, 12]):
            assert _row_reader(parts)(row) == expected
