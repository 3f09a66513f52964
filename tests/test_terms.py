"""Unit tests for terms: constants, variables, labeled nulls, factories."""

import threading

import pytest

from repro.logic.terms import (
    Constant,
    Null,
    NullFactory,
    Variable,
    VariableFactory,
    constants_in,
    is_ground,
    nulls_in,
    variables_in,
)


class TestConstant:
    def test_equality_by_value(self):
        assert Constant(1) == Constant(1)
        assert Constant("a") == Constant("a")

    def test_typed_inequality(self):
        assert Constant(1) != Constant("1")
        assert Constant(1.0) != Constant("1.0")

    def test_bool_vs_int_python_semantics(self):
        # Python's `1 == True` carries over; documents the behaviour.
        assert Constant(True).value == 1

    def test_equal_numerics_are_one_term(self):
        # The documented semantics: numeric constants compare by value
        # across int/float/bool, with equal hashes, so they collapse in
        # sets (and share one code in the columnar term pool).
        assert Constant(1) == Constant(1.0) == Constant(True)
        assert len({Constant(1), Constant(1.0), Constant(True)}) == 1
        assert Constant(0) == Constant(False)
        assert Constant(True) != Constant("True")

    def test_rejects_non_scalar(self):
        with pytest.raises(TypeError):
            Constant([1, 2])  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            Constant(None)  # type: ignore[arg-type]

    def test_str_quotes_strings_only(self):
        assert str(Constant("x")) == "'x'"
        assert str(Constant(3)) == "3"

    def test_hashable(self):
        assert len({Constant(1), Constant(1), Constant(2)}) == 2

    def test_ordering(self):
        assert Constant(1) < Constant(2)


class TestVariable:
    def test_identity(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_str(self):
        assert str(Variable("pid")) == "pid"

    def test_sortable(self):
        assert sorted([Variable("b"), Variable("a")]) == [
            Variable("a"),
            Variable("b"),
        ]


class TestNull:
    def test_identity_by_id_only(self):
        assert Null(1, "x") == Null(1, "y")
        assert Null(1) != Null(2)

    def test_hash_ignores_hint(self):
        assert len({Null(1, "a"), Null(1, "b")}) == 1

    def test_not_equal_to_constant(self):
        assert Null(1) != Constant(1)

    def test_str_includes_hint(self):
        assert str(Null(3, "store")) == "#N3_store"
        assert str(Null(3)) == "#N3"

    def test_ordering_by_id(self):
        assert Null(1) < Null(2)


class TestVariableFactory:
    def test_fresh_avoids_existing(self):
        factory = VariableFactory(avoid=[Variable("v_0")])
        first = factory.fresh()
        assert first != Variable("v_0")

    def test_fresh_never_repeats(self):
        factory = VariableFactory()
        names = {factory.fresh().name for _ in range(100)}
        assert len(names) == 100

    def test_hint_used_as_prefix(self):
        factory = VariableFactory()
        fresh = factory.fresh(hint="store")
        assert fresh.name.startswith("store_")

    def test_avoid_after_construction(self):
        factory = VariableFactory(prefix="x")
        factory.avoid([Variable("x_0")])
        assert factory.fresh().name != "x_0"


class TestNullFactory:
    def test_monotone_ids(self):
        factory = NullFactory()
        ids = [factory.fresh().id for _ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_advance_past(self):
        factory = NullFactory()
        factory.advance_past([Null(100)])
        assert factory.fresh().id == 101

    def test_thread_safety(self):
        factory = NullFactory()
        seen = []

        def work():
            for _ in range(200):
                seen.append(factory.fresh().id)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(seen)) == len(seen) == 800


class TestHelpers:
    def test_is_ground(self):
        assert is_ground([Constant(1), Null(2)])
        assert not is_ground([Constant(1), Variable("x")])

    def test_extractors(self):
        terms = [Constant(1), Variable("x"), Null(3), Constant("a")]
        assert list(constants_in(terms)) == [Constant(1), Constant("a")]
        assert list(variables_in(terms)) == [Variable("x")]
        assert list(nulls_in(terms)) == [Null(3)]
