import pytest

from ctwalk.errors import ValidationError, refuse_over


@pytest.mark.parametrize("amount, budget", [(0, 0), (5, 5), (4.5, 5), (-1, 0)])
def test_an_amount_within_its_budget_passes(amount, budget):
    refuse_over(amount, budget, "a graph of {} vertices")


@pytest.mark.parametrize("amount, budget, message", [
    (2049, 2048, "a graph of 2049 vertices exceeds the budget of 2048"),
    (float("nan"), 1e7, "a graph of nan vertices exceeds the budget of 10000000"),
    (float("inf"), 1.5e8, "a graph of inf vertices exceeds the budget of 150000000"),
    (10**15 - 1, 10, "a graph of 999999999999999 vertices exceeds the budget of 10"),
    (10**15, 10, "a graph of 1e+15 vertices exceeds the budget of 10"),
    # the largest N of sweep --N-range 3:1000000000000000000000000000000:2
    (10**30 - 1, 2048, "a graph of 1e+30 vertices exceeds the budget of 2048"),
    # a --graph-file whose n= line has 401 digits
    (10**400, 2048, "a graph of 1.00e+400 vertices exceeds the budget of 2048"),
    (10000000.5, 10_000_000, "a graph of 10000000.5 vertices exceeds the budget of 10000000"),
], ids=["int", "nan", "inf", "digits", "three-digits", "huge-N-range", "past-floats", "fraction"])
def test_an_amount_over_its_budget_is_refused_with_its_count(amount, budget, message):
    with pytest.raises(ValidationError) as err:
        refuse_over(amount, budget, "a graph of {} vertices")
    assert str(err.value) == message


def test_refusal_without_placeholder_and_with_remedy():
    with pytest.raises(ValidationError) as err:
        refuse_over(3, 2, "three steps of 2^2 entries, which", "raise dt")
    assert str(err.value) == "three steps of 2^2 entries, which exceeds the budget of 2; raise dt"
