"""The 26-entry sporadic table and its invariants."""

from fsg.sporadic import GENERATION_SIZES, sporadic_table


def test_twenty_six_sorted_entries():
    entries = sporadic_table()
    assert len(entries) == 26
    orders = [e.order for e in entries]
    assert orders == sorted(orders)
    assert entries[0].symbol == "M11" and entries[0].order == 7920
    assert entries[-1].symbol == "M"


def test_generation_counts():
    entries = sporadic_table()
    counts = {}
    for e in entries:
        counts[e.generation] = counts.get(e.generation, 0) + 1
    assert counts == GENERATION_SIZES == {
        "mathieu": 5, "leech": 7, "monster": 8, "pariah": 6}


def test_mathieu_orders():
    by_symbol = {e.symbol: e for e in sporadic_table()}
    assert by_symbol["M11"].order == 7920 == 11 * 10 * 9 * 8
    assert by_symbol["M12"].order == 95040 == 12 * 11 * 10 * 9 * 8
    assert by_symbol["M22"].order == 443520
    assert by_symbol["M23"].order == 10200960
    assert by_symbol["M24"].order == 244823040
    assert by_symbol["M24"].order == 24 * by_symbol["M23"].order


def test_conway_orders_from_factored_forms():
    by_symbol = {e.symbol: e for e in sporadic_table()}
    assert by_symbol["Co1"].order == 4157776806543360000
    assert by_symbol["Co2"].order == 42305421312000
    assert by_symbol["Co3"].order == 495766656000


def test_monster_and_baby_monster():
    by_symbol = {e.symbol: e for e in sporadic_table()}
    m = by_symbol["M"].order
    assert len(str(m)) == 54
    assert m == 808017424794512875886459904961710757005754368000000000
    b = by_symbol["B"].order
    assert b == 4154781481226426191177580544000000
    assert m > b


def test_pariahs():
    pariahs = {e.symbol for e in sporadic_table() if e.generation == "pariah"}
    assert pariahs == {"J1", "J3", "Ly", "Ru", "ON", "J4"}


def test_every_order_even_and_divisibility_by_three():
    entries = sporadic_table()
    assert all(e.order % 2 == 0 for e in entries)
    # the factor 3 turns out to be present in every one of the 26
    assert [e.symbol for e in entries if e.order % 3] == []
    # while e.g. 37 divides only two of them
    assert {e.symbol for e in entries if e.order % 37} == {
        e.symbol for e in entries} - {"Ly", "J4"}


def test_monster_irrep_dimension_factorizations():
    assert 196883 == 47 * 59 * 71
    assert 21296876 == 2 ** 2 * 31 * 41 * 59 * 71
    assert 842609326 == 2 * 13 ** 2 * 29 * 31 * 47 * 59
