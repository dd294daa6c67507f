from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versechant.errors import MetreDbError, NoMatchingMetre
from versechant.prosody import (
    MetreRecord,
    Weight,
    analyze_quarters,
    classify_metre,
    isolated_weight,
    load_metre_db,
    parse_metre_db,
    pattern_string,
    weigh_units,
)
from versechant.sandhi import apply_all
from versechant.transliteration import split_quarters, tokenize
from versechant.units import split_into_units

from conftest import (
    ANUSTUP_Q13,
    ANUSTUP_Q24,
    Q1_T,
    Q1_V,
    SAMPLE_VERSE,
    VAJRA_Q13,
    VAJRA_Q24,
)


def units_of(text: str):
    return split_into_units(apply_all(tokenize(text)))


def pitches(analysis) -> list[tuple[int, ...]]:
    return [tuple(tu.pitch for tu in quarter) for quarter in analysis.quarters]


def contextual(units, promote_light_clusters: bool = False) -> list[Weight]:
    return [wu.contextual for wu in weigh_units(units, promote_light_clusters)]


def quarter_units(verse: str):
    return [units_of(chunk) for chunk in split_quarters(verse)]


def test_isolated_weight_rules():
    # long nucleus
    assert isolated_weight(units_of("kā")[0]) is Weight.GURU
    # tail marker
    assert isolated_weight(units_of("taṃ")[0]) is Weight.GURU
    assert isolated_weight(units_of("taḥ")[0]) is Weight.GURU
    # two coda consonants
    assert isolated_weight(units_of("kārtsnyam")[0]) is Weight.GURU
    # one coda consonant alone does not lengthen
    assert isolated_weight(units_of("van")[0]) is Weight.LAGHU
    assert isolated_weight(units_of("ta")[0]) is Weight.LAGHU


def test_quarter1_weight_vectors():
    units = units_of("vande gurūṇāṃ caraṇāravinde")
    weighted = weigh_units(units)
    assert [int(w.contextual) for w in weighted] == Q1_V
    assert [int(w.isolated) for w in weighted] == Q1_T


def test_context_promotes_before_conjunct():
    # "a" in ajñā is light alone but heavy before the jñ cluster
    units = units_of("ajñā")
    assert isolated_weight(units[0]) is Weight.LAGHU
    assert contextual(units) == [Weight.GURU, Weight.GURU]
    # across a word boundary too
    units = units_of("na tvam")
    assert contextual(units)[0] is Weight.GURU


def test_context_stops_at_sequence_end():
    units = units_of("na")
    assert contextual(units) == [Weight.LAGHU]


def test_light_clusters_stay_light_by_default():
    units = units_of("sapriyaḥ")
    assert contextual(units)[0] is Weight.LAGHU
    assert contextual(units, promote_light_clusters=True)[0] is Weight.GURU
    # lone h behaves the same way: "ra" before the bare h onset
    units = units_of("sāraha lā")
    assert [u.text for u in units] == ["sā", "ra", "ha", "lā"]
    v = contextual(units)
    v_promoted = contextual(units, promote_light_clusters=True)
    assert v[1] is Weight.LAGHU
    assert v_promoted[1] is Weight.GURU


def test_cluster_containing_pr_still_promotes():
    # coda consonant + pr onset is three deep: always heavy
    units = units_of("tat priyam")
    assert contextual(units)[0] is Weight.GURU


# ---------------------------------------------------------------------------
# Metre records

def test_bundled_db_pitch_tables():
    db = load_metre_db()
    by_name = {r.name: r for r in db}
    anustup = by_name["Anuṣṭup"]
    assert anustup.pitch_q13 == ANUSTUP_Q13
    assert anustup.pitch_q24 == ANUSTUP_Q24
    assert anustup.syllables == (8, 8, 8, 8)
    for name in ("Indravajrā", "Upendravajrā", "Upajāti"):
        assert by_name[name].pitch_q13 == VAJRA_Q13
        assert by_name[name].pitch_q24 == VAJRA_Q24
    for record in db:
        for row in (record.pitch_q13, record.pitch_q24):
            assert all(-7 <= p <= 4 for p in row)


def test_bundled_db_parsed_once_custom_db_read_each_call(tmp_path):
    db = load_metre_db()
    assert isinstance(db, tuple) and load_metre_db() is db
    with pytest.raises(dataclasses.FrozenInstanceError):
        db[0].name = "changed"
    path = tmp_path / "metres.txt"
    text = "name: Four\nsyllables: 1 1 1 1\npitch_q13: 0\npitch_q24: 0\n"
    path.write_text(text, "utf-8")
    assert [r.name for r in load_metre_db(path)] == ["Four"]
    path.write_text(text.replace("Four", "Edited"), "utf-8")
    assert [r.name for r in load_metre_db(path)] == ["Edited"]


def test_pitch_rows_map_to_quarters():
    record = load_metre_db()[0]
    assert record.pitch_array(0) == record.pitch_q13
    assert record.pitch_array(2) == record.pitch_q13
    assert record.pitch_array(1) == record.pitch_q24
    assert record.pitch_array(3) == record.pitch_q24
    assert tuple(record.pitch_array(q) for q in range(4)) == (
        record.pitch_q13, record.pitch_q24, record.pitch_q13, record.pitch_q24,
    )


def test_caesura_positions_include_quarter_end():
    db = {r.name: r for r in load_metre_db()}
    assert db["Anuṣṭup"].caesura_positions(0) == (8,)
    record = parse_metre_db(
        "name: x\nsyllables: 11 11 11 11\ncaesura: 5\n"
        "pitch_q13: 0 0 0 0 0 0 0 0 0 0 0\npitch_q24: 0 0 0 0 0 0 0 0 0 0 0\n"
    )[0]
    assert record.caesura_positions(0) == (5, 11)


def test_db_parse_comments_and_blank_lines():
    text = (
        "# leading comment\n\nname: m\nsyllables: 2 2 2 2\n"
        "pitch_q13: 0 1\npitch_q24: 1 0\n\n# trailing\n"
    )
    records = parse_metre_db(text)
    assert len(records) == 1
    assert records[0].name == "m"
    assert records[0].pattern is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("syllables: 2 2 2 2\npitch_q13: 0 1\npitch_q24: 0 1", "name"),
        ("name: m\nsyllables: 2 2\npitch_q13: 0 1\npitch_q24: 0 1", "4 counts"),
        (
            "name: m\nsyllables: 2 2 2 2\npitch_q13: 0 9\npitch_q24: 0 1",
            "outside",
        ),
        (
            "name: m\nsyllables: 2 2 2 2\npitch_q13: 0\npitch_q24: 0 1",
            "length",
        ),
        (
            "name: m\nsyllables: 2 2 2 2\npattern: 10 10 10\n"
            "pitch_q13: 0 1\npitch_q24: 0 1",
            "pattern",
        ),
        (
            "name: m\nsyllables: 2 2 2 2\npattern: 10 10 10 1x\n"
            "pitch_q13: 0 1\npitch_q24: 0 1",
            "binary",
        ),
        ("name: m\nname: n\nsyllables: 2 2 2 2", "duplicate"),
        ("just words without a colon", "key"),
    ],
)
def test_db_parse_errors(text, fragment):
    with pytest.raises(MetreDbError) as info:
        parse_metre_db(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "fields,fragment",
    [
        (dict(pitch_q13=(0,)), "pitch_q13 length"),
        (dict(pitch_q24=(0, 9)), "pitch 9 outside"),
        (dict(syllables=(2, 2, 2)), "4 counts"),
    ],
    ids=["short-pitch-row", "pitch-out-of-range", "three-counts"],
)
def test_hand_built_record_checks_its_shape(fields, fragment):
    good = dict(
        name="m", syllables=(2, 2, 2, 2), pattern=None, caesura=(),
        pitch_q13=(0, 1), pitch_q24=(1, 0),
    )
    MetreRecord(**good)
    with pytest.raises(MetreDbError) as info:
        MetreRecord(**{**good, **fields})
    assert fragment in str(info.value)


def test_classify_upajati_for_sample_verse():
    quarters = [weigh_units(u) for u in quarter_units(SAMPLE_VERSE)]
    patterns = [pattern_string([w.contextual for w in q]) for q in quarters]
    # quarters 1, 2 and 4 follow Indravajrā and quarter 3 Upendravajrā,
    # so the mix lands on Upajāti rather than either strict record
    assert patterns[0] == "".join(str(v) for v in Q1_V)
    assert patterns[1] == "11011001011"
    assert patterns[2] == "01011001011"
    record = classify_metre(patterns, load_metre_db())
    assert record.name == "Upajāti"


def test_classify_uniform_quarters():
    db = load_metre_db()
    indra = "11011001011"
    upendra = "01011001011"
    assert classify_metre([indra] * 4, db).name == "Indravajrā"
    assert classify_metre([upendra] * 4, db).name == "Upendravajrā"


def test_classify_final_syllable_anceps():
    db = load_metre_db()
    relaxed = "11011001010"  # last syllable light
    assert classify_metre([relaxed] * 4, db).name == "Indravajrā"


def outcome(patterns, db):
    """The record classify_metre picks, or None when it raises."""
    try:
        return classify_metre(patterns, db)
    except NoMatchingMetre:
        return None


def flip(pattern: str, at: int) -> str:
    return pattern[:at] + "10"[int(pattern[at])] + pattern[at + 1 :]


_QUARTER = st.one_of(
    st.sampled_from(["11011001011", "01011001011", "10101010"]),
    st.text("01", min_size=1, max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(
    patterns=st.lists(_QUARTER, min_size=3, max_size=5),
    data=st.data(),
)
def test_classify_ignores_every_quarters_last_mark(patterns, data):
    db = load_metre_db()
    q = data.draw(st.integers(0, len(patterns) - 1))
    changed = list(patterns)
    changed[q] = flip(changed[q], len(changed[q]) - 1)
    assert outcome(changed, db) == outcome(patterns, db)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_strict_records_match_their_own_pattern_and_no_flip_of_it(data):
    db = load_metre_db()
    strict = [r for r in db if r.pattern is not None]
    assert {r.name for r in strict} == {"Indravajrā", "Upendravajrā"}
    record = data.draw(st.sampled_from(strict))
    patterns = list(record.pattern)
    assert classify_metre(patterns, db) == record
    q = data.draw(st.integers(0, 3))
    at = data.draw(st.integers(0, len(patterns[q]) - 2))
    patterns[q] = flip(patterns[q], at)
    assert outcome(patterns, db) != record


def test_classify_no_match():
    db = load_metre_db()
    with pytest.raises(NoMatchingMetre):
        classify_metre(["10"] * 4, db)
    with pytest.raises(NoMatchingMetre):
        classify_metre(["11011001011"] * 3, db)


def test_analyze_four_chunks():
    analysis = analyze_quarters(quarter_units(SAMPLE_VERSE), load_metre_db())
    assert analysis.metre.name == "Upajāti"
    assert tuple(len(q) for q in analysis.quarters) == (11, 11, 11, 11)
    assert pitches(analysis)[0] == VAJRA_Q13
    assert pitches(analysis)[1] == VAJRA_Q24
    assert analysis.caesuras(0) == (11,)


def test_analyze_resegments_unmarked_verse():
    # same verse as two lines: pooled units re-cut by syllable counts
    two_chunks = SAMPLE_VERSE.replace("\n", " ", 1).replace(" |\n", " ")
    chunks = quarter_units(two_chunks)
    assert len(chunks) == 2
    analysis = analyze_quarters(chunks, load_metre_db())
    assert analysis.metre.name == "Upajāti"
    assert tuple(len(q) for q in analysis.quarters) == (11, 11, 11, 11)
    assert pitches(analysis) == [VAJRA_Q13, VAJRA_Q24] * 2


def test_analyze_without_metre():
    units = [units_of("vande gurūṇāṃ")]
    with pytest.raises(NoMatchingMetre):
        analyze_quarters(units, load_metre_db())
    analysis = analyze_quarters(units, load_metre_db(), require_metre=False)
    assert analysis.metre is None
    assert pitches(analysis) == [(0,) * 5]
    assert analysis.caesuras(0) == (5,)


# Records sharing the 8-unit total of "vande gurūṇāṃ caraṇā", whose
# contextual pattern is 11011001; only "recut" and "counts" fit it.
_SHARED_TOTAL_DB = {
    "shape": "syllables: 2 2 2 2\npattern: 00 00 00 00\n"
    "pitch_q13: 0 0\npitch_q24: 0 0\n",
    "short": "syllables: 1 2 1 2\npitch_q13: 0\npitch_q24: 0 0\n",
    "recut": "syllables: 3 1 3 1\npattern: 110 1 100 1\n"
    "pitch_q13: 0 1 2\npitch_q24: 3\n",
    "counts": "syllables: 1 3 1 3\npitch_q13: 0\npitch_q24: 0 1 2\n",
}


def _db(*names):
    return parse_metre_db(
        "\n".join(f"name: {name}\n{_SHARED_TOTAL_DB[name]}" for name in names)
    )


@pytest.mark.parametrize(
    "order, winner",
    [
        (("shape", "short", "recut", "counts"), "recut"),
        (("shape", "short", "counts", "recut"), "counts"),
    ],
)
def test_analyze_recut_first_fitting_record_wins(order, winner):
    units = [units_of("vande gurūṇāṃ caraṇā")]
    analysis = analyze_quarters(units, _db(*order))
    assert analysis.metre.name == winner
    counts = {"recut": (3, 1, 3, 1), "counts": (1, 3, 1, 3)}[winner]
    assert tuple(len(q) for q in analysis.quarters) == counts
    assert pitches(analysis) == [analysis.metre.pitch_array(q) for q in range(4)]


def test_analyze_unmatched_error_fields():
    with pytest.raises(NoMatchingMetre) as info:
        analyze_quarters([units_of("vande gurūṇāṃ caraṇā")], _db("shape", "short"))
    assert info.value.counts == (8,)
    assert info.value.patterns is None
    with pytest.raises(NoMatchingMetre) as info:
        analyze_quarters(quarter_units("vande | vande | vande | vande"), load_metre_db())
    assert info.value.counts == (2, 2, 2, 2)
    assert info.value.patterns == ("11", "11", "11", "11")
