import json

import pytest

from swapmc import (
    BipartiteDegreeSequence,
    DirectedDegreeBiSequence,
    FormatError,
    construct_bipartite,
    construct_directed,
    format_realization,
    format_sequence,
    parse_realization,
    parse_sequence,
    realization_to_json,
)


def test_parse_bipartite_text():
    seq = parse_sequence("U: 1 1\nV: 1 1\n")
    assert isinstance(seq, BipartiteDegreeSequence)
    assert seq.u_degrees == (1, 1) and seq.v_degrees == (1, 1)


def test_parse_directed_text():
    seq = parse_sequence("out: 1 1 1\nin: 1 1 1\n")
    assert isinstance(seq, DirectedDegreeBiSequence)
    assert seq.out_degrees == (1, 1, 1)


def test_parse_json_variants():
    seq = parse_sequence(json.dumps({"u_degrees": [2, 1, 1], "v_degrees": [2, 1, 1]}))
    assert isinstance(seq, BipartiteDegreeSequence)
    seq = parse_sequence(json.dumps({"out_degrees": [1, 0], "in_degrees": [0, 1]}))
    assert isinstance(seq, DirectedDegreeBiSequence)


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_sequence("U: 2\nV: 1 1 1\n")  # sum mismatch
    with pytest.raises(FormatError):
        parse_sequence("U: 1 1\n")  # missing V
    with pytest.raises(FormatError):
        parse_sequence("U: a b\nV: 1 1\n")
    with pytest.raises(FormatError):
        parse_sequence("")
    with pytest.raises(FormatError):
        parse_sequence("degrees: 1 1\n")
    with pytest.raises(FormatError):
        parse_sequence("U: 2 2\nV: 3 1\n")  # v-degree exceeds class size
    with pytest.raises(FormatError):
        parse_sequence("out: 2 1\nin: 1 2\n")  # out-degree exceeds n-1
    with pytest.raises(FormatError):
        parse_sequence("{not json")
    with pytest.raises(FormatError):
        parse_sequence("U: 1 1\nin: 1 1\n")  # mixed header kinds
    with pytest.raises(FormatError):
        parse_sequence(
            json.dumps({"u_degrees": [1], "v_degrees": [1], "out_degrees": [1]})
        )


@pytest.mark.parametrize(
    "degrees",
    [[1.7, True], [1.0, 1], [1, False], ["1", 1], [1, None], {"1": 1}, 2],
    ids=["float-bool", "whole-float", "bool", "string-item", "null", "object", "number"],
)
def test_parse_json_rejects_non_integer_degrees(degrees):
    # int() would truncate 1.7 and read True as 1
    with pytest.raises(FormatError, match="u_degrees"):
        parse_sequence(json.dumps({"u_degrees": degrees, "v_degrees": [1, 1]}))


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"u_degrees": [1, 1], "v_degrees": [1, 1], "forbidden": [[1, 1], [2, 2]]}, "forbidden"),
        ({"u_degree": [1, 1], "v_degrees": [1, 1]}, "u_degree"),
        ({"u_degrees": [1, 1], "v_degrees": [1, 1], "edges": [[1, 1], [2, 2]]}, "edges"),
        ({"out_degrees": [1, 1], "in_degrees": [1, 1], "arcs": [[1, 2], [2, 1]]}, "arcs"),
    ],
    ids=["forbidden", "misspelt", "edges", "arcs"],
)
def test_parse_json_rejects_unknown_keys(doc, key):
    # dropped without a word, a "forbidden" key made enumerate list states on it
    with pytest.raises(FormatError, match=repr(key)):
        parse_sequence(json.dumps(doc))


def test_parse_json_string_degrees_read_like_text():
    seq = parse_sequence(json.dumps({"u_degrees": "1 1", "v_degrees": [1, 1]}))
    assert seq.u_degrees == (1, 1)
    with pytest.raises(FormatError, match="u_degrees"):
        parse_sequence(json.dumps({"u_degrees": "1.7 1", "v_degrees": [1, 1]}))


@pytest.mark.parametrize(
    "text",
    [
        "U: 1 1\nV: 1 1\nforbidden: 1:1 2:2\n",
        "U: 1 1\nV: 1 1\nforbidden: garbage\n",
        "out: 1 1 1\nin: 1 1 1\nforbidden: 1:1\n",
    ],
    ids=["pairs", "garbage", "directed"],
)
def test_parse_degree_file_rejects_forbidden_line(text):
    # a degree file has no forbidden set, so the line must not be dropped silently;
    # realization files keep theirs (test_realization_round_trip_bipartite)
    with pytest.raises(FormatError, match="forbidden"):
        parse_sequence(text)


def test_sequence_round_trip():
    for text in ("U: 2 1 1\nV: 2 1 1\n", "out: 1 1 1\nin: 1 1 1\n"):
        seq = parse_sequence(text)
        assert format_sequence(seq) == text
        assert parse_sequence(format_sequence(seq)) == seq


def test_realization_round_trip_bipartite():
    seq = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    r = construct_bipartite(seq, ((0, 0), (1, 1), (2, 2)))
    text = format_realization(r)
    assert "forbidden: 1:1 2:2 3:3" in text
    back = parse_realization(text)
    assert back == r


def test_realization_round_trip_directed():
    d = construct_directed(DirectedDegreeBiSequence((2, 1, 1), (1, 2, 1)))
    text = format_realization(d)
    assert "->" in text
    assert parse_realization(text) == d


def test_realization_parse_errors():
    with pytest.raises(FormatError):
        parse_realization("U: 1 1\nV: 1 1\n1 1\n1 1\n")  # duplicate edge
    with pytest.raises(FormatError):
        parse_realization("U: 1 1\nV: 1 1\n3 1\n")  # out of range
    with pytest.raises(FormatError):
        parse_realization("U: 1 1\nV: 1 1\n1 1\n")  # degree mismatch
    with pytest.raises(FormatError):
        parse_realization("U: 1 1\nV: 1 1\nforbidden: 1-1\n1 1\n2 2\n")


def test_matrix_and_json_formats():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    r = construct_bipartite(seq)
    assert format_realization(r, "matrix").count("\n") == 2
    doc = json.loads(format_realization(r, "json"))
    assert doc == realization_to_json(r)
    assert doc["u_degrees"] == [1, 1]
    assert all(len(e) == 2 for e in doc["edges"])
