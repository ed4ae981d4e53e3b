import json

import pytest

from swapmc import (
    BipartiteDegreeSequence,
    BipartiteRealization,
    DirectedDegreeBiSequence,
    DirectedRealization,
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


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_sequence, "U: 1 1\nV: 1 1\nu: 1 1\n", "duplicate header line 'u'"),
        (parse_sequence, "out: 1 1\n", "directed input needs both 'out:' and 'in:' lines"),
        (parse_sequence, "{}", "no degree header found (expected U:/V: or out:/in:)"),
        (parse_realization, "1 2\n", "no degree header found (expected U:/V: or out:/in:)"),
        (
            parse_realization,
            "U: 1 1\nV: 1 1\nforbidden: 1:x\n1 2\n2 1\n",
            "invalid forbidden pair '1:x'",
        ),
        (parse_realization, "U: 1 1\nV: 1 1\n1 2 1\n2 1\n", "bad edge line: '1 2 1'"),
        (parse_realization, "U: 1 1\nV: 1 1\n1 x\n2 1\n", "bad edge line: '1 x'"),
        (
            parse_realization,
            "out: 1 1\nin: 1 1\nforbidden: 1:1 2:2\n1 -> 2\n2 -> 1\n",
            "directed realizations have an implicit forbidden set",
        ),
    ],
    ids=[
        "duplicate-header",
        "out-without-in",
        "no-header-json",
        "no-header-realization",
        "forbidden-token",
        "three-token-edge",
        "non-integer-edge",
        "forbidden-in-digraph",
    ],
)
def test_parse_error_messages(parse, text, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == message


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


# Realization files number cells from 1, so their parse errors do too; the
# library's own messages stay 0-based.
ONE_BASED_ERRORS = [
    (
        "U: 1 1\nV: 1 1\nforbidden: 1:1\n1 1\n2 2\n",
        "incidence entry on forbidden position (1,1)",
    ),
    ("out: 1 1\nin: 1 1\n1 -> 1\n2 -> 2\n", "adjacency entry on forbidden position (1,1)"),
    (
        "U: 1 1\nV: 1 1\nforbidden: 3:1\n1 1\n2 2\n",
        "forbidden position (3,1) outside 2x2 grid",
    ),
    (
        "U: 1 1 1\nV: 1 1 1\nforbidden: 3:1 1:2\n1 2\n2 3\n3 1\n",
        "incidence entry on forbidden position (1,2)",
    ),
    (
        "U: 1 1 1\nV: 1 1 1\nforbidden: 9:9 0:2\n1 1\n2 2\n3 3\n",
        "forbidden position (0,2) outside 3x3 grid",
    ),
]


@pytest.mark.parametrize("text, message", ONE_BASED_ERRORS)
def test_realization_parse_errors_name_cells_from_1(text, message):
    with pytest.raises(FormatError) as info:
        parse_realization(text)
    assert str(info.value) == message


def test_library_errors_still_name_cells_from_0():
    one = BipartiteDegreeSequence((1, 1), (1, 1))
    with pytest.raises(ValueError, match=r"^incidence entry on forbidden position \(0,0\)$"):
        BipartiteRealization(one, [[1, 0], [0, 1]], [(0, 0)])
    with pytest.raises(ValueError, match=r"^adjacency entry on forbidden position \(0,0\)$"):
        DirectedRealization(DirectedDegreeBiSequence((1, 1), (1, 1)), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"^forbidden position \(2,0\) outside 2x2 grid$"):
        BipartiteRealization(one, [[1, 0], [0, 1]], [(2, 0)])


def test_matrix_and_json_formats():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    r = construct_bipartite(seq)
    assert format_realization(r, "matrix") == "1 0\n0 1\n"
    assert format_realization(r) == "U: 1 1\nV: 1 1\n1 1\n2 2\n"
    starred = BipartiteRealization(
        BipartiteDegreeSequence((2, 1, 1), (1, 2, 1)),
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [(2, 0), (0, 2)],
    )
    assert format_realization(starred, "matrix") == "1 1 0\n0 1 0\n0 0 1\n"
    assert format_realization(starred, "edges") == (
        "U: 2 1 1\nV: 1 2 1\nforbidden: 1:3 3:1\n1 1\n1 2\n2 2\n3 3\n"
    )
    d = DirectedRealization(
        DirectedDegreeBiSequence((2, 1, 1, 1), (1, 2, 1, 1)),
        [[0, 1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    )
    assert format_realization(d, "matrix") == "0 1 0 1\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
    assert format_realization(d) == (
        "out: 2 1 1 1\nin: 1 2 1 1\n1 -> 2\n1 -> 4\n2 -> 1\n3 -> 2\n4 -> 3\n"
    )
    with pytest.raises(ValueError, match="unknown format"):
        format_realization(d, "csv")
    doc = json.loads(format_realization(r, "json"))
    assert doc == realization_to_json(r)
    assert doc["u_degrees"] == [1, 1]
    assert all(len(e) == 2 for e in doc["edges"])
