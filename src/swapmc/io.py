"""Text and JSON formats for degree sequences and realizations.

Degree files are two header lines of whitespace-separated decimal integers::

    U: 2 1 1        out: 1 1 1
    V: 2 1 1        in: 1 1 1

(bipartite on the left, directed on the right; header keywords are
case-insensitive, blank lines and ``#`` comments are ignored).  The JSON
equivalent is an object with exactly the keys ``u_degrees``/``v_degrees`` or
``out_degrees``/``in_degrees``; any other key, such as a realization
document's ``edges`` or ``forbidden``, is an error.

Realization files repeat the degree header, optionally list forbidden
positions (which degree files may not), and then one edge per line, 1-based::

    U: 2 1 1                    out: 1 1 1
    V: 2 1 1                    in: 1 1 1
    forbidden: 1:1 2:2 3:3
    1 1                         1 -> 2
    1 2                         2 -> 3
    2 1                         3 -> 1
"""

from __future__ import annotations

import json

import numpy as np

from .degrees import BipartiteDegreeSequence, DirectedDegreeBiSequence
from .errors import FormatError
from .realization import BipartiteRealization, DirectedRealization

__all__ = [
    "parse_sequence",
    "load_sequence",
    "format_sequence",
    "parse_realization",
    "load_realization",
    "format_realization",
    "realization_to_json",
]


def _content_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _parse_int_list(name: str, raw) -> list[int]:
    """Integers from a whitespace-separated string, or from a JSON list whose
    items are all integers; a float or a boolean item is an error, not a
    truncated degree."""
    error = FormatError(f"{name}: expected whitespace-separated integers")
    if isinstance(raw, str):
        try:
            return [int(tok) for tok in raw.split()]
        except ValueError as exc:
            raise error from exc
    if isinstance(raw, list) and all(type(v) is int for v in raw):
        return raw
    raise error


def _header_fields(lines: list[str]) -> tuple[dict, int]:
    """Leading header lines as a dict, plus how many lines they consumed."""
    fields: dict = {}
    consumed = 0
    for line in lines:
        if ":" not in line:
            break
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key not in ("u", "v", "out", "in", "forbidden"):
            break
        if key in fields:
            raise FormatError(f"duplicate header line {key!r}")
        if key == "forbidden":
            fields[key] = rest  # parsed separately
        else:
            fields[key] = _parse_int_list(key, rest)
        consumed += 1
    return fields, consumed


def _build_sequence(fields: dict) -> BipartiteDegreeSequence | DirectedDegreeBiSequence:
    if ("u" in fields or "v" in fields) and ("out" in fields or "in" in fields):
        raise FormatError("mixed bipartite (U:/V:) and directed (out:/in:) headers")
    try:
        if "u" in fields or "v" in fields:
            if not ("u" in fields and "v" in fields):
                raise FormatError("bipartite input needs both 'U:' and 'V:' lines")
            seq = BipartiteDegreeSequence(tuple(fields["u"]), tuple(fields["v"]))
        elif "out" in fields or "in" in fields:
            if not ("out" in fields and "in" in fields):
                raise FormatError("directed input needs both 'out:' and 'in:' lines")
            seq = DirectedDegreeBiSequence(tuple(fields["out"]), tuple(fields["in"]))
        else:
            raise FormatError("no degree header found (expected U:/V: or out:/in:)")
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if not seq.fits_class_sizes:
        raise FormatError("a degree exceeds the size of the opposite class")
    return seq


_JSON_KEYS = {"u_degrees": "u", "v_degrees": "v", "out_degrees": "out", "in_degrees": "in"}


def parse_sequence(text: str) -> BipartiteDegreeSequence | DirectedDegreeBiSequence:
    """Parse a degree file (text or JSON) into a validated sequence."""
    stripped = text.strip()
    if not stripped:
        raise FormatError("empty input")
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        unknown = [k for k in doc if k not in _JSON_KEYS]
        if unknown:
            raise FormatError(f"a degree file takes no key {unknown[0]!r}")
        fields = {key: _parse_int_list(j, doc[j]) for j, key in _JSON_KEYS.items() if j in doc}
        return _build_sequence(fields)
    lines = _content_lines(stripped)
    fields, consumed = _header_fields(lines)
    if consumed != len(lines):
        raise FormatError("unexpected trailing content in degree file")
    if "forbidden" in fields:
        raise FormatError("a degree file takes no 'forbidden:' line (realization files do)")
    return _build_sequence(fields)


def load_sequence(path) -> BipartiteDegreeSequence | DirectedDegreeBiSequence:
    with open(path, encoding="utf-8") as fh:
        return parse_sequence(fh.read())


def format_sequence(seq) -> str:
    if isinstance(seq, BipartiteDegreeSequence):
        return (
            f"U: {' '.join(map(str, seq.u_degrees))}\n"
            f"V: {' '.join(map(str, seq.v_degrees))}\n"
        )
    return (
        f"out: {' '.join(map(str, seq.out_degrees))}\n"
        f"in: {' '.join(map(str, seq.in_degrees))}\n"
    )


def _parse_forbidden(raw: str) -> list[tuple[int, int]]:
    pairs = []
    for tok in raw.split():
        if ":" not in tok:
            raise FormatError(f"forbidden entries look like 'u:v', got {tok!r}")
        a, _, b = tok.partition(":")
        try:
            pairs.append((int(a) - 1, int(b) - 1))
        except ValueError as exc:
            raise FormatError(f"invalid forbidden pair {tok!r}") from exc
    return pairs


def parse_realization(text: str) -> BipartiteRealization | DirectedRealization:
    """Parse a realization file; validates degrees, shape, and forbidden set."""
    lines = _content_lines(text)
    fields, consumed = _header_fields(lines)
    seq = _build_sequence(fields)
    body = lines[consumed:]
    directed = isinstance(seq, DirectedDegreeBiSequence)
    if directed:
        matrix = np.zeros((seq.n, seq.n), dtype=np.uint8)
    else:
        matrix = np.zeros((seq.n, seq.m), dtype=np.uint8)
    for line in body:
        toks = line.replace("->", " ").split()
        if len(toks) != 2:
            raise FormatError(f"bad edge line: {line!r}")
        try:
            a, b = int(toks[0]) - 1, int(toks[1]) - 1
        except ValueError as exc:
            raise FormatError(f"bad edge line: {line!r}") from exc
        rows, cols = matrix.shape
        if not (0 <= a < rows and 0 <= b < cols):
            raise FormatError(f"edge {line!r} out of range")
        if matrix[a, b]:
            raise FormatError(f"duplicate edge: {line!r}")
        matrix[a, b] = 1
    try:
        if directed:
            if "forbidden" in fields:
                raise FormatError("directed realizations have an implicit forbidden set")
            return DirectedRealization(seq, matrix)
        forbidden = _parse_forbidden(fields.get("forbidden", ""))
        return BipartiteRealization(seq, matrix, forbidden)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_realization(path) -> BipartiteRealization | DirectedRealization:
    with open(path, encoding="utf-8") as fh:
        return parse_realization(fh.read())


def format_realization(real, fmt: str = "edges") -> str:
    """Render a realization as 'edges', 'matrix', or 'json' text."""
    if fmt == "json":
        return json.dumps(realization_to_json(real), sort_keys=True)
    if fmt == "matrix":
        return "\n".join(" ".join(str(int(x)) for x in row) for row in real.matrix) + "\n"
    if fmt != "edges":
        raise ValueError(f"unknown format {fmt!r}")
    out = [format_sequence(real.seq).rstrip("\n")]
    if isinstance(real, DirectedRealization):
        out.extend(f"{i + 1} -> {j + 1}" for i, j in real.arcs())
    else:
        if real.forbidden:
            out.append(
                "forbidden: " + " ".join(f"{u + 1}:{v + 1}" for u, v in real.forbidden)
            )
        out.extend(f"{u + 1} {v + 1}" for u, v in real.edges())
    return "\n".join(out) + "\n"


def realization_to_json(real) -> dict:
    """Structured document: degrees plus 1-based edges (and forbidden set)."""
    if isinstance(real, DirectedRealization):
        return {
            "out_degrees": list(real.seq.out_degrees),
            "in_degrees": list(real.seq.in_degrees),
            "arcs": [[i + 1, j + 1] for i, j in real.arcs()],
        }
    return {
        "u_degrees": list(real.seq.u_degrees),
        "v_degrees": list(real.seq.v_degrees),
        "edges": [[u + 1, v + 1] for u, v in real.edges()],
        "forbidden": [[u + 1, v + 1] for u, v in real.forbidden],
    }
