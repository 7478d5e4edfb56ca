"""Text format for signed hypergraphs.

Grammar (one record per file):

    shg 1
    vertices N
    edge v:s v:s ...

with s in {+, -}, vertex ids in 1..N, one line per edge in family
order.  Blank lines and lines starting with # are ignored.  Incidence
order within an edge is preserved, so parse(serialize(h)) == h.
"""

from __future__ import annotations

from .core import Edge, SignedHypergraph

__all__ = ["parse", "serialize", "ParseError"]

_SIGN_IN = {"+": 1, "-": -1}
_SIGN_OUT = {1: "+", -1: "-"}


class ParseError(ValueError):
    """Malformed text; the message carries the 1-based line number."""


def _fail(lineno: int, reason: str) -> None:
    raise ParseError(f"line {lineno}: {reason}")


def _is_number(token: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also takes superscripts and
    other scripts' digits, which ``int`` refuses or reads as ASCII ones."""
    return token.isascii() and token.isdigit()


def parse(text: str) -> SignedHypergraph:
    """Read one hypergraph from text in the format above."""
    # isascii() is O(1): an all-ASCII text needs isdigit alone
    digits = str.isdigit if text.isascii() else _is_number
    rows = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not rows:
        raise ParseError("line 1: empty input, expected header 'shg 1'")
    lineno, header = rows[0]
    if header != "shg 1":
        _fail(lineno, f"expected header 'shg 1', got {header!r}")
    if len(rows) < 2:
        _fail(lineno, "missing 'vertices N' line")
    lineno, decl = rows[1]
    parts = decl.split()
    if len(parts) != 2 or parts[0] != "vertices" or not digits(parts[1]):
        _fail(lineno, f"expected 'vertices N', got {decl!r}")
    n = int(parts[1])
    edges: list[Edge] = []
    for lineno, line in rows[2:]:
        tokens = line.split()
        if tokens[0] != "edge":
            _fail(lineno, f"expected 'edge', got {tokens[0]!r}")
        incidences: list[tuple[int, int]] = []
        for tok in tokens[1:]:
            v_str, sep, s_str = tok.partition(":")
            if not sep or s_str not in _SIGN_IN or not digits(v_str):
                _fail(lineno, f"expected 'vertex:sign' with sign + or -, got {tok!r}")
            v = int(v_str)
            if not 1 <= v <= n:
                _fail(lineno, f"vertex {v} out of range 1..{n}")
            incidences.append((v, _SIGN_IN[s_str]))
        try:
            edges.append(Edge(tuple(incidences)))
        except ValueError as exc:
            _fail(lineno, str(exc))
    return SignedHypergraph(n, tuple(edges))


def serialize(h: SignedHypergraph) -> str:
    """Canonical text for a hypergraph, one line per edge in incidence
    order, which ``parse`` reads back to an equal hypergraph."""
    lines = ["shg 1", f"vertices {h.n}"]
    for e in h.edges:
        lines.append("edge " + " ".join(f"{v}:{_SIGN_OUT[s]}" for v, s in e.incidences))
    return "\n".join(lines) + "\n"
