"""File formats: plain edge lists for digraphs, JSON for certificates,
partitions, and embeddings.

Edge-list format: optional '#' comment lines (a '# spec: {...}' line
carries the generator recipe), then a header line "n m", then m lines
"u v" each encoding the edge u->v.
"""

from __future__ import annotations

import json
from pathlib import Path

from .digraph import Digraph
from .errors import InputError


def write_edges(g: Digraph, path, header: dict | None = None) -> None:
    lines = []
    if header:
        lines.append("# spec: " + json.dumps(header, sort_keys=True))
    edges = g.edges()
    lines.append(f"{g.n} {len(edges)}")
    lines.extend(f"{u} {v}" for u, v in edges)
    Path(path).write_text("\n".join(lines) + "\n")


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file: {exc}") from None


def read_edges(path) -> Digraph:
    text = _read_text(path)
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: expected two integers, got {raw!r}") from None
        if header is None:
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise InputError(f"{path}: no header line")
    n, m = header
    if len(edges) != m:
        raise InputError(f"{path}: header promises {m} edges, file has {len(edges)}")
    return Digraph.from_edge_list(n, edges)


def read_header_spec(path) -> dict | None:
    """Return the generator recipe stored in a '# spec:' comment, if any."""
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if line.startswith("# spec:"):
            try:
                return json.loads(line[len("# spec:"):])
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: '# spec:' is not valid JSON: "
                                 f"{exc}") from None
        if line and not line.startswith("#"):
            break
    return None


def save_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
