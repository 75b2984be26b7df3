import pytest

from hamorient import (GenSpec, InputError, load_json, read_edges,
                       read_header_spec, save_json, write_edges)

from conftest import digraph


def test_edge_list_round_trip(tmp_path):
    g = digraph(5, (0, 1), (1, 0), (2, 4), (4, 3))
    p = tmp_path / "g.edges"
    write_edges(g, p)
    h = read_edges(p)
    assert h.n == g.n and h.edges() == g.edges()


def test_header_spec_round_trip(tmp_path):
    spec = GenSpec("blowup", {"sizes": [4, 4], "intra": 1.0, "noise": 0.0}, seed=2)
    g = spec.build()
    p = tmp_path / "g.edges"
    write_edges(g, p, header=spec.to_json_dict())
    assert read_edges(p).edges() == g.edges()
    recovered = GenSpec.from_json_dict(read_header_spec(p))
    assert recovered.build().edges() == g.edges()
    # absent header reads back as None
    q = tmp_path / "plain.edges"
    write_edges(g, q)
    assert read_header_spec(q) is None
    # a malformed recipe is an input error, as in load_json
    bad = tmp_path / "bad.edges"
    bad.write_text("# spec: {bad\n2 1\n0 1\n")
    with pytest.raises(InputError):
        read_header_spec(bad)


def test_comments_and_blank_lines(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("# a comment\n\n3 2\n0 1\n\n# mid comment\n1 2\n")
    g = read_edges(p)
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]


def test_malformed_inputs(tmp_path):
    cases = [
        "3\n0 1\n",                # header missing edge count
        "3 2\n0 1\n",              # fewer edges than declared
        "3 1\n0 1\n1 2\n",         # more edges than declared
        "3 1\n0 x\n",              # non-integer endpoint
        "3 1\n0 5\n",              # endpoint out of range
        "",                        # empty file
    ]
    for i, text in enumerate(cases):
        p = tmp_path / f"bad{i}.edges"
        p.write_text(text)
        with pytest.raises(InputError):
            read_edges(p)


def test_json_round_trip(tmp_path):
    obj = {"b": [1, 2, 3], "a": {"nested": True}}
    p = tmp_path / "x.json"
    save_json(obj, p)
    assert load_json(p) == obj
    # stable key order for diffs
    assert p.read_text().index('"a"') < p.read_text().index('"b"')
