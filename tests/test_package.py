import hamorient


def test_public_names_resolve_once():
    names = hamorient.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hamorient, name) is not None, name
