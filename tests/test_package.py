import darkres


def test_every_export_resolves():
    # a deleted name must also leave __all__
    assert [name for name in darkres.__all__ if not hasattr(darkres, name)] == []
    assert len(set(darkres.__all__)) == len(darkres.__all__)
