import smoothprox


def test_every_exported_name_resolves():
    """The package loads its names lazily from a table, so a stale entry
    would otherwise fail only at its first use."""
    assert [name for name in smoothprox.__all__ if not hasattr(smoothprox, name)] == []
