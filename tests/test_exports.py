import ransim


def test_every_export_resolves():
    missing = [name for name in ransim.__all__ if not hasattr(ransim, name)]
    assert missing == []
    assert len(set(ransim.__all__)) == len(ransim.__all__)
