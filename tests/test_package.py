import specwave


def test_every_export_exists_once():
    assert len(set(specwave.__all__)) == len(specwave.__all__)
    assert [name for name in specwave.__all__ if not hasattr(specwave, name)] == []
