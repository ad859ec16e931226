import types

import rieszpoints


def test_all_lists_public_names_not_modules():
    assert len(set(rieszpoints.__all__)) == len(rieszpoints.__all__)
    for name in rieszpoints.__all__:
        assert not isinstance(getattr(rieszpoints, name), types.ModuleType), name
