import types

import subentropy


def test_all_lists_exactly_the_public_names():
    bound = {
        name for name, value in vars(subentropy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(subentropy.__all__) == sorted(bound)
    assert len(subentropy.__all__) == len(set(subentropy.__all__))
