"""The package's public namespace."""

import tubelab


def test_every_exported_name_resolves():
    # A stale entry in __all__ breaks `from tubelab import *`.
    missing = [name for name in tubelab.__all__ if not hasattr(tubelab, name)]
    assert missing == []
    namespace = {}
    exec("from tubelab import *", namespace)
    assert set(tubelab.__all__) <= set(namespace)
