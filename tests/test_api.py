"""The package surface: every exported name resolves."""

import e6lens


def test_star_import_binds_every_name_in_all():
    assert len(set(e6lens.__all__)) == len(e6lens.__all__)
    namespace = {}
    exec("from e6lens import *", namespace)  # AttributeError on a stale name
    assert set(e6lens.__all__) <= set(namespace)
