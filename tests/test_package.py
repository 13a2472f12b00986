import cssm


def test_star_import_resolves_every_public_name():
    # a stale __all__ entry makes the star import itself fail
    namespace: dict = {}
    exec("from cssm import *", namespace)
    assert set(cssm.__all__) <= namespace.keys()
    assert len(set(cssm.__all__)) == len(cssm.__all__)
