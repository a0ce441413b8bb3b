"""The package namespace: ``__all__`` is exactly what a star import binds."""

import curved_sitnikov


def test_all_has_no_duplicates():
    assert len(set(curved_sitnikov.__all__)) == len(curved_sitnikov.__all__)


def test_every_exported_name_resolves():
    missing = [name for name in curved_sitnikov.__all__
               if not hasattr(curved_sitnikov, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from curved_sitnikov import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(curved_sitnikov.__all__)
