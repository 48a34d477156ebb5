"""The package's public names: a stale ``__all__`` entry breaks ``from gradcomm import *``."""

import gradcomm


def test_every_public_name_resolves():
    missing = [name for name in gradcomm.__all__ if not hasattr(gradcomm, name)]
    assert not missing
    assert len(set(gradcomm.__all__)) == len(gradcomm.__all__)
    namespace = {}
    exec("from gradcomm import *", namespace)
    assert set(gradcomm.__all__) <= namespace.keys()
