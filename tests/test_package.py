"""The package's public surface."""

import ctqwlab


def test_every_exported_name_resolves_once():
    assert len(set(ctqwlab.__all__)) == len(ctqwlab.__all__)
    for name in ctqwlab.__all__:
        assert hasattr(ctqwlab, name), name
