"""The package has one implementation, dense numpy, and says so; every
name it exports exists."""

import stripcap


class TestEquivalence:
    def test_backend_exported(self):
        assert stripcap.BACKEND == "numpy"


def test_all_names_resolve():
    missing = [name for name in stripcap.__all__ if not hasattr(stripcap, name)]
    assert missing == []
