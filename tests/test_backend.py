"""The package has one implementation, dense numpy, and says so."""

import stripcap


class TestEquivalence:
    def test_backend_exported(self):
        assert stripcap.BACKEND == "numpy"
