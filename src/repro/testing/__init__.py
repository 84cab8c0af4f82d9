"""Test support shipped with the package (not part of ``repro.__all__``).

:mod:`repro.testing.oracle` holds the reference semantics every differential
harness compares against.
"""
