"""Broker-centric transport simulation: envelopes, ACLs, latency model."""

from .broker import Broker  # perfbench/tests/test_perfbench.py imports it from here
