"""petfabric: a configurable privacy layer for broker-based IoT telemetry.

Fixed-point encoding, local/global differential privacy, (m, m) additive
secret sharing, adversary simulations, and a latency-modeled in-process
pub/sub fabric for reproducing privacy/utility/latency trade-off benchmarks.
"""

__version__ = "0.1.0"  # the one version string: --version and manifest.json read it
