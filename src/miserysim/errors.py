"""Exception taxonomy shared across the package."""

from __future__ import annotations


class MiserySimError(Exception):
    """Base class for all package errors."""


class ConfigError(MiserySimError):
    """Invalid experiment or component configuration."""


# --- topology ---

class TopologyError(MiserySimError):
    """An invalid digraph shape, document or transform."""


# --- simulated cloud provider ---

class CloudError(MiserySimError):
    """A provider operation that cannot proceed: an unknown or terminated
    instance, an id already in use, or an instance in the wrong state."""


# --- transport ---

class ConnectionRefused(MiserySimError):
    """No firewall rule permits the attempted connection, or the peer is down."""


class SessionSevered(MiserySimError):
    """An open exchange or channel was cut by a rule revocation or termination."""


class ProtocolViolation(MiserySimError):
    """A peer sent bytes that do not conform to the wire protocol."""
