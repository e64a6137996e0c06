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
    """Base class for simulated-provider errors."""


class UnknownInstance(CloudError):
    """An operation referenced an instance id the provider does not know."""


class InvalidState(CloudError):
    """An instance is not in a state that permits the operation."""


# --- transport ---

class ConnectionRefused(MiserySimError):
    """No firewall rule permits the attempted connection, or the peer is down."""


class SessionSevered(MiserySimError):
    """An open exchange or channel was cut by a rule revocation or termination."""


class ProtocolViolation(MiserySimError):
    """A peer sent bytes that do not conform to the wire protocol."""


# --- multicaster ---

class TimeoutFailure(MiserySimError):
    """All children exceeded the response timeout u."""


# --- movement ---

class NoEligibleLayer(MiserySimError):
    """No layer in 2..d holds two or more nodes to switch."""


# --- address server ---

class UnknownOwner(MiserySimError):
    """Lookup or update for an owner that never registered."""


class AlreadyRegistered(MiserySimError):
    """Registration for an owner that already has a record."""
