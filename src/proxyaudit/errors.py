"""Exception hierarchy for the audit engine."""


class ProxyAuditError(Exception):
    """Base class for all engine errors."""


class ParseError(ProxyAuditError):
    """Malformed input file (CSV row, schema document)."""

    def __init__(self, message, row_index=None):
        super().__init__(message)
        self.row_index = row_index


class ValidationError(ProxyAuditError):
    """Input violates a declared invariant (schema, config, model spec, graph)."""


class InsufficientDataError(ProxyAuditError):
    """Too few rows to compute the requested quantity."""


class SpecError(ValidationError):
    """Model specification fails validation."""


class ConnectivityError(ProxyAuditError):
    """External model probe could not be reached or did not complete handshake."""


class ProtocolError(ProxyAuditError):
    """External model probe violated the wire protocol.

    Carries the raw offending payload for diagnosis.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class GraphError(ProxyAuditError):
    """Causal graph misuse: unknown node, cyclic spec, bad mechanism."""


class ParameterError(ProxyAuditError):
    """Out-of-range parameter to an operation."""
