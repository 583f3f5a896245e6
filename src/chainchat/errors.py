"""Exception hierarchy.

Every error carries a machine-readable ``category`` string; the CLI prints it
and maps it to a nonzero exit code, and the wire protocol ships it in error
replies. Subclasses override ``category``.
"""

from __future__ import annotations


class ChainChatError(Exception):
    category = "error"


# -- crypto core -------------------------------------------------------------

class KeyGenerationError(ChainChatError):
    category = "keygen-failed"


class KeyAgreementError(ChainChatError):
    category = "key-agreement-failed"


class MessageTooLargeError(ChainChatError):
    category = "message-too-large"


class UnsealError(ChainChatError):
    """A sealed payload failed verification.

    Callers must treat all unseal failures uniformly; the subclass only
    records an internal failure code. The public message never says whether
    the MAC or the padding was at fault.
    """

    category = "unseal-failed"

    def __init__(self, detail: str = ""):
        # detail is kept off the public message on purpose
        super().__init__("payload failed verification")
        self.detail = detail


class AuthenticationError(UnsealError):
    category = "auth-failed"


class PayloadCorruptionError(UnsealError):
    category = "payload-corrupt"


# -- certificate chain -------------------------------------------------------

class ChainError(ChainChatError):
    category = "chain-error"


class ChainFormatError(ChainError):
    category = "chain-format"


class TruncatedDataError(ChainFormatError):
    """The data ends inside a field, as every strict prefix of a valid
    encoding does."""


class WriterNotAuthorizedError(ChainError):
    category = "writer-unauthorized"


class RecordValidationError(ChainError):
    category = "record-invalid"


class RevocationError(ChainError):
    """A revoke of a user with no record, or one already revoked."""

    category = "revocation-error"


# -- enrollment / MNO --------------------------------------------------------

class EnrollmentError(ChainChatError):
    category = "enrollment-refused"


# -- relay -------------------------------------------------------------------

class RegistrationRefusedError(ChainChatError):
    category = "registration-refused"


class RoutingError(ChainChatError):
    category = "routing-error"


class MailboxFullError(ChainChatError):
    category = "mailbox-full"


class GroupPermissionError(ChainChatError):
    category = "not-a-group-member"


class WireProtocolError(ChainChatError):
    category = "protocol-error"


class WireRemoteError(ChainChatError):
    """A server's error reply, raised at the client with its category."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


# -- client session ----------------------------------------------------------

class InstallError(ChainChatError):
    category = "install-failed"

    def __init__(self, phase: str, message: str):
        super().__init__(f"install failed during {phase}: {message}")
        self.phase = phase


class SessionRefusedError(ChainChatError):
    """Peer certificate is not usable; category encodes the fetched status."""

    def __init__(self, status: str, message: str = ""):
        super().__init__(message or f"peer certificate status: {status}")
        self.status = status
        self.category = f"peer-{status.replace('_', '-')}"


class NoSessionError(ChainChatError):
    category = "no-session"


class FingerprintMismatchError(ChainChatError):
    category = "fingerprint-mismatch"


class ReplayError(ChainChatError):
    category = "replay-detected"


class ResyncError(ChainChatError):
    category = "resync-required"


class UnknownGroupError(ChainChatError):
    category = "unknown-group"


class BackupFormatError(ChainChatError):
    category = "backup-format"


# -- stack / CLI -------------------------------------------------------------

class StackStartupError(ChainChatError):
    category = "stack-startup"
