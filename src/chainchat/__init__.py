"""End-to-end encrypted messaging over a permissioned certificate chain."""

from .chain import (
    CertificateRecord,
    CertStatus,
    ChainNode,
    ChainState,
    WriterCredential,
    append_block,
    fetch_latest,
    genesis,
    record_fingerprint,
    revoke,
    verify_chain,
)
from .client import BackupArchive, Client, GroupState, SessionState
from .crypto import (
    BackupKey,
    ChainKey,
    IdentityKeyPair,
    MasterSecret,
    MessageKey,
    SealedPayload,
    derive_backup_key,
    derive_master_secret,
    generate_identity_keypair,
    init_chains,
    ratchet_forward,
    seal,
    unseal,
)
from .errors import ChainChatError
from .mno import EnrollmentRequest, MnoCertificateAuthority
from .relay import Envelope, Mailbox, Relay
from .stack import StackHandle, run_stack

__version__ = "0.1.0"

__all__ = [
    "BackupArchive",
    "BackupKey",
    "CertStatus",
    "CertificateRecord",
    "ChainChatError",
    "ChainKey",
    "ChainNode",
    "ChainState",
    "Client",
    "EnrollmentRequest",
    "Envelope",
    "GroupState",
    "IdentityKeyPair",
    "Mailbox",
    "MasterSecret",
    "MessageKey",
    "MnoCertificateAuthority",
    "Relay",
    "SealedPayload",
    "SessionState",
    "StackHandle",
    "WriterCredential",
    "append_block",
    "derive_backup_key",
    "derive_master_secret",
    "fetch_latest",
    "generate_identity_keypair",
    "genesis",
    "init_chains",
    "ratchet_forward",
    "record_fingerprint",
    "revoke",
    "run_stack",
    "seal",
    "unseal",
    "verify_chain",
]
