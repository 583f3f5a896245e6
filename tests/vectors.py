"""Frozen known-answer constants.

Published vectors are transcribed from their standards documents (RFC 7748
6.1 and 5.2, RFC 5869 appendix A, RFC 4231, NIST SP 800-38A F.2.5, RFC 8032
7.1, plus the widely published SHA-256 analogs of the RFC 6070 PBKDF2 set).
Derived vectors were computed with the independent oracles in oracles.py /
the OpenSSL-backed HKDF before the implementation existed, then frozen here.
"""

# -- RFC 7748 6.1: X25519 Diffie-Hellman --------------------------------------
X25519_ALICE_PRIV = bytes.fromhex(
    "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
X25519_ALICE_PUB = bytes.fromhex(
    "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
X25519_BOB_PRIV = bytes.fromhex(
    "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
X25519_BOB_PUB = bytes.fromhex(
    "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
X25519_SHARED = bytes.fromhex(
    "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")

# -- RFC 7748 5.2: scalar multiplication vectors --------------------------------
X25519_SM1_SCALAR = bytes.fromhex(
    "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
X25519_SM1_U = bytes.fromhex(
    "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
X25519_SM1_OUT = bytes.fromhex(
    "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552")
X25519_SM2_SCALAR = bytes.fromhex(
    "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
X25519_SM2_U = bytes.fromhex(
    "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
X25519_SM2_OUT = bytes.fromhex(
    "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957")

# -- RFC 5869 appendix A: HKDF-SHA256 -------------------------------------------
HKDF_A1_IKM = bytes.fromhex("0b" * 22)
HKDF_A1_SALT = bytes.fromhex("000102030405060708090a0b0c")
HKDF_A1_INFO = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
HKDF_A1_OKM = bytes.fromhex(
    "3cb25f25faacd57a90434f64d0362f2a"
    "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
    "34007208d5b887185865")
HKDF_A2_IKM = bytes(range(0x00, 0x50))
HKDF_A2_SALT = bytes(range(0x60, 0xB0))
HKDF_A2_INFO = bytes(range(0xB0, 0x100))
HKDF_A2_OKM = bytes.fromhex(
    "b11e398dc80327a1c8e7f78c596a4934"
    "4f012eda2d4efad8a050cc4c19afa97c"
    "59045a99cac7827271cb41c65e590e09"
    "da3275600c2f09b8367793a9aca3db71"
    "cc30c58179ec3e87c14c01d5c1f3434f"
    "1d87")
HKDF_A3_IKM = bytes.fromhex("0b" * 22)
HKDF_A3_OKM = bytes.fromhex(
    "8da4e775a563c18f715f802a063c5a31"
    "b8a11f5c5ee1879ec3454e5f3c738d2d"
    "9d201395faa4b61a96c8")

# -- RFC 4231: HMAC-SHA256 ---------------------------------------------------------
HMAC_TC1_KEY = b"\x0b" * 20
HMAC_TC1_DATA = b"Hi There"
HMAC_TC1_OUT = bytes.fromhex(
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
HMAC_TC2_KEY = b"Jefe"
HMAC_TC2_DATA = b"what do ya want for nothing?"
HMAC_TC2_OUT = bytes.fromhex(
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")

# -- PBKDF2-HMAC-SHA256, published RFC 6070-style set ---------------------------------
PBKDF2_VECTORS = [
    (b"password", b"salt", 1,
     bytes.fromhex("120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b")),
    (b"password", b"salt", 2,
     bytes.fromhex("ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43")),
    (b"password", b"salt", 4096,
     bytes.fromhex("c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a")),
]
# derived: 16-byte zero-padded salt as required by the backup key contract
PBKDF2_PADDED_SALT = b"salt" + b"\x00" * 12
PBKDF2_PADDED_OUT = bytes.fromhex(
    "3267a06614b9d090bc3e684eebdb6af8ee753cf80b7f7f7cf5e676c65422d054")

# -- NIST SP 800-38A F.2.5: CBC-AES256.Encrypt ------------------------------------------
NIST_CBC_KEY = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
NIST_CBC_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NIST_CBC_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")
NIST_CBC_CT = bytes.fromhex(
    "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
    "9cfc4e967edb808d679f777bc6702c7d"
    "39f23369a9d9bacfa530e26304231461"
    "b2eb05e2c39be9fcda6c19078c6a9d1b")

# -- RFC 8032 7.1: Ed25519 verification vectors -----------------------------------------
ED25519_T1_PUB = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
ED25519_T1_MSG = b""
ED25519_T1_SIG = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")
ED25519_T2_PUB = bytes.fromhex(
    "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
ED25519_T2_MSG = b"\x72"
ED25519_T2_SIG = bytes.fromhex(
    "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
    "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00")

# -- X25519 public keys nobody holds a private key for ----------------------------------
# u-coordinates of the points of order 1, 2, 4 and 8 on curve25519, then the
# non-canonical encodings p and p + 1 of u = 0 and u = 1
_P = 2**255 - 19
LOW_ORDER_U = (
    0,
    1,
    _P - 1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    _P,
    _P + 1,
)

# -- derived, frozen from the OpenSSL-backed HKDF oracle --------------------------------
# init_chains(master=0^32, "alice", "bob")
CHAIN_ZERO_A2B = bytes.fromhex(
    "3df085180efacc0acacd3a6030629a744fda3aeb50d72a483e7b79df26d3c81f")
CHAIN_ZERO_B2A = bytes.fromhex(
    "a4e5ac63d5692de49d10f7a330c3efa7395dc47765b49550870c2dcc0776a60e")
# ratchet_forward(ChainKey(key=0^32, index=0))
RATCHET_ZERO_CIPHER = bytes.fromhex(
    "25911edd38086981c18ae1aae8b662569e356b95d41f7f64049b03add33a7954")
RATCHET_ZERO_MAC = bytes.fromhex(
    "0c904e9a7ed4fb66efdd01c2e7aa17b4136ec3d4fc3db2f1e320dd43d1b00b59")
RATCHET_ZERO_IV = bytes.fromhex("38b896dcfa02bfdb67481349c6f96658")
RATCHET_ZERO_NEXT = bytes.fromhex(
    "4ee7be0c7872360ca67414608081e9bd60fd580a7bbd209701d2a5a0b4316d0d")
