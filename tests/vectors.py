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

# -- derived, frozen from the double-and-add signer: XEdDSA identity signatures --------
# Made with identity_sig.sign as it stood before the fixed-base table, one
# signature per key and message: IDENTITY_SIG_SIGS[key][message]. The first
# four keys (the RFC 7748 6.1 pair, 0^32 and ff^32) give a k*B whose x sign
# bit is set, so signing negates the scalar; the last four,
# SHA-256(b"chainchat/identity-sig/vector/%d") for d = 0, 4, 6, 7, do not.
IDENTITY_SIG_NEGATED = (True, True, True, True, False, False, False, False)
IDENTITY_SIG_MESSAGES = (
    b"",
    b"\x00",
    bytes(range(80)),
    bytes(i * 7 % 256 for i in range(1000)),
)
IDENTITY_SIG_KEYS = (
    bytes.fromhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"),
    bytes.fromhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"),
    bytes.fromhex("0000000000000000000000000000000000000000000000000000000000000000"),
    bytes.fromhex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
    bytes.fromhex("b98935db4e51944fc359f9cab504889ef0f67e7d4c8a2352df1e4cf08207a3bd"),
    bytes.fromhex("d1a92fedb58bf4d49684fae2343b232bdaf5773177deaaa2ae2bccf099fa2edf"),
    bytes.fromhex("e1a70662843670626f120a9aacea9cf70d56e53230b3a3858f01eb0c79b5aaea"),
    bytes.fromhex("f9eb67d3d12852f07d0e5975c0de44e9cb44c869b5bc333214a1b31c3e2080dc"),
)
IDENTITY_SIG_SIGS = (
    (
        bytes.fromhex("902e89d0571832d11a0bba13d3ec0706d2f685420a7a307a9d11eeb044872579"
                      "9970d303d49d1afe984fedf7703a7ca36356e4618c9b94217d3db6c0ed762d09"),
        bytes.fromhex("fd98535992da7bef72a7e66ac17c0a931a849a4d328c65844dfb599d4899e288"
                      "3a03082eefae78203c8b7c50f4ca39eb723c39987f7dbf097784bd24fff1e604"),
        bytes.fromhex("a22b00dcca116247d9de56be2567929123e91d7c2bfee34db8e307d751f413ca"
                      "941c2407fe9e43353add386f0511e90a31331f40d96c89d1bc25cc09f270100f"),
        bytes.fromhex("e5692c4d58295564079ab047b4f17f114a2c3505bf1dea5aacb0f0dfc0bb6d1b"
                      "3021252598d7d1707471a3674b8ae2b0d646705f02fb402ec78c5e20198c4509"),
    ),
    (
        bytes.fromhex("87f38152dd56c764d725963bbc247ed0a42c9c33385bb1d5629d9f50fef125b0"
                      "9dab45d6acb845b50153fe3ebf9962d32b37b4eee0ec51ccfe11888062ad2b0f"),
        bytes.fromhex("c98464ef4600c93f089d07f8191d4689cc152a1051719226575919edd35c8fbf"
                      "2f229a494cbd0e5a20b4d30ac3dd7d2dc5c6148ea046ead2ff039f0894366d08"),
        bytes.fromhex("a8c2d65a3eb66d199db52b44754af7a3673b8df75ef9d1e9cd9d7f3c93659d78"
                      "219085ed0689d0a640bfe093b024808805d041325dfb9da15e7bfdf147a29305"),
        bytes.fromhex("496b6437e773c7081d614cd6d5bdc174681423ad431ff7e9dc9e21384ad3bd37"
                      "7cd76e4e29f682e398c0617cd68ec823d1e40ccfb8d84658adc7fd1e2c60aa03"),
    ),
    (
        bytes.fromhex("db2eea00136179ad4daa588413ec7c9bdfa226105fe3ea6054d1d8df439c6f5b"
                      "523687203f06a01fc471db9beb13f61bdb2dedecfc9c497e48f4053597ece60a"),
        bytes.fromhex("5c0b7d00e88065d5db325d48e47d573e204a1bcb90ceb2f9920eab05853ecd83"
                      "e42480b34e7a75047cddb44ff8a586a536d0a71fdae4ead05af76395466ab700"),
        bytes.fromhex("c56ab69ae1cf50aeee0245d8076d24ce6e48d2412498280e76ff419a8847b94d"
                      "b41657bac24742a11cc49248771b3e6a526d12b7241b1744a9faf770366fb607"),
        bytes.fromhex("c3bcb6c6fd82dc8f4a9234609d4e6140a7c40a2474dc2cbb4526a66cf4c060b1"
                      "f41353c8541aa0a9bffdcacc474e01b01700e7d8fb648035afe5b8a194c49705"),
    ),
    (
        bytes.fromhex("0e0542d48768e55a4d708cbfd9f6260a4ad7415e01c06da2e88b45bb570d5737"
                      "862ad34a15cf550967a7da7abbad82ee3ebe82882246db77fdb91ac7bb68040e"),
        bytes.fromhex("6c013c621f5ae12137f5c00a731f457d9b5ebb3c61870d544183d38de12b47f5"
                      "2617f3704f05f11da48afc035c536dec0cd18679fe8409e1c3e88cfe700b9d00"),
        bytes.fromhex("cd2f090c5da28576046d0e753e5a7c6055129d88dde5521ca424bbcdf146d9aa"
                      "7afeb40e94bc5bf50cbcb08fa9dda9727dee268536c06929817f358d440dba08"),
        bytes.fromhex("ae4f8d118fff30c84f0a9c21e606dcabb4214367d1f6c9a77a3e06439c3ecf94"
                      "f4fc3366b382ddbba969aa21e9d6d9d4869ccbc32a0784c0ecf9b86952f6cb0a"),
    ),
    (
        bytes.fromhex("92effe685b8e32e7bc4a7e5f0e6fc7cdfd69f0250f994b7d5465af7f5678f240"
                      "1dbc9a6d53fddc7199f34cc6ac68ba5df9eae4dc7b21d10503d807a26168aa03"),
        bytes.fromhex("9d7808644cee03c6282dbf0d65c4caf247c18845089262e05fc82e001ce1d7cd"
                      "8ebfc142b29b2e6c98ad0414c6e974500b18dbb29182e0d715eeec0baf0e2308"),
        bytes.fromhex("330de55293cea43e523c02e08b6bf7bedd25b2f1b2a92d1e86b94065aefd0b3d"
                      "5862f2435df36c61d69bea0cce75b7e7613c7cfaa925537be11bf7171dee9a06"),
        bytes.fromhex("d2dec2f21eba70cef424085dff36baab461cf93f6fb6a672e3be3addec1bb827"
                      "bd373976db7657596dd9eb877d1fb8f6e1bd2b8f108effb5c25030606eb9060e"),
    ),
    (
        bytes.fromhex("b83c873a13834543893999f451f0a614ea2dac3ee33d090a491ccc90f5bdb8a0"
                      "fda000eb6c2b45764ef2f25add3273c7e7b541e2654eed78c4d17c197218a103"),
        bytes.fromhex("b6d405ba995856098f90f2bfba9fb780804836ecb7cb546d6f20c228d5d02faa"
                      "664c3fd546a38628e7f712a2068dc9d4aee88c0baee9f07fc5a662ca43815d07"),
        bytes.fromhex("1b9060de3eebdf35c1d6f0c083a831d3e1db96d690786960aeefd6f585c16df1"
                      "cd3a03774bb33195bf39e1ef67f6a0cf6356dacc30efed5264b0283a68cd1209"),
        bytes.fromhex("fb450ebf3480c8db04ce554ecbd4d7aa2bb37ac501749ea8f248046f7cecc620"
                      "4b500266ee630ab6c87f367a3d429391f1b71a4457958475611666ce3f8b1108"),
    ),
    (
        bytes.fromhex("0c8b1543194f721d12fc8523f1c9a5a0a6ffbe0a56e182eccaf09e6c48b305c7"
                      "040143298b4d1da8bbbec42faf6de589c120db0ecddd890b84c2ff5c67997c04"),
        bytes.fromhex("2a8e87c9073c3317b3cfc3c22ae9372b7964b20e6fbc5d7814770a4e9e5dfb13"
                      "035ba4589fac9a3840ec6e63f8fd7f959b7f4e21498e9670cecc5193b0ba0600"),
        bytes.fromhex("4431f0cd6f2b8b8b0a61333b99ce87bf71a1cf3314cca48964e7d02427d30a98"
                      "b2c258b48475818d80eeaed90f193df39ee54896bc65e4816a48dad26acde202"),
        bytes.fromhex("8a645b505c02a9d37904f6cd6ba949cb4d20619c1dbe03cc83f05a9bf4153f9a"
                      "7c0d48ef79fe6b877f514822883f4c6543759933a718c6d9205398c76521820c"),
    ),
    (
        bytes.fromhex("8de5c1058d612770c5a954398b8d08613610398cb99a5ffc304e23a003c11d2f"
                      "459bfed2853ddc43b8033d18ac1b29fb9697aef836494ccd093c8e90c989930b"),
        bytes.fromhex("c726096bb5e95283a76f6c96bc96150c0f61075ba93a9f91758501733d137464"
                      "9e027ed1183ca6e45259bec24db7f14dd0a53f1f290008ce88ef1ae6d627670c"),
        bytes.fromhex("d8f2739210eea1d57c9224fd6fe3d23c020e6874799074db261967c63d708df3"
                      "145ab0484776c8adb175f8a70f1bff12a55970c50ff92ad3218eabd3581d3f0f"),
        bytes.fromhex("ffb9e3e8a29e63bacf116fcfa2b0fe42ba475aeae13e9ab744521d7a0f07e501"
                      "8f9f17cf7d41dd02c605f93662c047fa2259a752a5ec21353948b03a7597970b"),
    ),
)
