"""The one source of SHA-256 in veesys.

``hashlib`` loads OpenSSL's libcrypto on import, a few MB of resident memory
in every process, for a hash that CPython also builds in: ``_sha2`` from
Python 3.12, ``_sha256`` before.  Their digests are the same; ``hashlib``
is the fallback where neither module exists.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256"]
