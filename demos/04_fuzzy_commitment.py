"""Fuzzy commitment over Reed-Solomon: noisy fingerprints open, wrong ones don't.

A random salt is RS-encoded and XOR-masked with a fingerprint. Any
fingerprint within the code's correction radius (27 of 255 symbols for the
production code) unmasks a decodable word and the digest confirms the salt;
everything farther away is rejected.
"""

import numpy as np

from sienna.bits import random_bits
from sienna.commitment import commit, kdf, new_salt, open_commitment, serialize_commitment
from sienna.gf import FieldSpec, gf_mul
from sienna.rs import RsCodeSpec, standard_code

# Field arithmetic underneath it all
field = FieldSpec(8)
print(f"GF(2^8) under 0x11D: 0x02 * 0x80 = 0x{gf_mul(0x02, 0x80, field):02X}")

# A small code makes the correction radius easy to see
small = RsCodeSpec(FieldSpec(3), 7, 3)
codec = small.codec()
word = codec.encode([1, 0, 0])
print(f"RS(2^3,7,3): message [1,0,0] -> codeword {[int(s) for s in word]} (corrects t={small.t})")
corrupted = word.copy()
corrupted[1] ^= 5
corrupted[6] ^= 3
print(f"two corrupted symbols decode back to {[int(s) for s in codec.decode(corrupted)]}")
corrupted[3] ^= 6
beyond = codec.decode(corrupted)
beyond = beyond if beyond is None else [int(s) for s in beyond]
print(f"three corrupted symbols -> {beyond} (beyond t, digest would reject)")

# The production-size commitment
spec = standard_code()
print(f"\nproduction code: RS(2^8,255,201), {spec.codeword_bits}-bit codewords, "
      f"t={spec.t} symbols")

rng = np.random.default_rng(1)
salt = new_salt(spec, 2024)
fingerprint = random_bits(spec.codeword_bits, rng)
commitment = commit(salt, fingerprint, spec)
wire = serialize_commitment(commitment)
print(f"commitment wire size: {len(wire)} bytes (magic {wire[:4]!r})")

noisy = fingerprint.copy()
flip_symbols = rng.choice(255, size=27, replace=False)
for pos in flip_symbols:
    noisy[pos * 8 + rng.integers(0, 8)] ^= 1
outcome = open_commitment(commitment, noisy, spec)
print(f"open with 27 corrupted symbols: {outcome.status}")
assert np.array_equal(outcome.salt, salt)

stranger = random_bits(spec.codeword_bits, rng)
print(f"open with an unrelated fingerprint: {open_commitment(commitment, stranger, spec).status}")

key = kdf(b"\x00" * 32, salt)
print(f"key evolution: kdf(k, salt) -> {key.hex()[:16]}...")
