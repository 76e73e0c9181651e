"""Context-based device pairing from breathing signals.

The stack, bottom to top:

- :mod:`sienna.gf`, :mod:`sienna.rs` — GF(2^K) arithmetic and a
  bounded-distance Reed-Solomon codec.
- :mod:`sienna.commitment` — fuzzy commitment binding a random salt to a
  noisy fingerprint, plus the hash and key-derivation primitives.
- :mod:`sienna.breathing` — synthetic chest displacement and its radar
  (quadrature Doppler) and respiratory-belt observations.
- :mod:`sienna.ica` — JADE blind source separation of up to two people.
- :mod:`sienna.fingerprint` — level-crossing quantization into binary
  fingerprints comparable in Hamming space.
- :mod:`sienna.channel` — M-QAM symbol channel with dialog-codes friendly
  jamming, the factor-9 jamming-power ladder, and the analytic BER and
  secrecy-capacity calculators.
- :mod:`sienna.protocol` — the key-evolution pairing protocol, message
  wire formats, device pipelines, and the insider attack harness.
- :mod:`sienna.randomness`, :mod:`sienna.bench`, :mod:`sienna.cli` —
  statistical tests, experiment scenarios, and the command-line runner.

Import each layer from its module; the package itself exports only
:func:`~sienna.rs.standard_code`, the code both devices agree on.
"""

from .rs import standard_code

__version__ = "0.1.0"
