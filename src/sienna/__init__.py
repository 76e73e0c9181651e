"""Context-based device pairing from breathing signals.

The stack, bottom to top:

- :mod:`sienna.gf`, :mod:`sienna.rs` — GF(2^K) arithmetic and a
  bounded-distance Reed-Solomon codec with error-count-independent
  decoding time.
- :mod:`sienna.commitment` — fuzzy commitment binding a random salt to a
  noisy fingerprint, plus the hash and key-derivation primitives.
- :mod:`sienna.breathing` — synthetic chest displacement and its radar
  (quadrature Doppler) and respiratory-belt observations.
- :mod:`sienna.ica` — JADE blind source separation for multi-person rooms.
- :mod:`sienna.fingerprint` — level-crossing quantization into binary
  fingerprints comparable in Hamming space.
- :mod:`sienna.channel` — M-QAM symbol channel with dialog-codes friendly
  jamming, the factor-9 jamming-power ladder, and the analytic BER and
  secrecy-capacity calculators.
- :mod:`sienna.protocol` — the key-evolution pairing protocol, message
  wire formats, device pipelines, and adversary harnesses.
- :mod:`sienna.randomness`, :mod:`sienna.bench`, :mod:`sienna.cli` —
  statistical tests, experiment scenarios, and the command-line runner.
"""

from .breathing import (
    DisplacementSeries,
    Scene,
    SubjectProfile,
    arctan_demodulate,
    belt_observe,
    linear_demodulate,
    mix_scene,
    radar_observe,
    sample_profile,
    synth_displacement,
)
from .channel import (
    ChannelParams,
    JammingLadder,
    QamSpec,
    ber_theoretical,
    ladder_levels,
    secrecy_capacity,
)
from .commitment import Commitment, OpenOutcome, commit, hash256, kdf, new_salt, open_commitment, xor_fold
from .fingerprint import extract, hamming_similarity, qtz, segment_pad
from .gf import FieldSpec, gf_mul
from .ica import jade_separate, match_sources, whiten
from .protocol import (
    BeltDevice,
    PipelineConfig,
    PrmsDevice,
    attack,
    observe_scene,
    run_pairing,
    two_subject_scene,
)
from .randomness import randomness_tests
from .rs import RsCodeSpec, standard_code

__version__ = "0.1.0"
