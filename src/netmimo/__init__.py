"""Network-MIMO simulation toolkit.

Simulates a network of K co-located transmitter/receiver pairs in the plane
where each transmitter precodes from its own, individually quantized estimate
of the full channel matrix. Provides geometry-aware bit-allocation policies,
distributed zero-forcing, Monte-Carlo evaluation of ergodic rates and their
high-SNR slopes, and a numerical verification suite for the asymptotic
machinery behind the allocation formulas.
"""

__version__ = "0.1.0"
