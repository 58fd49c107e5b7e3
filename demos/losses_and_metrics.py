"""The training objective and the evaluation metric, by example.

The denoiser trains on a two-sided SDR loss, soft-clipped so no single
utterance can dominate a batch, optionally mixed with a speaker
cross-entropy. Evaluation uses scale-invariant SDR. The closed-form
behaviors shown here are the same identities the acceptance tests pin.
"""

import numpy as np

from sase.losses import LossConfig, multitask_loss, sdr_loss, si_sdr


def main():
    rng = np.random.default_rng(1)
    s = rng.normal(size=16000)
    s *= 0.3 / np.sqrt(np.mean(s ** 2))  # speech stand-in at rms 0.3
    n = rng.normal(size=16000)
    n *= 0.3 / np.sqrt(np.mean(n ** 2))
    x = s + n
    beta = LossConfig().beta

    # A perfect estimate saturates both clipped terms: the floor is -beta.
    loss, term_s, term_n = sdr_loss(s, s.copy(), x, beta)
    print(f"perfect estimate: loss {float(loss.data):+.4f} (floor {-beta})")

    # The mixture itself scores zero on both sides at 0 dB SNR.
    loss, term_s, term_n = sdr_loss(s, x.copy(), x, beta)
    print(f"no-op estimate: loss {float(loss.data):+.4f}"
          f" (speech {term_s:+.2f} dB, noise {term_n:+.2f} dB)")

    # Even a hostile estimate stays inside (-beta, beta) thanks to the clip.
    wild = 1e4 * rng.normal(size=16000)
    loss, _, _ = sdr_loss(s, wild, x, beta)
    print(f"wild estimate: loss {float(loss.data):+.4f}, bound {beta}")

    # The multitask wrapper adds alpha * cross-entropy when a speaker
    # posterior is supplied.
    posterior = np.array([0.1, 0.7, 0.2])
    breakdown = multitask_loss(s, x.copy(), x, 1, posterior,
                               LossConfig(alpha=0.5))
    print(f"multitask: total {float(breakdown.total.data):+.4f},"
          f" ce {breakdown.cross_entropy:.4f}")

    # SI-SDR ignores gain; orthogonal noise at a tenth of the energy is
    # exactly 10 dB.
    y = s + 0.5 * n
    print(f"si_sdr(s, y) {si_sdr(s, y):+.3f} dB,"
          f" si_sdr(s, 20 y) {si_sdr(s, 20 * y):+.3f} dB")
    e = n - (np.dot(n, s) / np.dot(s, s)) * s
    e *= np.sqrt(np.dot(s, s) / (10.0 * np.dot(e, e)))
    print(f"orthogonal tenth-energy noise: {si_sdr(s, s + e):+.3f} dB")


if __name__ == "__main__":
    main()
