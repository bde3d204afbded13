"""The scalar SplitMix64 stream: one 64-bit output, one uniform value or one
unit vector per call, in plain Python.  It is the reference that
``SplitMix64.rows`` is compared with; a row of parts is these calls made
part by part, and a batch of rows is the rows drawn one after another."""

import numpy as np

from sprayform.report import SplitMix64

_MASK = (1 << 64) - 1


class ScalarSplitMix64(SplitMix64):
    """``SplitMix64`` with its draws one at a time; the row draws of the
    package, from the same state, stay available."""

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo=0.0, hi=1.0):
        u = self.next_u64() >> 11  # 53 bits
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def direction(self, dim):
        """Unit vector; Gaussian components via Box-Muller on uniforms."""
        out = np.empty(dim)
        i = 0
        while i < dim:
            u1 = max(self.uniform(), 1e-300)
            u2 = self.uniform()
            r = np.sqrt(-2.0 * np.log(u1))
            out[i] = r * np.cos(2 * np.pi * u2)
            if i + 1 < dim:
                out[i + 1] = r * np.sin(2 * np.pi * u2)
            i += 2
        norm = np.linalg.norm(out)
        return out / (norm if norm > 0 else 1.0)

    def scalar_rows(self, count, *parts):
        """``rows``' layout drawn one call at a time: per row, each part in
        order, a box as one ``uniform`` per interval and a dim as one
        ``direction``."""
        out = [np.empty((count, part if np.ndim(part) == 0 else len(part)))
               for part in parts]
        for i in range(count):
            for block, part in zip(out, parts):
                block[i] = (self.direction(part) if np.ndim(part) == 0
                            else [self.uniform(lo, hi) for lo, hi in part])
        return out
