"""A fixed reference load, independent of phasebus, that ``run.py`` times as
a fresh process between measured children to follow the host's speed.

It does a little of each kind of work the experiments do: interpreter and
numpy start-up, a pure-Python loop, many small numpy operations on a
1024-amplitude vector, and one dense symmetric eigendecomposition. Its
inputs are fixed, so its running time changes only with the host.
"""

import numpy as np

x = 0
table = {}
for j in range(200000):
    x += j * j
    table[j & 1023] = x

rng = np.random.default_rng(0)
v = rng.standard_normal(1024) + 0j
gate = rng.standard_normal((2, 2)) + 0j
for _ in range(2000):
    v = np.einsum("ab,ibj->iaj", gate, v.reshape(32, 2, 16)).reshape(-1)
    v /= np.linalg.norm(v)

a = rng.standard_normal((600, 600))
np.linalg.eigh(a + a.T)
