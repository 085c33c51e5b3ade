"""Test-only reference implementations of the paper's three numeric cores.

``src/repro`` ships one implementation of each — the compiled inference
engine and the fused training kernels.  The loops they replaced live
here, unchanged, as the oracle the parity tests compare against:

* :mod:`reference.progressive` — progressive sampling (Section 4.2);
* :mod:`reference.dps` — differentiable progressive sampling with
  Gumbel-Softmax (Algorithm 2);
* :mod:`reference.uae` — ``ReferenceUAE``, a ``UAE`` whose data NLL
  (Eq. 2) and query loss run the two loops above;
* :mod:`reference.parity` — gradient-comparison helpers.

Importable as ``reference`` because pytest puts ``tests/`` on
``sys.path``.  Nothing under ``src/`` may import it.
"""
