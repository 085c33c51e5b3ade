"""Test-only reference implementations of the paper's three numeric cores
(and of the MSCN baseline and the planner's star-schema connectivity
rule).

``src/repro`` ships one implementation of each — the compiled inference
engine and the fused training kernels, all on one ResMADE forward
(:mod:`repro.nn.trunk`), and hand-written gradients over array
parameters with no autograd graph.  The code they replaced lives here
as the oracle the parity tests compare against:

* :mod:`reference.tensor` — the autograd engine every graph below is
  built on; :func:`~reference.tensor.leaf` reads a shipped
  ``Parameter`` into a graph and passes its gradient back;
* :mod:`reference.modules` — the layers' graph forwards (``linear``,
  ``masked_linear``, ``residual_block``, ``embedding``,
  ``soft_lookup``);
* :mod:`reference.mscn` — the MSCN set-MLP's graph forward;
* :mod:`reference.made` — the ResMADE numpy forward, graph forward
  (``hidden_tensor``) and differentiable encodings (the trunk kernel's
  oracle);
* :mod:`reference.progressive` — progressive sampling (Section 4.2);
* :mod:`reference.dps` — differentiable progressive sampling with
  Gumbel-Softmax (Algorithm 2), and the graph REINFORCE surrogate;
* :mod:`reference.gumbel` — graph Gumbel-Softmax sampling (Algorithm 1);
* :mod:`reference.losses` — graph q-error / MSE / MSLE losses;
* :mod:`reference.fused` — ``LoopDataLoss``, the fused data loss with
  the per-column cross-entropy loop its one-pass kernel replaced;
* :mod:`reference.uae` — ``ReferenceUAE``, a ``UAE`` whose data NLL
  (Eq. 2) and query loss run the two loops above;
* :mod:`reference.parity` — gradient-comparison helpers;
* :mod:`reference.planner` — the star-schema connectivity rule the
  planner's ``JoinGraph`` is checked against.

Importable as ``reference`` because pytest puts ``tests/`` on
``sys.path``.  Nothing under ``src/`` may import it.
"""
